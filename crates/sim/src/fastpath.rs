//! The shared fast-path scheduling kernel.
//!
//! A specialized re-implementation of the discrete-event engine —
//! packed 16-byte events in a 4-ary heap, per-processor
//! compute-completion registers, precomputed all-pairs routes, and
//! fully reused buffers — that computes makespans several times faster
//! than [`simulate`](crate::simulate) while staying bit-identical. The
//! general engine pays, per call, a fresh route table, a fresh
//! `BinaryHeap`, Gantt spans, statistics and a fully allocated
//! [`SimResult`](crate::SimResult), all to read one number.
//!
//! The kernel has two clients:
//!
//! * `KernelState` + the `Driver` trait (crate-private) — the engine
//!   state and event loop, parameterized over the *dispatch policy*.
//!   [`FixedEval`](crate::FixedEval) plugs in its waiting-list dispatch
//!   for fixed mappings; the fast path plugs in any [`OnlineScheduler`]
//!   behind the same epoch contract the general engine uses. There is
//!   exactly **one** implementation of the event heap, the route
//!   flattening and the σ/τ/transfer plumbing in the workspace.
//! * [`SimScratch`] + [`simulate_makespans`] — the public fast-path
//!   entry point: when a caller needs only makespans (no Gantt, no
//!   trace, no statistics), it runs the kernel out of a reusable
//!   scratch instead of the general engine, for a whole set of
//!   schedulers at once. The schedulers share one kernel state while
//!   their decisions agree and fork where they part
//!   ([`simulate_makespan`] is the one-scheduler case). Makespans are
//!   **bit-identical** to [`simulate`](crate::simulate) — same events,
//!   same tie-breaking, same σ/τ preemption and channel-FIFO
//!   contention, and every scheduler observes byte-for-byte the same
//!   [`EpochContext`] sequence — enforced by the lockstep oracle in
//!   `tests/lockstep.rs`, the proptest equivalence suite in
//!   `tests/proptests.rs` and the allocation-regression test in
//!   `tests/alloc.rs`.
//!
//! A [`SimScratch`] additionally caches route tables keyed by the
//! topology's channel matrix, so a worker thread sweeping tournament
//! cells across a rotation of host architectures rebuilds each route
//! table once, not once per cell. After warm-up, evaluating an
//! already-seen `(graph size, topology)` shape performs **zero heap
//! allocation**.
//!
//! The one intentional divergence from the general engine: stale
//! (preempted) completion timers never enter the event queue here, so
//! the `max_events` safety counter advances slightly slower than the
//! engine's on preemption-heavy runs. `SimError::EventLimit` can
//! therefore fire at different points; every other error and every
//! makespan agrees.

use std::collections::VecDeque;
use std::ops::DerefMut;

use anneal_graph::{TaskGraph, TaskId};
use anneal_topology::{CommParams, ProcId, RouteTable, Topology};

use crate::engine::{link_occupancy_time, SimConfig, SimError};
use crate::scheduler::{EpochContext, OnlineScheduler};
use crate::SimTime;

pub(crate) const NONE: u32 = u32::MAX;
const NOT_RUNNING: SimTime = SimTime::MAX;

/// A heap entry is `(time, rest)` with
/// `rest = seq << 32 | kind << 30 | arg`: 16 bytes total, ordered by
/// `(time, seq)` since `seq` occupies the high bits — so pops replay
/// the engine's insertion-order tie-breaking exactly. `arg` is a
/// processor index for `OverheadDone` and a message (edge) id for
/// `TransferDone`; both fit 30 bits by the assertions at kernel setup.
/// `seq` is a per-run push counter; it cannot wrap because a run
/// processes at most `max_events` (and pushes at most a small multiple
/// of that before erroring).
type HeapEv = (SimTime, u64);

const KIND_OVERHEAD_DONE: u64 = 1;
const KIND_TRANSFER_DONE: u64 = 2;
const ARG_MASK: u64 = (1 << 30) - 1;

#[inline]
fn pack(seq: u64, kind: u64, arg: u32) -> u64 {
    debug_assert!(seq < (1 << 32) && (arg as u64) <= ARG_MASK);
    seq << 32 | kind << 30 | arg as u64
}

/// A 4-ary min-heap over `(time, rest)` pairs.
///
/// The event queue is the hottest structure in the kernel (every
/// simulated event is one push and one pop); a 4-ary layout halves the
/// tree depth of the resident ~10–40 events and keeps each node's
/// children in one cache line, which measures materially faster than
/// `std::collections::BinaryHeap` here. Ordering is the total order on
/// `(time, seq)` (seq lives in the high bits of `rest`), so pops
/// reproduce the engine's insertion-order tie-breaking exactly.
#[derive(Debug, Default)]
struct EventHeap {
    v: Vec<HeapEv>,
}

impl EventHeap {
    fn clear(&mut self) {
        self.v.clear();
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.v.first().map(|e| e.0)
    }

    #[inline]
    fn peek(&self) -> Option<&HeapEv> {
        self.v.first()
    }

    #[inline]
    fn len(&self) -> usize {
        self.v.len()
    }

    /// Guarantees capacity for `cap` resident events.
    fn reserve_total(&mut self, cap: usize) {
        if self.v.capacity() < cap {
            self.v.reserve(cap - self.v.len());
        }
    }

    #[inline]
    fn push(&mut self, x: HeapEv) {
        let mut i = self.v.len();
        self.v.push(x);
        while i > 0 {
            let parent = (i - 1) >> 2;
            if self.v[parent] <= x {
                break;
            }
            self.v[i] = self.v[parent];
            i = parent;
        }
        self.v[i] = x;
    }

    #[inline]
    fn pop(&mut self) -> Option<HeapEv> {
        let len = self.v.len();
        if len == 0 {
            return None;
        }
        let top = self.v[0];
        let x = self.v[len - 1];
        self.v.truncate(len - 1);
        let len = len - 1;
        if len > 0 {
            let mut i = 0;
            loop {
                let first = (i << 2) + 1;
                if first >= len {
                    break;
                }
                let last = (first + 4).min(len);
                let mut m = first;
                for c in first + 1..last {
                    if self.v[c] < self.v[m] {
                        m = c;
                    }
                }
                if self.v[m] >= x {
                    break;
                }
                self.v[i] = self.v[m];
                i = m;
            }
            self.v[i] = x;
        }
        Some(top)
    }
}

/// σ/τ overhead kinds (send, intermediate route, destination receive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OhKind {
    Send,
    Route,
    Receive,
}

#[derive(Debug, Clone, Copy)]
struct Oh {
    kind: OhKind,
    dur: SimTime,
    msg: u32,
}

/// Mutable per-processor state (the engine's `Proc`, minus
/// statistics). Reset in place between runs, so its warm queue buffers
/// are kept.
#[derive(Debug, Default)]
pub(crate) struct ProcState {
    pub(crate) assigned: u32,
    task: u32,
    remaining: SimTime,
    running_since: SimTime,
    cur_oh: Option<Oh>,
    incoming: VecDeque<Oh>,
    sends: VecDeque<Oh>,
    /// The compute-completion *register*: when a task is running, the
    /// time it will finish (`NOT_RUNNING` when idle or preempted) and
    /// the sequence number drawn when it was armed. Task completions
    /// never enter the event heap — the main loop merges the heap with
    /// these registers by `(time, seq)`, which yields exactly the order
    /// a heap-resident `TaskDone` would have had (the register draws
    /// its seq from the same counter a push would), while a preemption
    /// simply disarms the register instead of leaving a stale event to
    /// pop. `OverheadDone` needs no counterpart because nothing can
    /// preempt a running overhead (`pump` is a no-op while `cur_oh` is
    /// occupied), so overhead timers are never stale.
    done_at: SimTime,
    done_seq: u64,
}

impl ProcState {
    fn reset(&mut self) {
        self.assigned = NONE;
        self.task = NONE;
        self.remaining = 0;
        self.running_since = NOT_RUNNING;
        self.cur_oh = None;
        self.incoming.clear();
        self.sends.clear();
        self.done_at = NOT_RUNNING;
        self.done_seq = 0;
    }

    /// Copies `src` into `self`, reusing `self`'s queue buffers.
    fn copy_from(&mut self, src: &ProcState) {
        let ProcState {
            assigned,
            task,
            remaining,
            running_since,
            cur_oh,
            incoming,
            sends,
            done_at,
            done_seq,
        } = src;
        self.assigned = *assigned;
        self.task = *task;
        self.remaining = *remaining;
        self.running_since = *running_since;
        self.cur_oh = *cur_oh;
        self.incoming.clone_from(incoming);
        self.sends.clone_from(sends);
        self.done_at = *done_at;
        self.done_seq = *done_seq;
    }
}

/// Channel state, reset in place like [`ProcState`].
#[derive(Debug, Default)]
struct ChanState {
    busy: bool,
    queue: VecDeque<u32>,
}

/// Message state, addressed by the *predecessor-edge id* of the edge it
/// carries (`pred_base[task] + k` for the task's `k`-th incoming edge).
/// An edge carries at most one message per run, so one slot per edge,
/// sized at reset, holds every message without a free list; a slot is
/// written at assignment before it is read.
#[derive(Debug, Clone, Copy, Default)]
struct MsgMeta {
    dest_task: u32,
    src: u32,
    dest: u32,
    weight: SimTime,
}

/// Flattened all-pairs routes: for pair `s*P + d`, `route_procs` holds
/// the full hop chain (endpoints included) and `route_chans` the
/// channel of each hop. One indexed load per hop instead of a
/// `channel_of` lookup and a `Vec<ProcId>` route allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatRoutes {
    num_procs: usize,
    proc_off: Vec<u32>,
    chan_off: Vec<u32>,
    route_procs: Vec<u32>,
    route_chans: Vec<u32>,
}

impl FlatRoutes {
    /// Flattens a prebuilt route table over `topo`.
    pub(crate) fn build(topo: &Topology, routes: &RouteTable) -> Self {
        let mut out = FlatRoutes::default();
        out.rebuild(topo, routes);
        out
    }

    /// Re-flattens in place, reusing the buffers.
    #[expect(
        clippy::expect_used,
        reason = "routes come from the routing table, so consecutive hops share a channel"
    )]
    fn rebuild(&mut self, topo: &Topology, routes: &RouteTable) {
        let np = topo.num_procs();
        self.num_procs = np;
        self.proc_off.clear();
        self.chan_off.clear();
        self.route_procs.clear();
        self.route_chans.clear();
        self.proc_off.push(0);
        self.chan_off.push(0);
        for s in 0..np {
            for d in 0..np {
                let path = routes.route(ProcId::from_index(s), ProcId::from_index(d));
                for w in path.windows(2) {
                    let ch = topo
                        .channel_of(w[0], w[1])
                        .expect("route hops are adjacent");
                    self.route_chans.push(ch.0);
                }
                self.route_procs.extend(path.iter().map(|p| p.raw()));
                self.proc_off.push(self.route_procs.len() as u32);
                self.chan_off.push(self.route_chans.len() as u32);
            }
        }
    }

    #[inline]
    fn hop_proc(&self, src: u32, dst: u32, hop: usize) -> u32 {
        let pair = src as usize * self.num_procs + dst as usize;
        self.route_procs[self.proc_off[pair] as usize + hop]
    }

    #[inline]
    fn hop_chan(&self, src: u32, dst: u32, hop: usize) -> u32 {
        let pair = src as usize * self.num_procs + dst as usize;
        self.route_chans[self.chan_off[pair] as usize + hop]
    }
}

/// The per-run inputs of a kernel run: everything immutable the event
/// loop needs. Borrowed separately from [`KernelState`] so a scratch
/// can persist across instances.
#[derive(Debug)]
pub(crate) struct KernelCtx<'a> {
    pub(crate) g: &'a TaskGraph,
    pub(crate) params: &'a CommParams,
    pub(crate) comm_enabled: bool,
    pub(crate) max_events: u64,
    pub(crate) routes: &'a FlatRoutes,
    /// `pred_base[t]` = first predecessor-edge id of task `t` (edge ids
    /// number the incoming edges of all tasks consecutively);
    /// `pred_base[n]` = total predecessor-edge count.
    pub(crate) pred_base: &'a [u32],
}

/// The dispatch policy and bookkeeping hooks of a kernel run.
///
/// The kernel owns the event plumbing (σ/τ overheads, channel FIFO,
/// preemption, completion registers); a driver decides **which ready
/// task each idle processor takes** at an epoch, and may mirror state
/// transitions for its own bookkeeping. `FixedEval`'s driver keeps
/// per-processor waiting lists; the fast path's driver adapts any
/// [`OnlineScheduler`].
pub(crate) trait Driver {
    /// Dispatch decisions for the current epoch: inspect `k` (notably
    /// `k.ready`, sorted by task id, and `k.procs[p].assigned == NONE`
    /// for idleness) and push `(task, proc)` pairs. Only called when at
    /// least one task is ready. Pairs must be valid: ready tasks, idle
    /// processors, pairwise distinct.
    fn dispatch(
        &mut self,
        k: &KernelState,
        ctx: &KernelCtx<'_>,
        out: &mut Vec<(u32, u32)>,
    ) -> Result<(), SimError>;

    /// Task `t` was assigned to processor `q` (removed from the ready
    /// set).
    fn task_assigned(&mut self, _t: u32, _q: u32) {}

    /// Task `t` became ready (inserted into the ready set).
    fn task_ready(&mut self, _t: u32) {}

    /// Task `t` finished at time `now`.
    fn task_finished(&mut self, _t: u32, _now: SimTime) {}
}

/// The mutable engine state of one run: every buffer is reused across
/// runs (and, through [`SimScratch`], across instances). A
/// transliteration of the general engine's state minus Gantt spans and
/// statistics.
#[derive(Debug, Default)]
pub(crate) struct KernelState {
    now: SimTime,
    heap: EventHeap,
    seq: u64,
    events: u64,
    /// Dispatch epochs run. Plain always-on counters (this and the two
    /// below): one integer op per occurrence, no allocation, no effect
    /// on event ordering or RNG streams, so they stay live even with
    /// the recorder off.
    epochs: u64,
    /// Most events ever resident in the heap this run (completion
    /// registers excluded — they never enter the heap).
    heap_hwm: u64,
    /// Cross-processor messages created (= predecessor edges that
    /// actually traveled; same-processor dependencies are free).
    messages: u64,
    epoch_pending: bool,
    /// Logical processor count of the current run. `procs` never
    /// shrinks (shrinking would free warm queue buffers); entries at
    /// `num_procs..` are leftovers from a larger instance and must not
    /// be read — use [`KernelState::procs`] for iteration.
    num_procs: usize,
    /// Logical channel count of the current run (same never-shrink
    /// rule as `num_procs`).
    num_channels: usize,
    procs: Vec<ProcState>,
    channels: Vec<ChanState>,
    msgs: Vec<MsgMeta>,
    msg_hop: Vec<u32>,
    placement: Vec<u32>,
    unfinished: Vec<u32>,
    pending: Vec<u32>,
    /// Ready, unassigned tasks; sorted by id.
    pub(crate) ready: Vec<u32>,
    finished: u32,
    max_finish: SimTime,
    assign_buf: Vec<(u32, u32)>,
    /// Cached minimum over the per-proc completion registers as
    /// `(done_at, done_seq, proc)`; `None` = no register armed. Marked
    /// stale (`reg_cache_valid = false`) whenever the cached processor
    /// disarms.
    reg_cache: Option<(SimTime, u64, u32)>,
    reg_cache_valid: bool,
}

impl KernelState {
    /// Resets to the empty time-0 engine state for a graph with
    /// `num_procs` processors, `num_channels` channels and
    /// `num_pred_edges` predecessor edges. Buffers are resized (growing
    /// allocates; an already-seen shape does not).
    pub(crate) fn reset(
        &mut self,
        g: &TaskGraph,
        num_procs: usize,
        num_channels: usize,
        num_pred_edges: usize,
    ) {
        self.now = 0;
        self.heap.clear();
        self.seq = 0;
        self.events = 0;
        self.epochs = 0;
        self.heap_hwm = 0;
        self.messages = 0;
        self.epoch_pending = true;
        // Buffers of buffers only grow: truncating would free the
        // deques a previous (larger) instance warmed up. Queue and heap
        // capacities are reserved to their exact worst cases up front —
        // every message (= predecessor edge) occupies at most one
        // overhead queue and at most one channel queue at a time, and
        // the heap holds at most one `OverheadDone` per processor plus
        // one `TransferDone` per channel — so a run can never allocate
        // mid-flight, no matter what states it reaches.
        self.num_procs = num_procs;
        self.num_channels = num_channels;
        if self.procs.len() < num_procs {
            self.procs.resize_with(num_procs, ProcState::default);
        }
        for pr in &mut self.procs[..num_procs] {
            pr.reset();
            pr.incoming.reserve(num_pred_edges);
            pr.sends.reserve(num_pred_edges);
        }
        if self.channels.len() < num_channels {
            self.channels.resize_with(num_channels, ChanState::default);
        }
        for ch in &mut self.channels[..num_channels] {
            ch.busy = false;
            ch.queue.clear();
            ch.queue.reserve(num_pred_edges);
        }
        self.heap.reserve_total(num_procs + num_channels);
        self.msgs.clear();
        self.msgs.resize(num_pred_edges, MsgMeta::default());
        self.msg_hop.clear();
        self.msg_hop.resize(num_pred_edges, 0);
        let n = g.num_tasks();
        self.placement.clear();
        self.placement.resize(n, NONE);
        self.pending.clear();
        self.pending.resize(n, 0);
        self.unfinished.clear();
        self.unfinished.reserve(n);
        self.ready.clear();
        self.ready.reserve(n);
        self.assign_buf.reserve(num_procs);
        for t in g.tasks() {
            let d = g.in_degree(t) as u32;
            self.unfinished.push(d);
            if d == 0 {
                self.ready.push(t.index() as u32);
            }
        }
        self.finished = 0;
        self.max_finish = 0;
        self.assign_buf.clear();
        self.reg_cache_valid = false;
    }

    /// Copies `src`'s run state into `self`, reusing `self`'s buffers:
    /// a lockstep fork parks the running state this way, and a resume
    /// restores a parked one. Buffers never shrink, and a queue grows
    /// only to what `src` holds, so a parked state stays live-sized
    /// while the running one keeps its worst-case reservations. The
    /// dispatch buffer (`assign_buf`) is scratch, not state, and is left
    /// alone.
    fn copy_from(&mut self, src: &KernelState) {
        let KernelState {
            now,
            heap,
            seq,
            events,
            epochs,
            heap_hwm,
            messages,
            epoch_pending,
            num_procs,
            num_channels,
            procs,
            channels,
            msgs,
            msg_hop,
            placement,
            unfinished,
            pending,
            ready,
            finished,
            max_finish,
            assign_buf: _,
            reg_cache,
            reg_cache_valid,
        } = src;
        self.now = *now;
        self.heap.v.clone_from(&heap.v);
        self.seq = *seq;
        self.events = *events;
        self.epochs = *epochs;
        self.heap_hwm = *heap_hwm;
        self.messages = *messages;
        self.epoch_pending = *epoch_pending;
        self.num_procs = *num_procs;
        self.num_channels = *num_channels;
        if self.procs.len() < *num_procs {
            self.procs.resize_with(*num_procs, ProcState::default);
        }
        for (d, s) in self.procs.iter_mut().zip(&procs[..*num_procs]) {
            d.copy_from(s);
        }
        if self.channels.len() < *num_channels {
            self.channels.resize_with(*num_channels, ChanState::default);
        }
        for (d, s) in self.channels.iter_mut().zip(&channels[..*num_channels]) {
            d.busy = s.busy;
            d.queue.clone_from(&s.queue);
        }
        self.msgs.clone_from(msgs);
        self.msg_hop.clone_from(msg_hop);
        self.placement.clone_from(placement);
        self.unfinished.clone_from(unfinished);
        self.pending.clone_from(pending);
        self.ready.clone_from(ready);
        self.finished = *finished;
        self.max_finish = *max_finish;
        self.reg_cache = *reg_cache;
        self.reg_cache_valid = *reg_cache_valid;
    }

    /// The current run's processors (excluding grown-but-unused
    /// leftover slots).
    #[inline]
    pub(crate) fn procs(&self) -> &[ProcState] {
        &self.procs[..self.num_procs]
    }

    /// The main event loop; a transliteration of the general engine's
    /// `run` with dispatch delegated to the driver.
    #[expect(
        clippy::expect_used,
        reason = "`reg` was checked Some on the use_reg branches"
    )]
    pub(crate) fn run<D: Driver>(
        &mut self,
        ctx: &KernelCtx<'_>,
        driver: &mut D,
    ) -> Result<SimTime, SimError> {
        loop {
            let reg = self.min_register();
            if self.epoch_pending {
                let heap_next = self.heap.peek_time();
                let next = match (heap_next, reg) {
                    (Some(h), Some((r, _, _))) => Some(h.min(r)),
                    (h, r) => h.or(r.map(|(t, _, _)| t)),
                };
                if next.is_none_or(|t| t > self.now) {
                    self.epoch_pending = false;
                    self.epochs += 1;
                    self.run_epoch(ctx, driver)?;
                    continue;
                }
            }
            // Pop the global (time, seq) minimum across the event heap
            // and the completion registers — exactly the order one
            // merged heap would produce.
            let use_reg = match (self.heap.peek(), reg) {
                (Some(&(ht, hr)), Some((rt, rs, _))) => (rt, rs) < (ht, hr >> 32),
                (None, Some(_)) => true,
                _ => false,
            };
            let (time, rest) = if use_reg {
                let (rt, _, rp) = reg.expect("register selected");
                self.procs[rp as usize].done_at = NOT_RUNNING;
                self.reg_cache_valid = false;
                (rt, None)
            } else {
                match self.heap.pop() {
                    Some((t, r)) => (t, Some(r)),
                    None => break,
                }
            };
            self.events += 1;
            if self.events > ctx.max_events {
                return Err(SimError::EventLimit);
            }
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            match rest {
                None => {
                    let (_, _, rp) = reg.expect("register selected");
                    self.on_task_done(rp, ctx, driver);
                }
                Some(rest) => {
                    let arg = (rest & ARG_MASK) as u32;
                    if (rest >> 30) & 0b11 == KIND_OVERHEAD_DONE {
                        self.on_overhead_done(arg, ctx);
                    } else {
                        self.on_transfer_done(arg, ctx);
                    }
                }
            }
        }
        if (self.finished as usize) < ctx.g.num_tasks() {
            let idle = self.procs().iter().filter(|p| p.assigned == NONE).count();
            return Err(SimError::Deadlock {
                time: self.now,
                ready: self.ready.len(),
                idle,
            });
        }
        Ok(self.max_finish)
    }

    #[inline]
    fn push_ev(&mut self, time: SimTime, kind: u64, arg: u32) {
        self.heap.push((time, pack(self.seq, kind, arg)));
        self.seq += 1;
        self.heap_hwm = self.heap_hwm.max(self.heap.len() as u64);
    }

    /// Dispatch epoch: the driver picks assignments, the kernel applies
    /// them. The driver is only consulted when a task is ready,
    /// matching the general engine's early return.
    fn run_epoch<D: Driver>(
        &mut self,
        ctx: &KernelCtx<'_>,
        driver: &mut D,
    ) -> Result<(), SimError> {
        let mut buf = std::mem::take(&mut self.assign_buf);
        buf.clear();
        let res = if self.ready.is_empty() {
            Ok(())
        } else {
            driver.dispatch(self, ctx, &mut buf)
        };
        self.assign_buf = buf;
        if res.is_ok() {
            self.apply_dispatch(ctx, driver);
        }
        res
    }

    /// Applies the validated dispatch held in `assign_buf`.
    fn apply_dispatch<D: Driver>(&mut self, ctx: &KernelCtx<'_>, driver: &mut D) {
        let buf = std::mem::take(&mut self.assign_buf);
        for &(t, p) in &buf {
            self.assign(t, p, ctx, driver);
        }
        self.assign_buf = buf;
    }

    #[expect(clippy::expect_used, reason = "schedulers only assign ready tasks")]
    fn assign<D: Driver>(&mut self, t: u32, q: u32, ctx: &KernelCtx<'_>, driver: &mut D) {
        self.placement[t as usize] = q;
        self.procs[q as usize].assigned = t;
        let pos = self.ready.binary_search(&t).expect("task was ready");
        self.ready.remove(pos);
        driver.task_assigned(t, q);

        let g = ctx.g;
        let tid = TaskId::from_index(t as usize);
        let mut pending = 0u32;
        if ctx.comm_enabled {
            let sigma = ctx.params.sigma;
            for (k, e) in g.predecessors(tid).iter().enumerate() {
                let src = self.placement[e.target.index()];
                debug_assert!(src != NONE, "predecessor finished");
                if src == q {
                    continue;
                }
                let msg_id = ctx.pred_base[t as usize] + k as u32;
                self.msgs[msg_id as usize] = MsgMeta {
                    dest_task: t,
                    src,
                    dest: q,
                    weight: link_occupancy_time(ctx.params, e.weight),
                };
                self.msg_hop[msg_id as usize] = 0;
                pending += 1;
                self.enqueue_overhead(
                    src,
                    Oh {
                        kind: OhKind::Send,
                        dur: sigma,
                        msg: msg_id,
                    },
                );
            }
        }
        self.pending[t as usize] = pending;
        self.messages += u64::from(pending);
        if pending == 0 {
            let pr = &mut self.procs[q as usize];
            debug_assert_eq!(pr.task, NONE);
            pr.task = t;
            pr.remaining = g.load(tid);
            pr.running_since = NOT_RUNNING;
            self.pump(q);
        }
    }

    fn enqueue_overhead(&mut self, p: u32, oh: Oh) {
        let pr = &mut self.procs[p as usize];
        match oh.kind {
            OhKind::Send => pr.sends.push_back(oh),
            _ => pr.incoming.push_back(oh),
        }
        self.pump(p);
    }

    /// Keeps processor `p` busy with the right thing (the engine's
    /// `pump`): pending overheads preempt compute; otherwise compute
    /// (re)starts.
    fn pump(&mut self, p: u32) {
        let now = self.now;
        let pr = &mut self.procs[p as usize];
        if pr.cur_oh.is_some() {
            return;
        }
        let next = pr.incoming.pop_front().or_else(|| pr.sends.pop_front());
        if let Some(oh) = next {
            if pr.task != NONE && pr.running_since != NOT_RUNNING {
                let done = now - pr.running_since;
                pr.remaining -= done;
                pr.running_since = NOT_RUNNING;
                pr.done_at = NOT_RUNNING; // disarm the completion register
                self.disarm_cache(p);
            }
            let pr = &mut self.procs[p as usize];
            pr.cur_oh = Some(oh);
            let at = now + oh.dur;
            self.push_ev(at, KIND_OVERHEAD_DONE, p);
            return;
        }
        if pr.task != NONE && pr.running_since == NOT_RUNNING {
            pr.running_since = now;
            let at = now + pr.remaining;
            let seq = self.seq;
            self.seq += 1;
            let pr = &mut self.procs[p as usize];
            pr.done_at = at;
            pr.done_seq = seq;
            self.arm_cache(at, seq, p);
        }
    }

    /// Cache maintenance: a newly armed register can only tighten the
    /// cached minimum.
    #[inline]
    fn arm_cache(&mut self, at: SimTime, seq: u64, p: u32) {
        if self.reg_cache_valid {
            if let Some((ct, cs, _)) = self.reg_cache {
                if (at, seq) < (ct, cs) {
                    self.reg_cache = Some((at, seq, p));
                }
            } else {
                self.reg_cache = Some((at, seq, p));
            }
        }
    }

    /// Cache maintenance: disarming the cached processor invalidates
    /// the cache (any other processor leaves the minimum intact).
    #[inline]
    fn disarm_cache(&mut self, p: u32) {
        if self.reg_cache_valid && matches!(self.reg_cache, Some((_, _, cp)) if cp == p) {
            self.reg_cache_valid = false;
        }
    }

    /// The minimum completion register as `(time, seq, proc)`.
    #[inline]
    fn min_register(&mut self) -> Option<(SimTime, u64, u32)> {
        if !self.reg_cache_valid {
            let mut min: Option<(SimTime, u64, u32)> = None;
            for (i, pr) in self.procs[..self.num_procs].iter().enumerate() {
                if pr.done_at != NOT_RUNNING
                    && min.is_none_or(|(t, s, _)| (pr.done_at, pr.done_seq) < (t, s))
                {
                    min = Some((pr.done_at, pr.done_seq, i as u32));
                }
            }
            self.reg_cache = min;
            self.reg_cache_valid = true;
        }
        self.reg_cache
    }

    fn channel_push(&mut self, msg_id: u32, ctx: &KernelCtx<'_>) {
        let m = self.msgs[msg_id as usize];
        let hop = self.msg_hop[msg_id as usize] as usize;
        let ch = ctx.routes.hop_chan(m.src, m.dest, hop) as usize;
        if self.channels[ch].busy {
            self.channels[ch].queue.push_back(msg_id);
        } else {
            self.channels[ch].busy = true;
            let at = self.now + m.weight;
            self.push_ev(at, KIND_TRANSFER_DONE, msg_id);
        }
    }

    fn on_transfer_done(&mut self, msg_id: u32, ctx: &KernelCtx<'_>) {
        // Free the channel and start the next queued transfer.
        let m = self.msgs[msg_id as usize];
        let hop = self.msg_hop[msg_id as usize] as usize;
        let ch = ctx.routes.hop_chan(m.src, m.dest, hop) as usize;
        self.channels[ch].busy = false;
        if let Some(next) = self.channels[ch].queue.pop_front() {
            self.channels[ch].busy = true;
            let at = self.now + self.msgs[next as usize].weight;
            self.push_ev(at, KIND_TRANSFER_DONE, next);
        }
        // Advance the message.
        self.msg_hop[msg_id as usize] += 1;
        let v = ctx.routes.hop_proc(m.src, m.dest, hop + 1);
        let tau = ctx.params.tau;
        let kind = if v == m.dest {
            OhKind::Receive
        } else {
            OhKind::Route
        };
        self.enqueue_overhead(
            v,
            Oh {
                kind,
                dur: tau,
                msg: msg_id,
            },
        );
    }

    #[expect(
        clippy::expect_used,
        reason = "overhead timers are only armed with a current overhead in place"
    )]
    fn on_overhead_done(&mut self, p: u32, ctx: &KernelCtx<'_>) {
        let oh = self.procs[p as usize]
            .cur_oh
            .take()
            .expect("overhead timer fired without current overhead");
        match oh.kind {
            OhKind::Send | OhKind::Route => self.channel_push(oh.msg, ctx),
            OhKind::Receive => self.deliver(oh.msg, ctx),
        }
        self.pump(p);
    }

    fn deliver(&mut self, msg_id: u32, ctx: &KernelCtx<'_>) {
        let t = self.msgs[msg_id as usize].dest_task;
        let c = &mut self.pending[t as usize];
        debug_assert!(*c > 0);
        *c -= 1;
        if *c == 0 {
            let q = self.placement[t as usize];
            let load = ctx.g.load(TaskId::from_index(t as usize));
            let pr = &mut self.procs[q as usize];
            debug_assert_eq!(pr.task, NONE);
            pr.task = t;
            pr.remaining = load;
            pr.running_since = NOT_RUNNING;
            self.pump(q);
        }
    }

    /// Fires when a completion register is popped; never stale (a
    /// preemption disarms the register instead).
    fn on_task_done<D: Driver>(&mut self, p: u32, ctx: &KernelCtx<'_>, driver: &mut D) {
        let pr = &mut self.procs[p as usize];
        let t = pr.task;
        debug_assert!(t != NONE && pr.running_since != NOT_RUNNING);
        pr.task = NONE;
        pr.remaining = 0;
        pr.running_since = NOT_RUNNING;
        pr.assigned = NONE;
        if self.now > self.max_finish {
            self.max_finish = self.now;
        }
        self.finished += 1;
        let now = self.now;
        driver.task_finished(t, now);
        for e in ctx.g.successors(TaskId::from_index(t as usize)) {
            let c = &mut self.unfinished[e.target.index()];
            *c -= 1;
            if *c == 0 {
                let tid = e.target.index() as u32;
                let pos = self.ready.partition_point(|&x| x < tid);
                self.ready.insert(pos, tid);
                driver.task_ready(tid);
            }
        }
        self.epoch_pending = true;
        self.pump(p);
    }
}

/// Fills `pred_base` (length `n + 1`) for `g`: consecutive
/// predecessor-edge ids per task, total count last.
pub(crate) fn build_pred_base(g: &TaskGraph, out: &mut Vec<u32>) {
    out.clear();
    let mut acc = 0u32;
    for t in g.tasks() {
        out.push(acc);
        acc += g.in_degree(t) as u32;
    }
    out.push(acc);
}

/// The always-on counters of one kernel run, readable from
/// [`SimScratch::last_run_stats`] after a [`simulate_makespan`] call
/// (and mirrored on [`SimResult`](crate::SimResult) by the general
/// engine as [`RunObs`](crate::RunObs)). All four are deterministic:
/// pure functions of `(graph, topology, params, scheduler, config)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelRunStats {
    /// Events popped from the merged queue (heap + registers).
    pub events: u64,
    /// Dispatch epochs run.
    pub epochs: u64,
    /// Most events ever resident in the event heap.
    pub heap_hwm: u64,
    /// Cross-processor messages created.
    pub messages: u64,
}

impl KernelRunStats {
    /// Accumulates this run into `r`: counters `sim.kernel.events`,
    /// `sim.kernel.epochs`, `sim.kernel.messages` and gauge
    /// `sim.kernel.heap_hwm`.
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("sim.kernel.events", self.events);
        r.add("sim.kernel.epochs", self.epochs);
        r.add("sim.kernel.messages", self.messages);
        r.hwm("sim.kernel.heap_hwm", self.heap_hwm);
    }
}

impl KernelState {
    fn run_stats(&self) -> KernelRunStats {
        KernelRunStats {
            events: self.events,
            epochs: self.epochs,
            heap_hwm: self.heap_hwm,
            messages: self.messages,
        }
    }
}

/// Route-table cache counters of a [`SimScratch`] (see
/// [`SimScratch::route_cache_stats`]). **Scheduling-dependent**, not
/// deterministic: which worker's scratch sees which topology depends on
/// how cells were divided among threads, so only the totals at a fixed
/// execution plan are stable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build (flatten + route) a new table — the
    /// expensive miss, counted separately from pool-level scratch
    /// misses upstream.
    pub builds: u64,
}

impl RouteCacheStats {
    /// Accumulates into `r` as `sched.route_cache.hits` /
    /// `sched.route_cache.builds` counters.
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("sched.route_cache.hits", self.hits);
        r.add("sched.route_cache.builds", self.builds);
    }
}

/// One cached route table: the channel matrix it was built from (the
/// fingerprint — routing and contention depend on nothing else), the
/// route table itself (schedulers read it through
/// [`EpochContext::routes`]) and its flattened form for the kernel.
#[derive(Debug)]
struct CachedRoutes {
    num_procs: usize,
    num_channels: usize,
    /// `channel_of(a, b)` for every ordered pair, `u32::MAX` = none.
    chan_matrix: Vec<u32>,
    table: RouteTable,
    flat: FlatRoutes,
}

/// Reusable state for [`simulate_makespans`] and [`simulate_makespan`]:
/// every buffer of the fast-path kernel, the parked states of lockstep
/// branches, and a small cache of route tables keyed by the topology's
/// channel matrix.
///
/// Create one per worker thread and reuse it across evaluations; after
/// the first call per `(graph size, topology, member set)` shape,
/// evaluations perform no heap allocation (enforced by
/// `tests/alloc.rs`). A scratch is cheap to create (empty buffers), so
/// dropping one between batches only costs re-warming.
#[derive(Debug, Default)]
pub struct SimScratch {
    kernel: KernelState,
    routes: Vec<CachedRoutes>,
    route_hits: u64,
    route_builds: u64,
    pred_base: Vec<u32>,
    fingerprint: Vec<u32>,
    // Online-driver buffers.
    placement: Vec<Option<ProcId>>,
    finish: Vec<Option<SimTime>>,
    ready: Vec<TaskId>,
    idle: Vec<ProcId>,
    out: Vec<(TaskId, ProcId)>,
    used_task: Vec<bool>,
    used_proc: Vec<bool>,
    lockstep: Lockstep,
}

/// Route caches kept per scratch before the oldest half is evicted;
/// far above any topology rotation in the workspace (the campaign
/// family sweeps 8).
const ROUTE_CACHE_CAP: usize = 32;

impl SimScratch {
    /// An empty scratch (no buffers warmed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the cached route entry for `topo`, building (and
    /// caching) it on a miss. Two topologies with the same channel
    /// matrix route and contend identically, so the cache key is the
    /// matrix, not the name.
    fn route_entry(&mut self, topo: &Topology) -> Result<usize, SimError> {
        let np = topo.num_procs();
        self.fingerprint.clear();
        for a in 0..np {
            for b in 0..np {
                self.fingerprint.push(
                    topo.channel_of(ProcId::from_index(a), ProcId::from_index(b))
                        .map_or(u32::MAX, |c| c.0),
                );
            }
        }
        if let Some(i) = self.routes.iter().position(|e| {
            e.num_procs == np
                && e.num_channels == topo.num_channels()
                && e.chan_matrix == self.fingerprint
        }) {
            self.route_hits += 1;
            return Ok(i);
        }
        self.route_builds += 1;
        let table = RouteTable::build(topo).map_err(|e| SimError::Disconnected(e.to_string()))?;
        let flat = FlatRoutes::build(topo, &table);
        if self.routes.len() >= ROUTE_CACHE_CAP {
            self.routes.drain(..ROUTE_CACHE_CAP / 2);
        }
        self.routes.push(CachedRoutes {
            num_procs: np,
            num_channels: topo.num_channels(),
            chan_matrix: self.fingerprint.clone(),
            table,
            flat,
        });
        Ok(self.routes.len() - 1)
    }

    /// The counters of the most recent [`simulate_makespan`] run out of
    /// this scratch (zeroed state before any run). After a
    /// [`simulate_makespans`] run they are the last branch's; each
    /// member's own counters come with its result.
    pub fn last_run_stats(&self) -> KernelRunStats {
        self.kernel.run_stats()
    }

    /// Lifetime route-table cache counters of this scratch.
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.route_hits,
            builds: self.route_builds,
        }
    }
}

/// One member's part in one leg of a [`simulate_makespans`] run.
///
/// A *branch* is one kernel state run from where it starts (time 0, or
/// the fork that parked it) to where it ends; the members whose
/// decisions agree ride it together. A *leg* is a stretch of a branch
/// with a fixed set of riders: it ends whenever members leave the
/// branch (at a fork, at an invalid dispatch, or when the branch ends),
/// so every rider of a leg simulated the same events in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rider {
    /// The member's index in the `schedulers` slice.
    pub member: usize,
    /// The member's kernel counters at the end of the leg: its solo
    /// run's counters when `result` is set.
    pub stats: KernelRunStats,
    /// The member's solo outcome when its run ended in this leg; `None`
    /// while it rides on (in this branch or a forked one).
    pub result: Option<Result<SimTime, SimError>>,
}

/// The kernel work one [`simulate_makespans`] run actually did, next to
/// the solo-equivalent [`KernelRunStats`] of its members. Deterministic:
/// a pure function of the instance and the members' decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockstepStats {
    /// Branches run (kernel states simulated): one, plus one per fork.
    pub branches: u64,
    /// Events simulated across all branches.
    pub events: u64,
}

impl LockstepStats {
    /// Accumulates into `r` as `sim.lockstep.branches` /
    /// `sim.lockstep.events` counters.
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("sim.lockstep.branches", self.branches);
        r.add("sim.lockstep.events", self.events);
    }
}

/// The state parked at one fork: the kernel state and online mirrors
/// at the fork, and the branches still waiting to start from it, each
/// a group of riders with the dispatch they chose there (applied when
/// the branch resumes). One copy of the state serves every group that
/// left at the fork. Pooled in [`SimScratch`] and filled with
/// `copy_from`/`clone_from`, so each holds buffers only as large as
/// the live state it last parked.
#[derive(Debug, Default)]
struct Parked {
    kernel: KernelState,
    placement: Vec<Option<ProcId>>,
    finish: Vec<Option<SimTime>>,
    /// The waiting groups' riders and dispatches, back to back; group
    /// `i` ends at `ends[i]` in both.
    riders: Vec<usize>,
    dispatch: Vec<(u32, u32)>,
    ends: Vec<(usize, usize)>,
}

/// Lockstep bookkeeping of a [`simulate_makespans`] run.
#[derive(Debug, Default)]
struct Lockstep {
    /// Members riding the running branch, in member order.
    riders: Vec<usize>,
    /// Events of the running state when its branch began.
    start_events: u64,
    stats: LockstepStats,
    /// This epoch's distinct dispatches, back to back; `group_end[g]`
    /// is where dispatch `g` ends, `group_of[i]` the dispatch of rider
    /// `i`.
    outputs: Vec<(TaskId, ProcId)>,
    group_end: Vec<usize>,
    group_of: Vec<usize>,
    /// Parked forks; the first `waiting` hold branches waiting to run,
    /// last parked first.
    parked: Vec<Parked>,
    waiting: usize,
    /// The running leg's riders, handed to the caller when it ends.
    report: Vec<Rider>,
}

/// Checks one dispatch against the epoch's state, replicating the
/// general engine's checks and messages. Leaves `used_task` and
/// `used_proc` all `false`, as it found them: other dispatches of the
/// same epoch are checked with them next.
fn validate(
    pairs: &[(TaskId, ProcId)],
    k: &KernelState,
    used_task: &mut [bool],
    used_proc: &mut [bool],
) -> Result<(), SimError> {
    let np = used_proc.len();
    let mut res = Ok(());
    let mut marked = 0usize;
    for &(t, p) in pairs {
        if t.index() >= used_task.len() || k.ready.binary_search(&(t.index() as u32)).is_err() {
            res = Err(SimError::InvalidAssignment(format!("{t} is not ready")));
            break;
        }
        if p.index() >= np || k.procs[p.index()].assigned != NONE {
            res = Err(SimError::InvalidAssignment(format!("{p} is not idle")));
            break;
        }
        if used_task[t.index()] {
            res = Err(SimError::InvalidAssignment(format!("{t} assigned twice")));
            break;
        }
        if used_proc[p.index()] {
            res = Err(SimError::InvalidAssignment(format!(
                "{p} received two tasks"
            )));
            break;
        }
        used_task[t.index()] = true;
        used_proc[p.index()] = true;
        marked += 1;
    }
    for &(t, p) in pairs.iter().take(marked) {
        used_task[t.index()] = false;
        used_proc[p.index()] = false;
    }
    res
}

/// Adapts a set of [`OnlineScheduler`]s to the kernel's [`Driver`]
/// contract, mirroring exactly the state the general engine exposes
/// through [`EpochContext`]. Every rider of the running branch sees the
/// same context; riders whose dispatches agree stay on the branch, and
/// the others are parked for branches of their own.
struct OnlineDriver<'a, S, F> {
    members: &'a mut [Option<S>],
    topo: &'a Topology,
    table: &'a RouteTable,
    placement: &'a mut Vec<Option<ProcId>>,
    finish: &'a mut Vec<Option<SimTime>>,
    ready: &'a mut Vec<TaskId>,
    idle: &'a mut Vec<ProcId>,
    out: &'a mut Vec<(TaskId, ProcId)>,
    used_task: &'a mut [bool],
    used_proc: &'a mut [bool],
    ls: &'a mut Lockstep,
    on_leg: F,
}

impl<S, T, F> OnlineDriver<'_, S, F>
where
    S: DerefMut<Target = T>,
    T: OnlineScheduler + ?Sized,
    F: FnMut(&[Rider]),
{
    /// Adds each rider in dispatch group `g` (every rider when `g` is
    /// `None`) to the running leg's report with `result`; a member whose
    /// run ended drops its scheduler.
    fn report_group(
        &mut self,
        g: Option<usize>,
        k: &KernelState,
        result: &Option<Result<SimTime, SimError>>,
    ) {
        for i in 0..self.ls.riders.len() {
            if g.is_none_or(|g| self.ls.group_of[i] == g) {
                let m = self.ls.riders[i];
                if result.is_some() {
                    self.members[m] = None;
                }
                self.ls.report.push(Rider {
                    member: m,
                    stats: k.run_stats(),
                    result: result.clone(),
                });
            }
        }
    }

    /// Ends the running leg: hands its report to the caller.
    fn end_leg(&mut self) {
        (self.on_leg)(&self.ls.report);
        self.ls.report.clear();
    }

    /// Parks the riders of dispatch `g`, which starts at `start` in
    /// `outputs`, for a branch of their own; the first group parked at
    /// an epoch (`first`) parks a copy of the running state for every
    /// group of that epoch.
    fn park(&mut self, k: &KernelState, g: usize, start: usize, first: bool) {
        let ls = &mut *self.ls;
        if first {
            if ls.parked.len() == ls.waiting {
                ls.parked.push(Parked::default());
            }
            let p = &mut ls.parked[ls.waiting];
            p.kernel.copy_from(k);
            p.placement.clone_from(self.placement);
            p.finish.clone_from(self.finish);
            p.riders.clear();
            p.dispatch.clear();
            p.ends.clear();
            ls.waiting += 1;
        }
        ls.stats.branches += 1;
        let p = &mut ls.parked[ls.waiting - 1];
        p.dispatch.extend(
            ls.outputs[start..ls.group_end[g]]
                .iter()
                .map(|&(t, q)| (t.index() as u32, q.index() as u32)),
        );
        p.riders.extend(
            ls.riders
                .iter()
                .zip(&ls.group_of)
                .filter(|&(_, &gi)| gi == g)
                .map(|(&m, _)| m),
        );
        p.ends.push((p.riders.len(), p.dispatch.len()));
    }

    /// Runs the branches of one lockstep run, from the running state
    /// (already reset to time 0 with every member riding) to the last
    /// parked branch.
    fn run_branches(&mut self, kernel: &mut KernelState, ctx: &KernelCtx<'_>) {
        self.ls.stats.branches = 1;
        loop {
            let res = Some(kernel.run(ctx, self));
            self.ls.stats.events += kernel.events - self.ls.start_events;
            if !self.ls.riders.is_empty() {
                self.report_group(None, kernel, &res);
                self.ls.riders.clear();
                self.end_leg();
            }
            if self.ls.waiting == 0 {
                return;
            }
            // Resume the last group parked at the last fork.
            let ls = &mut *self.ls;
            let p = &mut ls.parked[ls.waiting - 1];
            p.ends.pop();
            let (riders, dispatch) = p.ends.last().copied().unwrap_or((0, 0));
            kernel.copy_from(&p.kernel);
            self.placement.clone_from(&p.placement);
            self.finish.clone_from(&p.finish);
            ls.riders.clear();
            ls.riders.extend(p.riders.drain(riders..));
            kernel.assign_buf.clear();
            kernel.assign_buf.extend(p.dispatch.drain(dispatch..));
            if p.ends.is_empty() {
                ls.waiting -= 1;
            }
            ls.start_events = kernel.events;
            kernel.apply_dispatch(ctx, self);
        }
    }
}

impl<S, T, F> Driver for OnlineDriver<'_, S, F>
where
    S: DerefMut<Target = T>,
    T: OnlineScheduler + ?Sized,
    F: FnMut(&[Rider]),
{
    #[expect(
        clippy::expect_used,
        reason = "riders are members whose runs have not ended, so their slots hold a scheduler; an epoch with riders has a dispatch group"
    )]
    fn dispatch(
        &mut self,
        k: &KernelState,
        ctx: &KernelCtx<'_>,
        out: &mut Vec<(u32, u32)>,
    ) -> Result<(), SimError> {
        // The engine consults the scheduler only when both sides are
        // non-empty; the kernel already guarantees a non-empty ready
        // set.
        self.idle.clear();
        self.idle.extend(
            k.procs()
                .iter()
                .enumerate()
                .filter(|(_, pr)| pr.assigned == NONE)
                .map(|(i, _)| ProcId::from_index(i)),
        );
        if self.idle.is_empty() {
            return Ok(());
        }
        self.ready.clear();
        self.ready
            .extend(k.ready.iter().map(|&t| TaskId::from_index(t as usize)));
        // Every rider decides on the same context; equal dispatches
        // (the same pairs in the same order) form one group.
        let ls = &mut *self.ls;
        ls.outputs.clear();
        ls.group_end.clear();
        ls.group_of.clear();
        {
            let ectx = EpochContext {
                time: k.now,
                ready: self.ready,
                idle: self.idle,
                graph: ctx.g,
                topology: self.topo,
                routes: self.table,
                params: ctx.params,
                placement: self.placement,
                finish: self.finish,
                comm_enabled: ctx.comm_enabled,
            };
            for &m in &ls.riders {
                self.out.clear();
                self.members[m]
                    .as_mut()
                    .expect("a rider's run has not ended")
                    .on_epoch(&ectx, self.out);
                let mut start = 0;
                let mut group = None;
                for (g, &end) in ls.group_end.iter().enumerate() {
                    if ls.outputs[start..end] == self.out[..] {
                        group = Some(g);
                        break;
                    }
                    start = end;
                }
                let g = group.unwrap_or_else(|| {
                    ls.outputs.extend_from_slice(self.out);
                    ls.group_end.push(ls.outputs.len());
                    ls.group_end.len() - 1
                });
                ls.group_of.push(g);
            }
        }
        // Validate each distinct dispatch once. An invalid one ends its
        // riders' runs, the first valid one stays on this branch, and
        // every later valid one is parked with its riders. The leg ends
        // when any rider leaves.
        let parted = ls.group_end.len() > 1;
        let mut kept = None;
        let mut first_err = None;
        let mut parked = false;
        let mut start = 0;
        for g in 0..self.ls.group_end.len() {
            let end = self.ls.group_end[g];
            let res = validate(
                &self.ls.outputs[start..end],
                k,
                self.used_task,
                self.used_proc,
            );
            match res {
                Err(e) => {
                    self.report_group(Some(g), k, &Some(Err(e.clone())));
                    first_err.get_or_insert(e);
                }
                Ok(()) if kept.is_none() => {
                    if parted {
                        self.report_group(Some(g), k, &None);
                    }
                    kept = Some((g, start));
                }
                Ok(()) => {
                    self.report_group(Some(g), k, &None);
                    self.park(k, g, start, !parked);
                    parked = true;
                }
            }
            start = end;
        }
        if parted || kept.is_none() {
            self.end_leg();
        }
        let Lockstep {
            riders,
            group_of,
            outputs,
            group_end,
            ..
        } = &mut *self.ls;
        let mut i = 0;
        riders.retain(|_| {
            i += 1;
            kept.is_some_and(|(g, _)| group_of[i - 1] == g)
        });
        match kept {
            Some((g, start)) => {
                out.extend(
                    outputs[start..group_end[g]]
                        .iter()
                        .map(|&(t, p)| (t.index() as u32, p.index() as u32)),
                );
                Ok(())
            }
            // Every rider's run ended here; the branch stops.
            None => Err(first_err.expect("an epoch with riders has a dispatch")),
        }
    }

    fn task_assigned(&mut self, t: u32, q: u32) {
        self.placement[t as usize] = Some(ProcId::from_index(q as usize));
    }

    fn task_finished(&mut self, t: u32, now: SimTime) {
        self.finish[t as usize] = Some(now);
    }
}

/// Simulates `graph` on `topology` under every scheduler in
/// `schedulers` (the *members*) in one lockstep kernel run, and reports
/// **only each member's makespan** — the fast path for the thousands
/// of evaluations (tournament and campaign columns, adversarial-search
/// candidates) that never read a Gantt chart, a trace or statistics.
///
/// The members ride one kernel state while their dispatch decisions
/// agree. At the first epoch where they part, the state forks: the
/// riders of the first distinct valid dispatch stay on it, and the
/// other groups are parked with one copy of the state, each to run its
/// own branch from it once the current branch ends. So every member observes exactly the [`EpochContext`]
/// sequence of its solo run and ends with its solo makespan or error
/// and its solo [`KernelRunStats`], while an instance whose members
/// mostly agree costs about one kernel run. Each distinct dispatch is
/// validated once; an invalid one ends the runs of the members that
/// produced it, each with the error its solo run returns.
///
/// Each member's result is **bit-identical** to
/// [`simulate`](crate::simulate)'s for the same scheduler: assignments
/// are validated the same way, and event ordering (σ/τ preemption,
/// channel FIFO, insertion-order tie-breaking) is reproduced exactly.
/// The only divergence is *when* `SimError::EventLimit` can fire,
/// because stale preempted timers never enter this queue (see the
/// module docs).
///
/// `on_leg` is called as each leg ends (see [`Rider`]), with the
/// members that rode it, in member order within each dispatch group.
/// Legs run one after another, so a caller can time each one between
/// two calls. Every member with a scheduler appears with a result
/// exactly once, and its slot is emptied (dropping the scheduler) when
/// its run ends; empty slots are not members. Returns the kernel work
/// done.
///
/// `scratch` carries every buffer, the parked branches and a
/// route-table cache across calls; reuse one per worker thread for
/// zero steady-state allocation.
#[expect(
    clippy::expect_used,
    reason = "build_pred_base always pushes at least one offset"
)]
pub fn simulate_makespans<S, T, F>(
    graph: &TaskGraph,
    topology: &Topology,
    params: &CommParams,
    schedulers: &mut [Option<S>],
    config: &SimConfig,
    scratch: &mut SimScratch,
    mut on_leg: F,
) -> LockstepStats
where
    S: DerefMut<Target = T>,
    T: OnlineScheduler + ?Sized,
    F: FnMut(&[Rider]),
{
    let ls = &mut scratch.lockstep;
    ls.riders.clear();
    ls.riders
        .extend((0..schedulers.len()).filter(|&m| schedulers[m].is_some()));
    ls.report.clear();
    ls.waiting = 0;
    ls.start_events = 0;
    ls.stats = LockstepStats::default();
    if ls.riders.is_empty() {
        return ls.stats;
    }
    let np = topology.num_procs();
    let ri = match scratch.route_entry(topology) {
        Ok(ri) => ri,
        Err(e) => {
            let ls = &mut scratch.lockstep;
            for &m in &ls.riders {
                schedulers[m] = None;
                ls.report.push(Rider {
                    member: m,
                    stats: KernelRunStats::default(),
                    result: Some(Err(e.clone())),
                });
            }
            on_leg(&ls.report);
            ls.report.clear();
            return ls.stats;
        }
    };
    let SimScratch {
        kernel,
        routes,
        pred_base,
        placement,
        finish,
        ready,
        idle,
        out,
        used_task,
        used_proc,
        lockstep: ls,
        ..
    } = scratch;
    let entry = &routes[ri];
    build_pred_base(graph, pred_base);
    let num_pred_edges = *pred_base.last().expect("pred_base is non-empty") as usize;
    // Packed-event ids: `arg` carries a processor index (OverheadDone)
    // or a predecessor-edge id (TransferDone), both in 30 bits.
    assert!(
        np <= ARG_MASK as usize && num_pred_edges <= ARG_MASK as usize,
        "instance exceeds the packed-event id space"
    );
    kernel.reset(graph, np, topology.num_channels(), num_pred_edges);
    let n = graph.num_tasks();
    placement.clear();
    placement.resize(n, None);
    finish.clear();
    finish.resize(n, None);
    used_task.clear();
    used_task.resize(n, false);
    used_proc.clear();
    used_proc.resize(np, false);
    let ctx = KernelCtx {
        g: graph,
        params,
        comm_enabled: config.comm_enabled,
        max_events: config.max_events,
        routes: &entry.flat,
        pred_base,
    };
    let mut driver = OnlineDriver {
        members: schedulers,
        topo: topology,
        table: &entry.table,
        placement,
        finish,
        ready,
        idle,
        out,
        used_task,
        used_proc,
        ls,
        on_leg,
    };
    driver.run_branches(kernel, &ctx);
    driver.ls.stats
}

/// Simulates `graph` on `topology` driven by `scheduler` and returns
/// **only the makespan**: [`simulate_makespans`] with one member.
///
/// Bit-identical to [`simulate`](crate::simulate)'s
/// `SimResult::makespan` (see [`simulate_makespans`]); afterwards
/// [`SimScratch::last_run_stats`] holds the run's counters.
#[expect(
    clippy::expect_used,
    reason = "simulate_makespans reports every member's result exactly once"
)]
pub fn simulate_makespan(
    graph: &TaskGraph,
    topology: &Topology,
    params: &CommParams,
    scheduler: &mut dyn OnlineScheduler,
    config: &SimConfig,
    scratch: &mut SimScratch,
) -> Result<SimTime, SimError> {
    let mut result = None;
    simulate_makespans(
        graph,
        topology,
        params,
        &mut [Some(scheduler)],
        config,
        scratch,
        |riders| {
            if let Some(r) = riders.iter().find_map(|r| r.result.as_ref()) {
                result = Some(r.clone());
            }
        },
    );
    result.expect("the member's run ended")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::scheduler::{FixedMapping, GreedyScheduler};
    use anneal_graph::generate::{layered_random, LayeredConfig, Range};
    use anneal_graph::units::us;
    use anneal_graph::TaskGraphBuilder;
    use anneal_topology::builders::{bus, hypercube, linear, ring, shared_bus, star};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(i: usize) -> ProcId {
        ProcId::from_index(i)
    }

    fn sample_graph(seed: u64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        layered_random(
            &LayeredConfig {
                layers: 4,
                width: 5,
                edge_prob: 0.4,
                load: Range::new(us(1.0), us(40.0)),
                comm: Range::new(us(0.5), us(8.0)),
            },
            &mut rng,
        )
    }

    #[test]
    fn greedy_matches_engine_across_topologies_with_one_scratch() {
        let mut scratch = SimScratch::new();
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        for seed in [1, 2, 3] {
            let g = sample_graph(seed);
            for topo in [hypercube(3), ring(5), star(4), shared_bus(4), linear(3)] {
                let slow = simulate(&g, &topo, &params, &mut GreedyScheduler, &cfg)
                    .unwrap()
                    .makespan;
                let fast =
                    simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch)
                        .unwrap();
                assert_eq!(fast, slow, "seed {seed} on {}", topo.name());
            }
        }
        // The five distinct topologies (ring(5) and star(4) etc.) are
        // all cached now.
        assert!(scratch.routes.len() >= 4);
    }

    #[test]
    fn fixed_mapping_matches_engine() {
        let g = sample_graph(7);
        let n = g.num_tasks();
        let topo = hypercube(3);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let mut scratch = SimScratch::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..8 {
            let mapping: Vec<ProcId> = (0..n).map(|_| p(rng.gen_range(0..8))).collect();
            let slow = simulate(
                &g,
                &topo,
                &params,
                &mut FixedMapping::new(mapping.clone()),
                &cfg,
            )
            .unwrap()
            .makespan;
            let fast = simulate_makespan(
                &g,
                &topo,
                &params,
                &mut FixedMapping::new(mapping),
                &cfg,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn no_comm_mode_matches_engine() {
        let g = sample_graph(5);
        let topo = bus(4);
        let params = CommParams::zero();
        let cfg = SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        };
        let mut scratch = SimScratch::new();
        let slow = simulate(&g, &topo, &params, &mut GreedyScheduler, &cfg)
            .unwrap()
            .makespan;
        let fast = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch)
            .unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn deadlock_and_invalid_assignments_error_like_the_engine() {
        struct Lazy;
        impl OnlineScheduler for Lazy {
            fn on_epoch(&mut self, _: &EpochContext<'_>, _: &mut Vec<(TaskId, ProcId)>) {}
        }
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(us(10.0));
        let c = b.add_task(us(20.0));
        b.add_edge(a, c, us(4.0)).unwrap();
        let g = b.build().unwrap();
        let mut scratch = SimScratch::new();
        let err = simulate_makespan(
            &g,
            &bus(2),
            &CommParams::paper(),
            &mut Lazy,
            &SimConfig::default(),
            &mut scratch,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Deadlock {
                    ready: 1,
                    idle: 2,
                    ..
                }
            ),
            "{err}"
        );

        struct Bad(u8);
        impl OnlineScheduler for Bad {
            fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
                match self.0 {
                    0 => out.push((TaskId::from_index(99), ctx.idle[0])),
                    1 => {
                        out.push((ctx.ready[0], ctx.idle[0]));
                        out.push((ctx.ready[1], ctx.idle[0]));
                    }
                    _ => {
                        out.push((ctx.ready[0], ctx.idle[0]));
                        out.push((ctx.ready[0], ctx.idle[1]));
                    }
                }
            }
        }
        let mut bld = TaskGraphBuilder::new();
        bld.add_task(us(1.0));
        bld.add_task(us(1.0));
        let g2 = bld.build().unwrap();
        for mode in 0..3u8 {
            let err = simulate_makespan(
                &g2,
                &bus(2),
                &CommParams::paper(),
                &mut Bad(mode),
                &SimConfig::default(),
                &mut scratch,
            )
            .unwrap_err();
            assert!(matches!(err, SimError::InvalidAssignment(_)), "{err}");
        }
        // the scratch survives failed runs
        let ok = simulate_makespan(
            &g2,
            &bus(2),
            &CommParams::paper(),
            &mut GreedyScheduler,
            &SimConfig::default(),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(ok, us(1.0));
    }

    #[test]
    fn event_limit_is_enforced() {
        let g = sample_graph(1);
        let cfg = SimConfig {
            comm_enabled: true,
            max_events: 3,
        };
        let mut scratch = SimScratch::new();
        let err = simulate_makespan(
            &g,
            &linear(2),
            &CommParams::paper(),
            &mut GreedyScheduler,
            &cfg,
            &mut scratch,
        )
        .unwrap_err();
        assert_eq!(err, SimError::EventLimit);
    }

    #[test]
    fn route_cache_keys_on_channel_matrix_not_name() {
        let mut scratch = SimScratch::new();
        let g = sample_graph(2);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let a = Topology::from_edges("first", 3, &[(0, 1), (1, 2)]);
        let b = Topology::from_edges("second", 3, &[(0, 1), (1, 2)]);
        simulate_makespan(&g, &a, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        simulate_makespan(&g, &b, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        assert_eq!(scratch.routes.len(), 1, "same channel matrix, one entry");
        let c = Topology::from_edges("third", 3, &[(0, 1), (1, 2), (0, 2)]);
        simulate_makespan(&g, &c, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        assert_eq!(scratch.routes.len(), 2);
    }

    #[test]
    fn stateful_scheduler_sees_identical_epoch_sequence() {
        // A scheduler that folds everything it observes into a running
        // hash: any divergence in the EpochContext sequence (epoch
        // times, ready sets, idle sets, placements, finishes) between
        // the engine and the fast path changes the hash and therefore
        // the dispatch decisions and the makespan.
        #[derive(Default)]
        struct Hashing {
            h: u64,
        }
        impl Hashing {
            fn mix(&mut self, v: u64) {
                let mut z = self.h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                self.h = z ^ (z >> 31);
            }
        }
        impl OnlineScheduler for Hashing {
            fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
                self.mix(ctx.time);
                for &t in ctx.ready {
                    self.mix(t.index() as u64 + 1);
                }
                for &p in ctx.idle {
                    self.mix(p.index() as u64 + 101);
                }
                for pl in ctx.placement {
                    self.mix(pl.map_or(0, |p| p.index() as u64 + 1));
                }
                for f in ctx.finish {
                    self.mix(f.map_or(0, |t| t + 1));
                }
                // Hash-driven assignment: pair ready tasks and idle
                // processors with a rotating offset.
                let k = (self.h % ctx.idle.len() as u64) as usize;
                for (i, &t) in ctx.ready.iter().take(ctx.idle.len()).enumerate() {
                    out.push((t, ctx.idle[(i + k) % ctx.idle.len()]));
                }
            }
        }
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let mut scratch = SimScratch::new();
        for seed in [3, 9, 27] {
            let g = sample_graph(seed);
            for topo in [hypercube(3), ring(5), shared_bus(4)] {
                let slow = simulate(&g, &topo, &params, &mut Hashing::default(), &cfg)
                    .unwrap()
                    .makespan;
                let fast = simulate_makespan(
                    &g,
                    &topo,
                    &params,
                    &mut Hashing::default(),
                    &cfg,
                    &mut scratch,
                )
                .unwrap();
                assert_eq!(fast, slow, "seed {seed} on {}", topo.name());
            }
        }
    }
}
