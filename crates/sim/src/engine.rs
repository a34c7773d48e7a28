//! The discrete-event simulation engine.
//!
//! Executes a task graph on a multicomputer under an [`OnlineScheduler`],
//! reproducing the timing model of the paper:
//!
//! * task execution occupies its processor for `r_i` ns (one task at a
//!   time per processor, plus message overheads that preempt it),
//! * a message from predecessor `p` (on processor `r`) to task `t` (just
//!   assigned to processor `q ≠ r`) is initiated at assignment time —
//!   every predecessor of a *ready* task has already finished, so the
//!   data exists; the engine then plays out
//!   `σ on r → transfer w per hop → τ on every intermediate → τ on q`,
//! * each channel carries one message at a time (FIFO), giving link
//!   contention,
//! * the first scheduling epoch is at time 0 and later epochs fire after
//!   every batch of task completions at the same instant ("successive
//!   epochs occur when one or more processors become idle").

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use anneal_graph::{TaskGraph, TaskId};
use anneal_topology::topology::ChannelId;
use anneal_topology::{CommParams, ProcId, RouteTable, Topology};

use crate::gantt::{Gantt, Span, SpanKind};
use crate::result::{CommStats, PacketStats, RunObs, SimResult};
use crate::scheduler::{EpochContext, OnlineScheduler};
use crate::SimTime;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// When `false`, messages are skipped entirely (Table 2's
    /// "w/o Comm." columns): precedence still holds, data moves free.
    pub comm_enabled: bool,
    /// Hard safety cap on processed events.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            comm_enabled: true,
            max_events: 200_000_000,
        }
    }
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The topology is disconnected.
    Disconnected(String),
    /// The scheduler returned an illegal assignment.
    InvalidAssignment(String),
    /// Execution stalled: unfinished tasks but no events and no
    /// assignments.
    Deadlock {
        /// Time of the stall.
        time: SimTime,
        /// Ready tasks at the stall.
        ready: usize,
        /// Idle processors at the stall.
        idle: usize,
    },
    /// `max_events` exceeded.
    EventLimit,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Disconnected(s) => write!(f, "disconnected topology: {s}"),
            SimError::InvalidAssignment(s) => write!(f, "invalid assignment: {s}"),
            SimError::Deadlock { time, ready, idle } => write!(
                f,
                "deadlock at t={time}: {ready} ready tasks, {idle} idle processors, no events"
            ),
            SimError::EventLimit => write!(f, "event limit exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy)]
#[expect(
    clippy::enum_variant_names,
    reason = "events are naturally all completions"
)]
enum Ev {
    TaskDone { p: ProcId, gen: u64 },
    OverheadDone { p: ProcId, gen: u64 },
    TransferDone { msg: u32 },
}

#[derive(Debug)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, EvSlot)>>,
    seq: u64,
    /// Most events ever resident (the `RunObs::heap_hwm` source).
    hwm: usize,
}

/// Wrapper making the event orderable without comparing enum payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EvSlot(u64);

impl PartialOrd for EvSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            hwm: 0,
        }
    }
    fn push(&mut self, time: SimTime, ev: Ev, store: &mut Vec<Ev>) {
        let slot = store.len() as u64;
        store.push(ev);
        self.heap.push(Reverse((time, self.seq, EvSlot(slot))));
        self.seq += 1;
        self.hwm = self.hwm.max(self.heap.len());
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
    fn pop(&mut self, store: &[Ev]) -> Option<(SimTime, Ev)> {
        self.heap
            .pop()
            .map(|Reverse((t, _, EvSlot(s)))| (t, store[s as usize]))
    }
}

#[derive(Debug, Clone, Copy)]
struct Overhead {
    kind: SpanKind,
    dur: u64,
    msg: u32,
}

#[derive(Debug)]
struct ComputeState {
    task: TaskId,
    remaining: u64,
    running_since: Option<SimTime>,
}

#[derive(Debug)]
struct Proc {
    assigned: Option<TaskId>,
    compute: Option<ComputeState>,
    current_overhead: Option<Overhead>,
    /// Message-driven overheads (receive/route τ): incoming messages
    /// preempt the processor, so they run before pending sends.
    incoming_q: VecDeque<Overhead>,
    /// Locally initiated send overheads (σ).
    send_q: VecDeque<Overhead>,
    gen: u64,
    busy: u64,
}

impl Proc {
    fn new() -> Self {
        Proc {
            assigned: None,
            compute: None,
            current_overhead: None,
            incoming_q: VecDeque::new(),
            send_q: VecDeque::new(),
            gen: 0,
            busy: 0,
        }
    }
    fn is_idle(&self) -> bool {
        self.assigned.is_none()
    }
}

#[derive(Debug)]
struct Message {
    dest_task: TaskId,
    dest: ProcId,
    weight: u64,
    route: Vec<ProcId>,
    hop: usize, // message currently at route[hop]
}

#[derive(Debug, Default)]
struct Channel {
    busy: bool,
    queue: VecDeque<u32>,
}

struct Engine<'a> {
    g: &'a TaskGraph,
    topo: &'a Topology,
    routes: RouteTable,
    params: &'a CommParams,
    cfg: &'a SimConfig,

    now: SimTime,
    queue: EventQueue,
    store: Vec<Ev>,
    procs: Vec<Proc>,
    channels: Vec<Channel>,
    msgs: Vec<Message>,

    // task state
    placement: Vec<Option<ProcId>>,
    start: Vec<Option<SimTime>>,
    finish: Vec<Option<SimTime>>,
    unfinished_preds: Vec<u32>,
    pending_inputs: Vec<u32>,
    ready: Vec<TaskId>, // sorted set of ready, unassigned tasks
    finished: usize,

    gantt: Gantt,
    comm: CommStats,
    packets: PacketStats,
    epochs: u64,
    epoch_pending: bool,
}

impl<'a> Engine<'a> {
    fn new(
        g: &'a TaskGraph,
        topo: &'a Topology,
        params: &'a CommParams,
        cfg: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let routes = RouteTable::build(topo).map_err(|e| SimError::Disconnected(e.to_string()))?;
        let n = g.num_tasks();
        let unfinished_preds: Vec<u32> = g.tasks().map(|t| g.in_degree(t) as u32).collect();
        let ready: Vec<TaskId> = g
            .tasks()
            .filter(|&t| unfinished_preds[t.index()] == 0)
            .collect();
        Ok(Engine {
            g,
            topo,
            routes,
            params,
            cfg,
            now: 0,
            queue: EventQueue::new(),
            store: Vec::new(),
            procs: (0..topo.num_procs()).map(|_| Proc::new()).collect(),
            channels: (0..topo.num_channels())
                .map(|_| Channel::default())
                .collect(),
            msgs: Vec::new(),
            placement: vec![None; n],
            start: vec![None; n],
            finish: vec![None; n],
            unfinished_preds,
            pending_inputs: vec![0; n],
            ready,
            finished: 0,
            gantt: Gantt::default(),
            comm: CommStats::default(),
            packets: PacketStats::default(),
            epochs: 0,
            epoch_pending: true,
        })
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.queue.push(at, ev, &mut self.store);
    }

    /// Keeps the processor busy with the right thing. Never called while
    /// an overhead timer is outstanding for `p` (guarded by
    /// `current_overhead`).
    fn pump(&mut self, p: ProcId) {
        let now = self.now;
        let proc = &mut self.procs[p.index()];
        if proc.current_overhead.is_some() {
            return;
        }
        let next_overhead = proc
            .incoming_q
            .pop_front()
            .or_else(|| proc.send_q.pop_front());
        if let Some(oh) = next_overhead {
            // Preempt a running compute task.
            if let Some(cs) = proc.compute.as_mut() {
                if let Some(since) = cs.running_since.take() {
                    let done = now - since;
                    cs.remaining -= done;
                    proc.busy += done;
                    proc.gen += 1; // invalidate the pending TaskDone
                    let task = cs.task;
                    self.gantt.spans.push(Span {
                        proc: p,
                        kind: SpanKind::Compute,
                        start: since,
                        end: now,
                        task: Some(task),
                    });
                }
            }
            let proc = &mut self.procs[p.index()];
            proc.current_overhead = Some(oh);
            proc.gen += 1;
            let gen = proc.gen;
            self.schedule(now + oh.dur, Ev::OverheadDone { p, gen });
            return;
        }
        if let Some(cs) = proc.compute.as_mut() {
            if cs.running_since.is_none() {
                cs.running_since = Some(now);
                if self.start[cs.task.index()].is_none() {
                    self.start[cs.task.index()] = Some(now);
                }
                proc.gen += 1;
                let gen = proc.gen;
                let at = now + cs.remaining;
                self.schedule(at, Ev::TaskDone { p, gen });
            }
        }
    }

    fn enqueue_overhead(&mut self, p: ProcId, oh: Overhead) {
        let proc = &mut self.procs[p.index()];
        match oh.kind {
            SpanKind::Send => proc.send_q.push_back(oh),
            _ => proc.incoming_q.push_back(oh),
        }
        self.pump(p);
    }

    #[expect(
        clippy::expect_used,
        reason = "routes come from the routing table, so consecutive hops share a channel"
    )]
    fn channel_push(&mut self, msg_id: u32) {
        let m = &self.msgs[msg_id as usize];
        let (u, v) = (m.route[m.hop], m.route[m.hop + 1]);
        let ch = self
            .topo
            .channel_of(u, v)
            .expect("route hops are adjacent")
            .0 as usize;
        let weight = m.weight;
        let channel = &mut self.channels[ch];
        if channel.busy {
            channel.queue.push_back(msg_id);
        } else {
            channel.busy = true;
            self.comm.transfer_ns += weight;
            self.comm.hops += 1;
            self.schedule(self.now + weight, Ev::TransferDone { msg: msg_id });
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "routes come from the routing table, so consecutive hops share a channel"
    )]
    fn current_channel(&self, msg_id: u32) -> ChannelId {
        let m = &self.msgs[msg_id as usize];
        let (u, v) = (m.route[m.hop], m.route[m.hop + 1]);
        self.topo.channel_of(u, v).expect("route hops are adjacent")
    }

    fn on_transfer_done(&mut self, msg_id: u32) {
        // Free the channel and start the next queued transfer.
        let ch = self.current_channel(msg_id).0 as usize;
        self.channels[ch].busy = false;
        if let Some(next) = self.channels[ch].queue.pop_front() {
            self.channels[ch].busy = true;
            let w = self.msgs[next as usize].weight;
            self.comm.transfer_ns += w;
            self.comm.hops += 1;
            self.schedule(self.now + w, Ev::TransferDone { msg: next });
        }
        // Advance the message.
        let m = &mut self.msgs[msg_id as usize];
        m.hop += 1;
        let v = m.route[m.hop];
        let tau = self.params.tau;
        if v == m.dest {
            self.enqueue_overhead(
                v,
                Overhead {
                    kind: SpanKind::Receive,
                    dur: tau,
                    msg: msg_id,
                },
            );
        } else {
            self.enqueue_overhead(
                v,
                Overhead {
                    kind: SpanKind::Route,
                    dur: tau,
                    msg: msg_id,
                },
            );
        }
    }

    #[expect(
        clippy::expect_used,
        clippy::unreachable,
        reason = "the generation check above rejects stale timers, so the overhead is present and never Compute"
    )]
    fn on_overhead_done(&mut self, p: ProcId, gen: u64) {
        if self.procs[p.index()].gen != gen {
            return; // stale
        }
        let oh = self.procs[p.index()]
            .current_overhead
            .take()
            .expect("overhead timer fired without current overhead");
        self.procs[p.index()].busy += oh.dur;
        self.comm.overhead_ns += oh.dur;
        self.gantt.spans.push(Span {
            proc: p,
            kind: oh.kind,
            start: self.now - oh.dur,
            end: self.now,
            task: Some(self.msgs[oh.msg as usize].dest_task),
        });
        match oh.kind {
            SpanKind::Send => self.channel_push(oh.msg),
            SpanKind::Route => self.channel_push(oh.msg),
            SpanKind::Receive => self.deliver(oh.msg),
            SpanKind::Compute => unreachable!("compute is not an overhead"),
        }
        self.pump(p);
    }

    #[expect(
        clippy::expect_used,
        reason = "messages are only created for assigned destination tasks"
    )]
    fn deliver(&mut self, msg_id: u32) {
        let t = self.msgs[msg_id as usize].dest_task;
        let pending = &mut self.pending_inputs[t.index()];
        debug_assert!(*pending > 0);
        *pending -= 1;
        if *pending == 0 {
            let q = self.placement[t.index()].expect("assigned task has a processor");
            debug_assert!(self.procs[q.index()].compute.is_none());
            self.procs[q.index()].compute = Some(ComputeState {
                task: t,
                remaining: self.g.load(t),
                running_since: None,
            });
            self.pump(q);
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "the generation check above rejects stale timers, so the compute state is live"
    )]
    fn on_task_done(&mut self, p: ProcId, gen: u64) {
        if self.procs[p.index()].gen != gen {
            return; // stale
        }
        let proc = &mut self.procs[p.index()];
        let cs = proc
            .compute
            .take()
            .expect("task timer fired without compute state");
        let since = cs.running_since.expect("completed task was running");
        proc.busy += self.now - since;
        proc.assigned = None;
        let task = cs.task;
        self.gantt.spans.push(Span {
            proc: p,
            kind: SpanKind::Compute,
            start: since,
            end: self.now,
            task: Some(task),
        });
        self.finish[task.index()] = Some(self.now);
        self.finished += 1;
        for e in self.g.successors(task) {
            let c = &mut self.unfinished_preds[e.target.index()];
            *c -= 1;
            if *c == 0 {
                // keep `ready` sorted by id
                let pos = self.ready.partition_point(|&x| x < e.target);
                self.ready.insert(pos, e.target);
            }
        }
        self.epoch_pending = true;
        self.pump(p);
    }

    #[expect(
        clippy::expect_used,
        reason = "schedulers only assign ready tasks, whose predecessors have all finished"
    )]
    fn assign(&mut self, t: TaskId, q: ProcId) {
        self.placement[t.index()] = Some(q);
        self.procs[q.index()].assigned = Some(t);
        let pos = self.ready.binary_search(&t).expect("task was ready");
        self.ready.remove(pos);

        let mut pending = 0u32;
        if self.cfg.comm_enabled {
            let sigma = self.params.sigma;
            let preds: Vec<(TaskId, u64)> = self
                .g
                .predecessors(t)
                .iter()
                .map(|e| (e.target, e.weight))
                .collect();
            for (pred, w) in preds {
                let src = self.placement[pred.index()].expect("predecessor finished");
                if src == q {
                    continue;
                }
                let route = self.routes.route(src, q);
                self.comm.max_hops = self.comm.max_hops.max((route.len() - 1) as u32);
                self.comm.messages += 1;
                let msg_id = self.msgs.len() as u32;
                self.msgs.push(Message {
                    dest_task: t,
                    dest: q,
                    weight: link_occupancy_time(self.params, w),
                    route,
                    hop: 0,
                });
                pending += 1;
                self.enqueue_overhead(
                    src,
                    Overhead {
                        kind: SpanKind::Send,
                        dur: sigma,
                        msg: msg_id,
                    },
                );
            }
        }
        self.pending_inputs[t.index()] = pending;
        if pending == 0 {
            debug_assert!(self.procs[q.index()].compute.is_none());
            self.procs[q.index()].compute = Some(ComputeState {
                task: t,
                remaining: self.g.load(t),
                running_since: None,
            });
            self.pump(q);
        }
    }

    fn run_epoch(&mut self, sched: &mut dyn OnlineScheduler) -> Result<(), SimError> {
        if self.ready.is_empty() {
            return Ok(());
        }
        let idle: Vec<ProcId> = self
            .topo
            .procs()
            .filter(|&p| self.procs[p.index()].is_idle())
            .collect();
        if idle.is_empty() {
            return Ok(());
        }
        self.packets.packets += 1;
        self.packets.total_candidates += self.ready.len() as u64;
        self.packets.total_idle += idle.len() as u64;

        let mut out = Vec::new();
        {
            let ctx = EpochContext {
                time: self.now,
                ready: &self.ready,
                idle: &idle,
                graph: self.g,
                topology: self.topo,
                routes: &self.routes,
                params: self.params,
                placement: &self.placement,
                finish: &self.finish,
                comm_enabled: self.cfg.comm_enabled,
            };
            sched.on_epoch(&ctx, &mut out);
        }

        // Validate.
        let mut used_tasks = std::collections::BTreeSet::new();
        let mut used_procs = std::collections::BTreeSet::new();
        for &(t, p) in &out {
            if self.ready.binary_search(&t).is_err() {
                return Err(SimError::InvalidAssignment(format!("{t} is not ready")));
            }
            if !idle.contains(&p) {
                return Err(SimError::InvalidAssignment(format!("{p} is not idle")));
            }
            if !used_tasks.insert(t) {
                return Err(SimError::InvalidAssignment(format!("{t} assigned twice")));
            }
            if !used_procs.insert(p) {
                return Err(SimError::InvalidAssignment(format!(
                    "{p} received two tasks"
                )));
            }
        }
        self.packets.assigned += out.len() as u64;
        for (t, p) in out {
            self.assign(t, p);
        }
        Ok(())
    }

    #[expect(
        clippy::unwrap_used,
        reason = "the deadlock check above guarantees every task was placed, started and finished"
    )]
    fn run(mut self, sched: &mut dyn OnlineScheduler) -> Result<SimResult, SimError> {
        let mut events: u64 = 0;
        loop {
            let next = self.queue.peek_time();
            if self.epoch_pending && next.is_none_or(|t| t > self.now) {
                self.epoch_pending = false;
                self.epochs += 1;
                self.run_epoch(sched)?;
                continue;
            }
            let Some((t, ev)) = self.queue.pop(&self.store) else {
                break;
            };
            events += 1;
            if events > self.cfg.max_events {
                return Err(SimError::EventLimit);
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            match ev {
                Ev::TaskDone { p, gen } => self.on_task_done(p, gen),
                Ev::OverheadDone { p, gen } => self.on_overhead_done(p, gen),
                Ev::TransferDone { msg } => self.on_transfer_done(msg),
            }
        }
        if self.finished < self.g.num_tasks() {
            let idle = self.procs.iter().filter(|pr| pr.is_idle()).count();
            return Err(SimError::Deadlock {
                time: self.now,
                ready: self.ready.len(),
                idle,
            });
        }
        let makespan = self.finish.iter().map(|f| f.unwrap()).max().unwrap_or(0);
        self.gantt.makespan = makespan;
        let total_work = self.g.total_work();
        Ok(SimResult {
            makespan,
            speedup: if makespan == 0 {
                0.0
            } else {
                total_work as f64 / makespan as f64
            },
            total_work,
            placement: self.placement.iter().map(|p| p.unwrap()).collect(),
            start: self.start.iter().map(|s| s.unwrap()).collect(),
            finish: self.finish.iter().map(|f| f.unwrap()).collect(),
            busy: self.procs.iter().map(|p| p.busy).collect(),
            obs: RunObs {
                events,
                epochs: self.epochs,
                heap_hwm: self.queue.hwm as u64,
                messages: self.comm.messages,
            },
            comm: self.comm,
            packets: self.packets,
            gantt: self.gantt,
            scheduler: sched.name().to_string(),
        })
    }
}

/// Helper: interprets a graph edge weight as link-occupancy time.
///
/// Edge weights in this project are *already* stored as nanoseconds of
/// link time (`w = L/BW` precomputed by the workload generators), so
/// under finite bandwidth they pass through unchanged; free-bandwidth
/// parameter sets zero them out. Shared by the engine and the
/// fixed-mapping evaluator (`crate::eval`) so both charge identical
/// transfer times.
pub(crate) fn link_occupancy_time(params: &CommParams, w: u64) -> u64 {
    if params.bandwidth_bps == u64::MAX {
        0
    } else {
        w
    }
}

/// Simulates `graph` on `topology` with the given communication
/// parameters, driven by `scheduler`.
pub fn simulate(
    graph: &TaskGraph,
    topology: &Topology,
    params: &CommParams,
    scheduler: &mut dyn OnlineScheduler,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    Engine::new(graph, topology, params, config)?.run(scheduler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FixedMapping, GreedyScheduler};
    use anneal_graph::units::us;
    use anneal_graph::TaskGraphBuilder;
    use anneal_topology::builders::{bus, hypercube, linear, shared_bus};

    fn p(i: usize) -> ProcId {
        ProcId::from_index(i)
    }

    /// a(10us) -> b(20us), one 4us message.
    fn two_chain() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(us(10.0));
        let c = b.add_task(us(20.0));
        b.add_edge(a, c, us(4.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn single_task_single_proc() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(us(5.0));
        let g = b.build().unwrap();
        let topo = linear(1);
        let mut s = GreedyScheduler;
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.makespan, us(5.0));
        assert_eq!(r.speedup, 1.0);
        r.audit(&g).unwrap();
    }

    #[test]
    fn chain_same_proc_no_comm_cost() {
        let g = two_chain();
        let topo = bus(2);
        let mut s = FixedMapping::new(vec![p(0), p(0)]);
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.makespan, us(30.0));
        assert_eq!(r.comm.messages, 0);
        r.audit(&g).unwrap();
    }

    #[test]
    fn chain_across_neighbors_pays_full_path() {
        // a on P0, b on P1 at distance 1:
        // a: 0..10; sigma on P0: 10..17; transfer: 17..21;
        // receive tau on P1: 21..30; b: 30..50.
        let g = two_chain();
        let topo = linear(2);
        let mut s = FixedMapping::new(vec![p(0), p(1)]);
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.makespan, us(50.0));
        assert_eq!(r.start[1], us(30.0));
        assert_eq!(r.comm.messages, 1);
        assert_eq!(r.comm.transfer_ns, us(4.0));
        assert_eq!(r.comm.overhead_ns, us(16.0)); // sigma + tau
        r.audit(&g).unwrap();
    }

    #[test]
    fn chain_across_distance_two_adds_route_overhead() {
        // P0 -> P2 on a linear array: sigma 10..17, hop1 17..21,
        // route tau on P1 21..30, hop2 30..34, receive tau 34..43,
        // b 43..63.
        let g = two_chain();
        let topo = linear(3);
        let mut s = FixedMapping::new(vec![p(0), p(2)]);
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.makespan, us(63.0));
        assert_eq!(r.comm.hops, 2);
        assert_eq!(r.comm.max_hops, 2);
        assert_eq!(r.comm.overhead_ns, us(25.0)); // sigma + 2 tau
        r.audit(&g).unwrap();
    }

    #[test]
    fn without_comm_mode_is_free() {
        let g = two_chain();
        let topo = linear(3);
        let mut s = FixedMapping::new(vec![p(0), p(2)]);
        let cfg = SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        };
        let r = simulate(&g, &topo, &CommParams::zero(), &mut s, &cfg).unwrap();
        assert_eq!(r.makespan, us(30.0));
        assert_eq!(r.comm.messages, 0);
        r.audit(&g).unwrap();
    }

    #[test]
    fn routing_preempts_intermediate_compute() {
        // Long task c on P1 gets preempted by a route overhead.
        // a: P0 0..10; c: P1 0..(100, preempted); b: P2.
        // msg a->b: sigma P0 10..17, hop 17..21, route on P1 21..30,
        // hop 30..34, receive P2 34..43, b 43..63.
        // c: runs 0..21, 21..30 preempted, resumes 30..109.
        let mut bld = TaskGraphBuilder::new();
        let a = bld.add_task(us(10.0));
        let c = bld.add_task(us(100.0));
        let b2 = bld.add_task(us(20.0));
        bld.add_edge(a, b2, us(4.0)).unwrap();
        let g = bld.build().unwrap();
        let topo = linear(3);
        let mut s = FixedMapping::new(vec![p(0), p(1), p(2)]);
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.finish[c.index()], us(109.0));
        assert_eq!(r.finish[b2.index()], us(63.0));
        assert_eq!(r.makespan, us(109.0));
        // c has exactly two compute segments
        let segs = r.gantt.task_segments(c);
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].start, segs[0].end), (0, us(21.0)));
        assert_eq!((segs[1].start, segs[1].end), (us(30.0), us(109.0)));
        r.audit(&g).unwrap();
    }

    #[test]
    fn channel_contention_serializes_transfers() {
        // Two messages cross the single P0-P1 link in both directions.
        // a on P0 -> c on P1; b on P1 -> d on P0. Both finish at 10.
        // FixedMapping walks idle processors in id order, so d (pinned to
        // P0) is assigned first and its message wins the channel:
        // sigmas 10..17 on both procs; link: b->d 17..21, a->c 21..25.
        // receive on P0 21..30 -> d 30..50 (20us)
        // receive on P1 25..34 -> c 34..54 (20us)
        let mut bld = TaskGraphBuilder::new();
        let a = bld.add_task(us(10.0));
        let b = bld.add_task(us(10.0));
        let c = bld.add_task(us(20.0));
        let d = bld.add_task(us(20.0));
        bld.add_edge(a, c, us(4.0)).unwrap();
        bld.add_edge(b, d, us(4.0)).unwrap();
        let g = bld.build().unwrap();
        let topo = linear(2);
        let mut s = FixedMapping::new(vec![p(0), p(1), p(1), p(0)]);
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.finish[c.index()], us(54.0));
        assert_eq!(r.finish[d.index()], us(50.0));
        r.audit(&g).unwrap();
    }

    #[test]
    fn shared_bus_contends_globally() {
        // Same two messages but on a 3-proc shared bus between disjoint
        // pairs: transfers still serialize.
        let mut bld = TaskGraphBuilder::new();
        let a = bld.add_task(us(10.0));
        let b = bld.add_task(us(10.0));
        let c = bld.add_task(us(20.0));
        let d = bld.add_task(us(20.0));
        bld.add_edge(a, c, us(4.0)).unwrap();
        bld.add_edge(b, d, us(4.0)).unwrap();
        let g = bld.build().unwrap();

        // Dedicated channels: both transfers overlap.
        let mut s1 = FixedMapping::new(vec![p(0), p(1), p(2), p(3)]);
        let rb = simulate(
            &g,
            &bus(4),
            &CommParams::paper(),
            &mut s1,
            &SimConfig::default(),
        )
        .unwrap();
        // Shared bus: second transfer waits.
        let mut s2 = FixedMapping::new(vec![p(0), p(1), p(2), p(3)]);
        let rs = simulate(
            &g,
            &shared_bus(4),
            &CommParams::paper(),
            &mut s2,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(rs.makespan > rb.makespan);
        assert_eq!(rb.makespan, us(10.0 + 7.0 + 4.0 + 9.0 + 20.0));
        assert_eq!(rs.makespan, us(10.0 + 7.0 + 4.0 + 4.0 + 9.0 + 20.0));
        rb.audit(&g).unwrap();
        rs.audit(&g).unwrap();
    }

    #[test]
    fn greedy_diamond_on_hypercube_audits() {
        let mut bld = TaskGraphBuilder::new();
        let a = bld.add_task(us(10.0));
        let x = bld.add_task(us(20.0));
        let y = bld.add_task(us(30.0));
        let d = bld.add_task(us(40.0));
        bld.add_edge(a, x, us(4.0)).unwrap();
        bld.add_edge(a, y, us(4.0)).unwrap();
        bld.add_edge(x, d, us(4.0)).unwrap();
        bld.add_edge(y, d, us(4.0)).unwrap();
        let g = bld.build().unwrap();
        let topo = hypercube(3);
        let mut s = GreedyScheduler;
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        r.audit(&g).unwrap();
        assert!(r.makespan >= us(100.0) - us(10.0)); // cp bound-ish sanity
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }

    #[test]
    fn makespan_never_beats_critical_path_or_work_bound() {
        let g = anneal_workload_sample();
        let topo = hypercube(3);
        let mut s = GreedyScheduler;
        let cfg = SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        };
        let r = simulate(&g, &topo, &CommParams::zero(), &mut s, &cfg).unwrap();
        let cp = anneal_graph::critical_path::critical_path_length(&g);
        assert!(r.makespan >= cp);
        assert!(r.makespan >= g.total_work() / 8);
        r.audit(&g).unwrap();
    }

    fn anneal_workload_sample() -> TaskGraph {
        use anneal_graph::generate::{layered_random, LayeredConfig, Range};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        layered_random(
            &LayeredConfig {
                layers: 6,
                width: 8,
                edge_prob: 0.3,
                load: Range::new(us(1.0), us(50.0)),
                comm: Range::new(us(1.0), us(8.0)),
            },
            &mut rng,
        )
    }

    #[test]
    fn deadlocking_scheduler_reports_error() {
        struct Lazy;
        impl OnlineScheduler for Lazy {
            fn on_epoch(&mut self, _: &EpochContext<'_>, _: &mut Vec<(TaskId, ProcId)>) {}
        }
        let g = two_chain();
        let topo = bus(2);
        let mut s = Lazy;
        let err = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap_err();
        match err {
            SimError::Deadlock { ready, idle, .. } => {
                assert_eq!(ready, 1);
                assert_eq!(idle, 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn invalid_assignments_rejected() {
        struct Bad(u8);
        impl OnlineScheduler for Bad {
            fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
                match self.0 {
                    0 => out.push((TaskId::from_index(99), ctx.idle[0])), // unknown task
                    1 => {
                        // same proc twice
                        out.push((ctx.ready[0], ctx.idle[0]));
                        out.push((ctx.ready[1], ctx.idle[0]));
                    }
                    _ => {
                        // same task twice
                        out.push((ctx.ready[0], ctx.idle[0]));
                        out.push((ctx.ready[0], ctx.idle[1]));
                    }
                }
            }
        }
        let mut bld = TaskGraphBuilder::new();
        bld.add_task(us(1.0));
        bld.add_task(us(1.0));
        let g = bld.build().unwrap();
        for mode in 0..3u8 {
            let mut s = Bad(mode);
            let err = simulate(
                &g,
                &bus(2),
                &CommParams::paper(),
                &mut s,
                &SimConfig::default(),
            )
            .unwrap_err();
            assert!(matches!(err, SimError::InvalidAssignment(_)), "{err}");
        }
    }

    #[test]
    fn packet_stats_counted() {
        // Two independent tasks, one proc: two epochs with one candidate
        // each... actually epoch 1 sees both candidates.
        let mut bld = TaskGraphBuilder::new();
        bld.add_task(us(5.0));
        bld.add_task(us(5.0));
        let g = bld.build().unwrap();
        let topo = linear(1);
        let mut s = GreedyScheduler;
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.packets.packets, 2);
        assert_eq!(r.packets.total_candidates, 3); // 2 then 1
        assert_eq!(r.packets.assigned, 2);
        assert_eq!(r.makespan, us(10.0));
    }

    #[test]
    fn event_limit_guards() {
        let g = two_chain();
        let cfg = SimConfig {
            comm_enabled: true,
            max_events: 1,
        };
        let mut s = FixedMapping::new(vec![p(0), p(1)]);
        let err = simulate(&g, &linear(2), &CommParams::paper(), &mut s, &cfg).unwrap_err();
        assert_eq!(err, SimError::EventLimit);
    }

    #[test]
    fn compute_time_conservation() {
        let g = anneal_workload_sample();
        let topo = hypercube(3);
        let mut s = GreedyScheduler;
        let r = simulate(
            &g,
            &topo,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.compute_ns(), g.total_work());
        r.audit(&g).unwrap();
    }

    #[test]
    fn utilization_bounded() {
        let g = anneal_workload_sample();
        let r = simulate(
            &g,
            &hypercube(3),
            &CommParams::paper(),
            &mut GreedyScheduler,
            &SimConfig::default(),
        )
        .unwrap();
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }

    #[test]
    fn deterministic_replay() {
        let g = anneal_workload_sample();
        let r1 = simulate(
            &g,
            &hypercube(3),
            &CommParams::paper(),
            &mut GreedyScheduler,
            &SimConfig::default(),
        )
        .unwrap();
        let r2 = simulate(
            &g,
            &hypercube(3),
            &CommParams::paper(),
            &mut GreedyScheduler,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.finish, r2.finish);
        assert_eq!(r1.placement, r2.placement);
    }
}
