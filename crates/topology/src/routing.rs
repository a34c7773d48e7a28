//! Deterministic shortest-path routing.
//!
//! `next_hop[src][dst]` is the smallest-id neighbor of `src` lying on a
//! shortest path to `dst` — a topology-agnostic deterministic rule. For
//! hypercubes a classic e-cube router ([`ecube_route`]) is also provided;
//! both produce shortest routes of identical length, though the chosen
//! dimension order can differ.

use crate::distance::{Disconnected, DistanceMatrix};
use crate::proc_id::ProcId;
use crate::topology::Topology;

/// Precomputed next-hop table plus the distance matrix it derives from.
#[derive(Debug, Clone)]
pub struct RouteTable {
    n: usize,
    next: Vec<u32>, // n*n; next[src*n+dst]; src==dst => src
    dist: DistanceMatrix,
}

impl RouteTable {
    /// Builds routes for `t`; errors if disconnected.
    #[expect(
        clippy::expect_used,
        reason = "the BFS just reached `cur`, so a next hop toward the source exists"
    )]
    pub fn build(t: &Topology) -> Result<Self, Disconnected> {
        let dist = DistanceMatrix::build(t)?;
        let n = t.num_procs();
        let mut next = vec![0u32; n * n];
        for src in 0..n {
            let s = ProcId::from_index(src);
            for dst in 0..n {
                let d = ProcId::from_index(dst);
                if src == dst {
                    next[src * n + dst] = src as u32;
                    continue;
                }
                let want = dist.get(s, d) - 1;
                // Neighbor lists are sorted, so `find` gives smallest id.
                let hop = t
                    .neighbors(s)
                    .iter()
                    .find(|&&nb| dist.get(nb, d) == want)
                    .copied()
                    .expect("connected graph has a next hop");
                next[src * n + dst] = hop.raw();
            }
        }
        Ok(RouteTable { n, next, dist })
    }

    /// The next hop from `src` toward `dst` (`src` itself when equal).
    #[inline]
    pub fn next_hop(&self, src: ProcId, dst: ProcId) -> ProcId {
        ProcId(self.next[src.index() * self.n + dst.index()])
    }

    /// Full route `src → … → dst`, endpoints included. `src == dst` gives
    /// a single-element route.
    pub fn route(&self, src: ProcId, dst: ProcId) -> Vec<ProcId> {
        let mut out = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst);
            out.push(cur);
        }
        out
    }

    /// The distance matrix used to build the table.
    #[inline]
    pub fn distances(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// Hop distance `d(a, b)`.
    #[inline]
    pub fn distance(&self, a: ProcId, b: ProcId) -> u32 {
        self.dist.get(a, b)
    }
}

/// Direct e-cube route on a hypercube: repeatedly flip the lowest set bit
/// of `cur ^ dst`. Provided for cross-checking [`RouteTable`] on cubes.
pub fn ecube_route(src: ProcId, dst: ProcId) -> Vec<ProcId> {
    let mut out = vec![src];
    let mut cur = src.raw();
    let d = dst.raw();
    while cur != d {
        let bit = (cur ^ d).trailing_zeros();
        cur ^= 1 << bit;
        out.push(ProcId(cur));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{hypercube, ring, star};

    fn p(i: usize) -> ProcId {
        ProcId::from_index(i)
    }

    #[test]
    fn routes_are_shortest_and_adjacent(/* generic validity */) {
        for t in [hypercube(3), ring(9), star(8)] {
            let rt = RouteTable::build(&t).unwrap();
            for a in t.procs() {
                for b in t.procs() {
                    let route = rt.route(a, b);
                    assert_eq!(route.len() as u32, rt.distance(a, b) + 1);
                    assert_eq!(*route.first().unwrap(), a);
                    assert_eq!(*route.last().unwrap(), b);
                    for w in route.windows(2) {
                        assert!(t.linked(w[0], w[1]), "{t:?} route not adjacent");
                    }
                }
            }
        }
    }

    #[test]
    fn hypercube_routes_match_ecube_length() {
        let t = hypercube(4);
        let rt = RouteTable::build(&t).unwrap();
        for a in t.procs() {
            for b in t.procs() {
                let ec = ecube_route(a, b);
                assert_eq!(rt.route(a, b).len(), ec.len(), "{a} -> {b}");
                // the e-cube route is itself a valid adjacent chain
                for w in ec.windows(2) {
                    assert!(t.linked(w[0], w[1]));
                }
                assert_eq!(ec.len() as u32, rt.distance(a, b) + 1);
            }
        }
    }

    #[test]
    fn self_route_is_singleton() {
        let rt = RouteTable::build(&ring(5)).unwrap();
        assert_eq!(rt.route(p(2), p(2)), vec![p(2)]);
        assert_eq!(rt.next_hop(p(2), p(2)), p(2));
    }

    #[test]
    fn star_routes_via_hub() {
        let rt = RouteTable::build(&star(6)).unwrap();
        assert_eq!(rt.route(p(2), p(4)), vec![p(2), p(0), p(4)]);
        assert_eq!(rt.route(p(0), p(3)), vec![p(0), p(3)]);
    }

    #[test]
    fn ring_prefers_short_side_deterministically() {
        let rt = RouteTable::build(&ring(6)).unwrap();
        // 0 -> 3 is distance 3 both ways; smallest-id next hop is 1.
        assert_eq!(rt.route(p(0), p(3)), vec![p(0), p(1), p(2), p(3)]);
        // 0 -> 4 shorter counterclockwise (0,5,4).
        assert_eq!(rt.route(p(0), p(4)), vec![p(0), p(5), p(4)]);
    }

    #[test]
    fn ecube_flips_low_bits_first() {
        let r = ecube_route(p(0b000), p(0b101));
        let ids: Vec<u32> = r.iter().map(|q| q.raw()).collect();
        assert_eq!(ids, vec![0b000, 0b001, 0b101]);
    }
}
