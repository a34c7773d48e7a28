//! Standard interconnection topologies.
//!
//! The paper evaluates three: an 8-processor hypercube, an 8-processor
//! "bus (star)" and a 9-processor ring. [`bus`] is modelled as a complete
//! interconnection with dedicated channels: the paper gives the bus only
//! through its distances (`l_ij = 1` for every pair), and eq. 4 has no
//! contention term, so a one-hop, contention-free network is the reading
//! that matches the cost model. [`shared_bus`] (single contended
//! channel) and [`star`] (hub-routed) are the other readings, compared
//! by the `ablations` bin.

use crate::topology::Topology;

/// A `2^dim`-node binary hypercube; nodes are linked iff their indices
/// differ in exactly one bit. `hypercube(3)` is the paper's 8-processor
/// cube.
pub fn hypercube(dim: u32) -> Topology {
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for i in 0..n {
        for b in 0..dim {
            let j = i ^ (1 << b);
            if i < j {
                edges.push((i, j));
            }
        }
    }
    Topology::from_edges(format!("hypercube({n})"), n, &edges)
}

/// An `n`-processor ring: `p_i ↔ p_(i+1 mod n)`. The paper uses `ring(9)`.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 2, "ring needs at least 2 processors");
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    if n > 2 {
        edges.push((n - 1, 0));
    }
    Topology::from_edges(format!("ring({n})"), n, &edges)
}

/// The paper's "bus (star)": every processor one hop from every other
/// (`l_ij = 1` for all pairs), each pair on its own dedicated channel.
pub fn bus(n: usize) -> Topology {
    complete_with_name(format!("bus({n})"), n)
}

/// A fully connected network (alias of [`bus`] with a generic name).
pub fn complete(n: usize) -> Topology {
    complete_with_name(format!("complete({n})"), n)
}

fn complete_with_name(name: String, n: usize) -> Topology {
    assert!(n >= 1);
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((i, j));
        }
    }
    Topology::from_edges(name, n, &edges)
}

/// A single-channel shared bus: unit distance between all pairs but every
/// message contends for one medium. Used by the contention ablation.
pub fn shared_bus(n: usize) -> Topology {
    let t = complete_with_name(format!("shared_bus({n})"), n);
    t.with_shared_channel()
}

/// A star with processor 0 as hub: leaf-to-leaf messages are routed
/// through the hub (distance 2, one routing overhead at the hub).
pub fn star(n: usize) -> Topology {
    assert!(n >= 2, "star needs a hub and at least one leaf");
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
    Topology::from_edges(format!("star({n})"), n, &edges)
}

/// A `w × h` 2-D mesh (no wraparound), row-major numbering.
pub fn mesh(w: usize, h: usize) -> Topology {
    assert!(w >= 1 && h >= 1);
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                edges.push((i, i + 1));
            }
            if y + 1 < h {
                edges.push((i, i + w));
            }
        }
    }
    Topology::from_edges(format!("mesh({w}x{h})"), w * h, &edges)
}

/// A `w × h` 2-D torus (mesh with wraparound links).
pub fn torus(w: usize, h: usize) -> Topology {
    assert!(w >= 2 && h >= 2, "torus needs both dimensions >= 2");
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            let right = y * w + (x + 1) % w;
            let down = ((y + 1) % h) * w + x;
            if i != right {
                edges.push((i.min(right), i.max(right)));
            }
            if i != down {
                edges.push((i.min(down), i.max(down)));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Topology::from_edges(format!("torus({w}x{h})"), w * h, &edges)
}

/// A complete binary tree with `n` processors, heap numbering (children
/// of `i` are `2i+1`, `2i+2`).
pub fn binary_tree(n: usize) -> Topology {
    assert!(n >= 1);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n {
        edges.push(((i - 1) / 2, i));
    }
    Topology::from_edges(format!("binary_tree({n})"), n, &edges)
}

/// A linear array (path) of `n` processors.
pub fn linear(n: usize) -> Topology {
    assert!(n >= 1);
    let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    Topology::from_edges(format!("linear({n})"), n, &edges)
}

/// The paper's three evaluation architectures, in Table-2 order:
/// hypercube(8), bus(8), ring(9).
pub fn paper_architectures() -> Vec<Topology> {
    vec![hypercube(3), bus(8), ring(9)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;
    use crate::proc_id::ProcId;

    fn p(i: usize) -> ProcId {
        ProcId::from_index(i)
    }

    #[test]
    fn hypercube8_structure() {
        let t = hypercube(3);
        assert_eq!(t.num_procs(), 8);
        assert_eq!(t.num_links(), 12);
        for q in t.procs() {
            assert_eq!(t.degree(q), 3);
        }
        assert!(t.linked(p(0), p(4)));
        assert!(!t.linked(p(0), p(3)));
    }

    #[test]
    fn hypercube_distance_is_hamming() {
        let t = hypercube(4);
        let d = DistanceMatrix::build(&t).unwrap();
        for i in 0..16usize {
            for j in 0..16usize {
                assert_eq!(d.get(p(i), p(j)), (i ^ j).count_ones());
            }
        }
    }

    #[test]
    fn ring_structure_and_distance() {
        let t = ring(9);
        assert_eq!(t.num_procs(), 9);
        assert_eq!(t.num_links(), 9);
        let d = DistanceMatrix::build(&t).unwrap();
        for i in 0..9usize {
            for j in 0..9usize {
                let around = (i as i64 - j as i64).unsigned_abs() as usize;
                let expect = around.min(9 - around) as u32;
                assert_eq!(d.get(p(i), p(j)), expect);
            }
        }
        assert_eq!(d.diameter(), 4);
    }

    #[test]
    fn two_ring_is_single_link() {
        let t = ring(2);
        assert_eq!(t.num_links(), 1);
    }

    #[test]
    fn bus_is_complete_unit_distance() {
        let t = bus(8);
        assert_eq!(t.num_links(), 28);
        assert_eq!(t.num_channels(), 28);
        let d = DistanceMatrix::build(&t).unwrap();
        assert_eq!(d.diameter(), 1);
    }

    #[test]
    fn shared_bus_single_channel() {
        let t = shared_bus(8);
        assert_eq!(t.num_channels(), 1);
        let d = DistanceMatrix::build(&t).unwrap();
        assert_eq!(d.diameter(), 1);
    }

    #[test]
    fn star_hub_routing_distances() {
        let t = star(8);
        assert_eq!(t.num_links(), 7);
        let d = DistanceMatrix::build(&t).unwrap();
        assert_eq!(d.get(p(0), p(3)), 1);
        assert_eq!(d.get(p(2), p(3)), 2);
        assert_eq!(d.diameter(), 2);
    }

    #[test]
    fn mesh_and_torus_distances() {
        let m = mesh(3, 3);
        let dm = DistanceMatrix::build(&m).unwrap();
        assert_eq!(dm.get(p(0), p(8)), 4); // corner to corner
        let t = torus(3, 3);
        let dt = DistanceMatrix::build(&t).unwrap();
        assert_eq!(dt.get(p(0), p(8)), 2); // wraparound shortens
        for q in t.procs() {
            assert_eq!(t.degree(q), 4);
        }
    }

    #[test]
    fn torus2x2_has_no_duplicate_links() {
        let t = torus(2, 2);
        // wraparound == direct link on a 2-extent dimension; must dedup
        assert_eq!(t.num_links(), 4);
    }

    #[test]
    fn binary_tree_and_linear() {
        let bt = binary_tree(7);
        assert_eq!(bt.num_links(), 6);
        assert_eq!(bt.degree(p(0)), 2);
        let d = DistanceMatrix::build(&bt).unwrap();
        assert_eq!(d.get(p(3), p(6)), 4); // leaf to leaf across root
        let ln = linear(5);
        let dl = DistanceMatrix::build(&ln).unwrap();
        assert_eq!(dl.diameter(), 4);
        assert_eq!(linear(1).num_links(), 0);
    }

    #[test]
    fn paper_architectures_match_table2() {
        let archs = paper_architectures();
        assert_eq!(archs.len(), 3);
        assert_eq!(archs[0].num_procs(), 8);
        assert_eq!(archs[1].num_procs(), 8);
        assert_eq!(archs[2].num_procs(), 9);
        assert_eq!(archs[0].name(), "hypercube(8)");
        assert_eq!(archs[1].name(), "bus(8)");
        assert_eq!(archs[2].name(), "ring(9)");
    }
}
