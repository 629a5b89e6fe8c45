//! Inputs generated from the workload seed: graphs, query frames and
//! fresh edges to insert. The same seed gives the same inputs.

use std::collections::HashSet;

use graphgen::directed::orient_scale_free;
use graphgen::{glp, GlpParams};
use sfgraph::{Graph, VertexId};

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What graph a workload runs on.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// Vertices.
    pub n: usize,
    /// Expected edges per vertex of the undirected GLP process.
    pub density: f64,
    /// Orient the GLP graph, keeping both arcs of an edge with this
    /// probability; `None` keeps it undirected.
    pub reciprocity: Option<f64>,
}

/// The workload graph for `seed`.
pub fn graph(spec: &GraphSpec, seed: u64) -> Graph {
    let mut rng = Rng::new(seed, 1);
    let g = glp(&GlpParams::with_density(spec.n, spec.density, rng.next()));
    match spec.reciprocity {
        Some(r) => orient_scale_free(&g, r, rng.next()),
        None => g,
    }
}

/// `count` query frames of `size` pairs over `n` vertices. Each frame
/// asks a few `d(s, s)` pairs and the reverse of a few of its pairs,
/// so the answers can be checked for those properties.
pub fn frames(
    n: usize,
    count: usize,
    size: usize,
    seed: u64,
    salt: u64,
) -> Vec<Vec<(VertexId, VertexId)>> {
    let mut rng = Rng::new(seed, salt);
    (0..count)
        .map(|_| {
            let mut frame = Vec::with_capacity(size);
            while frame.len() < size {
                let s = rng.below(n) as VertexId;
                match frame.len() % 16 {
                    0 => frame.push((s, s)),
                    1 if frame.len() > 2 => {
                        let (a, b) = frame[rng.below(frame.len())];
                        frame.push((b, a));
                    }
                    _ => frame.push((s, rng.below(n) as VertexId)),
                }
            }
            frame
        })
        .collect()
}

/// `count` distinct unit-weight edges absent from `g`, no self-loops.
pub fn fresh_edges(g: &Graph, count: usize, seed: u64) -> Vec<(VertexId, VertexId, u32)> {
    let mut rng = Rng::new(seed, 7);
    let n = g.num_vertices();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        let key = if g.is_directed() { (u, v) } else { (u.min(v), u.max(v)) };
        if u != v && !g.has_edge(u, v) && seen.insert(key) {
            out.push((u, v, 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = GraphSpec { n: 500, density: 3.0, reciprocity: Some(0.25) };
        let (a, b, c) = (graph(&spec, 1), graph(&spec, 1), graph(&spec, 2));
        assert!(a.is_directed());
        assert_eq!(a.edge_list(), b.edge_list());
        assert_ne!(a.edge_list(), c.edge_list());
        assert_eq!(frames(500, 3, 64, 9, 1), frames(500, 3, 64, 9, 1));
        assert_ne!(frames(500, 3, 64, 9, 1), frames(500, 3, 64, 10, 1));
    }

    #[test]
    fn frames_carry_self_and_reversed_pairs() {
        for frame in frames(1000, 4, 256, 3, 2) {
            assert_eq!(frame.len(), 256);
            assert!(frame.iter().filter(|(s, t)| s == t).count() >= 16);
            let set: HashSet<_> = frame.iter().copied().collect();
            assert!(frame.iter().filter(|&&(s, t)| s != t && set.contains(&(t, s))).count() >= 8);
        }
    }

    #[test]
    fn fresh_edges_are_new_and_distinct() {
        let g = graph(&GraphSpec { n: 300, density: 3.0, reciprocity: None }, 5);
        let edges = fresh_edges(&g, 50, 5);
        assert_eq!(edges.len(), 50);
        for &(u, v, w) in &edges {
            assert!(u != v && !g.has_edge(u, v) && w == 1);
        }
        let keys: HashSet<_> = edges.iter().map(|&(u, v, _)| (u.min(v), u.max(v))).collect();
        assert_eq!(keys.len(), 50);
    }
}
