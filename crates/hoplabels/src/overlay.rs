//! Delta overlay: a small second index answering queries on a mutated
//! graph without rebuilding the frozen labels.
//!
//! The frozen [`FlatIndex`](crate::flat::FlatIndex) is exact for the
//! graph it was built from. When edges are *inserted* (or an existing
//! edge's weight is decreased — insertions merge by minimum weight),
//! distances can only shrink, and every improved path must cross at
//! least one new edge. [`OverlaySnapshot`] exploits that decomposition:
//! any path in the mutated graph `G' = G ∪ E'` that uses a new edge
//! splits as
//!
//! ```text
//!   s ──old──▶ a ──(G' closure)──▶ b ──old──▶ t
//! ```
//!
//! where `a` is the tail of the *first* new edge on the path and `b`
//! the head of the *last* one. The overlay therefore stores the
//! affected vertex set `A` (endpoints of inserted edges) together with
//! the exact all-pairs closure `D[a][b] = d_G'(a, b)` over `A`, and the
//! serving-time answer becomes
//!
//! ```text
//!   d_G'(s, t) = min( frozen(s, t),
//!                     min over a ∈ tails, b ∈ heads of
//!                         frozen(s, a) + D[a][b] + frozen(b, t) )
//! ```
//!
//! The closure is maintained incrementally, one batch at a time, by
//! [`OverlaySnapshot::extend`]. A vertex new to `A` gets its row and
//! column from frozen queries against `A`, closed through the existing
//! `D` (any path from it to `b` either stays in the old graph or
//! reaches a first overlay tail `a` through the old graph, so
//! `D[x][b] = min(frozen(x, b), min_a frozen(x, a) + D[a][b])`, and the
//! same for columns). Each batch edge `(u, v, w)` that beats `D[u][v]`
//! then relaxes every pair, `D[i][j] = min(D[i][j], D[i][u] + w +
//! D[v][j])` — exact because a shortest path crosses a given positive
//! edge at most once. An undirected edge is relaxed as both arcs.
//! Building a snapshot from nothing is the same call on an empty one.
//!
//! Cost model: a batch of `δ` edges costs `O(δ·|A|)` frozen queries
//! (the rows and columns of its new vertices, batched through one
//! `query_many_into`) plus `O(δ·|A|²)` arithmetic, and copying the
//! `|A|²` matrix into the new snapshot. Each query against a non-empty
//! overlay adds `O(|A|)` frozen point queries plus an `O(|A|²)` scan.
//! Both stay bounded by compacting (full rebuild on the mutated graph,
//! which empties the overlay) once the overlay crosses a threshold.
//!
//! [`LiveIndex`] packages a frozen backend plus one immutable snapshot
//! behind [`QueryBackend`], so the serving tier swaps whole snapshots
//! atomically (copy-on-write) and every pinned `LiveIndex` keeps
//! answering from exactly one consistent state.
//!
//! Everything here operates in *rank space*, like the rest of the
//! crate; id translation stays the caller's job.

use std::io;
use std::sync::Arc;

use sfgraph::{Dist, VertexId, INF_DIST};

use crate::query::QueryBackend;

/// An immutable view of a batch of edge insertions on top of a frozen
/// index: the affected vertices and the exact distance closure among
/// them on the mutated graph. Each update batch derives a new snapshot
/// from the previous one ([`OverlaySnapshot::extend`]), which is then
/// shared read-only by every in-flight query.
#[derive(Clone, Debug, Default)]
pub struct OverlaySnapshot {
    directed: bool,
    /// Deduplicated inserted edges, minimum weight per endpoint pair;
    /// undirected edges normalised to `u < v`; sorted. Kept so the
    /// overlay can be replayed by a compactor.
    edges: Vec<(VertexId, VertexId, Dist)>,
    /// Sorted endpoints of all inserted edges (the affected set `A`).
    verts: Vec<VertexId>,
    /// Positions in `verts` that can start an overlay detour: tails of
    /// inserted edges (every endpoint for undirected graphs).
    srcs: Vec<u32>,
    /// Positions in `verts` that can end one: heads of inserted edges.
    dsts: Vec<u32>,
    /// `verts.len()²` row-major mutated-graph distances over `verts`.
    closure: Vec<Dist>,
}

impl OverlaySnapshot {
    /// An overlay with no edges; queries pass through unchanged.
    pub fn empty(directed: bool) -> OverlaySnapshot {
        OverlaySnapshot { directed, ..OverlaySnapshot::default() }
    }

    /// The successor snapshot covering this one's edges plus `batch`
    /// (rank space). Copy-on-write: `self` is left untouched, so
    /// readers pinned to it keep answering from it.
    ///
    /// Self-loops are dropped and zero weights clamped to 1, mirroring
    /// `sfgraph::GraphBuilder`'s cleaning rules so that a later full
    /// rebuild of the mutated graph answers identically. Duplicate
    /// insertions keep the minimum weight; an edge the frozen graph or
    /// the overlay already covers with a smaller weight is harmless
    /// (the `min` never loses to it).
    pub fn extend(
        &self,
        frozen: &dyn QueryBackend,
        batch: &[(VertexId, VertexId, Dist)],
    ) -> io::Result<OverlaySnapshot> {
        let directed = self.directed;
        if frozen.is_directed() != directed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "overlay and frozen index disagree on directedness",
            ));
        }
        let mut dedup: std::collections::BTreeMap<(VertexId, VertexId), Dist> =
            std::collections::BTreeMap::new();
        for &(u, v, w) in batch {
            if u == v {
                continue;
            }
            let key = if directed || u < v { (u, v) } else { (v, u) };
            let w = w.max(1);
            let slot = dedup.entry(key).or_insert(w);
            *slot = (*slot).min(w);
        }
        if dedup.is_empty() {
            return Ok(self.clone());
        }
        let batch: Vec<(VertexId, VertexId, Dist)> =
            dedup.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        let edges = merge_min(&self.edges, &batch);

        let old = &self.verts;
        let mut fresh: Vec<VertexId> = batch
            .iter()
            .flat_map(|&(u, v, _)| [u, v])
            .filter(|x| old.binary_search(x).is_err())
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        let mut verts = [old.as_slice(), &fresh].concat();
        verts.sort_unstable();
        let (k0, k) = (old.len(), verts.len());
        let pos = |v: VertexId| verts.binary_search(&v).expect("endpoint in verts");
        let old_at: Vec<usize> = old.iter().map(|&v| pos(v)).collect();
        let fresh_at: Vec<usize> = fresh.iter().map(|&v| pos(v)).collect();

        // Old distances keep their values; only their slots move.
        let mut closure = vec![INF_DIST; k * k];
        for (i, &pi) in old_at.iter().enumerate() {
            for (j, &pj) in old_at.iter().enumerate() {
                closure[pi * k + pj] = self.closure[i * k0 + j];
            }
        }

        // Frozen distances of every new vertex: its row against all of
        // `A'`, then (directed only; undirected columns mirror rows) its
        // column against the old `A`.
        let mut pairs: Vec<(VertexId, VertexId)> =
            fresh.iter().flat_map(|&x| verts.iter().map(move |&b| (x, b))).collect();
        if directed {
            pairs.extend(fresh.iter().flat_map(|&y| old.iter().map(move |&a| (a, y))));
        }
        let mut frozen_dist = Vec::with_capacity(pairs.len());
        frozen.query_many_into(&pairs, 1, &mut frozen_dist)?;
        let (rows, cols) = frozen_dist.split_at(fresh.len() * k);
        let row = |f: usize| &rows[f * k..(f + 1) * k];
        let col = |f: usize, i: usize| if directed { cols[f * k0 + i] } else { row(f)[old_at[i]] };

        // Columns first: `D[a][y]` over old `a` closes through old
        // overlay heads, `min(frozen(a, y), D[a][b] + frozen(b, y))`.
        for (f, &py) in fresh_at.iter().enumerate() {
            for (i, &pa) in old_at.iter().enumerate() {
                let old_row = &self.closure[i * k0..(i + 1) * k0];
                let mut best = col(f, i);
                for &b in &self.dsts {
                    let cand = old_row[b as usize].saturating_add(col(f, b as usize));
                    best = best.min(cand);
                }
                closure[pa * k + py] = best;
            }
        }
        // Then rows over all of `A'`: `min(frozen(x, b), frozen(x, a) +
        // D[a][b])` through old overlay tails `a`, whose rows now hold
        // the columns of every new vertex too.
        for (f, &px) in fresh_at.iter().enumerate() {
            let frozen_row = row(f);
            let mut out = frozen_row.to_vec();
            for &a in &self.srcs {
                let pa = old_at[a as usize];
                let da = frozen_row[pa];
                if da == INF_DIST {
                    continue;
                }
                for (slot, &dab) in out.iter_mut().zip(&closure[pa * k..(pa + 1) * k]) {
                    *slot = (*slot).min(da.saturating_add(dab));
                }
            }
            out[px] = 0;
            closure[px * k..(px + 1) * k].copy_from_slice(&out);
        }

        // Every batch arc that beats the current closure relaxes all
        // pairs through itself.
        for &(u, v, w) in &batch {
            let (pu, pv) = (pos(u), pos(v));
            relax_arc(&mut closure, k, pu, pv, w);
            if !directed {
                relax_arc(&mut closure, k, pv, pu, w);
            }
        }

        let (srcs, dsts) = if directed {
            let mut srcs: Vec<u32> = edges.iter().map(|&(u, _, _)| pos(u) as u32).collect();
            let mut dsts: Vec<u32> = edges.iter().map(|&(_, v, _)| pos(v) as u32).collect();
            srcs.sort_unstable();
            srcs.dedup();
            dsts.sort_unstable();
            dsts.dedup();
            (srcs, dsts)
        } else {
            let all: Vec<u32> = (0..k as u32).collect();
            (all.clone(), all)
        };
        Ok(OverlaySnapshot { directed, edges, verts, srcs, dsts, closure })
    }

    /// Whether the overlay holds no edges (queries pass through).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Deduplicated inserted-edge count — the compaction trigger metric.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The deduplicated inserted edges, `(u, v, w)` in rank space.
    pub fn edges(&self) -> &[(VertexId, VertexId, Dist)] {
        &self.edges
    }

    /// Number of distinct vertices touched by inserted edges.
    pub fn affected(&self) -> usize {
        self.verts.len()
    }

    /// Heap bytes held by the snapshot (edge list plus closure).
    pub fn resident_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<(VertexId, VertexId, Dist)>()
            + self.verts.len() * std::mem::size_of::<VertexId>()
            + (self.srcs.len() + self.dsts.len()) * std::mem::size_of::<u32>()
            + self.closure.len() * std::mem::size_of::<Dist>()
    }

    /// Improve a frozen answer `base = frozen(s, t)` with paths that
    /// cross inserted edges. Returns `min(base, best overlay detour)`.
    pub fn improve(
        &self,
        frozen: &dyn QueryBackend,
        s: VertexId,
        t: VertexId,
        base: Dist,
    ) -> io::Result<Dist> {
        if self.edges.is_empty() || base == 0 {
            // `base == 0` means `s == t`; weights are ≥ 1 so no detour
            // through a new edge can beat it.
            return Ok(base);
        }
        let k = self.verts.len();
        let mut head_dist = Vec::with_capacity(self.dsts.len());
        for &j in &self.dsts {
            head_dist.push(frozen.query(self.verts[j as usize], t)?);
        }
        let mut best = base;
        for &i in &self.srcs {
            let da = frozen.query(s, self.verts[i as usize])?;
            if da >= best {
                continue;
            }
            let row = &self.closure[i as usize * k..(i as usize + 1) * k];
            for (&j, &db) in self.dsts.iter().zip(&head_dist) {
                if db >= best {
                    continue;
                }
                let cand = da.saturating_add(row[j as usize]).saturating_add(db);
                if cand < best {
                    best = cand;
                }
            }
        }
        Ok(best)
    }

    /// Whether the snapshot was built against a directed backend.
    pub fn is_directed(&self) -> bool {
        self.directed
    }
}

/// Merge two sorted, deduplicated edge lists, keeping the minimum
/// weight where both hold the same endpoint pair.
fn merge_min(
    a: &[(VertexId, VertexId, Dist)],
    b: &[(VertexId, VertexId, Dist)],
) -> Vec<(VertexId, VertexId, Dist)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ka, kb) = ((a[i].0, a[i].1), (b[j].0, b[j].1));
        if ka < kb {
            out.push(a[i]);
            i += 1;
        } else if kb < ka {
            out.push(b[j]);
            j += 1;
        } else {
            out.push((ka.0, ka.1, a[i].2.min(b[j].2)));
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Insert the arc `u → v` of weight `w` into the exact `k × k` closure
/// `d`: `d[i][j] = min(d[i][j], d[i][u] + w + d[v][j])`. The path
/// segments are read before any write, from the closure without the
/// arc, which is exact since a shortest path uses the arc at most once.
fn relax_arc(d: &mut [Dist], k: usize, u: usize, v: usize, w: Dist) {
    if w >= d[u * k + v] {
        return;
    }
    let to_u: Vec<Dist> = (0..k).map(|i| d[i * k + u]).collect();
    let from_v: Vec<Dist> = d[v * k..(v + 1) * k].to_vec();
    for (i, &du) in to_u.iter().enumerate() {
        let via = du.saturating_add(w);
        if via == INF_DIST {
            continue;
        }
        for (slot, &dv) in d[i * k..(i + 1) * k].iter_mut().zip(&from_v) {
            *slot = (*slot).min(via.saturating_add(dv));
        }
    }
}

/// A frozen backend plus one immutable overlay snapshot, served as a
/// single [`QueryBackend`]: `query` answers `min(frozen, overlay)`.
///
/// `LiveIndex` is cheap to clone-with-new-overlay (the frozen side is
/// shared through an `Arc`), which is how the serving tier applies an
/// update batch: derive the next snapshot, wrap it in a new `LiveIndex`
/// and publish that atomically. In-flight queries keep the `Arc` they
/// pinned, so each one observes exactly one `(frozen, overlay)` state.
pub struct LiveIndex {
    frozen: Arc<dyn QueryBackend>,
    overlay: Arc<OverlaySnapshot>,
    generation: u64,
}

impl LiveIndex {
    /// Wrap a frozen backend with an empty overlay.
    pub fn new(frozen: Arc<dyn QueryBackend>, generation: u64) -> LiveIndex {
        let overlay = Arc::new(OverlaySnapshot::empty(frozen.is_directed()));
        LiveIndex { frozen, overlay, generation }
    }

    /// Wrap a frozen backend with an existing snapshot.
    pub fn with_overlay(
        frozen: Arc<dyn QueryBackend>,
        overlay: Arc<OverlaySnapshot>,
        generation: u64,
    ) -> LiveIndex {
        LiveIndex { frozen, overlay, generation }
    }

    /// A new `LiveIndex` over the same frozen labels whose overlay
    /// covers exactly `edges` (rank space, the *complete* desired edge
    /// set), built from an empty overlay.
    pub fn rebuild_overlay(&self, edges: &[(VertexId, VertexId, Dist)]) -> io::Result<LiveIndex> {
        let empty = OverlaySnapshot::empty(self.frozen.is_directed());
        Ok(self.with_snapshot(empty.extend(&*self.frozen, edges)?))
    }

    /// A new `LiveIndex` over the same frozen labels whose overlay
    /// covers the current overlay's edges plus `batch` (rank space).
    /// Costs the batch, not the whole overlay; `self` is untouched.
    pub fn extend_overlay(&self, batch: &[(VertexId, VertexId, Dist)]) -> io::Result<LiveIndex> {
        Ok(self.with_snapshot(self.overlay.extend(&*self.frozen, batch)?))
    }

    fn with_snapshot(&self, snapshot: OverlaySnapshot) -> LiveIndex {
        LiveIndex {
            frozen: Arc::clone(&self.frozen),
            overlay: Arc::new(snapshot),
            generation: self.generation,
        }
    }

    /// The frozen half.
    pub fn frozen(&self) -> &Arc<dyn QueryBackend> {
        &self.frozen
    }

    /// The current overlay snapshot.
    pub fn overlay(&self) -> &Arc<OverlaySnapshot> {
        &self.overlay
    }
}

impl QueryBackend for LiveIndex {
    fn num_vertices(&self) -> usize {
        self.frozen.num_vertices()
    }

    fn is_directed(&self) -> bool {
        self.frozen.is_directed()
    }

    fn resident_bytes(&self) -> usize {
        self.frozen.resident_bytes() + self.overlay.resident_bytes()
    }

    fn is_resident(&self) -> bool {
        self.frozen.is_resident()
    }

    fn generation_id(&self) -> u64 {
        self.generation
    }

    fn query(&self, s: VertexId, t: VertexId) -> io::Result<Dist> {
        let base = self.frozen.query(s, t)?;
        self.overlay.improve(&*self.frozen, s, t, base)
    }

    fn query_many_into(
        &self,
        pairs: &[(VertexId, VertexId)],
        threads: usize,
        out: &mut Vec<Dist>,
    ) -> io::Result<()> {
        // Stage so an overlay I/O error leaves `out` untouched. The
        // overlay pass is per-pair and order-independent, so answers
        // stay bit-identical for any `threads` value the frozen side
        // fans out with.
        let mut staged = Vec::with_capacity(pairs.len());
        self.frozen.query_many_into(pairs, threads, &mut staged)?;
        if !self.overlay.is_empty() {
            for (slot, &(s, t)) in staged.iter_mut().zip(pairs) {
                *slot = self.overlay.improve(&*self.frozen, s, t, *slot)?;
            }
        }
        out.extend_from_slice(&staged);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::index::LabelIndex;
    use crate::LabelEntry;
    use sfgraph::builder::GraphBuilder;
    use sfgraph::traversal::all_pairs;
    use sfgraph::Graph;

    /// A trivially-exact 2-hop cover: every vertex stores the distance
    /// to/from every higher-ranked vertex (id ≤ its own). The
    /// highest-ranked vertex on any shortest path is such a pivot for
    /// both endpoints, so joins are exact.
    fn full_index(g: &Graph) -> LabelIndex {
        let n = g.num_vertices();
        let ap = all_pairs(g);
        let ap_rev: Option<Vec<Vec<Dist>>> = g.is_directed().then(|| {
            (0..n)
                .map(|t| (0..n).map(|s| ap[s][t]).collect::<Vec<Dist>>())
                .collect::<Vec<Vec<Dist>>>()
        });
        let mut idx = if g.is_directed() {
            LabelIndex::new_directed(n)
        } else {
            LabelIndex::new_undirected(n)
        };
        for v in 0..n {
            for p in 0..=v {
                match &mut idx {
                    LabelIndex::Undirected(u) => {
                        if ap[v][p] != INF_DIST {
                            u.labels[v].insert_min(LabelEntry::new(p as VertexId, ap[v][p]));
                        }
                    }
                    LabelIndex::Directed(d) => {
                        if ap[v][p] != INF_DIST {
                            d.out_labels[v].insert_min(LabelEntry::new(p as VertexId, ap[v][p]));
                        }
                        let to_v = ap_rev.as_ref().unwrap()[v][p];
                        if to_v != INF_DIST {
                            d.in_labels[v].insert_min(LabelEntry::new(p as VertexId, to_v));
                        }
                    }
                }
            }
        }
        idx
    }

    fn check_overlay(mut builder: GraphBuilder, inserts: &[(VertexId, VertexId, Dist)]) {
        let g = builder.build_clone();
        let frozen: Arc<dyn QueryBackend> = Arc::new(FlatIndex::from_index(&full_index(&g)));
        let live = LiveIndex::new(Arc::clone(&frozen), 1).rebuild_overlay(inserts).unwrap();

        for &(u, v, w) in inserts {
            builder.add_weighted_edge(u, v, w);
        }
        let mutated = builder.build();
        let want = all_pairs(&mutated);

        let n = g.num_vertices();
        let pairs: Vec<(VertexId, VertexId)> =
            (0..n).flat_map(|s| (0..n).map(move |t| (s as VertexId, t as VertexId))).collect();
        let mut got = Vec::new();
        live.query_many_into(&pairs, 1, &mut got).unwrap();
        for (&(s, t), &d) in pairs.iter().zip(&got) {
            assert_eq!(d, want[s as usize][t as usize], "{s}->{t}");
            assert_eq!(live.query(s, t).unwrap(), d, "point query {s}->{t}");
        }
        let mut threaded = Vec::new();
        live.query_many_into(&pairs, 4, &mut threaded).unwrap();
        assert_eq!(got, threaded, "answers must not depend on the thread count");
    }

    #[test]
    fn undirected_overlay_matches_rebuilt_ground_truth() {
        let mut b = GraphBuilder::new_undirected(8).weighted();
        for &(u, v, w) in
            &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 4), (4, 5, 1), (0, 6, 9), (6, 7, 2)]
        {
            b.add_weighted_edge(u, v, w);
        }
        // A shortcut, a brand-new attachment for an isolated-ish tail,
        // and a weight improvement on an existing edge.
        check_overlay(b, &[(0, 4, 1), (5, 7, 2), (0, 6, 3)]);
    }

    #[test]
    fn directed_overlay_matches_rebuilt_ground_truth() {
        let mut b = GraphBuilder::new_directed(7).weighted();
        for &(u, v, w) in &[(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 5), (4, 5, 2), (5, 6, 3)] {
            b.add_weighted_edge(u, v, w);
        }
        // Connect the two components in one direction only and add a
        // back-edge shortcut.
        check_overlay(b, &[(2, 4, 1), (6, 0, 2), (3, 1, 1)]);
    }

    #[test]
    fn empty_overlay_passes_queries_through() {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let frozen: Arc<dyn QueryBackend> = Arc::new(FlatIndex::from_index(&full_index(&g)));
        let live = LiveIndex::new(Arc::clone(&frozen), 7);
        assert_eq!(live.generation_id(), 7);
        assert!(live.overlay().is_empty());
        assert_eq!(live.query(0, 2).unwrap(), 2);
        assert_eq!(live.query(0, 3).unwrap(), INF_DIST);
        assert_eq!(live.resident_bytes(), frozen.resident_bytes());
    }

    #[test]
    fn snapshot_dedups_and_cleans_like_graph_builder() {
        let mut b = GraphBuilder::new_undirected(4).weighted();
        b.add_weighted_edge(0, 1, 5);
        let g = b.build();
        let frozen: Arc<dyn QueryBackend> = Arc::new(FlatIndex::from_index(&full_index(&g)));
        // Self-loop dropped, duplicates keep min, zero clamps to 1,
        // mirrored undirected edges merge.
        let snap = OverlaySnapshot::empty(false)
            .extend(&*frozen, &[(2, 2, 1), (1, 2, 9), (2, 1, 4), (3, 2, 0), (1, 2, 6)])
            .unwrap();
        assert_eq!(snap.num_edges(), 2);
        assert_eq!(snap.edges(), &[(1, 2, 4), (2, 3, 1)]);
        assert_eq!(snap.affected(), 3);
        assert_eq!(snap.improve(&*frozen, 0, 3, INF_DIST).unwrap(), 10);
    }

    /// A random batch mixing every case the overlay must clean or
    /// close: duplicates, weight decreases on overlay edges, self-loops,
    /// zero weights, edges inside `A` and edges to new vertices.
    fn random_batch(
        rng: &mut rand::rngs::StdRng,
        n: u32,
        prefix: &[(VertexId, VertexId, Dist)],
    ) -> Vec<(VertexId, VertexId, Dist)> {
        use rand::Rng;
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..6) {
            let edge = match rng.gen_range(0..6) {
                0 if !prefix.is_empty() => {
                    let (u, v, w) = prefix[rng.gen_range(0..prefix.len())];
                    (u, v, w.saturating_sub(rng.gen_range(0..3)))
                }
                1 if !prefix.is_empty() => {
                    let (a, b) = (rng.gen_range(0..prefix.len()), rng.gen_range(0..prefix.len()));
                    (prefix[a].0, prefix[b].1, rng.gen_range(1..8))
                }
                2 => {
                    let v = rng.gen_range(0..n);
                    (v, v, 1)
                }
                3 => (rng.gen_range(0..n), rng.gen_range(0..n), 0),
                _ => (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..8)),
            };
            batch.push(edge);
            if rng.gen_range(0..4) == 0 {
                batch.push(edge);
            }
        }
        batch
    }

    fn graph(directed: bool, n: u32, edges: &[(VertexId, VertexId, Dist)]) -> Graph {
        let mut b = if directed {
            GraphBuilder::new_directed(n as usize).weighted()
        } else {
            GraphBuilder::new_undirected(n as usize).weighted()
        };
        for &(u, v, w) in edges {
            b.add_weighted_edge(u, v, w);
        }
        b.build()
    }

    /// Chained `extend` snapshots agree with one from-empty `extend` over
    /// the whole prefix after every batch, and both answer every pair
    /// like graph search on the mutated graph.
    fn check_chained_extend_matches_one_shot(directed: bool, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(6..24u32);
        let mut edges: Vec<(VertexId, VertexId, Dist)> = (0..rng.gen_range(n..2 * n))
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1..9)))
            .collect();
        let frozen: Arc<dyn QueryBackend> =
            Arc::new(FlatIndex::from_index(&full_index(&graph(directed, n, &edges))));
        let mut chained = OverlaySnapshot::empty(directed);
        let mut prefix = Vec::new();
        for step in 0..10 {
            let batch = random_batch(&mut rng, n, &prefix);
            chained = chained.extend(&*frozen, &batch).unwrap();
            prefix.extend_from_slice(&batch);
            edges.extend_from_slice(&batch);
            let built = OverlaySnapshot::empty(directed).extend(&*frozen, &prefix).unwrap();
            let at = format!("seed {seed} step {step}");
            assert_eq!(chained.edges(), built.edges(), "{at}");
            assert_eq!(chained.affected(), built.affected(), "{at}");
            assert_eq!(chained.closure, built.closure, "{at}");

            let want = all_pairs(&graph(directed, n, &edges));
            for s in 0..n {
                for t in 0..n {
                    let base = frozen.query(s, t).unwrap();
                    let (si, ti) = (s as usize, t as usize);
                    assert_eq!(
                        chained.improve(&*frozen, s, t, base).unwrap(),
                        want[si][ti],
                        "{at}"
                    );
                    assert_eq!(built.improve(&*frozen, s, t, base).unwrap(), want[si][ti], "{at}");
                }
            }
        }
    }

    #[test]
    fn chained_extend_matches_one_shot_and_ground_truth() {
        for seed in 0..12 {
            check_chained_extend_matches_one_shot(false, 900 + seed);
            check_chained_extend_matches_one_shot(true, 950 + seed);
        }
    }

    #[test]
    fn extend_is_copy_on_write() {
        let mut b = GraphBuilder::new_undirected(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            b.add_edge(u, v);
        }
        let frozen: Arc<dyn QueryBackend> =
            Arc::new(FlatIndex::from_index(&full_index(&b.build())));
        let live = LiveIndex::new(Arc::clone(&frozen), 1);
        let one = live.extend_overlay(&[(0, 4, 1)]).unwrap();
        let two = one.extend_overlay(&[(0, 2, 1), (0, 0, 3)]).unwrap();
        assert!(live.overlay().is_empty());
        assert_eq!((one.overlay().num_edges(), one.query(0, 2).unwrap()), (1, 2));
        assert_eq!((two.overlay().num_edges(), two.query(0, 2).unwrap()), (2, 1));
        assert_eq!(two.query(4, 2).unwrap(), 2);
        // An empty (or all-self-loop) batch leaves the overlay as it was.
        let same = two.extend_overlay(&[(3, 3, 1)]).unwrap();
        assert_eq!(same.overlay().edges(), two.overlay().edges());
    }
}
