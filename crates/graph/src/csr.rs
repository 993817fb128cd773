//! Weighted compressed-sparse-row graph representation.
//!
//! The CSR arrays are the exact layout the vectorized kernels index with
//! AVX-512 gathers: `adj` holds 32-bit neighbor ids contiguously per vertex
//! (so 16 neighbors load with one `vmovdqu32`), and `weights` mirrors `adj`
//! one-to-one (so the corresponding edge weights load with one `vmovups`).

use crate::par::split_lengths;
use crate::{VertexId, Weight};
use std::ops::Range;

/// Arrays below this length are validated/sorted serially (identical
/// results; avoids pool overhead on the tiny graphs tests build).
const PARALLEL_THRESHOLD: usize = 1 << 15;

/// True when `ok` holds on every chunk of `0..len`. With `parallel`, the
/// chunks are [`gp_par::split_ranges`]`(len, 1)`, checked on the current
/// pool; otherwise `0..len` is one chunk.
fn all_chunks(len: usize, parallel: bool, ok: impl Fn(Range<usize>) -> bool + Sync) -> bool {
    let min_chunk = if parallel { 1 } else { len };
    gp_par::current()
        .map(gp_par::split_ranges(len, min_chunk), ok)
        .into_iter()
        .all(|b| b)
}

/// An undirected weighted graph in CSR form.
///
/// Each undirected edge `{u, v}` with `u != v` is stored twice (once in each
/// endpoint's adjacency list); a self-loop `{u, u}` is stored once. This is
/// the NetworKit convention the paper's community-detection codes assume.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Offsets into `adj`/`weights`; length `n + 1`.
    xadj: Vec<u32>,
    /// Concatenated adjacency lists; length `xadj[n]`.
    adj: Vec<VertexId>,
    /// Edge weights aligned with `adj`.
    weights: Vec<Weight>,
}

impl Csr {
    /// Builds a CSR directly from raw arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent: `xadj` must be non-empty and
    /// non-decreasing, its last entry must equal `adj.len()`, `weights` must
    /// be as long as `adj`, and every neighbor id must be `< n`.
    pub fn from_raw(xadj: Vec<u32>, adj: Vec<VertexId>, weights: Vec<Weight>) -> Self {
        assert!(!xadj.is_empty(), "xadj must have at least one entry");
        assert_eq!(
            *xadj.last().unwrap() as usize,
            adj.len(),
            "xadj must terminate at adj.len()"
        );
        assert_eq!(adj.len(), weights.len(), "weights must mirror adj");
        let n = (xadj.len() - 1) as u32;
        let parallel = adj.len() >= PARALLEL_THRESHOLD;
        // Folds without an early exit, so the checks vectorize.
        let ascending = |r: Range<usize>| {
            xadj[r.start..=r.end]
                .windows(2)
                .fold(true, |ok, w| ok & (w[0] <= w[1]))
        };
        assert!(
            all_chunks(n as usize, parallel, ascending),
            "xadj must be non-decreasing"
        );
        let in_range = |r: Range<usize>| adj[r].iter().fold(true, |ok, &v| ok & (v < n));
        assert!(
            all_chunks(adj.len(), parallel, in_range),
            "neighbor ids must be < num_vertices"
        );
        Csr { xadj, adj, weights }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Csr {
            xadj: vec![0; n + 1],
            adj: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of *undirected* edges. Self-loops count once; every other edge
    /// is stored twice, so this is `(stored - loops) / 2 + loops`.
    pub fn num_edges(&self) -> usize {
        let loops = self.num_self_loops();
        (self.adj.len() - loops) / 2 + loops
    }

    /// Number of stored (directed) adjacency entries, i.e. `xadj[n]`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adj.len()
    }

    /// Mutable access to the adjacency and weight arrays, for the in-place
    /// slot rewrites of [`crate::delta::DeltaCsr`]. `xadj` stays immutable —
    /// row extents are fixed between compactions — so offsets can never go
    /// inconsistent; the caller must keep every adjacency entry a valid
    /// vertex id (`delta` only ever writes ids it validated on ingest).
    pub(crate) fn arrays_mut(&mut self) -> (&mut [VertexId], &mut [Weight]) {
        (&mut self.adj, &mut self.weights)
    }

    /// Number of self-loop entries.
    pub fn num_self_loops(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|u| self.neighbors(u).iter().filter(|&&v| v == u).count())
            .sum()
    }

    /// Degree of `u` (number of stored adjacency entries, self-loop counted
    /// once).
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        (self.xadj[u as usize + 1] - self.xadj[u as usize]) as usize
    }

    /// The neighbor slice of `u`. This is the pointer handed to vector loads.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.adj[self.xadj[u as usize] as usize..self.xadj[u as usize + 1] as usize]
    }

    /// The edge-weight slice of `u`, aligned with [`Csr::neighbors`].
    #[inline]
    pub fn weights_of(&self, u: VertexId) -> &[Weight] {
        &self.weights[self.xadj[u as usize] as usize..self.xadj[u as usize + 1] as usize]
    }

    /// Iterator over `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn edges_of(&self, u: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(u)
            .iter()
            .copied()
            .zip(self.weights_of(u).iter().copied())
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Raw offset array (length `n + 1`).
    #[inline]
    pub fn xadj(&self) -> &[u32] {
        &self.xadj
    }

    /// Raw adjacency array.
    #[inline]
    pub fn adj(&self) -> &[VertexId] {
        &self.adj
    }

    /// Raw weight array.
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Total edge weight ω(E): each undirected edge counted once, self-loops
    /// counted once.
    pub fn total_weight(&self) -> f64 {
        let mut twice: f64 = 0.0;
        let mut loops: f64 = 0.0;
        for u in self.vertices() {
            for (v, w) in self.edges_of(u) {
                if v == u {
                    loops += w as f64;
                } else {
                    twice += w as f64;
                }
            }
        }
        twice / 2.0 + loops
    }

    /// Weighted degree of a vertex as the paper defines *volume*:
    /// `vol(u) = Σ_{v∈N(u)} ω(u,v) + 2·ω(u,u)`
    /// (the self-loop weight is counted twice).
    pub fn volume(&self, u: VertexId) -> f64 {
        let mut vol = 0.0f64;
        for (v, w) in self.edges_of(u) {
            vol += w as f64;
            if v == u {
                vol += w as f64;
            }
        }
        vol
    }

    /// Sum of all vertex volumes; equals `2 · ω(E)` on any graph.
    pub fn total_volume(&self) -> f64 {
        self.vertices().map(|u| self.volume(u)).sum()
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Average degree δ = stored arcs / n, rounded the way Table 1 reports it.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.adj.len() as f64 / self.num_vertices() as f64
        }
    }

    /// True if `v` appears in the adjacency list of `u`. O(deg(u)).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).contains(&v)
    }

    /// Weight of edge `(u, v)` if present (first occurrence).
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.edges_of(u).find(|&(x, _)| x == v).map(|(_, w)| w)
    }

    /// Checks the structural invariant that the graph is symmetric: `(u,v)`
    /// stored iff `(v,u)` stored with the same weight. Cost O(Σ deg²) worst
    /// case; intended for tests and debug assertions.
    pub fn is_symmetric(&self) -> bool {
        for u in self.vertices() {
            for (v, w) in self.edges_of(u) {
                if v == u {
                    continue;
                }
                match self.edge_weight(v, u) {
                    Some(w2) if (w2 - w).abs() <= 1e-6 * w.abs().max(1.0) => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Sorts every adjacency list by neighbor id (stable for weights).
    /// Deterministic layouts make runs reproducible; per-vertex lists are
    /// independent, so large graphs sort all lists in parallel (the result
    /// is identical for any thread count).
    pub fn sort_adjacency(&mut self) {
        let n = self.xadj.len() - 1;
        let sort_list = |adj: &mut [VertexId], weights: &mut [Weight]| {
            if adj.len() > 1 && !adj.windows(2).all(|p| p[0] <= p[1]) {
                let mut pairs: Vec<(VertexId, Weight)> = adj
                    .iter()
                    .copied()
                    .zip(weights.iter().copied())
                    .collect();
                pairs.sort_by_key(|&(v, _)| v);
                for (i, (v, w)) in pairs.into_iter().enumerate() {
                    adj[i] = v;
                    weights[i] = w;
                }
            }
        };
        // Rows go in chunks of at least 256 on the current pool; below the
        // threshold all rows are one chunk, sorted inline.
        let min_rows = if self.adj.len() >= PARALLEL_THRESHOLD { 256 } else { n };
        let ranges = gp_par::split_ranges(n, min_rows);
        let xadj = &self.xadj;
        let arcs = || ranges.iter().map(|r| (xadj[r.end] - xadj[r.start]) as usize);
        let parts: Vec<_> = ranges
            .iter()
            .zip(split_lengths(&mut self.adj, arcs()))
            .zip(split_lengths(&mut self.weights, arcs()))
            .collect();
        gp_par::current().map(parts, |((rows, adj), weights)| {
            let base = xadj[rows.start];
            for u in rows.clone() {
                let (lo, hi) = ((xadj[u] - base) as usize, (xadj[u + 1] - base) as usize);
                sort_list(&mut adj[lo..hi], &mut weights[lo..hi]);
            }
        });
    }

    /// Approximate heap footprint in bytes, used by the OVPL memory reports.
    pub fn memory_bytes(&self) -> usize {
        self.xadj.len() * 4 + self.adj.len() * 4 + self.weights.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::Edge;

    fn triangle() -> Csr {
        GraphBuilder::new(3)
            .add_edges([
                Edge::unweighted(0, 1),
                Edge::unweighted(1, 2),
                Edge::unweighted(0, 2),
            ])
            .build()
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Csr::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn triangle_basic_stats() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-9);
        assert!(g.is_symmetric());
    }

    #[test]
    fn triangle_volumes() {
        let g = triangle();
        for u in g.vertices() {
            assert_eq!(g.volume(u), 2.0);
        }
        assert_eq!(g.total_weight(), 3.0);
        assert_eq!(g.total_volume(), 6.0);
    }

    #[test]
    fn self_loop_volume_counted_twice() {
        let g = GraphBuilder::new(2)
            .add_edges([Edge::unweighted(0, 1), Edge::new(0, 0, 3.0)])
            .build();
        // vol(0) = ω(0,1) + 2·ω(0,0) = 1 + 6 = 7
        assert_eq!(g.volume(0), 7.0);
        assert_eq!(g.volume(1), 1.0);
        // ω(E) = 1 + 3 = 4; total volume = 2ω(E) = 8.
        assert_eq!(g.total_weight(), 4.0);
        assert_eq!(g.total_volume(), 8.0);
        assert_eq!(g.num_self_loops(), 1);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn neighbors_and_weights_align() {
        let g = GraphBuilder::new(3)
            .add_edges([Edge::new(0, 1, 2.5), Edge::new(0, 2, 0.5)])
            .build();
        let ns = g.neighbors(0);
        let ws = g.weights_of(0);
        assert_eq!(ns.len(), 2);
        assert_eq!(ws.len(), 2);
        for (v, w) in g.edges_of(0) {
            assert_eq!(g.edge_weight(0, v), Some(w));
        }
    }

    #[test]
    fn edge_weight_missing() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 0), None);
    }

    #[test]
    fn sort_adjacency_orders_and_keeps_weights() {
        let mut g = GraphBuilder::new(4)
            .add_edges([
                Edge::new(0, 3, 3.0),
                Edge::new(0, 1, 1.0),
                Edge::new(0, 2, 2.0),
            ])
            .build();
        g.sort_adjacency();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.weights_of(0), &[1.0, 2.0, 3.0]);
        assert!(g.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "xadj must terminate")]
    fn from_raw_rejects_bad_terminator() {
        Csr::from_raw(vec![0, 2], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "neighbor ids")]
    fn from_raw_rejects_out_of_range_neighbor() {
        Csr::from_raw(vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_raw_rejects_decreasing_offsets() {
        Csr::from_raw(vec![0, 2, 1, 3], vec![0, 1, 2], vec![1.0; 3]);
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        let g = triangle();
        assert_eq!(g.memory_bytes(), 4 * 4 + 6 * 4 + 6 * 4);
    }
}
