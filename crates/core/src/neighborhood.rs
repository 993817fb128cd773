//! High-level neighborhood-aggregation API — the paper's future-work item.
//!
//! "In future works, we want to investigate compiler techniques to enable us
//! to deploy these techniques on more graph partitioning kernels without
//! requiring low-level programming expert[ise]." This module is that seam in
//! library form: a safe, intrinsic-free API that runs the ONPL
//! gather/reduce-scatter machinery for *any* per-group weight aggregation,
//! so new partitioning-style kernels (custom community scores, boundary
//! detection, consensus votes…) get the vectorization for free.
//!
//! ```
//! use gp_core::neighborhood::NeighborhoodAggregator;
//! use gp_graph::generators::clique;
//! use gp_simd::backend::Emulated;
//!
//! let g = clique(5);
//! let groups = vec![0u32, 0, 1, 1, 1];
//! let mut agg = NeighborhoodAggregator::new(g.num_vertices());
//! // Total edge weight from vertex 0 into each group:
//! let weights: Vec<(u32, f32)> = agg.aggregate(&Emulated, &g, 0, &groups).collect();
//! assert_eq!(weights, vec![(0, 1.0), (1, 3.0)]);
//! ```

use crate::reduce_scatter::{accumulate, as_i32, AffinityBuf, Strategy};
use gp_graph::csr::Csr;
use gp_simd::backend::Simd;

/// Reusable aggregation workspace (one dense accumulator + touched list,
/// exactly the discipline MPLM preallocates per thread).
pub struct NeighborhoodAggregator {
    buf: AffinityBuf,
    capacity: usize,
}

impl NeighborhoodAggregator {
    /// Workspace for group ids `< capacity`.
    pub fn new(capacity: usize) -> Self {
        NeighborhoodAggregator {
            buf: AffinityBuf::new(capacity),
            capacity,
        }
    }

    /// Sums `w(u, v)` per `groups[v]` over all neighbors `v != u` of `u`,
    /// using the vectorized gather/reduce-scatter kernel. Returns the
    /// non-zero `(group, total_weight)` pairs in first-touch order.
    ///
    /// # Panics
    /// Panics if `groups.len() != g.num_vertices()` or any group id is
    /// `>= capacity` (checked up front so the vector kernel's unsafe
    /// indexing is always in bounds).
    pub fn aggregate<'a, S: Simd>(
        &'a mut self,
        s: &S,
        g: &Csr,
        u: u32,
        groups: &[u32],
    ) -> impl Iterator<Item = (u32, f32)> + 'a {
        assert_eq!(
            groups.len(),
            g.num_vertices(),
            "groups must label every vertex"
        );
        assert!(
            groups.iter().all(|&c| (c as usize) < self.capacity),
            "group ids must be < aggregator capacity {}",
            self.capacity
        );
        self.buf.reset();
        s.vectorize(|| accumulate(s, g, u, as_i32(groups), Strategy::Adaptive, &mut self.buf));
        self.buf
            .touched
            .iter()
            .map(|&c| (c, self.buf.aff[c as usize]))
    }

    /// The heaviest group in `u`'s neighborhood, if any — the primitive both
    /// label propagation and Louvain selection build on.
    pub fn heaviest_group<S: Simd>(
        &mut self,
        s: &S,
        g: &Csr,
        u: u32,
        groups: &[u32],
    ) -> Option<(u32, f32)> {
        self.aggregate(s, g, u, groups)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::builder::GraphBuilder;
    use gp_graph::generators::{erdos_renyi, star};
    use gp_graph::Edge;
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    #[test]
    fn aggregates_weighted_groups() {
        let g = GraphBuilder::new(4)
            .add_edges([
                Edge::new(0, 1, 2.0),
                Edge::new(0, 2, 3.0),
                Edge::new(0, 3, 4.0),
            ])
            .build();
        let groups = vec![9u32, 5, 5, 7];
        let mut agg = NeighborhoodAggregator::new(10);
        let mut out: Vec<(u32, f32)> = agg.aggregate(&S, &g, 0, &groups).collect();
        out.sort_by_key(|&(c, _)| c);
        assert_eq!(out, vec![(5, 5.0), (7, 4.0)]);
    }

    #[test]
    fn heaviest_group_picks_max() {
        let g = star(10);
        let groups: Vec<u32> = (0..10).map(|i| i % 3).collect();
        let mut agg = NeighborhoodAggregator::new(3);
        let (c, w) = agg.heaviest_group(&S, &g, 0, &groups).unwrap();
        // Hub neighbors 1..9: groups 1,2,0,1,2,0,1,2,0 → group counts 0:3 1:3 2:3
        // all tie at 3.0; max_by keeps the last maximal element.
        assert_eq!(w, 3.0);
        assert!(c < 3);
    }

    #[test]
    fn isolated_vertex_yields_nothing() {
        let g = gp_graph::csr::Csr::empty(3);
        let mut agg = NeighborhoodAggregator::new(3);
        assert!(agg.heaviest_group(&S, &g, 1, &[0, 1, 2]).is_none());
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = erdos_renyi(50, 200, 3);
        let groups: Vec<u32> = (0..50).map(|i| i % 7).collect();
        let mut agg = NeighborhoodAggregator::new(7);
        // Running twice must give identical results (no residue).
        let a: Vec<_> = agg.aggregate(&S, &g, 10, &groups).collect();
        let b: Vec<_> = agg.aggregate(&S, &g, 10, &groups).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_scalar_reference_on_random_graph() {
        let g = erdos_renyi(80, 400, 9);
        let groups: Vec<u32> = (0..80).map(|i| (i * 7) % 13).collect();
        let mut agg = NeighborhoodAggregator::new(13);
        for u in g.vertices() {
            let mut expect = [0f32; 13];
            for (v, w) in g.edges_of(u) {
                if v != u {
                    expect[groups[v as usize] as usize] += w;
                }
            }
            let got: std::collections::HashMap<u32, f32> =
                agg.aggregate(&S, &g, u, &groups).collect();
            for (c, &e) in expect.iter().enumerate() {
                let actual = got.get(&(c as u32)).copied().unwrap_or(0.0);
                assert!((actual - e).abs() < 1e-4, "vertex {u} group {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "label every vertex")]
    fn wrong_group_length_panics() {
        let g = star(4);
        let mut agg = NeighborhoodAggregator::new(4);
        let _ = agg.aggregate(&S, &g, 0, &[0, 1]).count();
    }

    #[test]
    #[should_panic(expected = "aggregator capacity")]
    fn oversized_group_id_panics() {
        let g = star(3);
        let mut agg = NeighborhoodAggregator::new(2);
        let _ = agg.aggregate(&S, &g, 0, &[0, 1, 5]).count();
    }
}
