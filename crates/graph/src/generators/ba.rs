//! Barabási–Albert preferential-attachment generator.
//!
//! Produces heavy-tailed degree distributions like the social/web graphs in
//! Table 1 (Oregon-2, loc-Gowalla, in-2004, uk-2002): a few very-high-degree
//! hubs over a low-degree bulk. Used alongside R-MAT for the power-law
//! stand-ins because BA gives finer control over the hub structure.
//!
//! ## RNG streams
//!
//! Each newcomer `u` draws its attachments from its own `ChaCha8Rng` stream
//! (`set_stream(u)`), so a vertex's random draws are independent of how many
//! draws earlier vertices consumed. The attachment loop itself is inherently
//! serial — each newcomer's choices feed the degree distribution the next
//! one samples from — but the per-vertex streams make the output a pure
//! function of `(n, m_attach, seed)` and keep the draw schedule stable under
//! future restructuring of the loop.

use crate::builder::{DedupPolicy, GraphBuilder};
use crate::csr::Csr;
use crate::Edge;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Barabási–Albert graph over `n` vertices where each newcomer attaches to
/// `m_attach` existing vertices chosen proportionally to degree.
/// Deterministic per seed.
pub fn preferential_attachment(n: usize, m_attach: usize, seed: u64) -> Csr {
    assert!(m_attach >= 1, "each vertex must attach at least once");
    assert!(n > m_attach, "need more vertices than attachments");
    // `targets` holds one entry per edge endpoint: sampling uniformly from it
    // is sampling proportionally to degree.
    let mut targets: Vec<u32> = Vec::with_capacity(2 * n * m_attach);
    let mut builder = GraphBuilder::new(n).dedup_policy(DedupPolicy::KeepMax);

    // Seed clique over the first m_attach + 1 vertices.
    for u in 0..=(m_attach as u32) {
        for v in 0..u {
            builder.add_edge(Edge::unweighted(u, v));
            targets.push(u);
            targets.push(v);
        }
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // The newcomer's distinct choices, kept sorted so `targets` grows in a
    // deterministic order; reused across newcomers.
    let mut chosen: Vec<u32> = Vec::with_capacity(m_attach);
    for u in (m_attach as u32 + 1)..(n as u32) {
        // One independent stream per newcomer.
        rng.set_stream(u as u64);
        chosen.clear();
        while chosen.len() < m_attach {
            let v = targets[rng.gen_range(0..targets.len())];
            if let Err(slot) = chosen.binary_search(&v) {
                chosen.insert(slot, v);
            }
        }
        for &v in &chosen {
            builder.add_edge(Edge::unweighted(u, v));
            targets.push(u);
            targets.push(v);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;

    #[test]
    fn basic_shape() {
        let g = preferential_attachment(500, 3, 7);
        assert_eq!(g.num_vertices(), 500);
        // Seed clique of 4 contributes 6 edges, then 3 per newcomer.
        assert_eq!(g.num_edges(), 6 + (500 - 4) * 3);
        assert!(g.is_symmetric());
    }

    #[test]
    fn produces_hubs() {
        let g = preferential_attachment(2000, 4, 13);
        assert!(
            g.max_degree() as f64 > 5.0 * g.avg_degree(),
            "expected hubs, max {} avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn min_degree_is_m() {
        let g = preferential_attachment(300, 5, 21);
        let min_deg = g.vertices().map(|u| g.degree(u)).min().unwrap();
        assert!(min_deg >= 5);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            preferential_attachment(100, 2, 9),
            preferential_attachment(100, 2, 9)
        );
    }

    #[test]
    fn thread_count_does_not_change_graph() {
        // BA itself is serial, but the builder underneath parallelizes; the
        // output must not depend on the pool size.
        let reference = with_threads(1, || preferential_attachment(400, 3, 31));
        for t in [2usize, 8] {
            let g = with_threads(t, || preferential_attachment(400, 3, 31));
            assert_eq!(g, reference, "graph changed at {t} threads");
        }
    }

    #[test]
    #[should_panic(expected = "more vertices")]
    fn rejects_tiny_n() {
        preferential_attachment(3, 3, 0);
    }
}
