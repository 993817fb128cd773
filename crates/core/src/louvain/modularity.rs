//! The modularity metric (Figure 11b's quality measure).
//!
//! `Q = Σ_C [ intra_vol(C) / (2·ω(E)) − (vol(C) / (2·ω(E)))² ]`
//!
//! where `intra_vol(C)` counts every intra-community edge twice and every
//! self-loop twice (consistent with the volume definition in the paper's
//! notation section), so a single community containing the whole graph has
//! `Q = 1 − 1 = 0` and singleton communities on a clique give `Q < 0`.

use gp_graph::csr::Csr;

/// Computes modularity of an assignment in f64 (the metric is exact even
/// when move phases run in f32).
///
/// # Panics
/// Panics if `zeta.len() != g.num_vertices()` or a community id is out of
/// `0..n`.
pub fn modularity(g: &Csr, zeta: &[u32]) -> f64 {
    let n = g.num_vertices();
    assert_eq!(zeta.len(), n, "community array length mismatch");
    if n == 0 {
        return 0.0;
    }

    // One pass over the arcs accumulates ω(E), each community's volume and
    // its intra volume. Every sum runs in the order of the separate
    // `total_weight`, `volume(u)` and intra passes it replaces, so Q keeps
    // its bits.
    let (mut twice, mut loops) = (0.0f64, 0.0f64);
    let mut intra_vol = vec![0.0f64; n];
    let mut vol = vec![0.0f64; n];
    for u in g.vertices() {
        let c = zeta[u as usize];
        let cu = c as usize;
        assert!(cu < n, "community id {cu} out of range");
        let intra = &mut intra_vol[cu];
        let mut vol_u = 0.0f64;
        for (v, w) in g.edges_of(u) {
            let w = w as f64;
            vol_u += w;
            if v == u {
                // A self-loop is stored and visited once: it counts double
                // in the volume and in the intra volume.
                vol_u += w;
                loops += w;
                *intra += 2.0 * w;
            } else {
                twice += w;
                if zeta[v as usize] == c {
                    // Visited from both endpoints: +2w in total.
                    *intra += w;
                }
            }
        }
        vol[cu] += vol_u;
    }
    let m = twice / 2.0 + loops;
    if m == 0.0 {
        return 0.0;
    }
    let two_m = 2.0 * m;

    let mut q = 0.0;
    for c in 0..n {
        if vol[c] > 0.0 {
            let frac = vol[c] / two_m;
            q += intra_vol[c] / two_m - frac * frac;
        }
    }
    q
}

/// Number of non-empty communities in an assignment.
///
/// O(n) with a seen-bitmap over the ids; ids far larger than the
/// assignment (where the bitmap would outgrow the input) are sorted
/// instead.
pub fn count_communities(zeta: &[u32]) -> usize {
    let Some(&max) = zeta.iter().max() else {
        return 0;
    };
    let words = max as usize / 64 + 1;
    if words > zeta.len() {
        let mut ids: Vec<u32> = zeta.to_vec();
        ids.sort_unstable();
        ids.dedup();
        return ids.len();
    }
    let mut seen = vec![0u64; words];
    for &c in zeta {
        seen[c as usize / 64] |= 1 << (c % 64);
    }
    seen.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{clique, planted_partition, planted_partition_truth};

    #[test]
    fn one_community_is_zero() {
        let g = clique(5);
        assert!((modularity(&g, &[0; 5])).abs() < 1e-12);
    }

    #[test]
    fn singletons_on_clique_are_negative() {
        let g = clique(5);
        let zeta: Vec<u32> = (0..5).collect();
        assert!(modularity(&g, &zeta) < 0.0);
    }

    #[test]
    fn two_cliques_split_is_good() {
        // Two triangles joined by one edge; the natural split scores high.
        let g = from_pairs(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        let split = modularity(&g, &[0, 0, 0, 1, 1, 1]);
        let merged = modularity(&g, &[0; 6]);
        let singletons = modularity(&g, &[0, 1, 2, 3, 4, 5]);
        assert!(split > merged);
        assert!(split > singletons);
        assert!(split > 0.3);
    }

    #[test]
    fn planted_truth_beats_random_assignment() {
        let g = planted_partition(4, 16, 0.6, 0.02, 3);
        let truth = planted_partition_truth(4, 16);
        let random: Vec<u32> = (0..64).map(|u| u % 7).collect();
        assert!(modularity(&g, &truth) > modularity(&g, &random));
    }

    #[test]
    fn self_loops_count_in_modularity() {
        // A graph that is one self-loop: the single community holds all
        // weight, Q = 1/... intra_vol = 2w, vol = 2w, m = w:
        // Q = 2w/2w - (2w/2w)^2 = 0.
        let g = gp_graph::builder::GraphBuilder::new(1)
            .add_edges([gp_graph::Edge::new(0, 0, 3.0)])
            .build();
        assert!((modularity(&g, &[0])).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_modularity_zero() {
        let g = Csr::empty(3);
        assert_eq!(modularity(&g, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn weighted_edges_respected() {
        // Heavy edge inside community 0, light edge crossing.
        let g = gp_graph::builder::GraphBuilder::new(4)
            .add_edges([
                gp_graph::Edge::new(0, 1, 10.0),
                gp_graph::Edge::new(2, 3, 10.0),
                gp_graph::Edge::new(1, 2, 0.1),
            ])
            .build();
        let good = modularity(&g, &[0, 0, 1, 1]);
        let bad = modularity(&g, &[0, 1, 0, 1]);
        assert!(good > bad);
    }

    #[test]
    fn count_communities_works() {
        assert_eq!(count_communities(&[5, 5, 2, 7]), 3);
        assert_eq!(count_communities(&[]), 0);
        // Ids past the bitmap bound take the sorting path.
        assert_eq!(count_communities(&[u32::MAX, 0, u32::MAX, 70]), 3);
        let perm: Vec<u32> = (0..1000).rev().collect();
        assert_eq!(count_communities(&perm), 1000);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_length() {
        modularity(&clique(3), &[0, 0]);
    }
}
