//! MPLM — the Modified Parallel Louvain Method (Section 7.3.1).
//!
//! The paper's scalar baseline: PLM with the memory management fixed.
//! Every worker thread owns one preallocated affinity accumulator (a dense
//! f32 array plus a touched-list for O(deg) reset) that is reused across all
//! vertices the thread processes — "preallocates memory per thread. And then
//! reuse the same buffer for the computation rather than deallocating and
//! reallocating memory over and over".

use super::modularity::modularity;
use super::{delta_mod, LouvainConfig, MovePhaseStats, MoveState};
use crate::reduce_scatter::AffinityBuf;
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{NoopRecorder, Recorder};
use gp_simd::counters;
use std::sync::atomic::{AtomicU64, Ordering};

/// Computes the best move for `u` using the scalar affinity kernel.
/// Returns `(from, to)` when a strictly-positive-gain move exists.
#[inline]
pub(crate) fn best_move_scalar(
    g: &Csr,
    state: &MoveState,
    u: u32,
    buf: &mut AffinityBuf,
    inv_m: f32,
    inv_2m2: f32,
    count_ops: bool,
) -> Option<(u32, u32)> {
    if g.degree(u) == 0 {
        return None;
    }
    // Affinity pass: ω(u, D∖{u}) for every neighboring community D.
    for (v, w) in g.edges_of(u) {
        if v != u {
            buf.add(state.community(v), w);
        }
    }

    let c = state.community(u);
    let vol_u = state.vertex_volume[u as usize];
    let vol_c_without_u = state.volume[c as usize].load() - vol_u;
    let aff_c = buf.aff[c as usize];

    let mut best_delta = 0.0f32;
    let mut best = c;
    for &d in &buf.touched {
        if d == c {
            continue;
        }
        let delta = delta_mod(
            aff_c,
            buf.aff[d as usize],
            vol_c_without_u,
            state.volume[d as usize].load(),
            vol_u,
            inv_m,
            inv_2m2,
        );
        if delta > best_delta {
            best_delta = delta;
            best = d;
        }
    }
    if count_ops {
        // Selection scans the deduplicated touched list: random affinity +
        // volume loads plus the Δmod arithmetic per candidate.
        let k = buf.touched.len() as u64;
        counters::record(counters::OpClass::ScalarRandLoad, 2 * k);
        counters::record(counters::OpClass::ScalarAlu, 4 * k);
        counters::record(counters::OpClass::ScalarBranch, k);
    }
    buf.reset();
    (best != c && best_delta > 0.0).then_some((c, best))
}

/// One full move phase (Algorithm 4) with the MPLM kernel. Mutates `state`
/// and returns sweep statistics.
pub fn move_phase_mplm(g: &Csr, state: &MoveState, config: &LouvainConfig) -> MovePhaseStats {
    move_phase_mplm_recorded(g, state, config, &mut NoopRecorder)
}

/// [`move_phase_mplm`] with per-sweep telemetry delivered to `rec`.
pub fn move_phase_mplm_recorded<R: Recorder>(
    g: &Csr,
    state: &MoveState,
    config: &LouvainConfig,
    rec: &mut R,
) -> MovePhaseStats {
    let n = g.num_vertices();
    let inv_m = (1.0 / state.total_weight) as f32;
    let inv_2m2 = (1.0 / (2.0 * state.total_weight * state.total_weight)) as f32;
    let plan = crate::locality::Plan::for_graph(g, crate::locality::Traversal::InOrder);

    super::run_sweeps(
        config,
        n,
        |v| g.degree(v) as u64,
        rec,
        || modularity(g, &state.communities()),
        |fr, active_edges, rec| {
            let moved = AtomicU64::new(0);
            let bailed = super::sweep_vertices(
                g,
                &plan,
                fr,
                n,
                config,
                rec,
                || AffinityBuf::new(n),
                |buf, u| {
                    if let Some((c, d)) =
                        best_move_scalar(g, state, u, buf, inv_m, inv_2m2, config.count_ops)
                    {
                        state.apply_move(u, c, d);
                        moved.fetch_add(1, Ordering::Relaxed);
                        for &v in g.neighbors(u) {
                            fr.activate(v);
                        }
                    }
                },
            );
            if config.count_ops {
                // Affinity pass per visited arc: adj + weight stream loads,
                // random zeta and affinity loads, affinity store, first-touch
                // branch, add. `active_edges` counts exactly the arcs this
                // sweep visited. (Selection is counted per vertex in
                // `best_move_scalar`, on the deduplicated touched list.)
                let arcs = active_edges;
                counters::record(counters::OpClass::ScalarLoad, 2 * arcs);
                counters::record(counters::OpClass::ScalarRandLoad, 2 * arcs);
                counters::record(counters::OpClass::ScalarStore, arcs);
                counters::record(counters::OpClass::ScalarAlu, 2 * arcs);
                counters::record(counters::OpClass::ScalarBranch, 2 * arcs);
            }
            (moved.into_inner(), bailed)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::modularity::modularity;
    use super::super::Variant;
    use super::*;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{clique, planted_partition, planted_partition_truth};

    fn run_seq(g: &Csr) -> (Vec<u32>, MovePhaseStats) {
        let state = MoveState::singleton(g);
        let cfg = LouvainConfig::sequential(Variant::Mplm);
        let stats = move_phase_mplm(g, &state, &cfg);
        (state.communities(), stats)
    }

    #[test]
    fn merges_a_clique() {
        let (zeta, stats) = run_seq(&clique(6));
        let first = zeta[0];
        assert!(zeta.iter().all(|&c| c == first), "{zeta:?}");
        assert!(stats.moves >= 5);
    }

    #[test]
    fn separates_two_cliques() {
        // Two 4-cliques bridged by one edge.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..u {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((3, 4));
        let g = from_pairs(8, edges);
        let (zeta, _) = run_seq(&g);
        assert_eq!(zeta[0], zeta[1]);
        assert_eq!(zeta[0], zeta[2]);
        assert_eq!(zeta[0], zeta[3]);
        assert_eq!(zeta[4], zeta[5]);
        assert_eq!(zeta[4], zeta[7]);
        assert_ne!(zeta[0], zeta[4]);
    }

    #[test]
    fn improves_modularity_over_singletons() {
        let g = planted_partition(4, 12, 0.7, 0.05, 11);
        let singletons: Vec<u32> = (0..48).collect();
        let (zeta, _) = run_seq(&g);
        assert!(modularity(&g, &zeta) > modularity(&g, &singletons));
    }

    #[test]
    fn recovers_planted_partition_quality() {
        let g = planted_partition(4, 16, 0.8, 0.02, 5);
        let truth = planted_partition_truth(4, 16);
        let (zeta, _) = run_seq(&g);
        let q = modularity(&g, &zeta);
        let q_truth = modularity(&g, &truth);
        assert!(
            q > 0.85 * q_truth,
            "move phase found Q = {q}, truth Q = {q_truth}"
        );
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let (zeta, stats) = run_seq(&Csr::empty(4));
        assert_eq!(zeta, vec![0, 1, 2, 3]);
        assert_eq!(stats.moves, 0);
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn parallel_mode_produces_valid_communities() {
        let g = planted_partition(3, 20, 0.6, 0.03, 9);
        let state = MoveState::singleton(&g);
        let cfg = LouvainConfig {
            variant: Variant::Mplm,
            ..Default::default()
        };
        move_phase_mplm(&g, &state, &cfg);
        let zeta = state.communities();
        let q = modularity(&g, &zeta);
        assert!(q > 0.2, "parallel move phase reached Q = {q}");
    }

    #[test]
    fn respects_iteration_cap() {
        let g = clique(8);
        let state = MoveState::singleton(&g);
        let cfg = LouvainConfig {
            max_move_iterations: 1,
            parallel: false,
            ..Default::default()
        };
        let stats = move_phase_mplm(&g, &state, &cfg);
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn volumes_stay_consistent_after_moves() {
        let g = planted_partition(2, 10, 0.8, 0.1, 4);
        let state = MoveState::singleton(&g);
        let cfg = LouvainConfig::sequential(Variant::Mplm);
        move_phase_mplm(&g, &state, &cfg);
        // Sum of community volumes must equal total volume.
        let total: f64 = state.volume.iter().map(|v| v.load() as f64).sum();
        assert!((total - g.total_volume()).abs() < 1e-3 * g.total_volume());
        // Each community's volume equals the sum of member vertex volumes.
        let zeta = state.communities();
        let n = g.num_vertices();
        let mut expect = vec![0.0f64; n];
        for u in 0..n {
            expect[zeta[u] as usize] += state.vertex_volume[u] as f64;
        }
        for (c, e) in expect.iter().enumerate() {
            assert!(
                (state.volume[c].load() as f64 - e).abs() < 1e-2,
                "community {c}: {} vs {}",
                state.volume[c].load(),
                e
            );
        }
    }
}
