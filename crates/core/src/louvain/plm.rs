//! PLM — the unmodified NetworKit-style Parallel Louvain Method.
//!
//! Deliberately reproduces the performance flaw the paper found in the
//! original implementation: "large buffers were allocated and deallocated
//! for each vertex traversed". Every vertex visit allocates a fresh
//! heap-backed affinity map and drops it afterwards. The move rule is
//! otherwise identical to [`super::mplm`], so Figure 11a's PLM-vs-MPLM gap
//! isolates exactly the memory-management difference.

use super::modularity::modularity;
use super::{delta_mod, LouvainConfig, MovePhaseStats, MoveState};
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{NoopRecorder, Recorder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Best move for `u`, allocating the affinity buffer on every call — the
/// original PLM behavior.
#[inline]
fn best_move_allocating(
    g: &Csr,
    state: &MoveState,
    u: u32,
    inv_m: f32,
    inv_2m2: f32,
) -> Option<(u32, u32)> {
    if g.degree(u) == 0 {
        return None;
    }
    // Fresh allocation per vertex: the flaw under study. A HashMap keeps the
    // per-call allocation proportional to the neighborhood (like NetworKit's
    // per-vertex std::map) rather than O(n), so the comparison measures
    // allocator and hashing overhead, not an asymptotic difference.
    let mut aff: HashMap<u32, f32> = HashMap::with_capacity(g.degree(u));
    for (v, w) in g.edges_of(u) {
        if v == u {
            continue;
        }
        *aff.entry(state.community(v)).or_insert(0.0) += w;
    }

    let c = state.community(u);
    let vol_u = state.vertex_volume[u as usize];
    let vol_c_without_u = state.volume[c as usize].load() - vol_u;
    let aff_c = aff.get(&c).copied().unwrap_or(0.0);

    let mut best_delta = 0.0f32;
    let mut best = c;
    for (&d, &aff_d) in &aff {
        if d == c {
            continue;
        }
        let delta = delta_mod(
            aff_c,
            aff_d,
            vol_c_without_u,
            state.volume[d as usize].load(),
            vol_u,
            inv_m,
            inv_2m2,
        );
        // HashMap iteration order is nondeterministic; break ties toward the
        // smaller community id so sequential runs stay reproducible.
        if delta > best_delta || (delta == best_delta && best_delta > 0.0 && d < best) {
            best_delta = delta;
            best = d;
        }
    }
    (best != c && best_delta > 0.0).then_some((c, best))
}

/// One full move phase with the allocating PLM kernel.
pub fn move_phase_plm(g: &Csr, state: &MoveState, config: &LouvainConfig) -> MovePhaseStats {
    move_phase_plm_recorded(g, state, config, &mut NoopRecorder)
}

/// [`move_phase_plm`] with per-sweep telemetry delivered to `rec`.
pub fn move_phase_plm_recorded<R: Recorder>(
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
        |fr, _active_edges, rec| {
            let moved = AtomicU64::new(0);
            let bailed = super::sweep_vertices(
                g,
                &plan,
                fr,
                n,
                config,
                rec,
                || (), // PLM allocates per vertex — the flaw under study.
                |(), u| {
                    if let Some((c, d)) = best_move_allocating(g, state, u, inv_m, inv_2m2) {
                        state.apply_move(u, c, d);
                        moved.fetch_add(1, Ordering::Relaxed);
                        for &v in g.neighbors(u) {
                            fr.activate(v);
                        }
                    }
                },
            );
            (moved.into_inner(), bailed)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::modularity::modularity;
    use super::super::mplm::move_phase_mplm;
    use super::super::Variant;
    use super::*;
    use gp_graph::generators::{clique, planted_partition};

    #[test]
    fn plm_merges_a_clique() {
        let g = clique(5);
        let state = MoveState::singleton(&g);
        move_phase_plm(&g, &state, &LouvainConfig::sequential(Variant::Plm));
        let zeta = state.communities();
        assert!(zeta.iter().all(|&c| c == zeta[0]));
    }

    #[test]
    fn plm_and_mplm_reach_equivalent_quality() {
        // They implement the same greedy rule; sequential runs must land on
        // the same modularity (community labels may differ).
        let g = planted_partition(4, 12, 0.7, 0.04, 8);
        let s1 = MoveState::singleton(&g);
        move_phase_plm(&g, &s1, &LouvainConfig::sequential(Variant::Plm));
        let s2 = MoveState::singleton(&g);
        move_phase_mplm(&g, &s2, &LouvainConfig::sequential(Variant::Mplm));
        let q1 = modularity(&g, &s1.communities());
        let q2 = modularity(&g, &s2.communities());
        assert!(
            (q1 - q2).abs() < 1e-3,
            "PLM Q = {q1} diverged from MPLM Q = {q2}"
        );
    }

    #[test]
    fn plm_parallel_mode_works() {
        let g = planted_partition(3, 16, 0.6, 0.03, 2);
        let state = MoveState::singleton(&g);
        let cfg = LouvainConfig {
            variant: Variant::Plm,
            ..Default::default()
        };
        move_phase_plm(&g, &state, &cfg);
        assert!(modularity(&g, &state.communities()) > 0.2);
    }

    #[test]
    fn plm_empty_graph() {
        let g = Csr::empty(3);
        let state = MoveState::singleton(&g);
        let stats = move_phase_plm(&g, &state, &LouvainConfig::sequential(Variant::Plm));
        assert_eq!(stats.moves, 0);
    }
}
