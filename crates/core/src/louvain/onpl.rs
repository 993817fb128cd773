//! ONPL — One Neighbor Per Lane Louvain (Section 4.2).
//!
//! The move phase with both hot sections vectorized, as the paper describes:
//!
//! 1. **Affinity accumulation**: 16 neighbors per step — load neighbor ids
//!    and edge weights, gather their communities, and reduce-scatter the
//!    weights into the affinity accumulator. This is the paper's central
//!    pattern, run through the shared [`crate::reduce_scatter`] primitive
//!    in the formulation the [`crate::reduce_scatter::Strategy`] names.
//! 2. **Modularity selection**: the Δmod argmax over neighboring
//!    communities — 16 candidate communities per step, gathering their
//!    affinities and volumes and tracking the running best with masked
//!    blends ("they enable the rest of the affinity and modularity
//!    calculation to be vectorized").

use super::modularity::modularity;
use super::{AtomicF32, LouvainConfig, MovePhaseStats, MoveState};
use crate::reduce_scatter::{accumulate, as_i32, atomic_as_i32, AffinityBuf, Strategy};
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{NoopRecorder, Recorder};
use gp_simd::backend::Simd;
use gp_simd::vector::LANES;
use std::sync::atomic::{AtomicU64, Ordering};

/// Views the atomic volume array as gatherable `f32`s.
#[inline(always)]
fn volume_view(vol: &[AtomicF32]) -> &[f32] {
    // SAFETY: AtomicF32 is repr(transparent) over AtomicU32 over u32; the
    // bit pattern is the f32 the kernel wants.
    unsafe { std::slice::from_raw_parts(vol.as_ptr() as *const f32, vol.len()) }
}

/// Vectorized Δmod argmax over the touched communities. Returns
/// `(best_community, best_delta)`; `best_delta <= 0` means "stay".
#[allow(clippy::too_many_arguments)] // mirrors the kernel's data flow
#[inline(always)]
fn select_best<S: Simd>(
    s: &S,
    state: &MoveState,
    volumes: &[f32],
    u: u32,
    c: u32,
    buf: &AffinityBuf,
    inv_m: f32,
    inv_2m2: f32,
) -> (u32, f32) {
    let vol_u = state.vertex_volume[u as usize];
    let vol_c_without_u = state.volume[c as usize].load() - vol_u;
    let aff_c = buf.aff[c as usize];

    // For short candidate lists the vector machinery (splats, reduction,
    // lane extraction) costs more than it saves; default to scalar exactly
    // as the paper's kernels mix scalar tails with vector bodies.
    if buf.touched.len() < LANES {
        let mut best_delta = 0.0f32;
        let mut best = c;
        for &d in &buf.touched {
            if d == c {
                continue;
            }
            let delta = super::delta_mod(
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
        if S::IS_COUNTED {
            use gp_simd::counters::{record, OpClass};
            let k = buf.touched.len() as u64;
            record(OpClass::ScalarRandLoad, 2 * k); // affinity + volume
            record(OpClass::ScalarAlu, 4 * k);
            record(OpClass::ScalarBranch, k);
        }
        return (best, best_delta);
    }

    let c_v = s.splat_i32(c as i32);
    let aff_c_v = s.splat_f32(aff_c);
    let vol_cwu_v = s.splat_f32(vol_c_without_u);
    let inv_m_v = s.splat_f32(inv_m);
    let k_v = s.splat_f32(vol_u * inv_2m2);
    let mut best_delta_v = s.splat_f32(0.0);
    let mut best_comm_v = c_v;

    let touched = as_i32(&buf.touched);
    let mut off = 0;
    while off < touched.len() {
        let (ds, mask) = s.load_tail_i32(&touched[off..]);
        let mask = mask.and(s.cmpneq_i32(ds, c_v));
        // SAFETY: touched entries are community ids < n.
        let aff_d = unsafe { s.gather_f32(&buf.aff, ds, mask, s.splat_f32(0.0)) };
        let vol_d = unsafe { s.gather_f32(volumes, ds, mask, s.splat_f32(0.0)) };
        // Δmod = (aff_d − aff_c)·inv_m + (vol(C∖u) − vol_d)·vol_u·inv_2m²
        let delta = s.add_f32(
            s.mul_f32(s.sub_f32(aff_d, aff_c_v), inv_m_v),
            s.mul_f32(s.sub_f32(vol_cwu_v, vol_d), k_v),
        );
        let better = s.cmpgt_f32(delta, best_delta_v).and(mask);
        best_delta_v = s.blend_f32(better, best_delta_v, delta);
        best_comm_v = s.blend_i32(better, best_comm_v, ds);
        off += LANES;
    }

    let best_delta = s.reduce_max_f32(best_delta_v);
    if best_delta <= 0.0 {
        return (c, 0.0);
    }
    let lane = s
        .cmpeq_f32(best_delta_v, s.splat_f32(best_delta))
        .first_set()
        .expect("a lane must hold the maximum");
    (s.extract_i32(best_comm_v, lane) as u32, best_delta)
}

/// The full ONPL best-move kernel for one vertex.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn best_move_onpl<S: Simd>(
    s: &S,
    g: &Csr,
    state: &MoveState,
    u: u32,
    strategy: Strategy,
    buf: &mut AffinityBuf,
    inv_m: f32,
    inv_2m2: f32,
) -> Option<(u32, u32)> {
    if g.degree(u) == 0 {
        return None;
    }
    let zeta = atomic_as_i32(&state.zeta);
    let volumes = volume_view(&state.volume);
    accumulate(s, g, u, zeta, strategy, buf);
    let c = state.community(u);
    let (best, delta) = select_best(s, state, volumes, u, c, buf, inv_m, inv_2m2);
    buf.reset();
    (best != c && delta > 0.0).then_some((c, best))
}

/// One full move phase with the ONPL kernel.
pub fn move_phase_onpl<S: Simd + Sync>(
    s: &S,
    g: &Csr,
    state: &MoveState,
    strategy: Strategy,
    config: &LouvainConfig,
) -> MovePhaseStats {
    move_phase_onpl_recorded(s, g, state, strategy, config, &mut NoopRecorder)
}

/// [`move_phase_onpl`] with per-sweep telemetry delivered to `rec`.
pub fn move_phase_onpl_recorded<S: Simd + Sync, R: Recorder>(
    s: &S,
    g: &Csr,
    state: &MoveState,
    strategy: Strategy,
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
                || AffinityBuf::new(n),
                |buf, u| {
                    if let Some((c, d)) = s
                        .vectorize(|| best_move_onpl(s, g, state, u, strategy, buf, inv_m, inv_2m2))
                    {
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
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{clique, planted_partition, preferential_attachment, triangular_mesh};
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    fn run_onpl(g: &Csr, strategy: Strategy) -> Vec<u32> {
        let state = MoveState::singleton(g);
        let cfg = LouvainConfig::sequential(Variant::Onpl(strategy));
        move_phase_onpl(&S, g, &state, strategy, &cfg);
        state.communities()
    }

    fn run_mplm(g: &Csr) -> Vec<u32> {
        let state = MoveState::singleton(g);
        move_phase_mplm(g, &state, &LouvainConfig::sequential(Variant::Mplm));
        state.communities()
    }

    #[test]
    fn onpl_merges_a_clique_all_strategies() {
        let g = clique(9);
        for strat in [
            Strategy::ConflictDetect,
            Strategy::ConflictIterative,
            Strategy::InVectorReduce,
        ] {
            let zeta = run_onpl(&g, strat);
            assert!(
                zeta.iter().all(|&c| c == zeta[0]),
                "{strat:?} failed to merge: {zeta:?}"
            );
        }
    }

    #[test]
    fn onpl_matches_mplm_quality() {
        let g = planted_partition(4, 16, 0.7, 0.03, 17);
        let q_scalar = modularity(&g, &run_mplm(&g));
        for strat in [Strategy::ConflictDetect, Strategy::InVectorReduce] {
            let q_vec = modularity(&g, &run_onpl(&g, strat));
            assert!(
                (q_scalar - q_vec).abs() < 0.02,
                "{strat:?}: Q = {q_vec} vs scalar {q_scalar}"
            );
        }
    }

    #[test]
    fn onpl_identical_to_mplm_in_sequential_mode() {
        // Same move rule, same schedule, f32 math throughout — the
        // assignments themselves should agree on a well-separated instance.
        let g = planted_partition(3, 8, 0.9, 0.02, 23);
        let a = run_mplm(&g);
        let b = run_onpl(&g, Strategy::ConflictDetect);
        let qa = modularity(&g, &a);
        let qb = modularity(&g, &b);
        assert!((qa - qb).abs() < 1e-6, "Q {qa} vs {qb}");
    }

    #[test]
    fn onpl_on_hub_graph() {
        let g = preferential_attachment(300, 3, 7);
        let zeta = run_onpl(&g, Strategy::ConflictDetect);
        assert!(modularity(&g, &zeta) > 0.1);
    }

    #[test]
    fn onpl_on_mesh() {
        let g = triangular_mesh(15, 15, 3);
        let zeta = run_onpl(&g, Strategy::InVectorReduce);
        assert!(modularity(&g, &zeta) > 0.3);
    }

    #[test]
    fn onpl_parallel_mode() {
        let g = planted_partition(4, 12, 0.6, 0.04, 31);
        let state = MoveState::singleton(&g);
        let cfg = LouvainConfig {
            variant: Variant::Onpl(Strategy::ConflictDetect),
            ..Default::default()
        };
        move_phase_onpl(&S, &g, &state, Strategy::ConflictDetect, &cfg);
        assert!(modularity(&g, &state.communities()) > 0.2);
    }

    #[test]
    fn onpl_degree_zero_vertices_stay_put() {
        let g = from_pairs(5, [(0, 1), (1, 2)]); // 3, 4 isolated
        let zeta = run_onpl(&g, Strategy::ConflictDetect);
        assert_eq!(zeta[3], 3);
        assert_eq!(zeta[4], 4);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn onpl_native_matches_emulated() {
        if let Some(native) = gp_simd::backend::Avx512::new() {
            let g = planted_partition(4, 16, 0.7, 0.03, 41);
            let cfg = LouvainConfig::sequential(Variant::Onpl(Strategy::ConflictDetect));
            let s1 = MoveState::singleton(&g);
            move_phase_onpl(&native, &g, &s1, Strategy::ConflictDetect, &cfg);
            let s2 = MoveState::singleton(&g);
            move_phase_onpl(&S, &g, &s2, Strategy::ConflictDetect, &cfg);
            let q1 = modularity(&g, &s1.communities());
            let q2 = modularity(&g, &s2.communities());
            // The backends agree bit-for-bit on every op except the reduce
            // tree order; allow only metric-level slack.
            assert!((q1 - q2).abs() < 1e-6, "{q1} vs {q2}");
        }
    }
}
