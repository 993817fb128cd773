//! ONPL-vectorized `AssignColors` (Section 4.1).
//!
//! For each conflict vertex: load 16 neighbor ids with one vector load,
//! gather their 16 colors, and *scatter* the current stamp into the
//! FORBIDDEN array at those 16 color slots at once. Duplicate colors in the
//! vector are harmless here — every lane writes the same stamp, so this is
//! the one kernel where a plain scatter needs no reduce step (the paper's
//! observation that coloring "naturally vectorizes" given scatter support).
//! The search for the first free color is also vectorized: compare 16
//! FORBIDDEN entries against the stamp and take the first unset mask bit.

use super::greedy::{run_iterative, run_iterative_with_detect, sweep_assign};
use super::{ColoringConfig, ColoringResult};
use crate::locality::Plan;
use crate::reduce_scatter::{as_i32, atomic_as_i32};
use gp_graph::csr::Csr;
use gp_graph::par::concat_chunks;
use gp_metrics::telemetry::Recorder;
use gp_simd::backend::Simd;
use gp_simd::vector::LANES;
use std::sync::atomic::{AtomicU32, Ordering};

/// Per-thread vector workspace.
struct VecWorkspace {
    forbidden: Vec<i32>,
    stamp: i32,
}

impl VecWorkspace {
    fn new(max_degree: usize) -> Self {
        // Colors range over 1..=max_degree+1; pad by one vector so the
        // free-color scan can always load a full 16 lanes.
        VecWorkspace {
            forbidden: vec![0; max_degree + 2 + LANES],
            stamp: 0,
        }
    }
}

/// Vectorized `AssignColors` for one vertex; returns its new color.
#[inline(always)]
fn assign_one_onpl<S: Simd>(
    s: &S,
    g: &Csr,
    colors: &[AtomicU32],
    v: u32,
    ws: &mut VecWorkspace,
) -> u32 {
    ws.stamp = ws.stamp.wrapping_add(1);
    if ws.stamp == 0 {
        ws.forbidden.fill(0);
        ws.stamp = 1;
    }
    let stamp_v = s.splat_i32(ws.stamp);
    let self_v = s.splat_i32(v as i32);
    let colors_view = atomic_as_i32(colors);

    let neighbors = as_i32(g.neighbors(v));
    let mut off = 0;
    while off < neighbors.len() {
        let chunk = &neighbors[off..];
        let (nbrs, mask) = s.load_tail_i32(chunk);
        // Self-loops never forbid a color.
        let mask = mask.and(s.cmpneq_i32(nbrs, self_v));
        // SAFETY: neighbor ids are < |V| = colors.len() (CSR invariant).
        let cols = unsafe { s.gather_i32(colors_view, nbrs, mask, s.splat_i32(0)) };
        // SAFETY: colors are < max_degree + 2 <= forbidden.len().
        unsafe { s.scatter_i32(&mut ws.forbidden, cols, stamp_v, mask) };
        off += LANES;
    }

    // Vectorized first-free-color scan starting at color 1.
    let mut base = 1usize;
    loop {
        let window = s.load_i32(&ws.forbidden[base..]);
        let taken = s.cmpeq_i32(window, stamp_v);
        if let Some(lane) = taken.not().first_set() {
            return (base + lane) as u32;
        }
        base += LANES;
        debug_assert!(
            base + LANES <= ws.forbidden.len(),
            "free-color scan overran FORBIDDEN; degree bound violated"
        );
    }
}

/// ONPL `AssignColors` over a conflict set: the per-vertex scatter kernel,
/// swept by [`sweep_assign`].
pub fn assign_colors_onpl<S: Simd + Sync>(
    s: &S,
    g: &Csr,
    colors: &[AtomicU32],
    conf: &[u32],
    config: &ColoringConfig,
    plan: &Plan,
) {
    let max_degree = g.max_degree();
    sweep_assign(
        g,
        colors,
        conf,
        config.parallel,
        plan,
        || VecWorkspace::new(max_degree),
        |ws, v| s.vectorize(|| assign_one_onpl(s, g, colors, v, ws)),
    );
}

/// Vectorized `DetectConflicts` (the paper's §4.1 remark that conflict
/// identification "vectorize[s] naturally"): load 16 neighbors, gather
/// their colors, and compare against the vertex's own color and id in two
/// lane-wise compares. A vertex is re-queued when any lane reports a
/// same-color lower-id neighbor.
pub fn detect_conflicts_onpl<S: Simd + Sync>(
    s: &S,
    g: &Csr,
    colors: &[AtomicU32],
    conf: &[u32],
    config: &ColoringConfig,
) -> Vec<u32> {
    let view = atomic_as_i32(colors);
    let find = |&v: &u32| -> Option<u32> {
        s.vectorize(|| {
            let cv = colors[v as usize].load(Ordering::Relaxed) as i32;
            let cv_v = s.splat_i32(cv);
            let self_v = s.splat_i32(v as i32);
            let neighbors = as_i32(g.neighbors(v));
            let mut off = 0;
            while off < neighbors.len() {
                let (nbrs, mask) = s.load_tail_i32(&neighbors[off..]);
                // u < v (the paper's tie-break) — self-loops excluded implicitly.
                let lower = s.cmplt_i32(nbrs, self_v).and(mask);
                if !lower.is_empty() {
                    // SAFETY: neighbor ids < |V| = colors.len().
                    let cols = unsafe { s.gather_i32(view, nbrs, lower, s.splat_i32(-1)) };
                    let clash = s.cmpeq_i32(cols, cv_v).and(lower);
                    if !clash.is_empty() {
                        return Some(v);
                    }
                }
                off += LANES;
            }
            None
        })
    };
    let mut newconf: Vec<u32> = if config.parallel {
        concat_chunks(conf.len(), 1, |r| conf[r].iter().filter_map(find).collect())
    } else {
        conf.iter().filter_map(find).collect()
    };
    newconf.sort_unstable();
    newconf.dedup();
    newconf
}

/// Full iterative speculative coloring with the ONPL assignment kernel on
/// an explicitly pinned backend `s` — the expert entrypoint for ablations
/// that need full [`ColoringConfig`] control (e.g. `vectorized_conflicts`,
/// which `run_kernel` deliberately does not expose). Conflict detection
/// follows `config.vectorized_conflicts`: scalar (the paper's measured
/// configuration) or the vectorized extension.
pub fn color_with<S: Simd + Sync, R: Recorder>(
    s: &S,
    g: &Csr,
    config: &ColoringConfig,
    rec: &mut R,
) -> ColoringResult {
    if config.vectorized_conflicts {
        run_iterative_with_detect(
            g,
            config,
            |g, colors, conf, config, plan| assign_colors_onpl(s, g, colors, conf, config, plan),
            |g, colors, conf, config| detect_conflicts_onpl(s, g, colors, conf, config),
            rec,
            S::NAME,
        )
    } else {
        run_iterative(
            g,
            config,
            |g, colors, conf, config, plan| assign_colors_onpl(s, g, colors, conf, config, plan),
            rec,
            S::NAME,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::greedy::color_graph_scalar;
    use super::super::verify::verify_coloring;
    use super::*;
    use gp_metrics::telemetry::NoopRecorder;
    use gp_simd::backend::Emulated;
    use gp_graph::generators::{clique, cycle, erdos_renyi, path, preferential_attachment, star, triangular_mesh};

    const S: Emulated = Emulated;

    fn onpl(g: &Csr, config: &ColoringConfig) -> ColoringResult {
        color_with(&S, g, config, &mut NoopRecorder)
    }

    fn check(g: &Csr, config: &ColoringConfig) -> ColoringResult {
        let r = onpl(g, config);
        verify_coloring(g, &r.colors).expect("invalid ONPL coloring");
        r
    }

    #[test]
    fn onpl_matches_scalar_on_small_graphs() {
        // Sequential runs are deterministic and the two kernels implement
        // the same greedy rule, so results must be identical.
        for g in [path(17), cycle(20), clique(9), star(33)] {
            let cfg = ColoringConfig::sequential();
            let a = color_graph_scalar(&g, &cfg);
            let b = check(&g, &cfg);
            assert_eq!(a.colors, b.colors);
        }
    }

    #[test]
    fn onpl_matches_scalar_on_random_graph() {
        let g = erdos_renyi(300, 1500, 9);
        let cfg = ColoringConfig::sequential();
        assert_eq!(color_graph_scalar(&g, &cfg).colors, check(&g, &cfg).colors);
    }

    #[test]
    fn onpl_handles_degree_exactly_16() {
        // Full-vector path with no tail.
        let g = star(17); // hub degree 16
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn onpl_handles_degree_above_16() {
        let g = star(40);
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn onpl_on_hub_heavy_graph() {
        let g = preferential_attachment(400, 4, 2);
        let r = check(&g, &ColoringConfig::default());
        assert!(r.num_colors <= g.max_degree() as u32 + 1);
    }

    #[test]
    fn onpl_parallel_valid() {
        let g = triangular_mesh(25, 25, 4);
        let r = check(&g, &ColoringConfig::default());
        assert!(r.num_colors <= g.max_degree() as u32 + 1);
    }

    #[test]
    fn free_color_scan_past_first_window() {
        // A clique of 18 forces colors beyond one 16-lane window.
        let g = clique(18);
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 18);
    }

    #[test]
    fn vectorized_conflict_detection_matches_scalar_pipeline() {
        let g = erdos_renyi(350, 2100, 31);
        let base = ColoringConfig::sequential();
        let vc = ColoringConfig {
            vectorized_conflicts: true,
            ..ColoringConfig::sequential()
        };
        let a = color_with(&S, &g, &base, &mut NoopRecorder);
        let b = color_with(&S, &g, &vc, &mut NoopRecorder);
        // Sequential speculative runs are deterministic: both pipelines must
        // converge to the same coloring in the same number of rounds.
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn vectorized_conflict_detection_flags_real_conflicts() {
        // Seed an artificial conflict and check the kernel catches exactly
        // the lower-id rule's victim.
        let g = gp_graph::builder::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let colors: Vec<AtomicU32> =
            [1u32, 1, 2, 2].into_iter().map(AtomicU32::new).collect();
        let conf: Vec<u32> = (0..4).collect();
        let cfg = ColoringConfig::sequential();
        let flagged = detect_conflicts_onpl(&S, &g, &colors, &conf, &cfg);
        // Edges (0,1) and (2,3) clash; the higher endpoint is re-queued.
        assert_eq!(flagged, vec![1, 3]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn native_backend_agrees_with_emulated() {
        if let Some(native) = gp_simd::backend::Avx512::new() {
            let g = erdos_renyi(400, 2400, 21);
            let cfg = ColoringConfig::sequential();
            let a = color_with(&native, &g, &cfg, &mut NoopRecorder);
            let b = color_with(&S, &g, &cfg, &mut NoopRecorder);
            assert_eq!(a.colors, b.colors);
        }
    }
}
