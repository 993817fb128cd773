//! Scalar speculative parallel greedy coloring — the baseline of Figure 6.
//!
//! The structure follows the paper's pseudocode exactly: an outer loop over
//! speculative rounds (Algorithm 1), `AssignColors` marking forbidden colors
//! in a per-thread array (Algorithm 2), and `DetectConflicts` collecting
//! same-colored edges (Algorithm 3). Forbidden-color tracking uses the
//! standard stamp trick so the array is never cleared between vertices;
//! vertices of degree ≤ 16 skip the array for a single `u32` bitmask
//! (`assign_one_low`).

use super::{ColoringConfig, ColoringResult};
use crate::frontier::SweepMode;
use crate::locality::{self, Plan, Traversal};
use gp_graph::csr::Csr;
use gp_graph::par::concat_chunks;
use gp_metrics::telemetry::{NoopRecorder, Recorder, RoundProbe, RoundStats, RunInfo, RunTimer};
use gp_simd::counters;
use std::sync::atomic::{AtomicU32, Ordering};

/// Highest degree the scalar kernel colors through [`assign_one_low`]: at
/// most 16 forbidden colors leave an answer ≤ 17, inside one `u32` mask.
/// On the sparse benchmark graphs the bitmask beats the stamped array
/// (docs/PERFORMANCE.md, "The locality layer keeps only what measures").
const LOW_MAX_DEGREE: usize = 16;

/// Per-thread workspace for `AssignColors`: the FORBIDDEN array of
/// Algorithm 2, stamped instead of cleared.
pub(crate) struct Workspace {
    /// `forbidden[c] == stamp` means color `c` is taken by a neighbor of the
    /// vertex currently being colored.
    pub forbidden: Vec<u32>,
    pub stamp: u32,
}

impl Workspace {
    /// Allocates a workspace for graphs of maximum degree `max_degree`
    /// (colors range over `1..=max_degree + 1`).
    pub fn new(max_degree: usize) -> Self {
        Workspace {
            forbidden: vec![0; max_degree + 2],
            stamp: 0,
        }
    }
}

/// Scalar `AssignColors` for one vertex: marks neighbor colors forbidden and
/// returns the smallest positive free color.
#[inline]
pub(crate) fn assign_one_scalar(g: &Csr, colors: &[AtomicU32], v: u32, ws: &mut Workspace) -> u32 {
    ws.stamp = ws.stamp.wrapping_add(1);
    if ws.stamp == 0 {
        // Stamp wrapped: invalidate everything once.
        ws.forbidden.fill(0);
        ws.stamp = 1;
    }
    for &u in g.neighbors(v) {
        if u == v {
            continue; // a self-loop never forbids a color
        }
        let c = colors[u as usize].load(Ordering::Relaxed);
        ws.forbidden[c as usize] = ws.stamp;
    }
    // Smallest i > 0 with forbidden[i] != stamp. Bounded by degree + 1.
    let mut c = 1usize;
    while ws.forbidden[c] == ws.stamp {
        c += 1;
    }
    c as u32
}

/// `AssignColors` for one low-degree (≤16-neighbor) vertex: with at most 16
/// forbidden colors the smallest free positive color is at most 17, so a
/// single `u32` bitmask replaces the stamped FORBIDDEN array. Neighbor
/// colors ≥ 31 clamp to bit 31 — they can never displace an answer bounded
/// by 17, so the clamp is exact.
#[inline]
pub(crate) fn assign_one_low(g: &Csr, colors: &[AtomicU32], v: u32) -> u32 {
    let mut forb = 0u32;
    for &u in g.neighbors(v) {
        if u == v {
            continue; // a self-loop never forbids a color
        }
        let c = colors[u as usize].load(Ordering::Relaxed);
        forb |= 1 << c.min(31);
    }
    (!(forb | 1)).trailing_zeros()
}

/// Sweeps a piece of the conflict set through the locality layer and
/// stores each vertex's new color, computed by `assign`, the variant's
/// per-vertex kernel over its workspace. Every kernel computes the exact
/// smallest free color reading live state in order, so the result is
/// bit-identical to the plain per-vertex loop. The driver cuts the pieces
/// and polls the deadline between them ([`locality::slice_chunked`]), so
/// the sweep itself runs unrecorded.
pub(crate) fn sweep_assign<W: Send>(
    g: &Csr,
    colors: &[AtomicU32],
    conf: &[u32],
    parallel: bool,
    plan: &Plan,
    make_ws: impl Fn() -> W + Send + Sync,
    assign: impl Fn(&mut W, u32) -> u32 + Send + Sync,
) {
    locality::run_sweep(
        g,
        plan,
        conf.len(),
        parallel,
        &NoopRecorder,
        |i| Some(conf[i]),
        make_ws,
        |ws, v| colors[v as usize].store(assign(ws, v), Ordering::Relaxed),
        None::<fn(u32)>,
    );
}

/// Scalar `AssignColors` over a conflict set (Algorithm 2), swept by
/// `sweep_assign`: the `u32` bitmask for vertices of degree ≤ 16, the
/// stamped FORBIDDEN array above it.
pub fn assign_colors_scalar(
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
        || Workspace::new(max_degree),
        |ws, v| {
            if g.degree(v) <= LOW_MAX_DEGREE {
                assign_one_low(g, colors, v)
            } else {
                assign_one_scalar(g, colors, v, ws)
            }
        },
    );
    if config.count_ops {
        // Per neighbor: load id, load color, store forbidden, loop branch;
        // plus the free-color scan (~1 load + branch per candidate color,
        // bounded by degree; count 2 per vertex as the expected scan length).
        let visits: u64 = conf.iter().map(|&v| g.degree(v) as u64).sum();
        counters::record_scalar_edge_visits(visits);
        counters::record(counters::OpClass::ScalarLoad, 2 * conf.len() as u64);
        counters::record(counters::OpClass::ScalarBranch, 2 * conf.len() as u64);
    }
}

/// `DetectConflicts` (Algorithm 3): returns the vertices that must be
/// re-colored. For each same-colored edge the *higher* endpoint is
/// re-colored (the paper's `u < v` rule keeps the lower endpoint stable so
/// progress is guaranteed). Re-queuing the scanned vertex, not the neighbor
/// it clashes with, is what repairs every edge: a vertex can clash with
/// several lower neighbors at once.
pub(crate) fn detect_conflicts(
    g: &Csr,
    colors: &[AtomicU32],
    conf: &[u32],
    config: &ColoringConfig,
) -> Vec<u32> {
    let find = |&v: &u32| -> Option<u32> {
        let cv = colors[v as usize].load(Ordering::Relaxed);
        g.neighbors(v)
            .iter()
            .any(|&u| u < v && colors[u as usize].load(Ordering::Relaxed) == cv)
            .then_some(v)
    };
    let mut newconf: Vec<u32> = if config.parallel {
        concat_chunks(conf.len(), 1, |r| conf[r].iter().filter_map(find).collect())
    } else {
        conf.iter().filter_map(find).collect()
    };
    if config.count_ops {
        let visits: u64 = conf.iter().map(|&v| g.degree(v) as u64).sum();
        counters::record(counters::OpClass::ScalarLoad, visits); // adj stream
        counters::record(counters::OpClass::ScalarRandLoad, visits); // colors
        counters::record(counters::OpClass::ScalarBranch, visits);
    }
    newconf.sort_unstable();
    newconf.dedup();
    newconf
}

/// Runs the full iterative speculative coloring with the scalar assignment
/// kernel (Algorithm 1). Crate-internal: external callers reach this as
/// `run_kernel` with `Backend::Scalar`.
pub(crate) fn color_graph_scalar(g: &Csr, config: &ColoringConfig) -> ColoringResult {
    color_graph_scalar_recorded(g, config, &mut NoopRecorder)
}

/// [`color_graph_scalar`] with per-round telemetry.
pub(crate) fn color_graph_scalar_recorded<R: Recorder>(
    g: &Csr,
    config: &ColoringConfig,
    rec: &mut R,
) -> ColoringResult {
    run_iterative(g, config, assign_colors_scalar, rec, "scalar")
}

/// Shared Algorithm-1 skeleton: used by the scalar and the ONPL assignment
/// kernels so both variants measure identical control flow.
pub(crate) fn run_iterative<R: Recorder>(
    g: &Csr,
    config: &ColoringConfig,
    assign: impl FnMut(&Csr, &[AtomicU32], &[u32], &ColoringConfig, &Plan),
    rec: &mut R,
    backend: &'static str,
) -> ColoringResult {
    run_iterative_with_detect(g, config, assign, detect_conflicts, rec, backend)
}

/// Algorithm-1 skeleton with a pluggable `DetectConflicts` kernel (the
/// vectorized variant lives in [`super::onpl`]).
///
/// Per-round telemetry: `active` is the conflict-set size entering the
/// round (every one of those vertices is re-colored, so `moves == active`),
/// `active_edges` the edges incident to it, `conflicts` the number of
/// vertices `DetectConflicts` re-queues.
///
/// Sweep modes: `AssignColors` always operates on the conflict set (that
/// *is* Algorithm 1); [`SweepMode`] governs the `DetectConflicts` scan —
/// `active` examines only this round's recolored vertices (a conflict can
/// only arise between two vertices recolored in the same round, so this is
/// exact), `full` re-scans every vertex as the paper-shaped baseline. Both
/// produce the same conflict set, hence bit-identical colorings.
///
/// `AssignColors` and `DetectConflicts` both run through
/// [`locality::slice_chunked`], so a [`Recorder`] that can fire deadlines
/// is polled every few thousand vertices *within* a round rather than only
/// at round boundaries. Each `assign` kernel receives the run's locality
/// [`Plan`] (its hub units).
pub(crate) fn run_iterative_with_detect<R: Recorder>(
    g: &Csr,
    config: &ColoringConfig,
    mut assign: impl FnMut(&Csr, &[AtomicU32], &[u32], &ColoringConfig, &Plan),
    mut detect: impl FnMut(&Csr, &[AtomicU32], &[u32], &ColoringConfig) -> Vec<u32>,
    rec: &mut R,
    backend: &'static str,
) -> ColoringResult {
    let timer = RunTimer::start();
    let plan = Plan::for_graph(g, Traversal::InOrder);
    let n = g.num_vertices();
    let (colors, mut conf): (Vec<AtomicU32>, Vec<u32>) = match &config.warm {
        Some(w) if w.colors.len() == n => {
            // Warm start: adopt the previous coloring and repair only the
            // seed cone. Colors beyond the forbidden-array bound Δ+1 (the
            // graph shrank below the previous palette) are reset to 0 and
            // their vertices forced into the conflict set, so the assign
            // workspace indexing stays in bounds.
            let cap = g.max_degree() as u32 + 1;
            let mut extra: Vec<u32> = Vec::new();
            let colors: Vec<AtomicU32> = w
                .colors
                .iter()
                .enumerate()
                .map(|(v, &c)| {
                    if c > cap {
                        extra.push(v as u32);
                        AtomicU32::new(0)
                    } else {
                        AtomicU32::new(c)
                    }
                })
                .collect();
            let mut conf: Vec<u32> = w.seed.as_ref().clone();
            if !extra.is_empty() {
                conf.extend(extra);
                conf.sort_unstable();
                conf.dedup();
            }
            (colors, conf)
        }
        _ => (
            (0..n).map(|_| AtomicU32::new(0)).collect(),
            (0..n as u32).collect(),
        ),
    };
    let all: Vec<u32> = if config.sweep == SweepMode::Full {
        (0..n as u32).collect()
    } else {
        Vec::new()
    };
    let mut rounds = 0;
    let mut bailed = false;
    while !conf.is_empty() && rounds < config.max_rounds && !rec.should_stop() {
        rounds += 1;
        let probe = RoundProbe::begin::<R>();
        let active = conf.len() as u64;
        let active_edges: u64 = if R::ENABLED {
            conf.iter().map(|&v| g.degree(v) as u64).sum()
        } else {
            0
        };
        bailed = locality::slice_chunked(&conf, rec, |sub| assign(g, &colors, sub, config, &plan));
        if !bailed {
            let scan: &[u32] = match config.sweep {
                SweepMode::Active => &conf,
                SweepMode::Full => &all,
            };
            let mut newconf: Vec<u32> = Vec::new();
            bailed = locality::slice_chunked(scan, rec, |sub| {
                newconf.extend(detect(g, &colors, sub, config));
            });
            if R::CHECKS_DEADLINE {
                // Chunked detection emits per-chunk sorted runs; restore the
                // global order contract.
                newconf.sort_unstable();
                newconf.dedup();
            }
            conf = newconf;
        }
        probe.finish(
            rec,
            RoundStats::new(rounds - 1)
                .active(active)
                .active_edges(active_edges)
                .moves(active)
                .conflicts(conf.len() as u64),
        );
        if bailed {
            break;
        }
    }
    // A cooperative stop (deadline) may leave conflicts behind — the caller
    // gets a partial, non-converged result. Without one, failing to clear
    // the conflict set within the round cap is still a hard bug.
    let converged = conf.is_empty() && !bailed;
    assert!(
        converged || rec.should_stop(),
        "coloring failed to converge within {} rounds",
        config.max_rounds
    );
    let colors: Vec<u32> = colors.into_iter().map(|c| c.into_inner()).collect();
    let num_colors = colors.iter().copied().max().unwrap_or(0);
    ColoringResult {
        colors,
        rounds,
        num_colors,
        info: RunInfo::new(backend, rounds, converged, timer.elapsed_secs()),
    }
}

#[cfg(test)]
mod tests {
    use super::super::verify::verify_coloring;
    use super::*;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{clique, cycle, erdos_renyi, path, star, triangular_mesh};

    fn check(g: &Csr, config: &ColoringConfig) -> ColoringResult {
        let r = color_graph_scalar(g, config);
        verify_coloring(g, &r.colors).expect("invalid coloring");
        r
    }

    #[test]
    fn colors_empty_graph() {
        let g = Csr::empty(5);
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 1); // isolated vertices all take color 1
    }

    #[test]
    fn colors_path_with_two_colors() {
        let r = check(&path(10), &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn colors_even_cycle_with_two_colors() {
        let r = check(&cycle(8), &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn odd_cycle_needs_three() {
        let r = check(&cycle(9), &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 3);
    }

    #[test]
    fn clique_needs_n_colors() {
        let r = check(&clique(6), &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 6);
    }

    #[test]
    fn star_needs_two() {
        let r = check(&star(20), &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn sequential_converges_in_one_round() {
        let g = erdos_renyi(200, 600, 3);
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn parallel_valid_on_random_graph() {
        let g = erdos_renyi(500, 2000, 5);
        let r = check(&g, &ColoringConfig::default());
        assert!(r.num_colors <= g.max_degree() as u32 + 1);
    }

    #[test]
    fn greedy_bound_holds() {
        // Greedy uses at most Δ + 1 colors.
        let g = triangular_mesh(20, 20, 1);
        let r = check(&g, &ColoringConfig::sequential());
        assert!(r.num_colors <= g.max_degree() as u32 + 1);
    }

    #[test]
    fn self_loops_do_not_break_coloring() {
        let g = gp_graph::builder::GraphBuilder::new(3)
            .add_edges([
                gp_graph::Edge::unweighted(0, 1),
                gp_graph::Edge::new(1, 1, 2.0),
                gp_graph::Edge::unweighted(1, 2),
            ])
            .build();
        let r = check(&g, &ColoringConfig::sequential());
        assert!(r.num_colors <= 2);
    }

    #[test]
    fn stamp_wraparound_is_handled() {
        let g = path(3);
        let colors: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(0)).collect();
        let mut ws = Workspace::new(g.max_degree());
        ws.stamp = u32::MAX; // next increment wraps
        let c = assign_one_scalar(&g, &colors, 1, &mut ws);
        assert_eq!(c, 1);
        assert_eq!(ws.stamp, 1);
    }

    #[test]
    fn low_degree_bitmask_matches_stamped_kernel() {
        // Every vertex of this graph has degree ≤ 16, so both kernels are
        // eligible everywhere; seed colors include values past the 31-bit
        // clamp to exercise it.
        let g = erdos_renyi(200, 400, 11);
        assert!(g.max_degree() <= 16, "generator produced a hub");
        let colors: Vec<AtomicU32> = (0..200)
            .map(|i| AtomicU32::new(match i % 5 {
                0 => 0,
                1 => 3,
                2 => 17,
                3 => 40, // clamps to bit 31
                _ => 1,
            }))
            .collect();
        // Workspace sized for the seeded colors (the stamped kernel indexes
        // FORBIDDEN by color; the real pipeline never exceeds Δ + 1).
        let mut ws = Workspace::new(64);
        for v in 0..200u32 {
            assert_eq!(
                assign_one_low(&g, &colors, v),
                assign_one_scalar(&g, &colors, v, &mut ws),
                "vertex {v}"
            );
        }
    }

    #[test]
    fn conflict_detection_requeues_an_endpoint_of_every_clash() {
        // Vertex 2 clashes with both lower neighbors 0 and 1; re-queuing
        // just one of them would leave the other edge unrepaired.
        let g = from_pairs(3, [(0, 2), (1, 2)]);
        let colors: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(1)).collect();
        let conf: Vec<u32> = (0..3).collect();
        let flagged = detect_conflicts(&g, &colors, &conf, &ColoringConfig::sequential());
        assert_eq!(flagged, vec![2]);
    }

    #[test]
    fn disconnected_components_colored_independently() {
        let g = from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 3); // triangle needs 3; edge uses 2 of them
    }
}
