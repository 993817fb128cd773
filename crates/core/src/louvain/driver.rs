//! The full multilevel Louvain driver: alternate move and coarsening phases
//! until modularity stops improving, then project communities back to the
//! original graph.

use super::coarsen::{coarsen, project};
use super::modularity::modularity;
use super::mplm::move_phase_mplm_recorded;
use super::onpl::move_phase_onpl_recorded;
use super::ovpl::{move_phase_ovpl_recorded, prepare};
use super::plm::move_phase_plm_recorded;
use super::{LouvainConfig, MovePhaseStats, MoveState, Variant};
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{PhaseProbe, Recorder, RunInfo, RunTimer};
use gp_simd::backend::Simd;
use gp_simd::engine::Engine;
use std::borrow::Cow;

/// Outcome of a full Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainResult {
    /// Final community per original vertex.
    pub communities: Vec<u32>,
    /// Modularity of the final assignment.
    pub modularity: f64,
    /// Coarsening levels processed (1 = move phase only sufficed).
    pub levels: usize,
    /// Per-level move statistics.
    pub level_stats: Vec<MovePhaseStats>,
    /// Uniform run envelope (backend, levels, convergence, wall time,
    /// optional trace). Excluded from equality.
    pub info: RunInfo,
}

impl PartialEq for LouvainResult {
    fn eq(&self, other: &Self) -> bool {
        self.communities == other.communities
            && self.modularity == other.modularity
            && self.levels == other.levels
            && self.level_stats == other.level_stats
    }
}

/// `S::NAME` of a backend value (helps `match backends::engine()` name its arm).
fn name_of<S: Simd>(_: &S) -> &'static str {
    S::NAME
}

/// Backend the configured variant will actually run on: the scalar variants
/// never touch the SIMD engine; the vector variants use the registry engine (`crate::backends::engine`).
fn dispatch_backend(config: &LouvainConfig) -> &'static str {
    match config.variant {
        Variant::Plm | Variant::Mplm => "scalar",
        Variant::Onpl(_) | Variant::Ovpl => match crate::backends::engine() {
            Engine::Native(s) => name_of(&s),
            Engine::Emulated(s) => name_of(&s),
        },
    }
}

/// Dispatches one move phase to the best available SIMD backend (the
/// `Backend::Auto` path of `run_kernel`).
pub(crate) fn dispatch_move_phase_recorded<R: Recorder>(
    g: &Csr,
    state: &MoveState,
    config: &LouvainConfig,
    rec: &mut R,
) -> MovePhaseStats {
    match config.variant {
        Variant::Plm => move_phase_plm_recorded(g, state, config, rec),
        Variant::Mplm => move_phase_mplm_recorded(g, state, config, rec),
        Variant::Onpl(strategy) => match crate::backends::engine() {
            Engine::Native(s) => move_phase_onpl_recorded(&s, g, state, strategy, config, rec),
            Engine::Emulated(s) => move_phase_onpl_recorded(&s, g, state, strategy, config, rec),
        },
        Variant::Ovpl => {
            let layout = prepare(g, config);
            match crate::backends::engine() {
                Engine::Native(s) => move_phase_ovpl_recorded(&s, &layout, state, config, rec),
                Engine::Emulated(s) => move_phase_ovpl_recorded(&s, &layout, state, config, rec),
            }
        }
    }
}

/// Runs one move phase of the configured variant on an explicitly pinned
/// backend `s`, with per-sweep telemetry delivered to `rec`.
///
/// This is the expert move-phase-level API (the granularity the paper's
/// timings operate at): it mutates `state` in place rather than running the
/// full multilevel pipeline, which `run_kernel` cannot express. The scalar
/// variants (PLM/MPLM) never touch `s`. Benchmarks that pin `Counted`
/// backends for modeled runs come through here.
pub fn move_phase_with<S: Simd + Sync, R: Recorder>(
    s: &S,
    g: &Csr,
    state: &MoveState,
    config: &LouvainConfig,
    rec: &mut R,
) -> MovePhaseStats {
    match config.variant {
        Variant::Plm => move_phase_plm_recorded(g, state, config, rec),
        Variant::Mplm => move_phase_mplm_recorded(g, state, config, rec),
        Variant::Onpl(strategy) => move_phase_onpl_recorded(s, g, state, strategy, config, rec),
        Variant::Ovpl => {
            let layout = prepare(g, config);
            move_phase_ovpl_recorded(s, &layout, state, config, rec)
        }
    }
}

/// Full Louvain on the best available backend (the `Backend::Auto` path of
/// `run_kernel`): move phases and coarsening until modularity converges (or
/// a single move phase when `config.multilevel` is false, which is what the
/// paper's timings cover). Sweeps are stamped with the coarsening level via
/// [`Recorder::set_level`].
pub(crate) fn louvain_recorded<R: Recorder>(
    g: &Csr,
    config: &LouvainConfig,
    rec: &mut R,
) -> LouvainResult {
    louvain_with_runner(
        g,
        config,
        rec,
        dispatch_move_phase_recorded,
        dispatch_backend(config),
    )
}

/// Full Louvain with every move phase pinned to backend `s` (the
/// `Backend::Emulated`/`Backend::Native` paths of `run_kernel`).
pub(crate) fn louvain_pinned_recorded<S: Simd + Sync, R: Recorder>(
    s: &S,
    g: &Csr,
    config: &LouvainConfig,
    rec: &mut R,
) -> LouvainResult {
    let backend = match config.variant {
        Variant::Plm | Variant::Mplm => "scalar",
        Variant::Onpl(_) | Variant::Ovpl => S::NAME,
    };
    louvain_with_runner(
        g,
        config,
        rec,
        |g, state, config, rec| move_phase_with(s, g, state, config, rec),
        backend,
    )
}

/// The shared multilevel loop: `runner` supplies the move phase (engine
/// dispatch or an explicit pin), `backend` names it for the run envelope.
fn louvain_with_runner<R: Recorder>(
    g: &Csr,
    config: &LouvainConfig,
    rec: &mut R,
    mut runner: impl FnMut(&Csr, &MoveState, &LouvainConfig, &mut R) -> MovePhaseStats,
    backend: &'static str,
) -> LouvainResult {
    let timer = RunTimer::start();
    let mut result = LouvainResult {
        communities: (0..g.num_vertices() as u32).collect(),
        modularity: 0.0,
        levels: 0,
        level_stats: Vec::new(),
        info: RunInfo::default(),
    };

    // Level 0 runs on the caller's graph; only coarse graphs are owned.
    let mut level_graph = Cow::Borrowed(g);
    let mut assignments: Vec<(Vec<u32>, Vec<u32>)> = Vec::new(); // (zeta, fine_to_coarse)
    // Warm starts apply only at the finest level: coarse graphs have their
    // own vertex space, so deeper levels run cold from singletons.
    let mut level_config = config.clone();
    loop {
        rec.set_level(result.levels);
        let state = match &level_config.warm {
            Some(w) if w.communities.len() == level_graph.num_vertices() => {
                MoveState::from_assignment(&level_graph, &w.communities)
            }
            _ => MoveState::singleton(&level_graph),
        };
        let stats = runner(&level_graph, &state, &level_config, rec);
        result.levels += 1;
        result.level_stats.push(stats);
        let zeta = state.communities();
        let distinct = super::modularity::count_communities(&zeta);

        if !config.multilevel
            || stats.moves == 0
            || distinct == level_graph.num_vertices()
            || rec.should_stop()
        {
            assignments.push((zeta, Vec::new()));
            break;
        }
        let probe = PhaseProbe::begin::<R>();
        let coarse = coarsen(&level_graph, &zeta);
        probe.finish(rec, "coarsen");
        let done = coarse.graph.num_vertices() <= 1;
        assignments.push((zeta, coarse.fine_to_coarse));
        if done {
            break;
        }
        level_graph = Cow::Owned(coarse.graph);
        level_config.warm = None;
    }

    // Project the deepest assignment back through the levels.
    let probe = PhaseProbe::begin::<R>();
    let (mut communities, _) = assignments.pop().unwrap();
    while let Some((zeta, fine_to_coarse)) = assignments.pop() {
        communities = project(&zeta, &fine_to_coarse, &communities);
    }
    probe.finish(rec, "project");
    result.communities = communities;
    result.modularity = modularity(g, &result.communities);
    // A deadline stop anywhere in the level loop means the multilevel
    // process did not run to completion, even if each executed move phase
    // happened to converge on its own.
    let converged = result.level_stats.iter().all(|s| s.converged) && !rec.should_stop();
    result.info = RunInfo::new(backend, result.levels, converged, timer.elapsed_secs());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce_scatter::Strategy;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{planted_partition, planted_partition_truth, triangular_mesh};
    use gp_metrics::telemetry::NoopRecorder;

    fn seq(variant: Variant) -> LouvainConfig {
        LouvainConfig::sequential(variant)
    }

    fn louvain(g: &Csr, config: &LouvainConfig) -> LouvainResult {
        louvain_recorded(g, config, &mut NoopRecorder)
    }

    #[test]
    fn multilevel_beats_single_level_on_mesh() {
        let g = triangular_mesh(16, 16, 6);
        let single = louvain(&g, &seq(Variant::Mplm).move_phase_only());
        let multi = louvain(&g, &seq(Variant::Mplm));
        assert!(
            multi.modularity >= single.modularity - 1e-9,
            "multilevel {} < single {}",
            multi.modularity,
            single.modularity
        );
        assert!(multi.levels >= single.levels);
    }

    #[test]
    fn all_variants_recover_planted_communities() {
        let g = planted_partition(4, 16, 0.7, 0.02, 55);
        let truth = planted_partition_truth(4, 16);
        let q_truth = super::super::modularity::modularity(&g, &truth);
        for variant in [
            Variant::Plm,
            Variant::Mplm,
            Variant::Onpl(Strategy::ConflictDetect),
            Variant::Onpl(Strategy::InVectorReduce),
            Variant::Ovpl,
        ] {
            let r = louvain(&g, &seq(variant));
            assert!(
                r.modularity > 0.9 * q_truth,
                "{}: Q = {} vs truth {}",
                variant.name(),
                r.modularity,
                q_truth
            );
        }
    }

    #[test]
    fn communities_cover_all_vertices() {
        let g = triangular_mesh(10, 10, 2);
        let r = louvain(&g, &seq(Variant::Mplm));
        assert_eq!(r.communities.len(), g.num_vertices());
    }

    #[test]
    fn single_edge_graph() {
        let g = from_pairs(2, [(0, 1)]);
        let r = louvain(&g, &seq(Variant::Mplm));
        assert_eq!(r.communities[0], r.communities[1]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(3);
        let r = louvain(&g, &seq(Variant::Mplm));
        assert_eq!(r.communities.len(), 3);
        assert_eq!(r.modularity, 0.0);
    }

    #[test]
    fn trace_records_substrate_phases() {
        use gp_metrics::telemetry::TraceRecorder;
        let g = triangular_mesh(16, 16, 6);
        let mut rec = TraceRecorder::new("louvain-mplm");
        let r = louvain_recorded(&g, &seq(Variant::Mplm), &mut rec);
        let trace = rec.into_trace();
        if r.levels > 1 {
            let coarsens: Vec<_> = trace.phases.iter().filter(|p| p.name == "coarsen").collect();
            // One coarsen per level transition (the final level may or may
            // not coarsen depending on which exit condition fired).
            assert!(
                coarsens.len() >= r.levels - 1 && coarsens.len() <= r.levels,
                "{} coarsens for {} levels",
                coarsens.len(),
                r.levels
            );
            assert!(coarsens.iter().all(|p| p.secs >= 0.0));
        }
        assert!(trace.phases.iter().any(|p| p.name == "project"));
    }

    #[test]
    fn level_stats_recorded() {
        let g = planted_partition(3, 12, 0.7, 0.05, 77);
        let r = louvain(&g, &seq(Variant::Mplm));
        assert_eq!(r.level_stats.len(), r.levels);
        assert!(r.level_stats[0].moves > 0);
    }
}
