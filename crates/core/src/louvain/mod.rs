//! The Louvain method (Section 3.2 / Algorithm 4) in the paper's four
//! implementations, plus coarsening and the full multilevel driver.
//!
//! | variant | module | description |
//! |---------|--------|-------------|
//! | PLM     | [`plm`]  | NetworKit-style parallel Louvain, *including* its per-vertex buffer allocation (the flaw Figure 11a quantifies) |
//! | MPLM    | [`mplm`] | the paper's Modified PLM: preallocated per-thread buffers; the scalar baseline for every speedup figure |
//! | ONPL    | [`onpl`] | one-neighbor-per-lane vectorized move phase built on [`crate::reduce_scatter`] |
//! | OVPL    | [`ovpl`] | one-vertex-per-lane vectorized move phase over coloring-grouped sliced-ELLPACK blocks |
//!
//! All variants share the same move rule (maximize the paper's Δmod) and the
//! same 25-iteration convergence cap PLM uses.

pub mod coarsen;
pub mod driver;
pub mod modularity;
pub mod mplm;
pub mod onpl;
pub mod ovpl;
pub mod plm;

pub use driver::{move_phase_with, LouvainResult};
pub use modularity::modularity;

use crate::frontier::{Frontier, SweepMode};
use crate::locality::{self, Plan};
use crate::reduce_scatter::Strategy;
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{Recorder, RoundProbe, RoundStats};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Warm start for incremental Louvain (`crates/core/src/incremental.rs`):
/// adopt a previous community assignment (via
/// [`MoveState::from_assignment`]) and sweep only from a seeded frontier.
/// Applies to the first (finest) level only — the multilevel driver clears
/// it before coarsening, since coarse graphs have their own vertex space.
#[derive(Debug, Clone)]
pub struct LouvainWarm {
    /// Per-vertex community ids from the previous run (each `< n`).
    pub communities: Arc<Vec<u32>>,
    /// Sorted, deduplicated vertices active in the first sweep.
    pub seed: Arc<Vec<u32>>,
}

/// Which Louvain implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// NetworKit-style PLM with per-vertex allocations.
    Plm,
    /// Memory-fixed scalar baseline.
    #[default]
    Mplm,
    /// One Neighbor Per Lane, with a reduce-scatter strategy.
    Onpl(Strategy),
    /// One Vertex Per Lane.
    Ovpl,
}

impl Variant {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Plm => "PLM",
            Variant::Mplm => "MPLM",
            Variant::Onpl(_) => "ONPL",
            Variant::Ovpl => "OVPL",
        }
    }
}

/// Louvain configuration.
#[derive(Debug, Clone)]
pub struct LouvainConfig {
    /// Implementation to use.
    pub variant: Variant,
    /// Move vertices in parallel on the current `gp-par` pool (PLM's
    /// optimistic racing); `false` gives the deterministic sequential
    /// schedule.
    pub parallel: bool,
    /// Cap on move-phase sweeps; PLM stops after 25 "whether communities
    /// have converged or not".
    pub max_move_iterations: usize,
    /// Run coarsening phases recursively (full Louvain) or stop after the
    /// first move phase (what the paper measures).
    pub multilevel: bool,
    /// Record scalar op counts into `gp_simd::counters` for modeled runs.
    pub count_ops: bool,
    /// OVPL block size in vertices; must be a multiple of 16.
    pub block_size: usize,
    /// OVPL: sort color groups by non-increasing degree (the paper's
    /// load-balancing step; exposed for the ablation bench).
    pub sort_by_degree: bool,
    /// How each sweep enumerates vertices: [`SweepMode::Active`] visits only
    /// the frontier (vertices with a neighbor that changed community last
    /// sweep; OVPL lifts this to blocks containing such a vertex) through a
    /// packed worklist, [`SweepMode::Full`] scans all vertices and skips
    /// inactive ones in place. Bit-identical outputs.
    pub sweep: SweepMode,
    /// Warm start: adopt a previous assignment and re-converge from a
    /// seeded frontier at the finest level. `None` (the default) is the
    /// ordinary full run.
    pub warm: Option<LouvainWarm>,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        LouvainConfig {
            variant: Variant::Mplm,
            parallel: true,
            max_move_iterations: 25,
            multilevel: true,
            count_ops: false,
            block_size: 16,
            sort_by_degree: true,
            sweep: SweepMode::Active,
            warm: None,
        }
    }
}

impl LouvainConfig {
    /// Deterministic sequential configuration for tests.
    pub fn sequential(variant: Variant) -> Self {
        LouvainConfig {
            variant,
            parallel: false,
            ..Default::default()
        }
    }

    /// Move-phase-only configuration (what the paper times).
    pub fn move_phase_only(mut self) -> Self {
        self.multilevel = false;
        self
    }

    /// Sets the sweep mode (`full` re-scans every vertex each sweep;
    /// `active` only the frontier).
    pub fn with_sweep(mut self, sweep: SweepMode) -> Self {
        self.sweep = sweep;
        self
    }
}

/// Statistics from one move phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MovePhaseStats {
    /// Sweeps executed (≤ 25).
    pub iterations: usize,
    /// Total vertex moves applied.
    pub moves: u64,
    /// Whether a sweep applied zero moves before the iteration cap (as
    /// opposed to being cut off by `max_move_iterations`).
    pub converged: bool,
}

/// Shared sweep loop of every move-phase variant: run `sweep` over the
/// frontier until a sweep applies zero moves or `max_move_iterations` is
/// hit, delivering one [`RoundStats`] per sweep to `rec`.
///
/// Active-set semantics (both sweep modes): a vertex is eligible to move in
/// sweep `s` iff a neighbor changed community in sweep `s - 1` (every
/// vertex is eligible in sweep 0). The variant's `sweep` closure receives
/// the frontier, the priced `active_edges`, and the recorder (for chunked
/// deadline polling) and returns `(moves, bailed)`; movers must
/// [`Frontier::activate`] their neighbors. `degree_of` prices the frontier
/// for telemetry and op counting; `quality` is evaluated around each sweep
/// to fill `quality_delta` only when `R::ENABLED`, so uninstrumented runs
/// execute the plain loop.
pub(crate) fn run_sweeps<R: Recorder>(
    config: &LouvainConfig,
    n: usize,
    degree_of: impl Fn(u32) -> u64,
    rec: &mut R,
    quality: impl Fn() -> f64,
    mut sweep: impl FnMut(&Frontier, u64, &R) -> (u64, bool),
) -> MovePhaseStats {
    let mut stats = MovePhaseStats::default();
    let mut q_prev = if R::ENABLED { quality() } else { 0.0 };
    let mut frontier = match &config.warm {
        Some(w) if w.communities.len() == n => Frontier::seeded(n, &w.seed),
        _ => Frontier::all_active(n),
    };
    for round in 0..config.max_move_iterations {
        let active_now = frontier.len() as u64;
        let active_edges = if R::ENABLED || config.count_ops {
            frontier.active_edge_count(&degree_of)
        } else {
            0
        };
        let probe = RoundProbe::begin::<R>();
        let (m, bailed) = sweep(&frontier, active_edges, rec);
        stats.iterations += 1;
        stats.moves += m;
        let mut rs = RoundStats::new(round)
            .active(active_now)
            .active_edges(active_edges)
            .moves(m);
        if R::ENABLED {
            let q = quality();
            rs = rs.quality_delta(q - q_prev);
            q_prev = q;
        }
        probe.finish(rec, rs);
        if bailed {
            break;
        }
        if m == 0 {
            stats.converged = true;
            break;
        }
        // Cooperative cancellation (deadline): stop after a completed sweep,
        // leaving a consistent but non-converged assignment.
        if rec.should_stop() {
            break;
        }
        frontier.advance();
    }
    stats
}

/// Enumerates one sweep's vertices per `config.sweep` and feeds them to
/// `process` through [`locality::run_sweep`] (hub singleton units,
/// parallelism, deadline polling): [`SweepMode::Full`] scans `0..n` and
/// skips inactive vertices in place; [`SweepMode::Active`] walks the
/// packed ascending worklist — the same vertices in the same relative
/// order, hence bit-identical moves. Returns `true` when a deadline bailed
/// the sweep early.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_vertices<R: Recorder, B: Send>(
    g: &Csr,
    plan: &Plan,
    fr: &Frontier,
    n: usize,
    config: &LouvainConfig,
    rec: &R,
    make_buf: impl Fn() -> B + Send + Sync,
    process: impl Fn(&mut B, u32) + Send + Sync,
) -> bool {
    match config.sweep {
        SweepMode::Full => locality::run_sweep(
            g,
            plan,
            n,
            config.parallel,
            rec,
            |i| {
                let u = i as u32;
                fr.is_active(u).then_some(u)
            },
            make_buf,
            process,
            None::<fn(u32)>,
        ),
        SweepMode::Active => {
            let wl = fr.worklist();
            locality::run_sweep(
                g,
                plan,
                wl.len(),
                config.parallel,
                rec,
                |i| Some(wl[i]),
                make_buf,
                process,
                None::<fn(u32)>,
            )
        }
    }
}

/// An `f32` with atomic update support, used for community volumes that
/// parallel move phases mutate concurrently.
///
/// `repr(transparent)` over `AtomicU32` (itself transparent over `u32`) so
/// the vectorized kernels can gather from a `&[AtomicF32]` reinterpreted as
/// `&[f32]` — the same benign-race pattern PLM's optimistic parallelism is
/// built on.
#[derive(Debug)]
#[repr(transparent)]
pub struct AtomicF32(AtomicU32);

impl AtomicF32 {
    /// New atomic with the given value.
    pub fn new(v: f32) -> Self {
        AtomicF32(AtomicU32::new(v.to_bits()))
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, v: f32) {
        self.0.store(v.to_bits(), Ordering::Relaxed)
    }

    /// Relaxed compare-and-swap add.
    #[inline]
    pub fn fetch_add(&self, delta: f32) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f32::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Shared mutable state of a move phase: community assignment and community
/// volumes. Community ids live in `0..n` (initially `zeta[u] = u`).
#[derive(Debug)]
pub struct MoveState {
    /// Community of each vertex.
    pub zeta: Vec<AtomicU32>,
    /// Volume of each community (indexed by community id).
    pub volume: Vec<AtomicF32>,
    /// Fixed volume of each vertex, `vol(u)`.
    pub vertex_volume: Vec<f32>,
    /// Total edge weight ω(E).
    pub total_weight: f64,
}

/// Every vertex's volume `vol(u)` (as `f32`) and the total edge weight
/// ω(E), from one pass over the arcs. Each sum runs in `f64` in the order
/// [`Csr::volume`] and [`Csr::total_weight`] use, so the bits match theirs.
fn volumes_and_total_weight(g: &Csr) -> (Vec<f32>, f64) {
    let (mut twice, mut loops) = (0.0f64, 0.0f64);
    let volumes = g
        .vertices()
        .map(|u| {
            let mut vol = 0.0f64;
            for (v, w) in g.edges_of(u) {
                vol += w as f64;
                if v == u {
                    vol += w as f64;
                    loops += w as f64;
                } else {
                    twice += w as f64;
                }
            }
            vol as f32
        })
        .collect();
    (volumes, twice / 2.0 + loops)
}

impl MoveState {
    /// Singleton initialization: every vertex in its own community.
    pub fn singleton(g: &Csr) -> Self {
        let n = g.num_vertices();
        let (vertex_volume, total_weight) = volumes_and_total_weight(g);
        MoveState {
            zeta: (0..n as u32).map(AtomicU32::new).collect(),
            volume: vertex_volume.iter().map(|&v| AtomicF32::new(v)).collect(),
            vertex_volume,
            total_weight,
        }
    }

    /// Initialization from an existing assignment (warm start): community
    /// volumes are the sums of member vertex volumes. Every community id in
    /// `zeta` must be `< n`.
    pub fn from_assignment(g: &Csr, zeta: &[u32]) -> Self {
        let n = g.num_vertices();
        assert_eq!(zeta.len(), n, "assignment length must match graph");
        let (vertex_volume, total_weight) = volumes_and_total_weight(g);
        let mut vol = vec![0.0f32; n];
        for (u, &c) in zeta.iter().enumerate() {
            vol[c as usize] += vertex_volume[u];
        }
        MoveState {
            zeta: zeta.iter().map(|&c| AtomicU32::new(c)).collect(),
            volume: vol.into_iter().map(AtomicF32::new).collect(),
            vertex_volume,
            total_weight,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.zeta.len()
    }

    /// True when the state is empty.
    pub fn is_empty(&self) -> bool {
        self.zeta.is_empty()
    }

    /// Community of `u` (relaxed read).
    #[inline]
    pub fn community(&self, u: u32) -> u32 {
        self.zeta[u as usize].load(Ordering::Relaxed)
    }

    /// Moves `u` from community `from` to `to`, maintaining volumes.
    #[inline]
    pub fn apply_move(&self, u: u32, from: u32, to: u32) {
        let vol = self.vertex_volume[u as usize];
        self.volume[from as usize].fetch_add(-vol);
        self.volume[to as usize].fetch_add(vol);
        self.zeta[u as usize].store(to, Ordering::Relaxed);
    }

    /// Snapshot of the community assignment as plain values.
    pub fn communities(&self) -> Vec<u32> {
        self.zeta.iter().map(|z| z.load(Ordering::Relaxed)).collect()
    }
}

/// Computes the paper's modularity gain for moving `u` from community `c`
/// (with `u`'s volume already conceptually removed) to community `d`:
///
/// `Δmod = (aff_d − aff_c)/ω(E) + (vol(C∖{u}) − vol(D∖{u}))·vol(u) / (2ω(E)²)`
#[inline(always)]
pub fn delta_mod(
    aff_c: f32,
    aff_d: f32,
    vol_c_without_u: f32,
    vol_d: f32,
    vol_u: f32,
    inv_m: f32,
    inv_2m2: f32,
) -> f32 {
    (aff_d - aff_c) * inv_m + (vol_c_without_u - vol_d) * vol_u * inv_2m2
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::generators::clique;

    #[test]
    fn atomic_f32_roundtrip() {
        let a = AtomicF32::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
        a.fetch_add(1.0);
        assert_eq!(a.load(), -1.25);
    }

    #[test]
    fn atomic_f32_concurrent_adds() {
        let a = AtomicF32::new(0.0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        a.fetch_add(1.0);
                    }
                });
            }
        });
        assert_eq!(a.load(), 4000.0);
    }

    #[test]
    fn singleton_state_volumes() {
        let g = clique(4);
        let st = MoveState::singleton(&g);
        assert_eq!(st.len(), 4);
        for u in 0..4u32 {
            assert_eq!(st.community(u), u);
            assert_eq!(st.volume[u as usize].load(), 3.0);
        }
        assert_eq!(st.total_weight, 6.0);
    }

    #[test]
    fn apply_move_maintains_volumes() {
        let g = clique(3);
        let st = MoveState::singleton(&g);
        st.apply_move(0, 0, 1);
        assert_eq!(st.community(0), 1);
        assert_eq!(st.volume[0].load(), 0.0);
        assert_eq!(st.volume[1].load(), 4.0);
    }

    #[test]
    fn delta_mod_symmetric_zero() {
        // Moving to the same community with the same affinity is neutral.
        let d = delta_mod(1.0, 1.0, 2.0, 2.0, 1.0, 0.1, 0.01);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn delta_mod_prefers_heavier_community() {
        let inv_m = 1.0 / 10.0;
        let inv_2m2 = 1.0 / 200.0;
        // Higher affinity to d dominates when volumes are equal.
        let d = delta_mod(1.0, 3.0, 5.0, 5.0, 2.0, inv_m, inv_2m2);
        assert!(d > 0.0);
    }

    #[test]
    fn variant_names() {
        assert_eq!(Variant::Plm.name(), "PLM");
        assert_eq!(Variant::Onpl(Strategy::ConflictDetect).name(), "ONPL");
    }
}
