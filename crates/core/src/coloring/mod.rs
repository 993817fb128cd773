//! Speculative parallel greedy graph coloring (paper Algorithms 1–3).
//!
//! The iterative scheme of Çatalyürek et al.: optimistically color all
//! conflict vertices in parallel ([`greedy`] / [`onpl`]), then detect
//! conflicting edges and re-color the losers until no conflict remains.
//! Only the color *assignment* is vectorized (the paper: "We only apply
//! vectorization on the color assignment portion"); conflict detection is
//! shared scalar code.

pub mod greedy;
pub mod onpl;
pub mod verify;

pub use greedy::assign_colors_scalar;
pub(crate) use greedy::color_graph_scalar;
pub use onpl::assign_colors_onpl;
pub use onpl::color_with;
pub use verify::{count_colors, verify_coloring};

use crate::frontier::SweepMode;
use crate::locality::{Blocking, Bucketing};
use gp_metrics::telemetry::RunInfo;
use std::sync::Arc;

/// Warm start for incremental re-coloring (`crates/core/src/incremental.rs`):
/// a previous (valid-for-the-old-graph) coloring plus the conflict seed to
/// repair from. The iterative driver adopts `colors` instead of the all-zero
/// init and replaces the initial all-vertices conflict set with `seed`, so
/// only the cone reachable from the seed is ever re-colored.
#[derive(Debug, Clone)]
pub struct ColorWarm {
    /// Per-vertex colors from the previous run (1-based; 0 entries are
    /// treated as uncolored and must be covered by `seed`).
    pub colors: Arc<Vec<u32>>,
    /// Sorted, deduplicated vertices to re-color in round 1.
    pub seed: Arc<Vec<u32>>,
}

/// Configuration shared by all coloring variants.
#[derive(Debug, Clone)]
pub struct ColoringConfig {
    /// Color conflict vertices in parallel on the current `gp-par` pool.
    /// With `false`, the algorithm degenerates to sequential greedy
    /// coloring (no conflicts ever arise — useful for deterministic tests).
    pub parallel: bool,
    /// Safety valve on speculative rounds; the algorithm converges long
    /// before this on any real input.
    pub max_rounds: usize,
    /// Record scalar op counts into `gp_simd::counters` (modeled runs).
    pub count_ops: bool,
    /// Also vectorize `DetectConflicts` (paper §4.1: "identifying
    /// conflicting coloring vectorize[s] naturally"). The paper's
    /// measurements vectorize only the assignment, so this defaults to
    /// `false`; the ablation flips it.
    pub vectorized_conflicts: bool,
    /// How `DetectConflicts` enumerates its scan set:
    /// [`SweepMode::Active`] re-examines only the vertices recolored this
    /// round (sufficient — a new conflict needs *both* endpoints recolored
    /// in the same round; see `docs/KERNELS.md`), [`SweepMode::Full`]
    /// re-scans every vertex every round as the A/B baseline. Outputs are
    /// bit-identical.
    pub sweep: SweepMode,
    /// Cache-blocking policy for the assign phase (locality layer).
    /// Bit-identical outputs for every setting.
    pub block: Blocking,
    /// Degree-bucketing policy: ≤16-degree vertices of the conflict set take
    /// the branch-free `u32`-bitmask kernel, hubs their own parallel
    /// scheduling units.
    pub bucket: Bucketing,
    /// Warm start: adopt a previous coloring and repair only from a seed
    /// conflict set instead of coloring from scratch. `None` (the default)
    /// is the ordinary full run.
    pub warm: Option<ColorWarm>,
}

impl Default for ColoringConfig {
    fn default() -> Self {
        ColoringConfig {
            parallel: true,
            max_rounds: 10_000,
            count_ops: false,
            vectorized_conflicts: false,
            sweep: SweepMode::Active,
            block: Blocking::default(),
            bucket: Bucketing::default(),
            warm: None,
        }
    }
}

impl ColoringConfig {
    /// Sequential, deterministic configuration.
    pub fn sequential() -> Self {
        ColoringConfig {
            parallel: false,
            ..Default::default()
        }
    }

    /// Enables op counting.
    pub fn counted(mut self) -> Self {
        self.count_ops = true;
        self
    }

    /// Sets the sweep mode (`full` re-scans every vertex in
    /// `DetectConflicts`; `active` only the recolored set).
    pub fn with_sweep(mut self, sweep: SweepMode) -> Self {
        self.sweep = sweep;
        self
    }
}

/// Result of a coloring run.
#[derive(Debug, Clone)]
pub struct ColoringResult {
    /// 1-based colors per vertex (0 never appears after completion).
    pub colors: Vec<u32>,
    /// Number of speculative rounds until conflict-free.
    pub rounds: usize,
    /// Number of distinct colors used.
    pub num_colors: u32,
    /// Uniform run envelope (backend, rounds, convergence, wall time,
    /// optional trace). Excluded from equality.
    pub info: RunInfo,
}

impl PartialEq for ColoringResult {
    fn eq(&self, other: &Self) -> bool {
        self.colors == other.colors
            && self.rounds == other.rounds
            && self.num_colors == other.num_colors
    }
}

