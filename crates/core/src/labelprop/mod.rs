//! Label propagation community detection (Section 3.3 / Algorithm 5).
//!
//! Every vertex starts in its own singleton community (its label); each
//! sweep, every *active* vertex adopts the label with the heaviest total
//! edge weight in its neighborhood. A vertex that keeps its label goes
//! inactive; changing a label re-activates the neighbors. The process stops
//! when fewer than θ vertices update.
//!
//! [`mplp`] is the scalar parallel baseline (MPLP in Figure 15); [`onlp`]
//! is the one-neighbor-per-lane vectorization (ONLP).

pub mod mplp;
pub mod onlp;

use crate::frontier::{Frontier, SweepMode};
use crate::locality::{self, Blocking, Bucketing, Plan};
use crate::reduce_scatter::AffinityBuf;
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{Recorder, RoundProbe, RoundStats, RunInfo, RunTimer};
use gp_simd::counters;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Warm start for incremental label propagation
/// (`crates/core/src/incremental.rs`): adopt a previous labeling and sweep
/// only from a seeded frontier (the touched vertices and their neighborhoods)
/// instead of the all-active first sweep.
#[derive(Debug, Clone)]
pub struct LpWarm {
    /// Per-vertex labels from the previous run.
    pub labels: Arc<Vec<u32>>,
    /// Sorted, deduplicated vertices active in the first sweep.
    pub seed: Arc<Vec<u32>>,
}

/// Label propagation configuration.
#[derive(Debug, Clone)]
pub struct LabelPropConfig {
    /// Process vertices in parallel on the current `gp-par` pool.
    pub parallel: bool,
    /// Stop when a sweep updates ≤ θ vertices (the paper's `updated > θ`
    /// loop condition). NetworKit's default is `n · 10⁻⁵`, applied via
    /// [`LabelPropConfig::theta_for`].
    pub theta_fraction: f64,
    /// Hard sweep cap (the algorithm converges much earlier in practice).
    pub max_iterations: usize,
    /// Record scalar op counts for modeled runs.
    pub count_ops: bool,
    /// Seed for the per-sweep traversal shuffle. Label propagation needs a
    /// randomized visit order (the paper: "Nodes traverse in a parallel
    /// fashion, which brings the randomization on the node selection") —
    /// in-order sweeps let low-id labels flood across community borders.
    pub seed: u64,
    /// How each sweep enumerates vertices: [`SweepMode::Active`] visits only
    /// the frontier (vertices with a neighbor that changed label last
    /// sweep) through a packed worklist, [`SweepMode::Full`] scans all
    /// vertices and skips inactive ones in place. Bit-identical outputs.
    pub sweep: SweepMode,
    /// Cache-blocking policy for the sweeps (locality layer).
    /// Bit-identical outputs for every setting.
    pub block: Blocking,
    /// Degree-bucketing policy: hub vertices become their own parallel
    /// scheduling units. Every vertex, low-degree ones included, takes the
    /// variant's per-vertex kernel, so bucketing affects only hub
    /// scheduling and telemetry.
    pub bucket: Bucketing,
    /// Warm start: adopt previous labels and re-converge from a seeded
    /// frontier. `None` (the default) is the ordinary full run.
    pub warm: Option<LpWarm>,
}

impl Default for LabelPropConfig {
    fn default() -> Self {
        LabelPropConfig {
            parallel: true,
            theta_fraction: 1e-5,
            max_iterations: 100,
            count_ops: false,
            seed: 0x1abe1,
            sweep: SweepMode::Active,
            block: Blocking::default(),
            bucket: Bucketing::default(),
            warm: None,
        }
    }
}

/// Builds the shuffled traversal order for sweep `iteration`, deterministic
/// per `(seed, iteration)` (used by SLPA; label propagation itself orders
/// by [`order_key`] so the `full` and `active` sweeps agree).
pub(crate) fn sweep_order(n: usize, seed: u64, iteration: usize) -> Vec<u32> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng =
        rand_chacha::ChaCha8Rng::seed_from_u64(seed.wrapping_add(iteration as u64 * 0x9e3779b9));
    order.shuffle(&mut rng);
    order
}

/// Deterministic pseudorandom sort key for vertex `v` in sweep `iteration`
/// (splitmix64-style finalizer). Sorting *any subset* of vertices by
/// `(order_key, v)` yields the subsequence of the same global permutation —
/// which is exactly what makes the packed active-set worklist visit
/// vertices in the same relative order as a full shuffled sweep, keeping
/// the two sweep modes bit-identical.
#[inline]
pub(crate) fn order_key(seed: u64, iteration: usize, v: u32) -> u64 {
    let mut x = seed
        ^ (iteration as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (u64::from(v) << 1 | 1);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sorts `vertices` into the sweep-`iteration` traversal order.
#[inline]
pub(crate) fn order_vertices(vertices: &mut [u32], seed: u64, iteration: usize) {
    vertices.sort_unstable_by_key(|&v| (order_key(seed, iteration, v), v));
}

/// Shared sweep driver for MPLP and ONLP: frontier bookkeeping, traversal
/// ordering, chunked deadline polling, convergence, and telemetry live
/// here; the variants plug in their heaviest-label kernel.
///
/// Active-set semantics (both sweep modes): a vertex is visited in sweep
/// `s` iff a neighbor changed label in sweep `s - 1` (every vertex is
/// visited in sweep 0). [`SweepMode::Full`] enumerates all `n` vertices and
/// filters against the frontier in place — the paper-shaped baseline that
/// still pays the `O(n)` scan; [`SweepMode::Active`] enumerates the packed
/// worklist only. Both visit the same vertices in the same order
/// ([`order_key`] is per-vertex, so sorting the worklist reproduces the
/// subsequence of the full shuffled order), hence bit-identical labels.
///
/// Sweeps execute through the locality layer ([`crate::locality`]): the
/// ordered traversal is cut into cache blocks and every eligible vertex
/// runs `best` against live state in order, so sequential labels are
/// bit-identical to the unblocked sweep.
pub(crate) fn run_lp_sweeps<R: Recorder>(
    g: &Csr,
    config: &LabelPropConfig,
    rec: &mut R,
    backend: &'static str,
    best: impl Fn(&Csr, &[AtomicU32], u32, &mut AffinityBuf) -> Option<u32> + Sync,
) -> LabelPropResult {
    let timer = RunTimer::start();
    let n = g.num_vertices();
    let plan = Plan::for_graph(g, config.block, config.bucket);
    let (labels, mut frontier): (Vec<AtomicU32>, Frontier) = match &config.warm {
        Some(w) if w.labels.len() == n => (
            w.labels.iter().map(|&l| AtomicU32::new(l)).collect(),
            Frontier::seeded(n, &w.seed),
        ),
        _ => (
            (0..n as u32).map(AtomicU32::new).collect(),
            Frontier::all_active(n),
        ),
    };
    let theta = config.theta_for(n);
    let mut converged = false;
    let mut bailed = false;
    let mut result = LabelPropResult {
        labels: Vec::new(),
        iterations: 0,
        updates: Vec::new(),
        info: RunInfo::default(),
    };

    let mut order: Vec<u32> = Vec::new();
    for iteration in 0..config.max_iterations {
        let active_now = frontier.len() as u64;
        let active_edges = if R::ENABLED || config.count_ops {
            frontier.active_edge_count(|v| g.degree(v) as u64)
        } else {
            0
        };
        order.clear();
        match config.sweep {
            SweepMode::Full => order.extend(0..n as u32),
            SweepMode::Active => order.extend_from_slice(frontier.worklist()),
        }
        order_vertices(&mut order, config.seed, iteration);
        let probe = RoundProbe::begin::<R>();
        let updated = AtomicU64::new(0);
        let bins = if R::ENABLED {
            locality::tally(
                &plan,
                order.len(),
                |i| frontier.is_active(order[i]).then_some(order[i]),
                |v| g.degree(v) as u64,
            )
        } else {
            Default::default()
        };
        bailed = locality::run_sweep(
            g,
            &plan,
            order.len(),
            config.parallel,
            rec,
            |i| frontier.is_active(order[i]).then_some(order[i]),
            || AffinityBuf::new(n),
            |buf: &mut AffinityBuf, u: u32| {
                let Some(best_l) = best(g, &labels, u, buf) else {
                    return;
                };
                let current = labels[u as usize].load(Ordering::Relaxed);
                if best_l != current {
                    labels[u as usize].store(best_l, Ordering::Relaxed);
                    updated.fetch_add(1, Ordering::Relaxed);
                    for &v in g.neighbors(u) {
                        frontier.activate(v);
                    }
                }
            },
            Some(|v: u32| {
                for &nv in g.neighbors(v).iter().take(locality::WARM_NEIGHBOR_CAP) {
                    locality::prefetch(&labels[nv as usize] as *const _);
                }
            }),
        );
        if config.count_ops {
            // Per visited arc: adj + weight stream loads, random label and
            // label-weight loads, store, branch; selection: one random load
            // + compare per candidate label (the touched list is
            // deduplicated but bounded by degree — charge half as the
            // expected dedup ratio mid-convergence). `active_edges` counts
            // exactly the arcs this sweep visited.
            let arcs = active_edges;
            counters::record(counters::OpClass::ScalarLoad, 2 * arcs);
            counters::record(counters::OpClass::ScalarRandLoad, 2 * arcs + arcs / 2);
            counters::record(counters::OpClass::ScalarStore, arcs);
            counters::record(counters::OpClass::ScalarAlu, 2 * arcs);
            counters::record(counters::OpClass::ScalarBranch, 2 * arcs);
        }
        result.iterations += 1;
        let ups = updated.into_inner();
        result.updates.push(ups);
        probe.finish(
            rec,
            RoundStats::new(iteration)
                .active(active_now)
                .active_edges(active_edges)
                .moves(ups)
                .bins(bins.blocks, bins.low, bins.mid, bins.hub),
        );
        if bailed {
            break;
        }
        if ups <= theta {
            converged = true;
            break;
        }
        // Cooperative cancellation (deadline): stop after a completed sweep.
        if rec.should_stop() {
            break;
        }
        frontier.advance();
    }
    result.labels = labels.into_iter().map(|l| l.into_inner()).collect();
    result.info = RunInfo::new(
        backend,
        result.iterations,
        converged && !bailed,
        timer.elapsed_secs(),
    );
    result
}

impl LabelPropConfig {
    /// Deterministic sequential configuration.
    pub fn sequential() -> Self {
        LabelPropConfig {
            parallel: false,
            ..Default::default()
        }
    }

    /// The absolute update threshold θ for a graph of `n` vertices.
    pub fn theta_for(&self, n: usize) -> u64 {
        (self.theta_fraction * n as f64).floor() as u64
    }
}

/// Outcome of a label-propagation run.
#[derive(Debug, Clone)]
pub struct LabelPropResult {
    /// Final label (community) per vertex.
    pub labels: Vec<u32>,
    /// Sweeps executed.
    pub iterations: usize,
    /// Vertices updated per sweep.
    pub updates: Vec<u64>,
    /// Uniform run envelope (backend, sweeps, convergence, wall time,
    /// optional trace). Excluded from equality.
    pub info: RunInfo,
}

impl PartialEq for LabelPropResult {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
            && self.iterations == other.iterations
            && self.updates == other.updates
    }
}

