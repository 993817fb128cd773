//! Per-round kernel telemetry: zero-overhead-by-default observability for
//! the iterative kernels (speculative coloring, Louvain move phases, label
//! propagation).
//!
//! The paper's evaluation is fundamentally *per-round* — coloring converges
//! via AssignColors/DetectConflicts rounds (Algorithms 1–3), Louvain and
//! label propagation via move-phase sweeps — yet final results alone cannot
//! explain why a vectorized variant wins on one graph and loses on another.
//! This module adds the missing layer:
//!
//! * [`Recorder`] — a statically-dispatched sink for [`RoundStats`] events.
//!   Kernels take `&mut R: Recorder`; with the default [`NoopRecorder`]
//!   (`ENABLED = false`) every probe compiles away, so uninstrumented runs
//!   pay nothing.
//! * [`TraceRecorder`] — accumulates every round into a [`Trace`] for JSON/
//!   CSV export (see [`crate::report::trace_json`]).
//! * [`RoundProbe`] — a guard taken at the top of a round; on `finish` it
//!   fills in wall time and the op-counter delta snapshotted from
//!   [`gp_simd::counters`].
//! * [`RunInfo`] — the uniform result envelope every kernel result embeds:
//!   backend name, rounds executed, convergence flag, elapsed seconds, and
//!   an optional attached trace.
//!
//! ```
//! use gp_metrics::telemetry::{Recorder, RoundProbe, RoundStats, TraceRecorder};
//!
//! fn kernel<R: Recorder>(rec: &mut R) -> u32 {
//!     let mut x = 0u32;
//!     for round in 0..3 {
//!         let probe = RoundProbe::begin::<R>();
//!         x += round; // the round's work
//!         probe.finish(rec, RoundStats::new(round as usize).moves(u64::from(round)));
//!     }
//!     x
//! }
//!
//! let mut rec = TraceRecorder::new("demo");
//! kernel(&mut rec);
//! let trace = rec.into_trace();
//! assert_eq!(trace.rounds.len(), 3);
//! assert_eq!(trace.rounds[2].moves, 2);
//! ```

use gp_simd::counters::{self, OpCounts};
use std::time::Instant;

/// One round (coloring iteration / Louvain sweep / label-propagation sweep)
/// of kernel work.
///
/// `moves`, `conflicts`, and `active` are kernel-defined: coloring reports
/// recolored vertices / detected conflicts / conflict-set size, Louvain
/// reports vertex moves, label propagation reports label updates. Fields
/// that do not apply stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundStats {
    /// Round index within the run (coloring round, move-phase sweep, ...).
    pub round: usize,
    /// Coarsening level for multilevel drivers (0 = finest graph).
    pub level: usize,
    /// Wall time of the round in seconds (filled by [`RoundProbe::finish`]).
    pub secs: f64,
    /// Vertices moved / recolored / relabeled this round.
    pub moves: u64,
    /// Conflicts detected this round (speculative coloring).
    pub conflicts: u64,
    /// Active vertices entering the round (conflict-set or frontier size).
    pub active: u64,
    /// Edges incident to the active set — the work the round actually
    /// touches. Under full-sweep execution this stays near `2m` every round;
    /// under active-set execution it decays with the frontier.
    pub active_edges: u64,
    /// Quality delta for this round (modularity gain for community kernels;
    /// zero where no quality functional applies). Only computed when the
    /// recorder is enabled — it costs an O(m) pass.
    pub quality_delta: f64,
    /// Op-counter delta over the round, snapshotted from
    /// [`gp_simd::counters`]. All zero unless the kernel ran on a
    /// [`gp_simd::counted::Counted`] backend.
    pub ops: OpCounts,
}

impl RoundStats {
    /// Starts a stats record for the given round index.
    pub fn new(round: usize) -> Self {
        RoundStats {
            round,
            ..Default::default()
        }
    }

    /// Sets the moved/recolored/relabeled count.
    pub fn moves(mut self, n: u64) -> Self {
        self.moves = n;
        self
    }

    /// Sets the detected-conflict count.
    pub fn conflicts(mut self, n: u64) -> Self {
        self.conflicts = n;
        self
    }

    /// Sets the active-vertex count entering the round.
    pub fn active(mut self, n: u64) -> Self {
        self.active = n;
        self
    }

    /// Sets the active-edge count (edges incident to the active set).
    pub fn active_edges(mut self, n: u64) -> Self {
        self.active_edges = n;
        self
    }

    /// Sets the per-round quality delta.
    pub fn quality_delta(mut self, d: f64) -> Self {
        self.quality_delta = d;
        self
    }
}

/// One timed substrate phase (graph generation, CSR build, coarsening,
/// projection) surrounding the per-round kernel work.
///
/// Rounds answer "why does this variant converge the way it does"; phases
/// answer "where does the wall-clock go *between* rounds" — the multilevel
/// drivers spend a large share of their time in coarsening, which the
/// per-round stream is blind to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Phase label (`"generate"`, `"build"`, `"coarsen"`, `"project"`, ...).
    pub name: &'static str,
    /// Coarsening level the phase ran at (stamped by the recorder).
    pub level: usize,
    /// Wall time of the phase in seconds.
    pub secs: f64,
}

/// Statically-dispatched sink for per-round telemetry.
///
/// Kernels are generic over `R: Recorder`, mirroring how they are generic
/// over the SIMD backend: the monomorphized body for [`NoopRecorder`]
/// contains no probe code at all (`ENABLED` is a `const`, so every
/// `if R::ENABLED` branch folds away), while the body for
/// [`TraceRecorder`] snapshots timers and counters per round.
pub trait Recorder {
    /// Whether probes should collect at all. `false` compiles them out.
    const ENABLED: bool;

    /// Whether [`Recorder::should_stop`] can ever return `true`. Kernels use
    /// this to decide whether to poll the deadline *between chunks of a
    /// round* (see the `gp-core` chunked sweep helpers): under a plain
    /// [`NoopRecorder`] / [`TraceRecorder`] the mid-round checks fold away
    /// entirely, while a [`DeadlineRecorder`] opts in so a single huge round
    /// cannot overshoot its deadline unbounded.
    const CHECKS_DEADLINE: bool = false;

    /// Receives one completed round.
    fn record(&mut self, stats: RoundStats);

    /// Receives one completed substrate phase (coarsen / project / build).
    /// `stats.level` is overwritten with the recorder's current level.
    fn record_phase(&mut self, _stats: PhaseStats) {}

    /// Informs the recorder of the current coarsening level (multilevel
    /// Louvain / partitioning drivers). Subsequent rounds are stamped with
    /// this level.
    fn set_level(&mut self, _level: usize) {}

    /// Cooperative-cancellation hook, polled by every kernel at round
    /// boundaries. Returning `true` makes the kernel stop after the current
    /// round with whatever partial result it has (`converged: false` in its
    /// [`RunInfo`]). The default never cancels, so existing recorders and
    /// the [`NoopRecorder`] keep the exact pre-cancellation control flow
    /// (the check folds to a constant `false`).
    ///
    /// Unlike [`Recorder::record`], this hook is *not* gated on
    /// [`Recorder::ENABLED`]: a [`DeadlineRecorder`] wrapping a
    /// [`NoopRecorder`] enforces deadlines without paying for telemetry.
    #[inline(always)]
    fn should_stop(&self) -> bool {
        false
    }
}

/// The default recorder: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _stats: RoundStats) {}
}

/// Accumulates every round into a [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    kernel: String,
    level: usize,
    rounds: Vec<RoundStats>,
    phases: Vec<PhaseStats>,
}

impl TraceRecorder {
    /// New recorder labeled with the kernel name (e.g. `"coloring-onpl"`).
    pub fn new(kernel: impl Into<String>) -> Self {
        TraceRecorder {
            kernel: kernel.into(),
            level: 0,
            rounds: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Substrate phases recorded so far.
    pub fn phases(&self) -> &[PhaseStats] {
        &self.phases
    }

    /// Consumes the recorder into its trace.
    pub fn into_trace(self) -> Trace {
        Trace {
            kernel: self.kernel,
            rounds: self.rounds,
            phases: self.phases,
            degree_hist: None,
        }
    }
}

impl Recorder for TraceRecorder {
    const ENABLED: bool = true;

    fn record(&mut self, mut stats: RoundStats) {
        stats.level = self.level;
        self.rounds.push(stats);
    }

    fn record_phase(&mut self, mut stats: PhaseStats) {
        stats.level = self.level;
        self.phases.push(stats);
    }

    fn set_level(&mut self, level: usize) {
        self.level = level;
    }
}

/// Wraps any [`Recorder`] with a wall-clock deadline: once the deadline
/// passes, [`Recorder::should_stop`] reports `true` and the kernel winds
/// down at the next round boundary, returning its partial result.
///
/// This is the cooperative-cancellation primitive behind `gp-serve`'s
/// per-request `deadline_ms`: the service wraps a [`NoopRecorder`] (or a
/// [`TraceRecorder`] for traced requests) and marks the response
/// `timed_out: true` whenever [`DeadlineRecorder::fired`] is set.
///
/// ```
/// use gp_metrics::telemetry::{DeadlineRecorder, NoopRecorder, Recorder};
/// use std::time::Duration;
///
/// let rec = DeadlineRecorder::after(NoopRecorder, Duration::from_secs(3600));
/// assert!(!rec.should_stop());
/// let rec = DeadlineRecorder::after(NoopRecorder, Duration::ZERO);
/// assert!(rec.should_stop());
/// assert!(rec.fired());
/// ```
#[derive(Debug)]
pub struct DeadlineRecorder<R> {
    inner: R,
    deadline: Instant,
    // `AtomicBool` (not `Cell`) so the recorder is `Sync`: parallel sweep
    // executors poll `should_stop` from the sweeping thread while worker
    // threads hold shared references to the same recorder.
    fired: std::sync::atomic::AtomicBool,
}

impl<R: Recorder> DeadlineRecorder<R> {
    /// Wraps `inner` with an absolute deadline.
    pub fn new(inner: R, deadline: Instant) -> Self {
        DeadlineRecorder {
            inner,
            deadline,
            fired: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Wraps `inner` with a deadline `budget` from now.
    pub fn after(inner: R, budget: std::time::Duration) -> Self {
        Self::new(inner, Instant::now() + budget)
    }

    /// Whether the deadline was observed expired at any round boundary
    /// (i.e. the kernel was actually asked to stop early).
    pub fn fired(&self) -> bool {
        self.fired.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Unwraps the inner recorder (e.g. to extract a trace).
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Recorder> Recorder for DeadlineRecorder<R> {
    const ENABLED: bool = R::ENABLED;
    const CHECKS_DEADLINE: bool = true;

    #[inline]
    fn record(&mut self, stats: RoundStats) {
        self.inner.record(stats);
    }

    #[inline]
    fn record_phase(&mut self, stats: PhaseStats) {
        self.inner.record_phase(stats);
    }

    #[inline]
    fn set_level(&mut self, level: usize) {
        self.inner.set_level(level);
    }

    #[inline]
    fn should_stop(&self) -> bool {
        use std::sync::atomic::Ordering;
        if self.fired.load(Ordering::Relaxed) {
            return true;
        }
        let expired = Instant::now() >= self.deadline;
        if expired {
            self.fired.store(true, Ordering::Relaxed);
        }
        expired
    }
}

/// A completed per-round trace of one kernel run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Kernel label (e.g. `"louvain-mplm"`).
    pub kernel: String,
    /// One entry per round, in execution order.
    pub rounds: Vec<RoundStats>,
    /// Substrate phases (coarsen / project / build) interleaved with the
    /// rounds, in execution order.
    pub phases: Vec<PhaseStats>,
    /// Graph-level degree summary, when the caller attached one. Makes the
    /// locality layer's bin boundaries reproducible from the trace artifact
    /// alone (the histogram is the sole input to the bucket thresholds).
    pub degree_hist: Option<DegreeSummary>,
}

/// Degree-distribution summary attached to a [`Trace`] by callers that hold
/// the graph (`gp-metrics` itself is graph-agnostic; the CLI and figure
/// binaries fill this from `gp_graph::stats::DegreeHistogram`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeSummary {
    /// `low[d]` = exact number of vertices of degree `d`, for `d ≤ 16`.
    pub low: Vec<u64>,
    /// `log2[b]` = number of vertices with `floor(log2(degree)) == b`.
    pub log2: Vec<u64>,
    /// The graph's maximum degree.
    pub max_degree: u64,
    /// The locality layer's hub cut, when the graph has a hub tail.
    pub hub_threshold: Option<u32>,
}

impl Trace {
    /// Sum of the per-round op deltas (should equal a whole-run
    /// [`gp_simd::counters::counted_run`] total when rounds cover the run).
    pub fn total_ops(&self) -> OpCounts {
        self.rounds
            .iter()
            .fold(OpCounts::default(), |acc, r| acc.add(&r.ops))
    }

    /// Sum of per-round wall times (excludes phases).
    pub fn total_secs(&self) -> f64 {
        self.rounds.iter().map(|r| r.secs).sum()
    }

    /// Sum of substrate-phase wall times (coarsen / project / build).
    pub fn phase_secs(&self) -> f64 {
        self.phases.iter().map(|p| p.secs).sum()
    }
}

/// Guard capturing the wall-clock and op-counter state entering a round.
///
/// With a disabled recorder, [`RoundProbe::begin`] and
/// [`RoundProbe::finish`] are empty inlineable functions — no `Instant`, no
/// counter snapshot, no branch left in the hot loop.
#[derive(Debug)]
pub struct RoundProbe {
    start: Option<Instant>,
    ops_before: OpCounts,
}

impl RoundProbe {
    /// Captures the round-entry state (only when `R::ENABLED`).
    #[inline(always)]
    pub fn begin<R: Recorder>() -> RoundProbe {
        if R::ENABLED {
            RoundProbe {
                ops_before: counters::snapshot(),
                start: Some(Instant::now()),
            }
        } else {
            RoundProbe {
                start: None,
                ops_before: OpCounts::default(),
            }
        }
    }

    /// Completes the round: fills wall time and the op-counter delta into
    /// `stats` and hands it to the recorder. A no-op when `R::ENABLED` is
    /// false.
    #[inline(always)]
    pub fn finish<R: Recorder>(self, rec: &mut R, mut stats: RoundStats) {
        if R::ENABLED {
            stats.secs = self.start.map_or(0.0, |s| s.elapsed().as_secs_f64());
            stats.ops = counters::snapshot().saturating_sub(&self.ops_before);
            rec.record(stats);
        }
    }
}

/// Guard timing one substrate phase (coarsen / project / build).
///
/// Like [`RoundProbe`], compiles to nothing under a disabled recorder: the
/// multilevel drivers wrap their coarsening and projection calls in one of
/// these, and the [`NoopRecorder`] monomorphization keeps the calls free.
#[derive(Debug)]
pub struct PhaseProbe {
    start: Option<Instant>,
}

impl PhaseProbe {
    /// Captures the phase-entry time (only when `R::ENABLED`).
    #[inline(always)]
    pub fn begin<R: Recorder>() -> PhaseProbe {
        PhaseProbe {
            start: if R::ENABLED { Some(Instant::now()) } else { None },
        }
    }

    /// Completes the phase, stamping its wall time. The level field is
    /// filled by the recorder from its current [`Recorder::set_level`]
    /// state. A no-op when `R::ENABLED` is false.
    #[inline(always)]
    pub fn finish<R: Recorder>(self, rec: &mut R, name: &'static str) {
        if R::ENABLED {
            rec.record_phase(PhaseStats {
                name,
                level: 0,
                secs: self.start.map_or(0.0, |s| s.elapsed().as_secs_f64()),
            });
        }
    }
}

/// Uniform result envelope embedded in every kernel result struct
/// (`ColoringResult`, `LouvainResult`, `LabelPropResult`, `PartitionResult`,
/// `OverlapResult`, `BfsResult`).
///
/// Excluded from the results' `PartialEq`: two runs are "equal" when their
/// algorithmic outputs agree, regardless of how long they took.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// SIMD backend the kernel ran on (`"avx512"`, `"emulated"`,
    /// `"counted"`, `"scalar"`).
    pub backend: &'static str,
    /// Rounds / sweeps / levels executed (kernel-defined, matches the
    /// result's own round counter where one exists).
    pub rounds: usize,
    /// Whether the kernel reached its convergence criterion (as opposed to
    /// an iteration cap).
    pub converged: bool,
    /// Whole-run wall time in seconds.
    pub elapsed_secs: f64,
    /// Per-round telemetry, when the caller ran with a [`TraceRecorder`]
    /// and attached the trace via [`RunInfo::with_trace`].
    pub trace: Option<Trace>,
}

impl RunInfo {
    /// Builds the envelope from the universally-available facts.
    pub fn new(backend: &'static str, rounds: usize, converged: bool, elapsed_secs: f64) -> Self {
        RunInfo {
            backend,
            rounds,
            converged,
            elapsed_secs,
            trace: None,
        }
    }

    /// Attaches a trace produced by [`TraceRecorder::into_trace`].
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Stopwatch for the whole-run `elapsed_secs` field — always on (one
/// `Instant` per kernel invocation is noise even for microsecond kernels).
#[derive(Debug)]
pub struct RunTimer(Instant);

impl RunTimer {
    /// Starts timing.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        RunTimer(Instant::now())
    }

    /// Elapsed seconds since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_simd::counters::OpClass;

    fn fake_kernel<R: Recorder>(rec: &mut R, rounds: usize) -> u64 {
        let mut acc = 0;
        for round in 0..rounds {
            let probe = RoundProbe::begin::<R>();
            acc += round as u64;
            probe.finish(
                rec,
                RoundStats::new(round)
                    .moves(round as u64)
                    .conflicts(1)
                    .active(10 - round as u64),
            );
        }
        acc
    }

    #[test]
    fn noop_recorder_records_nothing_and_changes_nothing() {
        let mut noop = NoopRecorder;
        let mut trace = TraceRecorder::new("fake");
        assert_eq!(fake_kernel(&mut noop, 4), fake_kernel(&mut trace, 4));
        assert_eq!(trace.rounds().len(), 4);
    }

    #[test]
    fn trace_recorder_captures_rounds_in_order() {
        let mut rec = TraceRecorder::new("fake");
        fake_kernel(&mut rec, 3);
        let trace = rec.into_trace();
        assert_eq!(trace.kernel, "fake");
        let rounds: Vec<usize> = trace.rounds.iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![0, 1, 2]);
        assert_eq!(trace.rounds[1].moves, 1);
        assert_eq!(trace.rounds[1].active, 9);
        assert!(trace.rounds.iter().all(|r| r.secs >= 0.0));
    }

    #[test]
    fn set_level_stamps_subsequent_rounds() {
        let mut rec = TraceRecorder::new("multilevel");
        fake_kernel(&mut rec, 1);
        rec.set_level(1);
        fake_kernel(&mut rec, 2);
        let trace = rec.into_trace();
        let levels: Vec<usize> = trace.rounds.iter().map(|r| r.level).collect();
        assert_eq!(levels, vec![0, 1, 1]);
    }

    #[test]
    fn probe_captures_op_deltas() {
        // Serial within one test: the counters are global.
        counters::reset();
        let mut rec = TraceRecorder::new("delta");
        let probe = RoundProbe::begin::<TraceRecorder>();
        counters::record(OpClass::Gather, 5);
        probe.finish(&mut rec, RoundStats::new(0));
        let probe = RoundProbe::begin::<TraceRecorder>();
        counters::record(OpClass::Gather, 2);
        counters::record(OpClass::Conflict, 1);
        probe.finish(&mut rec, RoundStats::new(1));
        let trace = rec.into_trace();
        assert_eq!(trace.rounds[0].ops.get(OpClass::Gather), 5);
        assert_eq!(trace.rounds[1].ops.get(OpClass::Gather), 2);
        assert_eq!(trace.rounds[1].ops.get(OpClass::Conflict), 1);
        assert_eq!(trace.total_ops().get(OpClass::Gather), 7);
    }

    #[test]
    fn run_info_envelope() {
        let info = RunInfo::new("emulated", 7, true, 0.25);
        assert_eq!(info.backend, "emulated");
        assert_eq!(info.rounds, 7);
        assert!(info.converged);
        assert!(info.trace.is_none());
        let info = info.with_trace(Trace {
            kernel: "k".into(),
            rounds: vec![RoundStats::new(0)],
            phases: Vec::new(),
            degree_hist: None,
        });
        assert_eq!(info.trace.as_ref().unwrap().rounds.len(), 1);
    }

    #[test]
    fn phase_probe_records_with_level() {
        let mut rec = TraceRecorder::new("phases");
        let p = PhaseProbe::begin::<TraceRecorder>();
        p.finish(&mut rec, "coarsen");
        rec.set_level(2);
        let p = PhaseProbe::begin::<TraceRecorder>();
        p.finish(&mut rec, "project");
        let trace = rec.into_trace();
        assert_eq!(trace.phases.len(), 2);
        assert_eq!(trace.phases[0].name, "coarsen");
        assert_eq!(trace.phases[0].level, 0);
        assert_eq!(trace.phases[1].name, "project");
        assert_eq!(trace.phases[1].level, 2);
        assert!(trace.phase_secs() >= 0.0);
    }

    #[test]
    fn phase_probe_is_noop_when_disabled() {
        let mut noop = NoopRecorder;
        let p = PhaseProbe::begin::<NoopRecorder>();
        assert!(p.start.is_none());
        p.finish(&mut noop, "coarsen");
    }

    #[test]
    fn noop_recorder_never_stops() {
        assert!(!NoopRecorder.should_stop());
    }

    #[test]
    fn checks_deadline_const_propagates() {
        // Compile-time checks: the wrapper opts in, the plain recorders
        // stay out (so mid-round polling folds away for them).
        const {
            assert!(!NoopRecorder::CHECKS_DEADLINE);
            assert!(!TraceRecorder::CHECKS_DEADLINE);
            assert!(<DeadlineRecorder<NoopRecorder>>::CHECKS_DEADLINE);
            assert!(<DeadlineRecorder<TraceRecorder>>::CHECKS_DEADLINE);
        }
    }

    #[test]
    fn deadline_recorder_forwards_and_fires() {
        let mut rec = DeadlineRecorder::after(TraceRecorder::new("dl"), std::time::Duration::ZERO);
        fake_kernel(&mut rec, 2);
        assert!(rec.should_stop());
        assert!(rec.fired());
        let trace = rec.into_inner().into_trace();
        assert_eq!(trace.rounds.len(), 2);
    }

    #[test]
    fn deadline_recorder_respects_future_deadline() {
        let rec = DeadlineRecorder::after(NoopRecorder, std::time::Duration::from_secs(3600));
        assert!(!rec.should_stop());
        assert!(!rec.fired());
    }

    #[test]
    fn deadline_recorder_latches_once_fired() {
        let rec = DeadlineRecorder::new(
            NoopRecorder,
            Instant::now() - std::time::Duration::from_millis(1),
        );
        assert!(rec.should_stop());
        // Stays fired even if polled again.
        assert!(rec.should_stop());
        assert!(rec.fired());
    }

    #[test]
    fn run_timer_is_monotonic() {
        let t = RunTimer::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(t.elapsed_secs() >= 0.0);
    }
}
