//! Busy/idle interval recording for pipelined execution: the
//! [`crate::telemetry::PhaseProbe`] idea extended from *durations* to
//! *intervals*.
//!
//! A phase probe answers "how long did coarsening take"; it cannot answer
//! "was the pool busy while it ran". The pipelined batch executor
//! (`gp_core::pipeline`) overlaps the substrate stages of item N+1 with the
//! kernel rounds of item N, and the proof that the overlap happened is a
//! *timeline*: per-lane busy spans with stage labels, on one shared clock,
//! from which utilization and overlap fractions fall out.
//!
//! * [`IntervalSink`] — statically-dispatched span sink, mirroring
//!   [`crate::telemetry::Recorder`]: with [`NoopIntervals`]
//!   (`ENABLED = false`) every probe compiles away.
//! * [`IntervalRecorder`] — the enabled sink: thread-safe (lanes run on
//!   different threads and share it by reference), spans stamped relative
//!   to one origin instant.
//! * [`SpanProbe`] — the guard: `begin::<S>()` at stage entry,
//!   `finish(sink, lane, worker, stage, item)` at stage exit.
//! * [`Timeline`] — the merged result: CSV export, per-stage busy seconds,
//!   and the overlap fraction (share of wall time with ≥ 2 lanes busy).

use std::sync::Mutex;
use std::time::Instant;

/// One busy span: `lane`/`worker` identify who was busy, `stage` labels
/// what it was doing, `item` which batch item it was doing it for, and
/// `[start, end]` are seconds relative to the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Lane label (`"substrate"`, `"kernel"`, ...).
    pub lane: &'static str,
    /// Worker index within the lane (0 for single-worker lanes).
    pub worker: usize,
    /// Stage label (`"build"`, `"kernel"`, ...).
    pub stage: &'static str,
    /// Batch-item index the span worked on.
    pub item: usize,
    /// Span start, seconds since the timeline origin.
    pub start: f64,
    /// Span end, seconds since the timeline origin.
    pub end: f64,
}

impl Span {
    /// Busy seconds covered by the span.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Statically-dispatched sink for busy spans.
///
/// Mirrors [`crate::telemetry::Recorder`]: executors are generic over
/// `S: IntervalSink`, and the [`NoopIntervals`] monomorphization contains no
/// probe code at all. Sinks take `&self` (not `&mut`) because pipeline lanes
/// on different threads share one sink.
pub trait IntervalSink: Sync {
    /// Whether probes should collect at all. `false` compiles them out.
    const ENABLED: bool;

    /// Receives one completed span (absolute instants; the sink owns the
    /// origin and converts to relative seconds).
    fn record_span(
        &self,
        lane: &'static str,
        worker: usize,
        stage: &'static str,
        item: usize,
        start: Instant,
        end: Instant,
    );
}

/// The default sink: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopIntervals;

impl IntervalSink for NoopIntervals {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record_span(
        &self,
        _lane: &'static str,
        _worker: usize,
        _stage: &'static str,
        _item: usize,
        _start: Instant,
        _end: Instant,
    ) {
    }
}

/// The enabled sink: collects spans from every lane onto one shared clock.
#[derive(Debug)]
pub struct IntervalRecorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for IntervalRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl IntervalRecorder {
    /// Fresh recorder; the origin (timeline zero) is now.
    pub fn new() -> Self {
        IntervalRecorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the timeline so far (spans sorted by start time).
    pub fn timeline(&self) -> Timeline {
        Timeline::from_spans(self.spans.lock().unwrap().clone())
    }

    /// Consumes the recorder into its timeline.
    pub fn into_timeline(self) -> Timeline {
        Timeline::from_spans(self.spans.into_inner().unwrap())
    }
}

impl IntervalSink for IntervalRecorder {
    const ENABLED: bool = true;

    fn record_span(
        &self,
        lane: &'static str,
        worker: usize,
        stage: &'static str,
        item: usize,
        start: Instant,
        end: Instant,
    ) {
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.lock().unwrap().push(Span {
            lane,
            worker,
            stage,
            item,
            start: rel(start),
            end: rel(end),
        });
    }
}

/// Guard capturing a stage's entry instant; [`SpanProbe::finish`] stamps the
/// exit instant and hands the interval to the sink. With a disabled sink
/// both calls are empty inlineable functions — the zero-cost path the
/// serve tier rides.
#[derive(Debug)]
pub struct SpanProbe {
    start: Option<Instant>,
}

impl SpanProbe {
    /// Captures the stage-entry instant (only when `S::ENABLED`).
    #[inline(always)]
    pub fn begin<S: IntervalSink>() -> SpanProbe {
        SpanProbe {
            start: if S::ENABLED { Some(Instant::now()) } else { None },
        }
    }

    /// Completes the span and records it. A no-op when `S::ENABLED` is
    /// false.
    #[inline(always)]
    pub fn finish<S: IntervalSink>(
        self,
        sink: &S,
        lane: &'static str,
        worker: usize,
        stage: &'static str,
        item: usize,
    ) {
        if S::ENABLED {
            if let Some(start) = self.start {
                sink.record_span(lane, worker, stage, item, start, Instant::now());
            }
        }
    }
}

/// Per-stage slice of a [`TimelineSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageUtil {
    /// Stage label.
    pub stage: &'static str,
    /// Total busy seconds across all lanes.
    pub busy_secs: f64,
    /// `busy_secs / total_secs` — the pool-busy fraction this stage alone
    /// accounts for (can exceed 1.0 when several lanes run the stage
    /// concurrently).
    pub busy_fraction: f64,
}

/// Aggregate view of a [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSummary {
    /// Wall span of the timeline (latest span end), seconds.
    pub total_secs: f64,
    /// Distinct `(lane, worker)` pairs that recorded spans.
    pub lanes: usize,
    /// Summed busy seconds across all spans.
    pub busy_secs: f64,
    /// `busy_secs / (lanes * total_secs)`: mean busy share per lane.
    pub busy_fraction: f64,
    /// Wall seconds during which ≥ 2 lanes were simultaneously busy.
    pub overlap_secs: f64,
    /// `overlap_secs / total_secs` — the overlap the pipeline achieved;
    /// strictly sequential execution scores 0.
    pub overlap_fraction: f64,
    /// Per-stage busy breakdown, in first-appearance order.
    pub stages: Vec<StageUtil>,
}

/// A merged, queryable set of busy spans on one shared clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    spans: Vec<Span>,
}

impl Timeline {
    /// Builds a timeline from raw spans (sorted by start, then end).
    pub fn from_spans(mut spans: Vec<Span>) -> Timeline {
        spans.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.end.total_cmp(&b.end))
                .then(a.item.cmp(&b.item))
        });
        Timeline { spans }
    }

    /// The spans, sorted by start time.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall span covered (latest span end); 0 for an empty timeline.
    pub fn total_secs(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Summed busy seconds across all spans.
    pub fn busy_secs(&self) -> f64 {
        self.spans.iter().map(Span::secs).sum()
    }

    /// Wall seconds during which at least two spans were simultaneously
    /// active. Spans on one `(lane, worker)` never overlap each other (a
    /// lane is sequential), so activity count ≥ 2 means two *lanes* were
    /// busy — the overlap the pipeline exists to create.
    pub fn overlap_secs(&self) -> f64 {
        // Sweep the span boundaries: +1 at starts, -1 at ends, summing the
        // time where the active count is ≥ 2.
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(self.spans.len() * 2);
        for s in &self.spans {
            if s.end > s.start {
                events.push((s.start, 1));
                events.push((s.end, -1));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut active, mut prev, mut overlap) = (0i32, 0.0f64, 0.0f64);
        for (t, delta) in events {
            if active >= 2 {
                overlap += t - prev;
            }
            active += delta;
            prev = t;
        }
        overlap
    }

    /// `overlap_secs / total_secs`; 0 for an empty timeline.
    pub fn overlap_fraction(&self) -> f64 {
        let total = self.total_secs();
        if total > 0.0 {
            self.overlap_secs() / total
        } else {
            0.0
        }
    }

    /// Distinct `(lane, worker)` pairs present.
    pub fn lanes(&self) -> usize {
        let mut seen: Vec<(&'static str, usize)> = Vec::new();
        for s in &self.spans {
            if !seen.contains(&(s.lane, s.worker)) {
                seen.push((s.lane, s.worker));
            }
        }
        seen.len()
    }

    /// Aggregate summary: wall span, busy/overlap fractions, per-stage
    /// busy breakdown.
    pub fn summary(&self) -> TimelineSummary {
        let total_secs = self.total_secs();
        let lanes = self.lanes();
        let busy_secs = self.busy_secs();
        let overlap_secs = self.overlap_secs();
        let mut stages: Vec<StageUtil> = Vec::new();
        for s in &self.spans {
            match stages.iter_mut().find(|u| u.stage == s.stage) {
                Some(u) => u.busy_secs += s.secs(),
                None => stages.push(StageUtil {
                    stage: s.stage,
                    busy_secs: s.secs(),
                    busy_fraction: 0.0,
                }),
            }
        }
        if total_secs > 0.0 {
            for u in &mut stages {
                u.busy_fraction = u.busy_secs / total_secs;
            }
        }
        TimelineSummary {
            total_secs,
            lanes,
            busy_secs,
            busy_fraction: if lanes > 0 && total_secs > 0.0 {
                busy_secs / (lanes as f64 * total_secs)
            } else {
                0.0
            },
            overlap_secs,
            overlap_fraction: if total_secs > 0.0 {
                overlap_secs / total_secs
            } else {
                0.0
            },
            stages,
        }
    }

    /// CSV export: `lane,worker,stage,item,start_secs,end_secs`, one row
    /// per span, sorted by start time. The format `docs/PIPELINE.md`
    /// documents and the `fig_pipeline` artifact carries.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("lane,worker,stage,item,start_secs,end_secs\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6}\n",
                s.lane, s.worker, s.stage, s.item, s.start, s.end
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: &'static str, stage: &'static str, item: usize, start: f64, end: f64) -> Span {
        Span {
            lane,
            worker: 0,
            stage,
            item,
            start,
            end,
        }
    }

    #[test]
    fn noop_probe_captures_nothing() {
        let p = SpanProbe::begin::<NoopIntervals>();
        assert!(p.start.is_none());
        p.finish(&NoopIntervals, "substrate", 0, "build", 0);
    }

    #[test]
    fn recorder_collects_spans_relative_to_origin() {
        let rec = IntervalRecorder::new();
        let p = SpanProbe::begin::<IntervalRecorder>();
        std::hint::black_box((0..100).sum::<u64>());
        p.finish(&rec, "kernel", 0, "kernel", 3);
        let tl = rec.into_timeline();
        assert_eq!(tl.spans().len(), 1);
        let s = &tl.spans()[0];
        assert_eq!((s.lane, s.stage, s.item), ("kernel", "kernel", 3));
        assert!(s.start >= 0.0 && s.end >= s.start);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = IntervalRecorder::new();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let rec = &rec;
                scope.spawn(move || {
                    let p = SpanProbe::begin::<IntervalRecorder>();
                    p.finish(rec, "substrate", w, "build", w);
                });
            }
        });
        assert_eq!(rec.timeline().spans().len(), 4);
        assert_eq!(rec.timeline().lanes(), 4);
    }

    #[test]
    fn overlap_detects_concurrent_lanes() {
        // kernel busy 0..10; substrate busy 4..8 → 4s of overlap.
        let tl = Timeline::from_spans(vec![
            span("kernel", "kernel", 0, 0.0, 10.0),
            span("substrate", "build", 1, 4.0, 8.0),
        ]);
        assert!((tl.overlap_secs() - 4.0).abs() < 1e-9);
        assert!((tl.overlap_fraction() - 0.4).abs() < 1e-9);
        assert!((tl.total_secs() - 10.0).abs() < 1e-9);
        assert!((tl.busy_secs() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_spans_have_zero_overlap() {
        let tl = Timeline::from_spans(vec![
            span("kernel", "build", 0, 0.0, 2.0),
            span("kernel", "kernel", 0, 2.0, 5.0),
            span("kernel", "build", 1, 5.0, 7.0),
        ]);
        assert_eq!(tl.overlap_secs(), 0.0);
        assert_eq!(tl.overlap_fraction(), 0.0);
    }

    #[test]
    fn summary_aggregates_per_stage() {
        let tl = Timeline::from_spans(vec![
            span("substrate", "build", 0, 0.0, 2.0),
            span("substrate", "build", 1, 2.0, 6.0),
            span("kernel", "kernel", 0, 2.0, 10.0),
        ]);
        let sum = tl.summary();
        assert_eq!(sum.lanes, 2);
        assert_eq!(sum.stages.len(), 2);
        let build = sum.stages.iter().find(|s| s.stage == "build").unwrap();
        assert!((build.busy_secs - 6.0).abs() < 1e-9);
        assert!((build.busy_fraction - 0.6).abs() < 1e-9);
        // build 2..6 overlaps kernel 2..10 for 4s of the 10s wall.
        assert!((sum.overlap_fraction - 0.4).abs() < 1e-9);
        // 14 busy seconds across 2 lanes * 10s wall.
        assert!((sum.busy_fraction - 0.7).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_sorted_rows() {
        let tl = Timeline::from_spans(vec![
            span("kernel", "kernel", 1, 5.0, 6.0),
            span("substrate", "build", 0, 0.5, 2.0),
        ]);
        let csv = tl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "lane,worker,stage,item,start_secs,end_secs");
        assert!(lines[1].starts_with("substrate,0,build,0,0.5"));
        assert!(lines[2].starts_with("kernel,0,kernel,1,5.0"));
    }

    #[test]
    fn empty_timeline_is_all_zero() {
        let tl = Timeline::default();
        assert_eq!(tl.total_secs(), 0.0);
        assert_eq!(tl.overlap_fraction(), 0.0);
        let sum = tl.summary();
        assert_eq!(sum.lanes, 0);
        assert_eq!(sum.busy_fraction, 0.0);
        assert!(sum.stages.is_empty());
    }
}
