//! Active-set (frontier) round execution for the iterative kernels.
//!
//! All three kernel families converge over rounds in which fewer and fewer
//! vertices actually change: speculative coloring re-colors only conflicted
//! vertices (Algorithms 1–3), the Louvain move phase (Algorithm 4) and label
//! propagation (Algorithm 5) only profit from revisiting vertices whose
//! neighborhood changed last round. Re-sweeping *every* vertex *every* round
//! burns full `O(V + E)` passes to move a handful of vertices in the tail.
//!
//! This module provides the shared machinery:
//!
//! * [`SweepMode`] — the `full | active` knob every kernel config carries.
//!   Both modes share identical *activation semantics* (a vertex is
//!   processed in round `r` iff something activated it in round `r-1`), so
//!   results are **bit-identical**; they differ only in how the active set
//!   is *enumerated*: `full` scans all vertices and filters (paying the
//!   `O(V)` scan, the paper-faithful baseline), `active` iterates a packed,
//!   ascending `u32` worklist (so vectorized gathers stay 16-lane dense).
//! * [`Frontier`] — double-stamped activation tracking with a deterministic
//!   packed worklist, maintained identically under both modes.
//! * [`run_chunked`] — the sweep executor: splits a round into bounded
//!   chunks and polls [`Recorder::should_stop`] *between* chunks whenever
//!   the recorder can actually fire a deadline
//!   ([`Recorder::CHECKS_DEADLINE`]), so one huge first round cannot
//!   overshoot its deadline unbounded. Under plain recorders the chunking
//!   collapses to a single full-length chunk and compiles away.

use crate::locality::fan_out_units;
use gp_metrics::telemetry::Recorder;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// How a kernel enumerates the vertices it processes each round.
///
/// The two modes are bit-identical in output (the equivalence suite in
/// `crates/core/tests/active_set.rs` asserts this across every variant,
/// backend, and thread count); `full` exists as the A/B baseline for
/// benchmarking the active-set win and as the paper-faithful sweep shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepMode {
    /// Scan every vertex every round, skipping inactive ones in place.
    Full,
    /// Iterate a packed, ascending worklist of only the active vertices.
    #[default]
    Active,
}

impl SweepMode {
    /// Stable lowercase name (CLI flag value, serve JSON value, cache key).
    pub fn name(self) -> &'static str {
        match self {
            SweepMode::Full => "full",
            SweepMode::Active => "active",
        }
    }
}

impl std::fmt::Display for SweepMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SweepMode {
    type Err = crate::error::SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(SweepMode::Full),
            "active" => Ok(SweepMode::Active),
            other => Err(crate::error::SpecError::UnknownSweep(other.to_string())),
        }
    }
}

/// Activation tracking for one kernel run.
///
/// A vertex is *active in round `r`* iff its `cur` stamp equals `r`. During
/// round `r`, [`Frontier::activate`] stamps vertices into the `next` array
/// (for round `r + 1`) through a swap-gate that also pushes each vertex at
/// most once into a lock-free slot buffer; [`Frontier::advance`] then swaps
/// the stamp arrays and sorts the slots into the packed ascending
/// [`Frontier::worklist`]. Because stamps only ever grow, stale entries from
/// earlier rounds can never collide with the current round's stamp and the
/// arrays are never cleared.
///
/// The maintenance is identical under both [`SweepMode`]s — activation
/// order does not influence the sorted worklist, and `full`-mode filtering
/// reads the same `cur` stamps the worklist was built from — which is what
/// makes the two enumeration strategies bit-identical.
#[derive(Debug)]
pub struct Frontier {
    round: u32,
    cur: Vec<AtomicU32>,
    next: Vec<AtomicU32>,
    slots: Vec<AtomicU32>,
    count: AtomicUsize,
    worklist: Vec<u32>,
}

impl Frontier {
    /// A frontier over `n` vertices with **all** vertices active in the
    /// first round (round 1) — every kernel's first sweep is a full sweep,
    /// matching the pre-frontier behavior exactly.
    pub fn all_active(n: usize) -> Self {
        Frontier {
            round: 1,
            cur: (0..n).map(|_| AtomicU32::new(1)).collect(),
            next: (0..n).map(|_| AtomicU32::new(0)).collect(),
            slots: (0..n).map(|_| AtomicU32::new(0)).collect(),
            count: AtomicUsize::new(0),
            worklist: (0..n as u32).collect(),
        }
    }

    /// A frontier over `n` vertices with only `seed` active in the first
    /// round — the incremental-kernel entry point (`seed` is the touched
    /// set plus whatever neighborhood closure the kernel family needs).
    /// `seed` must be sorted ascending and deduplicated with ids `< n`, so
    /// enumeration order matches what [`Frontier::advance`] would produce.
    pub fn seeded(n: usize, seed: &[u32]) -> Self {
        debug_assert!(seed.windows(2).all(|w| w[0] < w[1]), "seed must be sorted+deduped");
        debug_assert!(seed.last().is_none_or(|&v| (v as usize) < n));
        let cur: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        for &v in seed {
            cur[v as usize].store(1, Ordering::Relaxed);
        }
        Frontier {
            round: 1,
            cur,
            next: (0..n).map(|_| AtomicU32::new(0)).collect(),
            slots: (0..n).map(|_| AtomicU32::new(0)).collect(),
            count: AtomicUsize::new(0),
            worklist: seed.to_vec(),
        }
    }

    /// The current round number (starts at 1, incremented by
    /// [`Frontier::advance`]).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Number of vertices active this round.
    pub fn len(&self) -> usize {
        self.worklist.len()
    }

    /// True when no vertex is active this round.
    pub fn is_empty(&self) -> bool {
        self.worklist.is_empty()
    }

    /// The packed, ascending worklist of vertices active this round.
    pub fn worklist(&self) -> &[u32] {
        &self.worklist
    }

    /// Whether `v` is active in the current round. `full`-sweep enumeration
    /// filters on this; it reads the snapshot taken at round start, so
    /// activations performed *during* the round never affect it.
    #[inline(always)]
    pub fn is_active(&self, v: u32) -> bool {
        self.cur[v as usize].load(Ordering::Relaxed) == self.round
    }

    /// Marks `v` active for the **next** round. Callable concurrently from
    /// a parallel sweep; each vertex is recorded at most once per round.
    #[inline]
    pub fn activate(&self, v: u32) {
        let stamp = self.round + 1;
        if self.next[v as usize].swap(stamp, Ordering::Relaxed) != stamp {
            let slot = self.count.fetch_add(1, Ordering::Relaxed);
            self.slots[slot].store(v, Ordering::Relaxed);
        }
    }

    /// Ends the round: swaps the stamp arrays and rebuilds the packed
    /// worklist (sorted ascending, so enumeration order matches the
    /// `full`-sweep scan order and is independent of activation order).
    pub fn advance(&mut self) {
        let cnt = *self.count.get_mut();
        self.worklist.clear();
        self.worklist
            .extend(self.slots[..cnt].iter().map(|s| s.load(Ordering::Relaxed)));
        self.worklist.sort_unstable();
        *self.count.get_mut() = 0;
        std::mem::swap(&mut self.cur, &mut self.next);
        self.round += 1;
    }

    /// Sum of `degree(v)` over the active set — the `active_edges`
    /// telemetry figure. Only called when a recorder is enabled.
    pub fn active_edge_count(&self, degree_of: impl Fn(u32) -> u64) -> u64 {
        self.worklist.iter().map(|&v| degree_of(v)).sum()
    }
}

/// Chunk length between cooperative deadline polls. Small enough that even
/// slow per-vertex kernels poll every few milliseconds, large enough that
/// the poll itself (an `Instant::now` comparison) is noise.
pub const DEADLINE_CHUNK: usize = 4096;

/// Chunk length of a sweep over `len` positions: [`DEADLINE_CHUNK`] when
/// the recorder can fire deadlines, else the whole sweep in one chunk.
#[inline]
pub(crate) fn chunk_len<R: Recorder>(len: usize) -> usize {
    if R::CHECKS_DEADLINE {
        DEADLINE_CHUNK
    } else {
        len.max(1)
    }
}

/// Runs `process(buf, i)` for every `i in 0..len` (ascending within each
/// chunk), polling `rec.should_stop()` between chunks when the recorder can
/// fire deadlines. Returns `true` if the sweep bailed early — the caller
/// must then treat the round as incomplete (`converged: false`).
///
/// Two execution shapes, picked from `parallel` and the current
/// [`gp_par`] pool:
///
/// * `parallel == false`, or an *inline* pool (1 thread, or
///   `GP_PAR_SEQ=1`) — a plain loop with one hoisted buffer, polling the
///   deadline between chunks. `make_buf` runs once per sweep, as in
///   [`crate::locality::run_sweep`].
/// * `parallel == true` on a real multi-thread pool — the chunks fan out
///   across the pool's workers through a shared atomic cursor. Every worker
///   (and the calling thread, which sweeps too) claims chunks until the
///   cursor runs dry or the shared `stop` flag is raised. Only the calling
///   thread polls `rec.should_stop()` — between each of *its* chunks — and
///   publishes the verdict through `stop`, which in-flight workers observe
///   at their next chunk boundary. So a deadline that fires while chunks
///   are in flight on other workers still stops the sweep within one chunk
///   per worker, without requiring `R: Sync`.
///
/// In all shapes the first chunk is always processed (progress guarantee),
/// and under a recorder with `CHECKS_DEADLINE = false` there is exactly one
/// chunk and no polling — identical codegen to the pre-chunking sweeps.
pub fn run_chunked<R, B>(
    len: usize,
    parallel: bool,
    rec: &R,
    make_buf: impl Fn() -> B + Send + Sync,
    process: impl Fn(&mut B, usize) + Send + Sync,
) -> bool
where
    R: Recorder,
    B: Send,
{
    let chunk = chunk_len::<R>(len);
    if parallel {
        let pool = gp_par::current();
        if !pool.is_inline() {
            let chunks: Vec<Range<usize>> = (0..len)
                .step_by(chunk)
                .map(|s| s..(s + chunk).min(len))
                .collect();
            return fan_out_units(&chunks, &pool, rec, &make_buf, |buf, c| {
                for i in c.clone() {
                    process(buf, i);
                }
            });
        }
    }
    let mut start = 0usize;
    let mut buf: Option<B> = None; // hoisted across chunks
    while start < len {
        if R::CHECKS_DEADLINE && start > 0 && rec.should_stop() {
            return true;
        }
        let end = (start + chunk).min(len);
        let b = buf.get_or_insert_with(&make_buf);
        for i in start..end {
            process(b, i);
        }
        start = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_metrics::telemetry::{DeadlineRecorder, NoopRecorder};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn sweep_mode_roundtrips_strings() {
        for m in [SweepMode::Full, SweepMode::Active] {
            assert_eq!(m.name().parse::<SweepMode>().unwrap(), m);
            assert_eq!(format!("{m}"), m.name());
        }
        assert!("frontier".parse::<SweepMode>().is_err());
        assert_eq!(SweepMode::default(), SweepMode::Active);
    }

    #[test]
    fn frontier_starts_all_active() {
        let f = Frontier::all_active(5);
        assert_eq!(f.round(), 1);
        assert_eq!(f.worklist(), &[0, 1, 2, 3, 4]);
        assert!((0..5).all(|v| f.is_active(v)));
    }

    #[test]
    fn seeded_frontier_activates_only_the_seed() {
        let mut f = Frontier::seeded(6, &[1, 4]);
        assert_eq!(f.round(), 1);
        assert_eq!(f.worklist(), &[1, 4]);
        assert!(f.is_active(1) && f.is_active(4));
        assert!(!f.is_active(0) && !f.is_active(2) && !f.is_active(5));
        // Activation/advance behave exactly as from all_active.
        f.activate(0);
        f.advance();
        assert_eq!(f.worklist(), &[0]);
        let empty = Frontier::seeded(3, &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn activation_is_deduplicated_and_sorted() {
        let mut f = Frontier::all_active(6);
        f.activate(4);
        f.activate(1);
        f.activate(4); // duplicate — gate keeps one copy
        f.activate(3);
        f.advance();
        assert_eq!(f.round(), 2);
        assert_eq!(f.worklist(), &[1, 3, 4]);
        assert!(f.is_active(1) && f.is_active(3) && f.is_active(4));
        assert!(!f.is_active(0) && !f.is_active(2) && !f.is_active(5));
    }

    #[test]
    fn activation_during_round_does_not_change_current_round() {
        let f = Frontier::all_active(3);
        f.activate(2);
        // Still active in the *current* round snapshot…
        assert!(f.is_active(0) && f.is_active(1) && f.is_active(2));
    }

    #[test]
    fn frontier_drains_to_empty() {
        let mut f = Frontier::all_active(4);
        f.advance();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert!((0..4).all(|v| !f.is_active(v)));
    }

    #[test]
    fn stale_stamps_never_resurrect() {
        let mut f = Frontier::all_active(4);
        f.activate(2);
        f.advance(); // round 2: {2}
        f.advance(); // round 3: {}
        assert!(f.is_empty());
        f.activate(2);
        f.advance(); // round 4: {2}
        assert_eq!(f.worklist(), &[2]);
        assert!(!f.is_active(0));
    }

    #[test]
    fn active_edge_count_sums_degrees() {
        let mut f = Frontier::all_active(4);
        f.activate(0);
        f.activate(3);
        f.advance();
        assert_eq!(f.active_edge_count(|v| u64::from(v) + 1), 1 + 4);
    }

    #[test]
    fn run_chunked_visits_everything_in_order() {
        for parallel in [false, true] {
            let seen = (0..10_000).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
            let bailed = run_chunked(
                seen.len(),
                parallel,
                &NoopRecorder,
                || (),
                |_, i| {
                    seen[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(!bailed);
            assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn run_chunked_makes_one_buffer_per_sweep_on_an_inline_pool() {
        // `parallel: true` (the KernelSpec default) on a one-thread pool:
        // one buffer per sweep, whether the sweep is one chunk or several
        // deadline-polled ones.
        let far = DeadlineRecorder::new(NoopRecorder, Instant::now() + Duration::from_secs(3600));
        let bufs = AtomicU64::new(0);
        let make_buf = || {
            bufs.fetch_add(1, Ordering::Relaxed);
        };
        gp_par::cached(1).install(|| {
            run_chunked(3 * DEADLINE_CHUNK, true, &NoopRecorder, make_buf, |_, _| {});
            run_chunked(3 * DEADLINE_CHUNK, true, &far, make_buf, |_, _| {});
        });
        assert_eq!(bufs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_chunked_bails_between_chunks_under_expired_deadline() {
        let rec = DeadlineRecorder::new(NoopRecorder, Instant::now() - Duration::from_millis(1));
        let visited = AtomicU64::new(0);
        let bailed = run_chunked(3 * DEADLINE_CHUNK, false, &rec, || (), |_, _| {
            visited.fetch_add(1, Ordering::Relaxed);
        });
        assert!(bailed);
        // The first chunk always runs (progress guarantee); later ones don't.
        assert_eq!(visited.load(Ordering::Relaxed), DEADLINE_CHUNK as u64);
        assert!(rec.fired());
    }

    #[test]
    fn run_chunked_without_deadline_is_one_chunk() {
        // A NoopRecorder never stops, so even a huge range completes.
        let visited = AtomicU64::new(0);
        let bailed = run_chunked(2 * DEADLINE_CHUNK, false, &NoopRecorder, || (), |_, _| {
            visited.fetch_add(1, Ordering::Relaxed);
        });
        assert!(!bailed);
        assert_eq!(visited.load(Ordering::Relaxed), 2 * DEADLINE_CHUNK as u64);
    }

    #[test]
    fn run_chunked_handles_empty() {
        assert!(!run_chunked(0, true, &NoopRecorder, || (), |_, _: usize| {}));
        gp_par::cached(4).install(|| {
            assert!(!run_chunked(0, true, &NoopRecorder, || (), |_, _: usize| {}));
        });
    }

    #[test]
    fn run_chunked_fans_out_and_visits_everything_on_real_pool() {
        if gp_par::sequential_mode() {
            return; // GP_PAR_SEQ=1 forces inline pools; nothing to fan out.
        }
        let pool = gp_par::cached(4);
        // Cover both the deadline-chunked shape and the single-chunk shape.
        let seen = (0..3 * DEADLINE_CHUNK + 17)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>();
        let rec = DeadlineRecorder::new(NoopRecorder, Instant::now() + Duration::from_secs(3600));
        let bailed = pool.install(|| {
            run_chunked(seen.len(), true, &rec, || (), |_, i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(!bailed);
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
        assert!(!rec.fired());

        let seen = (0..10_000).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let bailed = pool.install(|| {
            run_chunked(seen.len(), true, &NoopRecorder, || (), |_, i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(!bailed);
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_chunked_bails_with_chunks_in_flight_on_real_pool() {
        if gp_par::sequential_mode() {
            return;
        }
        // Expired deadline: the caller's first claimed chunk still runs
        // (progress guarantee), workers may complete a bounded number of
        // chunks each before observing `stop`, and the sweep reports a bail
        // well before covering the whole range. Each chunk carries a small
        // sleep so in-flight workers cannot drain the whole cursor before
        // the caller finishes its first chunk and polls the deadline.
        let pool = gp_par::cached(4);
        let total = 256 * DEADLINE_CHUNK;
        let rec = DeadlineRecorder::new(NoopRecorder, Instant::now() - Duration::from_millis(1));
        let visited = AtomicU64::new(0);
        let bailed = pool.install(|| {
            run_chunked(total, true, &rec, || (), |_, i| {
                if i % DEADLINE_CHUNK == 0 {
                    std::thread::sleep(Duration::from_micros(50));
                }
                visited.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(bailed);
        assert!(rec.fired());
        let v = visited.load(Ordering::Relaxed);
        // Progress guarantee: at least the caller's first chunk ran…
        assert!(v >= DEADLINE_CHUNK as u64, "visited only {v}");
        // …but in-flight workers stop within one chunk each, far short of
        // the full sweep.
        assert!(
            v < total as u64,
            "deadline bail should not have covered the full range"
        );
    }
}
