//! The locality layer: cache-blocked, degree-bucketed sweep execution.
//!
//! The paper's scale study (Figures 8/11/14) shows the vector kernels' edge
//! over scalar decaying as the graph outgrows the last-level cache: the
//! gather-heavy neighborhood reads miss more and more. This module attacks
//! that decay with two orthogonal, output-preserving transforms every kernel
//! family executes through:
//!
//! * **Cache blocking** ([`Blocking`]) — each sweep's ordered worklist is
//!   partitioned into contiguous *blocks* of vertices sized to a cache
//!   budget ([`DEFAULT_BLOCK_KB`] under `auto`, or an explicit `<n>kb`,
//!   converted through the CSR's bytes-per-vertex) and processed
//!   block-by-block. Blocks partition the *already ordered* sweep sequence,
//!   so sequential execution visits exactly the same vertices in exactly
//!   the same order as the unblocked sweep — outputs are bit-identical by
//!   construction, for any block size (including the degenerate one-vertex
//!   block).
//! * **Degree bucketing** ([`Bucketing`]) — hub vertices become their own
//!   scheduling units so a parallel worker never inherits a hub buried in a
//!   thousand-vertex chunk, and a kernel may give ≤16-neighbor vertices a
//!   cheaper per-vertex shape (coloring's branch-free bitmask). Every
//!   vertex still takes exactly one per-vertex call, in sweep order. The
//!   hub boundary comes from the degree histogram
//!   ([`gp_graph::stats::DegreeHistogram`]) at frontier-build time.
//!
//! An engaged plan additionally drives a two-stage software-prefetch
//! pipeline ahead of the visit point (CSR row at [`PREFETCH_ROW_AHEAD`],
//! per-neighbor state via the kernels' `warm` hooks at
//! [`PREFETCH_STATE_AHEAD`]) — the lever that flattens the
//! scale-vs-speedup decay once state gathers start missing the LLC. It
//! only turns on past a working-set gate that depends on the sweep's
//! [`Traversal`]: an in-order sweep streams its CSR rows and misses only on
//! state gathers, so it needs the pipeline only past the LLC
//! ([`PREFETCH_MIN_BYTES_IN_ORDER`]); a shuffled sweep misses on every row
//! and every state read, and gains well below it
//! ([`PREFETCH_MIN_BYTES_SHUFFLED`]). Below its gate a sweep's working set
//! is cache-resident and the pipeline would be pure overhead. Prefetch has
//! no memory effects, so it cannot perturb outputs.
//!
//! ## The bit-identity contract
//!
//! Blocked execution must be indistinguishable from unblocked execution at
//! the output level (`crates/core/tests/locality.rs` pins this across every
//! kernel × backend × thread count × block size):
//!
//! * Sequential (and inline-pool) execution streams blocks in order and
//!   hands each eligible vertex to the kernel's per-vertex path against
//!   live state, so the visit sequence is untouched.
//! * Parallel execution on a real pool fans *units* (block-bounded ranges
//!   plus hub singletons) across workers — reordering that the racy
//!   speculative contract already permits (see `docs/PARALLELISM.md`), and
//!   that `GP_PAR_SEQ=1` collapses back to the sequential schedule.

use crate::frontier::DEADLINE_CHUNK;
use gp_graph::csr::Csr;
use gp_graph::stats::DegreeHistogram;
use gp_metrics::telemetry::Recorder;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Highest degree of the low bin: a bucketed kernel may give these vertices
/// a cheaper per-vertex shape (coloring's `u32` bitmask — at most 16
/// forbidden colors leave an answer ≤ 17). Also the low/mid boundary of the
/// telemetry census ([`BinTally`]).
pub const LOW_MAX_DEGREE: u32 = 16;

/// Far lookahead of the software-prefetch pipeline (worklist positions):
/// the CSR row of the vertex this far ahead is prefetched, so its adjacency
/// is resident when the near stage reads it.
const PREFETCH_ROW_AHEAD: usize = 16;

/// Near lookahead: the kernel's `warm` hook runs for the vertex this far
/// ahead, reading the (already prefetched) row and prefetching the state
/// words its neighbors will need.
const PREFETCH_STATE_AHEAD: usize = 4;

/// Most neighbors a single `warm` call touches — hubs would otherwise spend
/// longer warming than the prefetch distance can hide.
pub(crate) const WARM_NEIGHBOR_CAP: usize = 64;

/// Prefetch gate of in-order sweeps (coloring, PLM/MPLM/ONPL). Below this
/// footprint an in-order sweep's working set sits in the last-level cache,
/// where the pipeline is pure overhead: every prefetched line was already
/// resident, but the `warm` hook still re-walked the row. 16 MiB matches
/// the measured knee (R-MAT scale 16, ~9 MB, loses ~9% with the pipeline
/// on; scale 17, ~18 MB, gains with it on).
const PREFETCH_MIN_BYTES_IN_ORDER: usize = 16 << 20;

/// Prefetch gate of shuffled sweeps (label propagation). A fresh
/// permutation every sweep makes each CSR row and each label read a random
/// access, which misses well below the LLC. 6 MiB sits between two
/// measured graphs: R-MAT scale 16 edge factor 4 (4.8 MiB), where MPLP ran
/// 1.08× slower with the pipeline, and the delaunay stand-in (7.9 MiB),
/// where ONLP ran at 0.59–0.77× with it (docs/PERFORMANCE.md).
const PREFETCH_MIN_BYTES_SHUFFLED: usize = 6 << 20;

/// Best-effort L1 prefetch; compiles to nothing off x86-64.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects and tolerates any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Far-stage prefetch: pull `v`'s adjacency (ids and weights) toward L1.
#[inline(always)]
fn prefetch_row(g: &Csr, v: u32) {
    let start = g.xadj()[v as usize] as usize;
    prefetch(unsafe { g.adj().as_ptr().add(start) });
    prefetch(unsafe { g.weights().as_ptr().add(start) });
}

/// Cache budget per block under [`Blocking::Auto`]: sized to a typical
/// per-core LLC slice so one block's working set (CSR rows + state
/// arrays) stays resident while the block is swept.
pub const DEFAULT_BLOCK_KB: u32 = 4096;

/// Cache-blocking policy for a kernel run (`KernelSpec.block`, CLI
/// `--block`, serve v2 `block`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Blocking {
    /// No blocking: one block spans the whole sweep (the pre-locality
    /// behavior, kept as the A/B baseline).
    Off,
    /// Derive the block size from the graph: [`DEFAULT_BLOCK_KB`] divided by
    /// the CSR's average bytes-per-vertex.
    #[default]
    Auto,
    /// Explicit cache budget in KiB, converted like `Auto`.
    Kb(u32),
    /// Explicit block length in vertices (the test knob; `1` gives the
    /// degenerate one-vertex block).
    Vertices(u32),
}

impl Blocking {
    /// Stable wire/cache-key spelling (`off | auto | <n>kb | <n>`).
    pub fn name(self) -> String {
        match self {
            Blocking::Off => "off".into(),
            Blocking::Auto => "auto".into(),
            Blocking::Kb(k) => format!("{k}kb"),
            Blocking::Vertices(v) => format!("{v}"),
        }
    }
}

impl std::fmt::Display for Blocking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl FromStr for Blocking {
    type Err = crate::error::SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Blocking::Off),
            "auto" => Ok(Blocking::Auto),
            other => {
                if let Some(kb) = other.strip_suffix("kb") {
                    kb.parse::<u32>()
                        .ok()
                        .filter(|&k| k > 0)
                        .map(Blocking::Kb)
                        .ok_or_else(|| crate::error::SpecError::InvalidBlockBudget(other.to_string()))
                } else {
                    other
                        .parse::<u32>()
                        .ok()
                        .filter(|&v| v > 0)
                        .map(Blocking::Vertices)
                        .ok_or_else(|| crate::error::SpecError::InvalidBlockSize(other.to_string()))
                }
            }
        }
    }
}

/// Degree-bucketing policy (`KernelSpec.bucket`, CLI `--bucket`, serve v2
/// `bucket`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Bucketing {
    /// Every vertex takes the kernel's uniform per-vertex path.
    Off,
    /// Route by degree: hubs to singleton scheduling units, ≤16-neighbor
    /// vertices to the kernel's low-degree per-vertex shape where it has one
    /// (coloring's bitmask), everything else to the uniform per-vertex path.
    #[default]
    Degree,
}

impl Bucketing {
    /// Stable wire/cache-key spelling (`off | degree`).
    pub fn name(self) -> &'static str {
        match self {
            Bucketing::Off => "off",
            Bucketing::Degree => "degree",
        }
    }
}

impl std::fmt::Display for Bucketing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Bucketing {
    type Err = crate::error::SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Bucketing::Off),
            "degree" => Ok(Bucketing::Degree),
            other => Err(crate::error::SpecError::UnknownBucket(other.to_string())),
        }
    }
}

/// Converts a cache budget to a block length in vertices using the CSR's
/// average footprint: ~16 bytes of row/state overhead per vertex plus 8
/// bytes (id + weight) per arc.
fn budget_to_vertices(g: &Csr, kb: u32) -> usize {
    let n = g.num_vertices().max(1);
    let avg_arcs = g.num_arcs().div_ceil(n).max(1);
    let bytes_per_vertex = 16 + 8 * avg_arcs;
    ((kb as usize).saturating_mul(1024) / bytes_per_vertex).max(1)
}

/// The order in which a kernel's sweeps visit their vertices. It is a
/// property of the kernel, not a setting: it picks the prefetch gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// Ascending vertex order (coloring, PLM/MPLM/ONPL): consecutive rows
    /// are adjacent in memory, so only the state gathers miss.
    InOrder,
    /// A fresh pseudorandom permutation every sweep (MPLP/ONLP): every CSR
    /// row and every state read is a random access.
    Shuffled,
}

/// The prefetch gate: whether an engaged plan runs the two-stage pipeline
/// for a sweep of `traversal` over a graph of estimated `footprint` bytes.
/// `forced` is the `GP_PREFETCH=0|1` override (the test knob), which wins
/// over the footprint for both traversals.
fn prefetch_gate(traversal: Traversal, footprint: usize, forced: Option<bool>) -> bool {
    let min_bytes = match traversal {
        Traversal::InOrder => PREFETCH_MIN_BYTES_IN_ORDER,
        Traversal::Shuffled => PREFETCH_MIN_BYTES_SHUFFLED,
    };
    forced.unwrap_or(footprint > min_bytes)
}

/// The `GP_PREFETCH=0|1` override of [`prefetch_gate`]; any other value, or
/// none, leaves the decision to the footprint.
fn prefetch_override() -> Option<bool> {
    match std::env::var("GP_PREFETCH") {
        Ok(v) if v.trim() == "0" => Some(false),
        Ok(v) if v.trim() == "1" => Some(true),
        _ => None,
    }
}

/// The resolved per-run locality plan: what [`Blocking`]/[`Bucketing`] plus
/// the graph's degree histogram boil down to. Computed once per kernel run
/// (per level, for multilevel Louvain) when the first frontier is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Vertices per cache block; `usize::MAX` disables blocking.
    pub block_vertices: usize,
    /// Whether degree bucketing is on.
    pub bucket: bool,
    /// Degree at or above which a vertex is scheduled as its own parallel
    /// unit; `u32::MAX` means the graph has no hubs worth singling out.
    pub hub_min: u32,
    /// Run the two-stage software-prefetch pipeline ahead of the sweep's
    /// visit point. On when the plan is engaged *and* the graph's estimated
    /// footprint exceeds its traversal's gate (or `GP_PREFETCH=1` forces
    /// it); prefetch has no memory effects, so this flag never changes
    /// outputs.
    pub prefetch: bool,
}

impl Plan {
    /// The no-op plan: unblocked, unbucketed (the pre-locality execution).
    pub fn none() -> Plan {
        Plan {
            block_vertices: usize::MAX,
            bucket: false,
            hub_min: u32::MAX,
            prefetch: false,
        }
    }

    /// Resolves the knobs against `g` for a kernel whose sweeps visit
    /// vertices in `traversal` order. The hub threshold is a pure function
    /// of the graph's degree histogram (see
    /// [`DegreeHistogram::hub_threshold`]), so it is identical across
    /// thread counts and sweep modes.
    pub fn for_graph(g: &Csr, block: Blocking, bucket: Bucketing, traversal: Traversal) -> Plan {
        let block_vertices = match block {
            Blocking::Off => usize::MAX,
            Blocking::Auto => budget_to_vertices(g, DEFAULT_BLOCK_KB),
            Blocking::Kb(k) => budget_to_vertices(g, k),
            Blocking::Vertices(v) => (v as usize).max(1),
        };
        let bucket_on = bucket == Bucketing::Degree;
        let hub_min = if bucket_on {
            DegreeHistogram::build(g).hub_threshold()
        } else {
            u32::MAX
        };
        let engaged = block_vertices != usize::MAX || bucket_on;
        let footprint = 16 * g.num_vertices() + 8 * g.num_arcs();
        let prefetch = engaged && prefetch_gate(traversal, footprint, prefetch_override());
        Plan {
            block_vertices,
            bucket: bucket_on,
            hub_min,
            prefetch,
        }
    }

    /// True when this plan changes nothing about execution.
    pub fn is_none(&self) -> bool {
        self.block_vertices == usize::MAX && !self.bucket
    }
}

/// Per-round bin census for telemetry: how the sweep's eligible vertices
/// split across the locality bins, plus the block count. Computed as a pure
/// function of the worklist and the plan (never tallied during execution),
/// so traces are deterministic for any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinTally {
    /// Cache blocks the sweep was partitioned into.
    pub blocks: u64,
    /// Eligible vertices with degree ≤ [`LOW_MAX_DEGREE`].
    pub low: u64,
    /// Eligible vertices between the low and hub thresholds.
    pub mid: u64,
    /// Eligible vertices at or above the hub threshold.
    pub hub: u64,
}

/// Computes the [`BinTally`] for a sweep over `len` positions. `resolve`
/// maps a position to its eligible vertex (`None` = skipped in place), and
/// `degree_of` prices it. Only called when a recorder is enabled.
pub(crate) fn tally(
    plan: &Plan,
    len: usize,
    resolve: impl Fn(usize) -> Option<u32>,
    degree_of: impl Fn(u32) -> u64,
) -> BinTally {
    let mut t = BinTally {
        blocks: if len == 0 {
            0
        } else {
            (len as u64).div_ceil(plan.block_vertices.min(len) as u64)
        },
        ..BinTally::default()
    };
    for i in 0..len {
        let Some(v) = resolve(i) else { continue };
        let d = degree_of(v);
        if d <= LOW_MAX_DEGREE as u64 {
            t.low += 1;
        } else if d >= plan.hub_min as u64 {
            t.hub += 1;
        } else {
            t.mid += 1;
        }
    }
    t
}

/// The per-chunk grain of the sequential/inline shapes: block-bounded, and
/// additionally capped at [`DEADLINE_CHUNK`] when the recorder can fire
/// deadlines (so blocking never *reduces* deadline responsiveness).
fn sweep_grain<R: Recorder>(plan: &Plan, len: usize) -> usize {
    let cap = if R::CHECKS_DEADLINE {
        DEADLINE_CHUNK
    } else {
        len.max(1)
    };
    plan.block_vertices.min(cap).max(1)
}

/// Streams `range` in ascending position order, handing every eligible
/// vertex to `one` — exactly the plain sweep.
///
/// When `plan.prefetch` is set (engaged plan, working set past its
/// traversal's gate), a two-stage software-prefetch pipeline runs ahead of
/// the visit point: the CSR row of the vertex [`PREFETCH_ROW_AHEAD`]
/// positions out is pulled toward L1, and the kernel's `warm` hook fires
/// for the vertex [`PREFETCH_STATE_AHEAD`] positions out — it reads the
/// (now resident) row and prefetches the per-neighbor state words the
/// kernel is about to gather. Prefetching has no memory effects, so outputs are untouched;
/// `Plan::none()` never prefetches, keeping the unblocked baseline
/// byte-for-byte the pre-locality execution.
fn stream_range<B>(
    g: &Csr,
    plan: &Plan,
    range: Range<usize>,
    resolve: &(impl Fn(usize) -> Option<u32> + ?Sized),
    buf: &mut B,
    one: &(impl Fn(&mut B, u32) + ?Sized),
    warm: Option<&(impl Fn(u32) + ?Sized)>,
) {
    let pipeline = plan.prefetch;
    let end = range.end;
    for i in range {
        if pipeline {
            if i + PREFETCH_ROW_AHEAD < end {
                if let Some(w) = resolve(i + PREFETCH_ROW_AHEAD) {
                    prefetch_row(g, w);
                }
            }
            if let Some(warm) = warm {
                if i + PREFETCH_STATE_AHEAD < end {
                    if let Some(w) = resolve(i + PREFETCH_STATE_AHEAD) {
                        warm(w);
                    }
                }
            }
        }
        if let Some(v) = resolve(i) {
            one(buf, v);
        }
    }
}

/// Builds the parallel unit list: block-bounded position ranges, split so
/// that every hub vertex (degree ≥ `plan.hub_min`) forms its own singleton
/// unit. This is the load-balance fix for hub-heavy worklists — a worker
/// claims a hub *alone* instead of a slice that hides one.
fn build_units(
    g: &Csr,
    plan: &Plan,
    len: usize,
    grain: usize,
    resolve: &(impl Fn(usize) -> Option<u32> + ?Sized),
) -> Vec<Range<usize>> {
    let cut_hubs = plan.bucket && plan.hub_min != u32::MAX;
    let mut units = Vec::with_capacity(len.div_ceil(grain.max(1)));
    let mut start = 0usize;
    while start < len {
        let end = (start + grain).min(len);
        if cut_hubs {
            let mut s = start;
            for i in start..end {
                if let Some(v) = resolve(i) {
                    if g.degree(v) as u32 >= plan.hub_min {
                        if s < i {
                            units.push(s..i);
                        }
                        units.push(i..i + 1);
                        s = i + 1;
                    }
                }
            }
            if s < end {
                units.push(s..end);
            }
        } else {
            units.push(start..end);
        }
        start = end;
    }
    units
}

/// The parallel grain: block-bounded like the sequential shape, but also
/// capped so a real pool always sees several units per worker. (The
/// pre-locality executor handed a recorder without deadline checks a single
/// full-length chunk, which starved every worker but one; units fix that
/// for blocked *and* unblocked parallel sweeps.)
fn par_grain(grain: usize, len: usize, threads: usize) -> usize {
    let target = len.div_ceil(4 * threads.max(1)).max(256);
    grain.min(target).max(1)
}

/// Runs one sweep over `len` positions through the locality plan. The
/// blocked/bucketed replacement for [`crate::frontier::run_chunked`]:
///
/// * `resolve(i)` maps position `i` to its eligible vertex (`None` = skip
///   in place — the `full`-sweep filter);
/// * `one(buf, v)` is the kernel's per-vertex path;
/// * `warm(v)` (optional) prefetches `v`'s per-neighbor state ahead of the
///   visit point when the plan prefetches.
///
/// Returns `true` if a deadline bailed the sweep early. Execution shapes
/// mirror `run_chunked`: sequential and inline pools stream blocks in order
/// (bit-identical to unblocked); real pools fan units across workers with
/// caller-only deadline polling.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sweep<R, B>(
    g: &Csr,
    plan: &Plan,
    len: usize,
    parallel: bool,
    rec: &R,
    resolve: impl Fn(usize) -> Option<u32> + Send + Sync,
    make_buf: impl Fn() -> B + Send + Sync,
    one: impl Fn(&mut B, u32) + Send + Sync,
    warm: Option<impl Fn(u32) + Send + Sync>,
) -> bool
where
    R: Recorder,
    B: Send,
{
    if len == 0 {
        return false;
    }
    let grain = sweep_grain::<R>(plan, len);
    if parallel {
        let pool = gp_par::current();
        if !pool.is_inline() {
            let units = build_units(
                g,
                plan,
                len,
                par_grain(grain, len, pool.threads()),
                &resolve,
            );
            return fan_out_units(&units, &pool, rec, &make_buf, |buf, unit| {
                stream_range(g, plan, unit.clone(), &resolve, buf, &one, warm.as_ref())
            });
        }
    }
    let mut buf: Option<B> = None;
    let mut start = 0usize;
    while start < len {
        if R::CHECKS_DEADLINE && start > 0 && rec.should_stop() {
            return true;
        }
        let end = (start + grain).min(len);
        let b = buf.get_or_insert_with(&make_buf);
        stream_range(g, plan, start..end, &resolve, b, &one, warm.as_ref());
        start = end;
    }
    false
}

/// Fans `units` across `pool`'s workers plus the calling thread via an
/// atomic cursor: the real-pool arm of both [`run_sweep`] and
/// [`crate::frontier::run_chunked`]. Only the caller touches `rec` (no
/// `R: Sync`); its first claimed unit always runs, it polls between its
/// own units and raises `stop` for the others. Returns `true` if the sweep
/// bailed before covering every unit.
pub(crate) fn fan_out_units<R, B>(
    units: &[Range<usize>],
    pool: &gp_par::Pool,
    rec: &R,
    make_buf: &(impl Fn() -> B + Send + Sync),
    run_unit: impl Fn(&mut B, &Range<usize>) + Send + Sync,
) -> bool
where
    R: Recorder,
    B: Send,
{
    if units.is_empty() {
        return false;
    }
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    pool.scope(|s| {
        for _ in 0..pool.threads() {
            s.spawn(|| {
                let mut buf = make_buf();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= units.len() {
                        break;
                    }
                    run_unit(&mut buf, &units[c]);
                }
            });
        }
        let mut buf: Option<B> = None;
        let mut claimed = 0usize;
        loop {
            if R::CHECKS_DEADLINE && claimed > 0 && rec.should_stop() {
                stop.store(true, Ordering::Relaxed);
                break;
            }
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= units.len() {
                break;
            }
            run_unit(buf.get_or_insert_with(make_buf), &units[c]);
            claimed += 1;
        }
    });
    stop.load(Ordering::Relaxed)
}

/// Calls `f` on consecutive subslices of `items`, cut at block boundaries
/// (and at [`DEADLINE_CHUNK`] under a deadline-checking recorder), polling
/// the deadline between them. `block = usize::MAX` gives the unblocked
/// scan: one slice, or [`DEADLINE_CHUNK`]-sized ones. Returns `true` if it
/// bailed before covering the whole slice.
///
/// The loop is deliberately sequential: `f` is `FnMut` and the call sites
/// mutate captured state (the coloring round loop's `newconf.extend(..)`).
/// Worker fan-out happens one level down, in the `par_iter` sweeps the
/// kernels run over each subslice, so deadline polls stay exact.
pub(crate) fn slice_blocked<R: Recorder, T>(
    items: &[T],
    block: usize,
    rec: &R,
    mut f: impl FnMut(&[T]),
) -> bool {
    let cap = if R::CHECKS_DEADLINE {
        DEADLINE_CHUNK
    } else {
        items.len().max(1)
    };
    let chunk = block.min(cap).max(1);
    let mut start = 0usize;
    while start < items.len() {
        if R::CHECKS_DEADLINE && start > 0 && rec.should_stop() {
            return true;
        }
        let end = (start + chunk).min(items.len());
        f(&items[start..end]);
        start = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::generators::{erdos_renyi, star};
    use gp_metrics::telemetry::{DeadlineRecorder, NoopRecorder};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn blocking_roundtrips_strings() {
        for b in [
            Blocking::Off,
            Blocking::Auto,
            Blocking::Kb(256),
            Blocking::Vertices(4096),
            Blocking::Vertices(1),
        ] {
            assert_eq!(b.name().parse::<Blocking>().unwrap(), b);
            assert_eq!(format!("{b}"), b.name());
        }
        assert!("".parse::<Blocking>().is_err());
        assert!("0".parse::<Blocking>().is_err());
        assert!("0kb".parse::<Blocking>().is_err());
        assert!("cache".parse::<Blocking>().is_err());
        assert_eq!(Blocking::default(), Blocking::Auto);
    }

    #[test]
    fn bucketing_roundtrips_strings() {
        for b in [Bucketing::Off, Bucketing::Degree] {
            assert_eq!(b.name().parse::<Bucketing>().unwrap(), b);
            assert_eq!(format!("{b}"), b.name());
        }
        assert!("size".parse::<Bucketing>().is_err());
        assert_eq!(Bucketing::default(), Bucketing::Degree);
    }

    #[test]
    fn plan_off_is_none() {
        let g = erdos_renyi(100, 300, 1);
        for t in [Traversal::InOrder, Traversal::Shuffled] {
            let p = Plan::for_graph(&g, Blocking::Off, Bucketing::Off, t);
            assert!(p.is_none());
            // Not even `GP_PREFETCH=1` turns the pipeline on without a plan.
            assert_eq!(p, Plan::none());
        }
    }

    #[test]
    fn plan_auto_derives_block_from_budget() {
        let g = erdos_renyi(1000, 4000, 2);
        for b in [Bucketing::Off, Bucketing::Degree] {
            assert_eq!(
                Plan::for_graph(&g, Blocking::Auto, b, Traversal::InOrder),
                Plan::for_graph(&g, Blocking::Kb(DEFAULT_BLOCK_KB), b, Traversal::InOrder)
            );
        }
        let p = Plan::for_graph(&g, Blocking::Kb(64), Bucketing::Degree, Traversal::InOrder);
        // avg arcs/vertex = 8 → 16 + 64 bytes/vertex → 64 KiB / 80 B = 819.
        assert_eq!(p.block_vertices, 64 * 1024 / 80);
        assert!(p.bucket);
        let p1 = Plan::for_graph(&g, Blocking::Vertices(1), Bucketing::Off, Traversal::Shuffled);
        assert_eq!(p1.block_vertices, 1);
        assert!(!p1.bucket);
    }

    const MIB: usize = 1 << 20;

    #[test]
    fn in_order_sweeps_prefetch_past_sixteen_mib() {
        // The kernel-hot R-MAT (14.9 MiB) and an R-MAT at scale 17 (16.8 MiB).
        assert!(!prefetch_gate(Traversal::InOrder, 15 * MIB, None));
        assert!(!prefetch_gate(Traversal::InOrder, PREFETCH_MIN_BYTES_IN_ORDER, None));
        assert!(prefetch_gate(Traversal::InOrder, 17 * MIB, None));
    }

    #[test]
    fn shuffled_sweeps_prefetch_past_six_mib() {
        // R-MAT scale 16 edge factor 4 (4.8 MiB) and the delaunay stand-in
        // (7.9 MiB), on either side of the gate.
        assert!(!prefetch_gate(Traversal::Shuffled, 5 * MIB, None));
        assert!(!prefetch_gate(Traversal::Shuffled, PREFETCH_MIN_BYTES_SHUFFLED, None));
        assert!(prefetch_gate(Traversal::Shuffled, 8 * MIB, None));
    }

    #[test]
    fn forced_prefetch_overrides_the_footprint() {
        for t in [Traversal::InOrder, Traversal::Shuffled] {
            assert!(prefetch_gate(t, 0, Some(true)));
            assert!(!prefetch_gate(t, usize::MAX, Some(false)));
        }
    }

    #[test]
    fn tally_census_matches_plan() {
        // Star: one hub of degree 40, forty leaves of degree 1.
        let g = star(41);
        let plan = Plan {
            block_vertices: 10,
            bucket: true,
            hub_min: 32,
            prefetch: true,
        };
        let t = tally(&plan, 41, |i| Some(i as u32), |v| g.degree(v) as u64);
        assert_eq!(t.blocks, 5); // ceil(41 / 10)
        assert_eq!(t.hub, 1);
        assert_eq!(t.low, 40);
        assert_eq!(t.mid, 0);
    }

    #[test]
    fn stream_preserves_order_around_a_hub() {
        // Degrees: vertex 0 is a hub (deg 19 > 16), the rest are leaves.
        let g = star(20);
        let plan = Plan {
            block_vertices: usize::MAX,
            bucket: true,
            hub_min: u32::MAX,
            prefetch: true,
        };
        let order = [1u32, 2, 0, 3, 4, 5];
        let seen = std::cell::RefCell::new(Vec::new());
        stream_range(
            &g,
            &plan,
            0..order.len(),
            &|i| Some(order[i]),
            &mut (),
            &|_: &mut (), v| seen.borrow_mut().push(v),
            None::<&fn(u32)>,
        );
        // Low and hub vertices alike reach `one` in sequence order, with
        // the prefetch pipeline running ahead.
        assert_eq!(seen.into_inner(), order);
    }

    #[test]
    fn units_single_out_hubs() {
        let g = star(50); // vertex 0 has degree 49
        let plan = Plan {
            block_vertices: usize::MAX,
            bucket: true,
            hub_min: 32,
            prefetch: true,
        };
        let units = build_units(&g, &plan, 50, 20, &|i| Some(i as u32));
        // Grain cuts at 20/40, hub 0 singled out of the first range.
        assert_eq!(units, vec![0..1, 1..20, 20..40, 40..50]);
    }

    #[test]
    fn run_sweep_visits_every_eligible_vertex_once() {
        let g = erdos_renyi(3000, 12000, 7);
        for parallel in [false, true] {
            for block in [usize::MAX, 4096, 257, 1] {
                let plan = Plan {
                    block_vertices: block,
                    bucket: true,
                    hub_min: 64,
                    prefetch: true,
                };
                let seen: Vec<AtomicU64> =
                    (0..3000).map(|_| AtomicU64::new(0)).collect();
                let bailed = run_sweep(
                    &g,
                    &plan,
                    3000,
                    parallel,
                    &NoopRecorder,
                    |i| (i % 3 != 0).then_some(i as u32),
                    || (),
                    |_, v| {
                        seen[v as usize].fetch_add(1, Ordering::Relaxed);
                    },
                    None::<fn(u32)>,
                );
                assert!(!bailed);
                for (i, s) in seen.iter().enumerate() {
                    let expect = u64::from(i % 3 != 0);
                    assert_eq!(
                        s.load(Ordering::Relaxed),
                        expect,
                        "vertex {i} block {block} parallel {parallel}"
                    );
                }
            }
        }
    }

    #[test]
    fn slice_blocked_covers_slice_and_bails_on_deadline() {
        let items: Vec<u32> = (0..(2 * DEADLINE_CHUNK as u32 + 7)).collect();
        let mut seen = Vec::new();
        assert!(!slice_blocked(&items, usize::MAX, &NoopRecorder, |sub| {
            seen.extend_from_slice(sub)
        }));
        assert_eq!(seen, items);

        let rec = DeadlineRecorder::new(NoopRecorder, Instant::now() - Duration::from_millis(1));
        let mut seen = Vec::new();
        assert!(slice_blocked(&items, usize::MAX, &rec, |sub| seen.extend_from_slice(sub)));
        assert_eq!(seen.len(), DEADLINE_CHUNK);
    }

    #[test]
    fn slice_blocked_covers_in_block_sized_pieces() {
        let items: Vec<u32> = (0..100).collect();
        let mut pieces: Vec<usize> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        assert!(!slice_blocked(&items, 32, &NoopRecorder, |sub| {
            pieces.push(sub.len());
            seen.extend_from_slice(sub);
        }));
        assert_eq!(pieces, vec![32, 32, 32, 4]);
        assert_eq!(seen, items);
    }
}
