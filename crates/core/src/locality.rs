//! The locality layer: how a kernel's per-vertex sweep is executed.
//!
//! Every sweep visits its ordered worklist exactly as the plain loop does;
//! what this module adds are the two scheduling mechanisms that measured
//! faster than that loop (docs/PERFORMANCE.md). Neither is a setting: each
//! follows from a property of the kernel or the graph.
//!
//! * **Hub units.** On a real pool, every hub vertex (degree at or above
//!   [`DegreeHistogram::hub_threshold`]) is its own scheduling unit, so a
//!   worker never inherits a hub buried in a thousand-vertex chunk.
//!   Sequential and inline-pool sweeps have no units.
//! * **The shuffled-sweep prefetch pipeline.** Label propagation visits a
//!   fresh permutation every sweep, so each CSR row and each label read is
//!   a random access. Past [`PREFETCH_MIN_BYTES_SHUFFLED`] a two-stage
//!   software-prefetch pipeline runs ahead of its visit point: the CSR row
//!   at [`PREFETCH_ROW_AHEAD`], per-neighbor state via the kernel's `warm`
//!   hook at [`PREFETCH_STATE_AHEAD`]. In-order sweeps (coloring and the
//!   Louvain move phases) stream their rows and never prefetch: the
//!   pipeline slowed them at every footprint measured.
//!
//! The third mechanism that measured positive, the scalar coloring
//! kernel's bitmask for vertices of degree ≤ 16, is a per-vertex kernel
//! shape and lives with it (`coloring::greedy`).
//!
//! ## The bit-identity contract
//!
//! * Sequential (and inline-pool) execution hands each eligible vertex to
//!   the kernel's per-vertex path against live state, in sweep order, so
//!   it is the plain loop. Prefetch has no memory effects, so the pipeline
//!   cannot perturb an output bit (`crates/core/tests/lp_pins.rs` pins
//!   label propagation on both sides of its gate).
//! * Parallel execution on a real pool fans units (bounded ranges plus hub
//!   singletons) across workers — reordering that the racy speculative
//!   contract already permits (see `docs/PARALLELISM.md`), and that
//!   `GP_PAR_SEQ=1` collapses back to the sequential schedule.

use crate::frontier::chunk_len;
use gp_graph::csr::Csr;
use gp_graph::stats::DegreeHistogram;
use gp_metrics::telemetry::Recorder;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// The order in which a kernel's sweeps visit their vertices. It is a
/// property of the kernel, not a setting: only shuffled sweeps prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// Ascending vertex order (coloring, PLM/MPLM/ONPL): consecutive rows
    /// are adjacent in memory, and the sweep runs without a pipeline.
    InOrder,
    /// A fresh pseudorandom permutation every sweep (MPLP/ONLP): every CSR
    /// row and every state read is a random access.
    Shuffled,
}

/// The prefetch gate: whether a sweep of `traversal` over a graph of
/// estimated `footprint` bytes runs the two-stage pipeline.
fn prefetch_gate(traversal: Traversal, footprint: usize) -> bool {
    traversal == Traversal::Shuffled && footprint > PREFETCH_MIN_BYTES_SHUFFLED
}

/// The per-run locality plan, resolved once per kernel run (per level, for
/// multilevel Louvain) from the graph and the kernel's [`Traversal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Degree at or above which a vertex is scheduled as its own parallel
    /// unit; `u32::MAX` means the graph has no hubs worth singling out.
    pub hub_min: u32,
    /// Run the two-stage software-prefetch pipeline ahead of the sweep's
    /// visit point. Prefetch has no memory effects, so this flag never
    /// changes outputs.
    pub prefetch: bool,
}

impl Plan {
    /// Resolves the plan for a kernel whose sweeps visit `g` in `traversal`
    /// order. The hub threshold is a pure function of the graph's degree
    /// histogram, so it is identical across thread counts and sweep modes.
    pub fn for_graph(g: &Csr, traversal: Traversal) -> Plan {
        let footprint = 16 * g.num_vertices() + 8 * g.num_arcs();
        Plan {
            hub_min: DegreeHistogram::build(g).hub_threshold(),
            prefetch: prefetch_gate(traversal, footprint),
        }
    }
}

/// Streams `range` in ascending position order, handing every eligible
/// vertex to `one` — exactly the plain sweep.
///
/// When `plan.prefetch` is set, a two-stage software-prefetch pipeline runs
/// ahead of the visit point: the CSR row of the vertex
/// [`PREFETCH_ROW_AHEAD`] positions out is pulled toward L1, and the
/// kernel's `warm` hook fires for the vertex [`PREFETCH_STATE_AHEAD`]
/// positions out — it reads the (now resident) row and prefetches the
/// per-neighbor state words the kernel is about to gather. Prefetching has
/// no memory effects, so outputs are untouched.
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

/// Builds the parallel unit list: `grain`-bounded position ranges, split so
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
    let cut_hubs = plan.hub_min != u32::MAX;
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

/// The parallel grain: the sequential chunk length, capped so a real pool
/// always sees several units per worker. (A recorder without deadline
/// checks sweeps in one full-length chunk, which would starve every worker
/// but one.)
fn par_grain(grain: usize, len: usize, threads: usize) -> usize {
    let target = len.div_ceil(4 * threads.max(1)).max(256);
    grain.min(target).max(1)
}

/// Runs one sweep over `len` positions through the locality plan, the
/// replacement for [`crate::frontier::run_chunked`] in every per-vertex
/// sweep:
///
/// * `resolve(i)` maps position `i` to its eligible vertex (`None` = skip
///   in place — the `full`-sweep filter);
/// * `one(buf, v)` is the kernel's per-vertex path;
/// * `warm(v)` (optional) prefetches `v`'s per-neighbor state ahead of the
///   visit point when the plan prefetches.
///
/// Returns `true` if a deadline bailed the sweep early. Execution shapes
/// mirror `run_chunked`: sequential and inline pools stream in order,
/// polling a deadline-checking recorder every
/// [`crate::frontier::DEADLINE_CHUNK`] positions; real pools fan units
/// across workers with caller-only deadline polling.
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
    let grain = chunk_len::<R>(len);
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

/// Calls `f` on consecutive subslices of `items` — the whole slice, or
/// [`crate::frontier::DEADLINE_CHUNK`]-sized pieces under a
/// deadline-checking recorder — polling the deadline between them. Returns
/// `true` if it bailed before covering the whole slice.
///
/// The loop is deliberately sequential: `f` is `FnMut` and the call sites
/// mutate captured state (the coloring round loop's `newconf.extend(..)`).
/// Worker fan-out happens one level down, in the sweeps the kernels run
/// over each subslice, so deadline polls stay exact.
pub(crate) fn slice_chunked<R: Recorder, T>(items: &[T], rec: &R, mut f: impl FnMut(&[T])) -> bool {
    let chunk = chunk_len::<R>(items.len());
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
    use crate::frontier::DEADLINE_CHUNK;
    use gp_graph::generators::{erdos_renyi, star};
    use gp_metrics::telemetry::{DeadlineRecorder, NoopRecorder};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    const MIB: usize = 1 << 20;

    #[test]
    fn only_shuffled_sweeps_prefetch_past_six_mib() {
        // R-MAT scale 16 edge factor 4 (4.8 MiB) and the delaunay stand-in
        // (7.9 MiB), on either side of the gate.
        assert!(!prefetch_gate(Traversal::Shuffled, 5 * MIB));
        assert!(!prefetch_gate(
            Traversal::Shuffled,
            PREFETCH_MIN_BYTES_SHUFFLED
        ));
        assert!(prefetch_gate(Traversal::Shuffled, 8 * MIB));
        // In-order sweeps never do, at any footprint.
        assert!(!prefetch_gate(Traversal::InOrder, usize::MAX));
    }

    #[test]
    fn plan_takes_the_hub_cut_from_the_degree_histogram() {
        let g = star(2048); // one vertex of degree 2047
        let p = Plan::for_graph(&g, Traversal::InOrder);
        assert_eq!(p.hub_min, DegreeHistogram::build(&g).hub_threshold());
        assert_ne!(p.hub_min, u32::MAX);
        assert!(!p.prefetch);
    }

    #[test]
    fn stream_preserves_order_around_a_hub() {
        // Degrees: vertex 0 is a hub (deg 19 > 16), the rest are leaves.
        let g = star(20);
        let plan = Plan {
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
            hub_min: 32,
            prefetch: false,
        };
        let units = build_units(&g, &plan, 50, 20, &|i| Some(i as u32));
        // Grain cuts at 20/40, hub 0 singled out of the first range.
        assert_eq!(units, vec![0..1, 1..20, 20..40, 40..50]);
    }

    #[test]
    fn run_sweep_visits_every_eligible_vertex_once() {
        let g = erdos_renyi(3000, 12000, 7);
        for parallel in [false, true] {
            for prefetch in [false, true] {
                let plan = Plan {
                    hub_min: 64,
                    prefetch,
                };
                let seen: Vec<AtomicU64> = (0..3000).map(|_| AtomicU64::new(0)).collect();
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
                    Some(|_: u32| {}),
                );
                assert!(!bailed);
                for (i, s) in seen.iter().enumerate() {
                    let expect = u64::from(i % 3 != 0);
                    assert_eq!(
                        s.load(Ordering::Relaxed),
                        expect,
                        "vertex {i} prefetch {prefetch} parallel {parallel}"
                    );
                }
            }
        }
    }

    #[test]
    fn slice_chunked_covers_slice_and_bails_on_deadline() {
        let items: Vec<u32> = (0..(2 * DEADLINE_CHUNK as u32 + 7)).collect();
        let mut seen = Vec::new();
        assert!(!slice_chunked(&items, &NoopRecorder, |sub| {
            seen.extend_from_slice(sub)
        }));
        assert_eq!(seen, items);

        let rec = DeadlineRecorder::new(NoopRecorder, Instant::now() - Duration::from_millis(1));
        let mut seen = Vec::new();
        assert!(slice_chunked(&items, &rec, |sub| seen.extend_from_slice(sub)));
        assert_eq!(seen.len(), DEADLINE_CHUNK);
    }
}
