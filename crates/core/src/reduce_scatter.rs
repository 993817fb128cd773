//! The reduce-scatter primitive (Section 4 of the paper).
//!
//! `acc[idx[lane]] += val[lane]` for every selected lane — with correct
//! handling of *duplicate indices*, which a plain gather/add/scatter
//! silently drops (scatter keeps only the highest lane). The paper gives two
//! AVX-512 formulations and this module implements both, plus the iterative
//! refinements it discusses:
//!
//! * **Conflict detection** ([`Strategy::ConflictDetect`],
//!   [`Strategy::ConflictIterative`]): `vpconflictd` on the index vector
//!   marks each lane with its earlier-lane duplicates; the conflict-free
//!   lanes are processed with gather+add+scatter. The one-shot variant
//!   finishes the leftover lanes scalar (the paper's practical choice); the
//!   iterative variant keeps re-running conflict-free rounds.
//! * **In-vector reduction** ([`Strategy::InVectorReduce`]): all lanes
//!   matching the first index are summed with `_mm512_mask_reduce_add_ps`
//!   and accumulated at once, leftover lanes scalar. Preferred when most
//!   lanes share one community (late in community-detection convergence).
//! * [`Strategy::Scalar`]: the pure-scalar reference the others are tested
//!   against.
//!
//! One `#[inline(always)]` 16-lane step runs all five formulations. Every
//! vector kernel that sums edge weights per group runs it through
//! `accumulate`: ONPL Louvain (groups are communities), ONLP label
//! propagation (labels), partition refinement (parts), the SLPA listeners
//! (spoken labels) and [`crate::neighborhood::NeighborhoodAggregator`].
//! There it accumulates into an [`AffinityBuf`], whose first-touch hook
//! keeps the duplicate-free list of touched groups that selection scans
//! and reset clears. The standalone [`reduce_scatter`] runs the same step
//! on a bare `[f32]`, where the hook compiles away.

use gp_graph::csr::Csr;
use gp_simd::backend::Simd;
use gp_simd::counters::{record, OpClass};
use gp_simd::vector::{Mask16, LANES};
use std::sync::atomic::AtomicU32;

/// Which reduce-scatter formulation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// One vector round on conflict-free lanes, scalar remainder
    /// (the paper's default for ONPL).
    #[default]
    ConflictDetect,
    /// Vector rounds until every lane is processed.
    ConflictIterative,
    /// Masked reduction for the first index, scalar remainder.
    InVectorReduce,
    /// Per-vector choice between the two formulations, driven by the
    /// observed duplicate density: conflict detection while most lanes are
    /// independent, in-vector reduction once they collapse onto few groups —
    /// the paper's "ONPL uses either one of them, depending on
    /// circumstances".
    Adaptive,
    /// Scalar loop over lanes (reference semantics).
    Scalar,
}

impl Strategy {
    /// All strategies, for tests and ablations.
    pub const ALL: [Strategy; 5] = [
        Strategy::ConflictDetect,
        Strategy::ConflictIterative,
        Strategy::InVectorReduce,
        Strategy::Adaptive,
        Strategy::Scalar,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::ConflictDetect => "conflict-detect",
            Strategy::ConflictIterative => "conflict-iterative",
            Strategy::InVectorReduce => "in-vector-reduce",
            Strategy::Adaptive => "adaptive",
            Strategy::Scalar => "scalar",
        }
    }
}

/// Preallocated per-thread affinity accumulator.
///
/// `aff[c]` holds the weight accumulated into group `c` for the vertex
/// being processed; `touched` lists each group with non-zero weight once,
/// so reset costs O(deg) instead of O(n) and selection scans only real
/// candidates. This is MPLM's memory fix ("preallocates memory per
/// thread"), shared by every scalar and vector aggregation kernel.
pub struct AffinityBuf {
    pub(crate) aff: Vec<f32>,
    pub(crate) touched: Vec<u32>,
}

impl AffinityBuf {
    /// Allocates an accumulator for group ids `< n`.
    pub fn new(n: usize) -> Self {
        AffinityBuf {
            aff: vec![0.0; n],
            touched: Vec::with_capacity(64),
        }
    }

    /// `aff[c] += w`, listing `c` in `touched` on its first touch
    /// (`aff[c] == 0` beforehand).
    #[inline(always)]
    pub fn add(&mut self, c: u32, w: f32) {
        let slot = &mut self.aff[c as usize];
        if *slot == 0.0 {
            self.touched.push(c);
        }
        *slot += w;
    }

    /// Resets only the touched entries.
    #[inline]
    pub fn reset(&mut self) {
        for &c in &self.touched {
            self.aff[c as usize] = 0.0;
        }
        self.touched.clear();
    }
}

/// What a reduce-scatter step accumulates into: dense `f32` slots, plus a
/// hook that sees the first touch of each slot.
pub(crate) trait Accumulator {
    /// Whether first touches are tracked; `false` compiles the hook away.
    const TRACKS_TOUCHES: bool;
    /// The slots the vector paths gather from and scatter to.
    fn slots(&mut self) -> &mut [f32];
    /// Scalar `slots[c] += w`, noting a first touch.
    fn add(&mut self, c: u32, w: f32);
    /// Notes that the vector path found slot `c` still zero.
    fn touch(&mut self, c: u32);
}

impl Accumulator for [f32] {
    const TRACKS_TOUCHES: bool = false;

    #[inline(always)]
    fn slots(&mut self) -> &mut [f32] {
        self
    }

    #[inline(always)]
    fn add(&mut self, c: u32, w: f32) {
        self[c as usize] += w;
    }

    #[inline(always)]
    fn touch(&mut self, _: u32) {}
}

impl Accumulator for AffinityBuf {
    const TRACKS_TOUCHES: bool = true;

    #[inline(always)]
    fn slots(&mut self) -> &mut [f32] {
        &mut self.aff
    }

    #[inline(always)]
    fn add(&mut self, c: u32, w: f32) {
        AffinityBuf::add(self, c, w)
    }

    #[inline(always)]
    fn touch(&mut self, c: u32) {
        self.touched.push(c);
    }
}

/// Views ids as gatherable `i32`s. Vertex, community, label, part and
/// color ids all stay below 2^31.
#[inline(always)]
pub(crate) fn as_i32(ids: &[u32]) -> &[i32] {
    // SAFETY: u32 and i32 have identical size and alignment.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast(), ids.len()) }
}

/// Views a shared atomic id array (colors, communities, labels) as
/// gatherable `i32`s.
///
/// The speculative kernels read neighbor ids while other threads may be
/// writing them, and none depends on which value a racy read returns:
/// coloring's `DetectConflicts` catches any stale color, and an optimistic
/// Louvain or label-propagation move on a stale id is one the next sweep
/// revisits. This is the data race the original Kokkos implementation
/// relies on; it is confined to this cast.
#[inline(always)]
pub(crate) fn atomic_as_i32(ids: &[AtomicU32]) -> &[i32] {
    // SAFETY: AtomicU32 is repr(transparent) over u32, so the layout is
    // i32's; see the doc comment for the benign-race argument.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast(), ids.len()) }
}

/// Performs `acc[idx[lane]] += val[lane]` for every lane selected in `mask`.
///
/// ```
/// use gp_core::reduce_scatter::{reduce_scatter, Strategy};
/// use gp_simd::backend::{Emulated, Simd};
/// use gp_simd::vector::Mask16;
///
/// let s = Emulated;
/// let mut acc = vec![0.0f32; 4];
/// let idx = s.from_array_i32([2; 16]); // all 16 lanes hit slot 2
/// let val = s.splat_f32(1.0);
/// unsafe { reduce_scatter(&s, Strategy::ConflictDetect, &mut acc, idx, val, Mask16::ALL) };
/// assert_eq!(acc[2], 16.0); // a plain scatter would have stored 1.0
/// ```
///
/// # Safety
/// Every selected lane's index must satisfy `0 <= idx[lane] < acc.len()`.
/// (The scalar paths are bounds-checked; the vector paths inherit the
/// gather/scatter contract.)
#[inline(always)]
pub unsafe fn reduce_scatter<S: Simd>(
    s: &S,
    strategy: Strategy,
    acc: &mut [f32],
    idx: S::I32,
    val: S::F32,
    mask: Mask16,
) {
    // SAFETY: the caller's contract is the step's.
    s.vectorize(|| unsafe { step(s, strategy, &Zeros::new(s), acc, idx, val, mask) })
}

/// Accumulates `buf.aff[groups[v]] += w(u, v)` over all neighbors `v != u`,
/// 16 neighbors per step: load ids and weights, drop self-loop lanes,
/// gather group ids, reduce-scatter. `groups` is the gatherable group-id
/// array (communities, labels or parts); `buf.touched` gains each newly
/// touched group once.
#[inline(always)]
pub(crate) fn accumulate<S: Simd>(
    s: &S,
    g: &Csr,
    u: u32,
    groups: &[i32],
    strategy: Strategy,
    buf: &mut AffinityBuf,
) {
    let (neighbors, weights) = (as_i32(g.neighbors(u)), g.weights_of(u));
    let self_v = s.splat_i32(u as i32);
    let zero = Zeros::new(s);
    for off in (0..neighbors.len()).step_by(LANES) {
        let (nbrs, mask) = s.load_tail_i32(&neighbors[off..]);
        let (wts, _) = s.load_tail_f32(&weights[off..]);
        // Self-loops are excluded from ω(u, ·∖{u}).
        let mask = mask.and(s.cmpneq_i32(nbrs, self_v));
        // SAFETY: neighbor ids index `groups` (CSR invariant: ids < |V|),
        // and every caller sizes `buf` to cover the group ids.
        unsafe {
            let zs = s.gather_i32(groups, nbrs, mask, zero.i);
            step(s, strategy, &zero, buf, zs, wts, mask);
        }
    }
}

/// The zero vectors a step compares and gathers against, splatted once per
/// call rather than once per 16 lanes.
struct Zeros<S: Simd> {
    i: S::I32,
    f: S::F32,
}

impl<S: Simd> Zeros<S> {
    #[inline(always)]
    fn new(s: &S) -> Self {
        Zeros {
            i: s.splat_i32(0),
            f: s.splat_f32(0.0),
        }
    }
}

/// One 16-lane reduce-scatter, `acc[idx[lane]] += val[lane]` for every
/// lane in `mask`, in the formulation `strategy` names.
///
/// # Safety
/// Every selected lane's index must be `< acc.slots().len()`.
#[inline(always)]
unsafe fn step<S: Simd, A: Accumulator + ?Sized>(
    s: &S,
    strategy: Strategy,
    zero: &Zeros<S>,
    acc: &mut A,
    idx: S::I32,
    val: S::F32,
    mut mask: Mask16,
) {
    let lanes = s.to_array_i32(idx);
    match strategy {
        Strategy::Scalar => scalar_lanes(s, acc, &lanes, val, mask),
        Strategy::InVectorReduce => in_vector_reduce(s, acc, idx, &lanes, val, mask),
        Strategy::ConflictDetect | Strategy::ConflictIterative | Strategy::Adaptive => {
            // Figure 1. A loop, not recursion: `#[inline(always)]` cannot
            // inline a recursive call, and an out-of-line round would leave
            // the vectorized frame.
            loop {
                // Lanes with no earlier duplicate among the selected lanes
                // (conflict bits of unselected lanes are masked out).
                let conflicts = s.and_i32(s.conflict_i32(idx), s.splat_i32(mask.0 as i32));
                let free = s.cmpeq_i32(conflicts, zero.i).and(mask);
                if strategy == Strategy::Adaptive && free.count() * 2 < mask.count() {
                    // Mostly duplicates: the conflict round would leave
                    // nearly every lane to the scalar tail.
                    return in_vector_reduce(s, acc, idx, &lanes, val, mask);
                }
                // SAFETY: the caller guarantees every selected index is in
                // bounds, and `free` only selects selected lanes.
                let old = unsafe { s.gather_f32(acc.slots(), idx, free, zero.f) };
                if A::TRACKS_TOUCHES {
                    for lane in s.cmpeq_f32(old, zero.f).and(free).iter_set() {
                        acc.touch(lanes[lane] as u32);
                    }
                }
                // SAFETY: as for the gather.
                unsafe { s.scatter_f32(acc.slots(), idx, s.add_f32(old, val), free) };
                mask = mask.and_not(free);
                // Each round frees at least the lowest pending lane, so the
                // iterative formulation ends within 16 rounds.
                if strategy != Strategy::ConflictIterative || mask.is_empty() {
                    break;
                }
            }
            scalar_lanes(s, acc, &lanes, val, mask);
        }
    }
}

/// Figure 2: sums every lane whose index equals the first selected lane's
/// with one masked reduce-add, then finishes the other lanes scalar.
#[inline(always)]
fn in_vector_reduce<S: Simd, A: Accumulator + ?Sized>(
    s: &S,
    acc: &mut A,
    idx: S::I32,
    lanes: &[i32; LANES],
    val: S::F32,
    mask: Mask16,
) {
    let Some(first) = mask.first_set() else {
        return;
    };
    let pivot = lanes[first];
    let same = s.mask_cmpeq_i32(mask, idx, s.splat_i32(pivot));
    acc.add(pivot as u32, s.mask_reduce_add_f32(same, val));
    scalar_lanes(s, acc, lanes, val, mask.and_not(same));
}

/// Bounds-checked lane-by-lane accumulation: the lanes a vector
/// formulation leaves over, or all of them under [`Strategy::Scalar`].
#[inline(always)]
fn scalar_lanes<S: Simd, A: Accumulator + ?Sized>(
    s: &S,
    acc: &mut A,
    lanes: &[i32; LANES],
    val: S::F32,
    mask: Mask16,
) {
    if mask.is_empty() {
        return;
    }
    let vals = s.to_array_f32(val);
    for lane in mask.iter_set() {
        acc.add(lanes[lane] as u32, vals[lane]);
    }
    if S::IS_COUNTED {
        // Genuine scalar work: charge it so the cost model sees the
        // strategies' true trade-off, first-touch test included.
        let k = mask.count() as u64;
        record(OpClass::ScalarRandLoad, k);
        record(OpClass::ScalarAlu, k);
        record(OpClass::ScalarStore, k);
        if A::TRACKS_TOUCHES {
            record(OpClass::ScalarBranch, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::builder::GraphBuilder;
    use gp_graph::Edge;
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    fn run(strategy: Strategy, idx: [i32; LANES], val: [f32; LANES], mask: Mask16) -> Vec<f32> {
        let mut acc = vec![0f32; 32];
        unsafe {
            reduce_scatter(
                &S,
                strategy,
                &mut acc,
                S.from_array_i32(idx),
                S.from_array_f32(val),
                mask,
            )
        };
        acc
    }

    fn reference(idx: [i32; LANES], val: [f32; LANES], mask: Mask16) -> Vec<f32> {
        let mut acc = vec![0f32; 32];
        for lane in mask.iter_set() {
            acc[idx[lane] as usize] += val[lane];
        }
        acc
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn all_distinct_indices() {
        let idx: [i32; LANES] = std::array::from_fn(|i| i as i32);
        let val = [1.5f32; LANES];
        for strat in Strategy::ALL {
            assert_close(&run(strat, idx, val, Mask16::ALL), &reference(idx, val, Mask16::ALL));
        }
    }

    #[test]
    fn all_identical_indices() {
        let idx = [7i32; LANES];
        let val: [f32; LANES] = std::array::from_fn(|i| i as f32);
        for strat in Strategy::ALL {
            let acc = run(strat, idx, val, Mask16::ALL);
            assert!((acc[7] - 120.0).abs() < 1e-4, "{:?}: {}", strat, acc[7]);
        }
    }

    #[test]
    fn mixed_duplicates() {
        let idx = [0, 1, 0, 2, 1, 0, 3, 3, 4, 4, 4, 4, 5, 6, 7, 0];
        let val: [f32; LANES] = std::array::from_fn(|i| (i + 1) as f32);
        for strat in Strategy::ALL {
            assert_close(&run(strat, idx, val, Mask16::ALL), &reference(idx, val, Mask16::ALL));
        }
    }

    #[test]
    fn partial_masks() {
        let idx = [3, 3, 3, 9, 9, 1, 2, 3, 4, 5, 3, 3, 9, 1, 0, 0];
        let val = [2.0f32; LANES];
        for strat in Strategy::ALL {
            for mask in [Mask16::NONE, Mask16(0b1010_1010_1010_1010), Mask16::first(5)] {
                assert_close(&run(strat, idx, val, mask), &reference(idx, val, mask));
            }
        }
    }

    #[test]
    fn empty_mask_is_noop() {
        let idx = [0i32; LANES];
        let val = [1.0f32; LANES];
        for strat in Strategy::ALL {
            let acc = run(strat, idx, val, Mask16::NONE);
            assert!(acc.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn accumulates_into_existing_values() {
        let mut acc = vec![10.0f32; 8];
        let idx = [2i32; LANES];
        let val = [1.0f32; LANES];
        unsafe {
            reduce_scatter(
                &S,
                Strategy::ConflictDetect,
                &mut acc,
                S.from_array_i32(idx),
                S.from_array_f32(val),
                Mask16::first(4),
            )
        };
        assert!((acc[2] - 14.0).abs() < 1e-5);
        assert_eq!(acc[0], 10.0);
    }

    /// Accumulates vertex 0 of a star whose leaf `i + 1` has group
    /// `leaf_groups[i]` and arc weight `weights[i]`.
    fn accumulate_star(
        strategy: Strategy,
        leaf_groups: &[i32],
        weights: &[f32],
        n: usize,
    ) -> AffinityBuf {
        let arcs = weights.iter().enumerate().map(|(i, &w)| Edge::new(0, i as u32 + 1, w));
        let g = GraphBuilder::new(weights.len() + 1).add_edges(arcs).build();
        let groups: Vec<i32> = [0].iter().chain(leaf_groups).copied().collect();
        let mut buf = AffinityBuf::new(n);
        accumulate(&S, &g, 0, &groups, strategy, &mut buf);
        buf
    }

    #[test]
    fn accumulate_matches_scalar_reference() {
        let groups = [0, 1, 2, 0, 1, 2, 3, 3, 0, 1, 4, 4, 4, 2, 0, 1, 0, 3, 2, 1];
        let weights: Vec<f32> = (0..20).map(|i| (i + 1) as f32).collect();
        let mut expect = [0f32; 8];
        for (&c, &w) in groups.iter().zip(&weights) {
            expect[c as usize] += w;
        }
        for strat in Strategy::ALL {
            let buf = accumulate_star(strat, &groups, &weights, 8);
            assert_close(&buf.aff, &expect);
        }
    }

    #[test]
    fn accumulate_touches_each_group_once() {
        // 40 neighbors mapping onto 3 groups must yield exactly 3 touched
        // entries, in first-touch order: selection scans this list.
        let groups: Vec<i32> = (0..40).map(|i| i % 3).collect();
        for strat in Strategy::ALL {
            let buf = accumulate_star(strat, &groups, &[1.0; 40], 4);
            assert_eq!(buf.touched, vec![0, 1, 2], "{strat:?}");
        }
    }

    #[test]
    fn accumulate_skips_the_self_loop() {
        let g = GraphBuilder::new(3)
            .add_edges([Edge::new(1, 0, 1.0), Edge::new(1, 1, 1.0), Edge::new(1, 2, 1.0)])
            .build();
        for strat in Strategy::ALL {
            let mut buf = AffinityBuf::new(2);
            accumulate(&S, &g, 1, &[0, 0, 0], strat, &mut buf);
            assert_eq!(buf.aff[0], 2.0, "{strat:?}");
        }
    }

    #[test]
    fn accumulate_on_isolated_vertex_touches_nothing() {
        let mut buf = AffinityBuf::new(2);
        accumulate(&S, &Csr::empty(1), 0, &[0], Strategy::ConflictDetect, &mut buf);
        assert!(buf.touched.is_empty());
    }

    #[test]
    fn affinity_buf_add_lists_first_touches_and_reset_clears_them() {
        let mut buf = AffinityBuf::new(4);
        for (c, w) in [(2, 1.0), (0, 0.5), (2, 2.0)] {
            buf.add(c, w);
        }
        assert_eq!(buf.touched, vec![2, 0]);
        assert_eq!(buf.aff, vec![0.5, 0.0, 3.0, 0.0]);
        buf.reset();
        assert!(buf.touched.is_empty());
        assert!(buf.aff.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn strategy_names_unique() {
        let names: std::collections::HashSet<_> =
            Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Strategy::ALL.len());
    }
}
