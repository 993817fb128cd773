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

use gp_simd::backend::{conflict_free_mask, Simd};
use gp_simd::vector::Mask16;

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
/// (The scalar remainder paths are bounds-checked; the vector paths inherit
/// the gather/scatter contract.)
#[inline(always)]
pub unsafe fn reduce_scatter<S: Simd>(
    s: &S,
    strategy: Strategy,
    acc: &mut [f32],
    idx: S::I32,
    val: S::F32,
    mask: Mask16,
) {
    s.vectorize(|| match strategy {
        Strategy::ConflictDetect => unsafe { conflict_detect(s, acc, idx, val, mask, false) },
        Strategy::ConflictIterative => unsafe { conflict_detect(s, acc, idx, val, mask, true) },
        Strategy::InVectorReduce => unsafe { in_vector_reduce(s, acc, idx, val, mask) },
        Strategy::Adaptive => unsafe { adaptive(s, acc, idx, val, mask) },
        Strategy::Scalar => scalar_remainder(s, acc, idx, val, mask),
    })
}

/// Adaptive formulation: run the conflict test once; if at least half the
/// selected lanes are duplicate-free, proceed with the conflict-detection
/// round, otherwise fall back to the in-vector reduction (the lanes have
/// mostly collapsed onto one group).
#[inline(always)]
unsafe fn adaptive<S: Simd>(s: &S, acc: &mut [f32], idx: S::I32, val: S::F32, mask: Mask16) {
    if mask.is_empty() {
        return;
    }
    let conflicts = s.conflict_i32(idx);
    let masked_conflicts = s.and_i32(conflicts, s.splat_i32(mask.0 as i32));
    let free = conflict_free_mask(s, masked_conflicts).and(mask);
    if free.count() * 2 >= mask.count() {
        // Mostly independent lanes: one gather/add/scatter round.
        let cur = unsafe { s.gather_f32(acc, idx, free, s.splat_f32(0.0)) };
        let updated = s.add_f32(cur, val);
        unsafe { s.scatter_f32(acc, idx, updated, free) };
        scalar_remainder(s, acc, idx, val, mask.and_not(free));
    } else {
        unsafe { in_vector_reduce(s, acc, idx, val, mask) };
    }
}

/// Conflict-detection formulation (Figure 1).
///
/// `iterative = false` runs one vector round and finishes scalar;
/// `iterative = true` loops vector rounds. In the iterative case, a lane
/// becomes safe once all its earlier duplicates have been processed: its
/// conflict bits, restricted to still-pending lanes, are empty.
#[inline(always)]
unsafe fn conflict_detect<S: Simd>(
    s: &S,
    acc: &mut [f32],
    idx: S::I32,
    val: S::F32,
    mut mask: Mask16,
    iterative: bool,
) {
    // A loop, not recursion: `#[inline(always)]` cannot inline a recursive
    // call, and an out-of-line round would leave the vectorized frame.
    while !mask.is_empty() {
        let conflicts = s.conflict_i32(idx);
        // Mask M: selected lanes with no earlier-lane duplicate among the
        // *selected* lanes. (conflict bits of unselected lanes are
        // irrelevant — and-mask them out.)
        let pending_bits = s.splat_i32(mask.0 as i32);
        let masked_conflicts = s.and_i32(conflicts, pending_bits);
        let free = conflict_free_mask(s, masked_conflicts).and(mask);

        // Vector round on the conflict-free set: gather, add, scatter.
        let cur = unsafe { s.gather_f32(acc, idx, free, s.splat_f32(0.0)) };
        let updated = s.add_f32(cur, val);
        unsafe { s.scatter_f32(acc, idx, updated, free) };

        mask = mask.and_not(free);
        if !iterative {
            scalar_remainder(s, acc, idx, val, mask);
            return;
        }
        // Lanes processed so far can no longer conflict; go again on the
        // remainder. Each round clears at least one lane (the lowest
        // remaining duplicate becomes free), so this ends in <= 16 rounds.
    }
}

/// In-vector-reduction formulation (Figure 2): reduce all lanes equal to the
/// first pending index with one masked reduce-add, then finish scalar.
#[inline(always)]
unsafe fn in_vector_reduce<S: Simd>(
    s: &S,
    acc: &mut [f32],
    idx: S::I32,
    val: S::F32,
    mask: Mask16,
) {
    let Some(first_lane) = mask.first_set() else {
        return;
    };
    let pivot = s.extract_i32(idx, first_lane);
    let same = s.mask_cmpeq_i32(mask, idx, s.splat_i32(pivot));
    let sum = s.mask_reduce_add_f32(same, val);
    acc[pivot as usize] += sum;
    let remaining = mask.and_not(same);
    scalar_remainder(s, acc, idx, val, remaining);
}

/// Scalar remainder: bounds-checked lane-by-lane accumulation.
#[inline(always)]
fn scalar_remainder<S: Simd>(s: &S, acc: &mut [f32], idx: S::I32, val: S::F32, mask: Mask16) {
    if mask.is_empty() {
        return;
    }
    let idx_arr = s.to_array_i32(idx);
    let val_arr = s.to_array_f32(val);
    for lane in mask.iter_set() {
        acc[idx_arr[lane] as usize] += val_arr[lane];
    }
    if S::IS_COUNTED {
        // The leftover lanes are genuine scalar work; charge them so the
        // cost model sees the strategies' true trade-off.
        let k = mask.count() as u64;
        use gp_simd::counters::{record, OpClass};
        record(OpClass::ScalarRandLoad, k);
        record(OpClass::ScalarAlu, k);
        record(OpClass::ScalarStore, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_simd::backend::Emulated;
    use gp_simd::vector::LANES;

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

    #[test]
    fn strategy_names_unique() {
        let names: std::collections::HashSet<_> =
            Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Strategy::ALL.len());
    }
}
