//! The `Simd` trait: the single seam every kernel is written against.

pub mod avx512;
pub mod scalar;

use crate::vector::{Mask16, LANES};

pub use avx512::Avx512;
pub use scalar::Emulated;

/// 16 lanes of 32-bit operations, modeled on the subset of AVX-512F +
/// AVX-512CD the paper's kernels use.
///
/// Implementations carry no data (they are zero-sized tokens); holding a
/// value of the type is proof the backend is usable on this CPU, which is
/// why [`avx512::Avx512::new`] runs feature detection and every intrinsic
/// call inside the backend is sound.
///
/// # Semantics shared by all backends
///
/// * Masked operations leave unselected lanes at the value of the
///   pass-through argument (or zero for `maskz`-style ops), matching the
///   Intel intrinsics.
/// * [`Simd::conflict_i32`] computes, for each lane `i`, a bit vector of the
///   lanes `j < i` holding an equal value — the exact
///   `_mm512_conflict_epi32` definition.
/// * Gathers and scatters index 32-bit elements (scale = 4) off a slice
///   base. They are `unsafe`: the caller must guarantee every *selected*
///   lane's index is within the slice. The graph kernels obtain this from
///   the CSR invariant (all neighbor ids < |V|).
/// * Scatter with duplicate indices stores the highest-numbered lane, like
///   the hardware ("if two lanes write the same location the last one
///   wins") — the very hazard the paper's reduce-scatter exists to solve.
pub trait Simd: Copy + Send + Sync + 'static {
    /// Register of 16 × i32 lanes.
    type I32: Copy + std::fmt::Debug + Send + Sync;
    /// Register of 16 × f32 lanes.
    type F32: Copy + std::fmt::Debug + Send + Sync;

    /// Human-readable backend name for reports.
    const NAME: &'static str;
    /// True when the backend executes real vector instructions.
    const IS_VECTOR: bool;
    /// True when the backend records op counts ([`crate::counted::Counted`]).
    /// Kernels use this compile-time flag to also record their *scalar*
    /// remainder work during modeled runs, at zero cost in timed runs.
    const IS_COUNTED: bool = false;

    // ---- code generation -------------------------------------------------

    /// Runs `f` with this backend's instructions enabled for code
    /// generation, and returns its value.
    ///
    /// The workspace builds for baseline x86-64, where LLVM will not inline
    /// a `core::arch` intrinsic, so outside this call every native vector
    /// op is an out-of-line function call. A kernel therefore runs its
    /// per-item body (one vertex, one block) as `s.vectorize(|| ..)`, and
    /// marks the kernel helpers that body calls `#[inline(always)]` (the
    /// backend methods already are), so the whole body, intrinsics included,
    /// is compiled inside the feature-enabled frame. The default (and [`Emulated`]'s) just calls
    /// `f`.
    #[inline(always)]
    fn vectorize<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }

    // ---- construction / inspection -------------------------------------

    /// Broadcast one i32 to all lanes (`vpbroadcastd`).
    fn splat_i32(&self, x: i32) -> Self::I32;
    /// Broadcast one f32 to all lanes (`vbroadcastss`).
    fn splat_f32(&self, x: f32) -> Self::F32;
    /// Spill a register to an array (test/debug aid; kernels avoid it).
    fn to_array_i32(&self, v: Self::I32) -> [i32; LANES];
    /// Spill a register to an array.
    fn to_array_f32(&self, v: Self::F32) -> [f32; LANES];
    /// Load a register from an array value.
    #[allow(clippy::wrong_self_convention)] // `self` is the backend token, not the value
    fn from_array_i32(&self, a: [i32; LANES]) -> Self::I32;
    /// Load a register from an array value.
    #[allow(clippy::wrong_self_convention)]
    fn from_array_f32(&self, a: [f32; LANES]) -> Self::F32;
    /// Extract one lane. Lanes are cheap to extract on the emulated backend
    /// and cost a spill on hardware; kernels use it sparingly (lane 0 for
    /// the in-vector reduction pivot).
    fn extract_i32(&self, v: Self::I32, lane: usize) -> i32 {
        self.to_array_i32(v)[lane]
    }
    /// Extract one f32 lane.
    fn extract_f32(&self, v: Self::F32, lane: usize) -> f32 {
        self.to_array_f32(v)[lane]
    }

    // ---- full-width loads/stores ---------------------------------------

    /// Unaligned 16-lane load (`vmovdqu32`). Panics if `src.len() < 16` in
    /// debug builds; callers guarantee it.
    fn load_i32(&self, src: &[i32]) -> Self::I32;
    /// Unaligned 16-lane load (`vmovups`).
    fn load_f32(&self, src: &[f32]) -> Self::F32;
    /// Unaligned 16-lane store.
    fn store_i32(&self, dst: &mut [i32], v: Self::I32);
    /// Unaligned 16-lane store.
    fn store_f32(&self, dst: &mut [f32], v: Self::F32);

    /// Loads `min(src.len(), 16)` lanes (rest zero) and returns the mask of
    /// valid lanes — the remainder-loop load (`vmovdqu32 {k}{z}`).
    fn load_tail_i32(&self, src: &[i32]) -> (Self::I32, Mask16);
    /// f32 variant of [`Simd::load_tail_i32`].
    fn load_tail_f32(&self, src: &[f32]) -> (Self::F32, Mask16);

    // ---- gather / scatter (AVX-512F) ------------------------------------

    /// Masked gather: for each selected lane `i`, reads
    /// `base[idx[i] as usize]`; unselected lanes keep `src`'s value
    /// (`vpgatherdd`).
    ///
    /// # Safety
    /// Every selected lane's index must satisfy
    /// `0 <= idx[i] < base.len()`.
    unsafe fn gather_i32(
        &self,
        base: &[i32],
        idx: Self::I32,
        mask: Mask16,
        src: Self::I32,
    ) -> Self::I32;

    /// Masked gather of f32 (`vgatherdps`).
    ///
    /// # Safety
    /// Same contract as [`Simd::gather_i32`].
    unsafe fn gather_f32(
        &self,
        base: &[f32],
        idx: Self::I32,
        mask: Mask16,
        src: Self::F32,
    ) -> Self::F32;

    /// Masked scatter (`vpscatterdd`). Duplicate selected indices store the
    /// highest lane.
    ///
    /// # Safety
    /// Every selected lane's index must satisfy
    /// `0 <= idx[i] < base.len()`.
    unsafe fn scatter_i32(&self, base: &mut [i32], idx: Self::I32, v: Self::I32, mask: Mask16);

    /// Masked scatter of f32 (`vscatterdps`).
    ///
    /// # Safety
    /// Same contract as [`Simd::scatter_i32`].
    unsafe fn scatter_f32(&self, base: &mut [f32], idx: Self::I32, v: Self::F32, mask: Mask16);

    // ---- conflict detection (AVX-512CD) ----------------------------------

    /// `_mm512_conflict_epi32`: lane `i` receives a bit vector with bit `j`
    /// set for every `j < i` with `a[j] == a[i]`.
    fn conflict_i32(&self, v: Self::I32) -> Self::I32;

    // ---- arithmetic / logic ----------------------------------------------

    /// Lane-wise i32 add.
    fn add_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32;
    /// Lane-wise f32 add.
    fn add_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32;
    /// Masked f32 add: selected lanes get `a + b`, others keep `src`.
    fn mask_add_f32(&self, src: Self::F32, mask: Mask16, a: Self::F32, b: Self::F32) -> Self::F32;
    /// Lane-wise f32 subtract.
    fn sub_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32;
    /// Lane-wise f32 multiply.
    fn mul_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32;
    /// Lane-wise left shift by an immediate (`vpslld`).
    fn shl_i32<const IMM: u32>(&self, a: Self::I32) -> Self::I32;
    /// Lane-wise OR.
    fn or_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32;
    /// Lane-wise AND.
    fn and_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32;
    /// Lane-wise f32 max.
    fn max_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32;

    // ---- comparisons -----------------------------------------------------

    /// Lane-wise `a == b` (i32).
    fn cmpeq_i32(&self, a: Self::I32, b: Self::I32) -> Mask16;
    /// Lane-wise `a != b` (i32).
    fn cmpneq_i32(&self, a: Self::I32, b: Self::I32) -> Mask16 {
        self.cmpeq_i32(a, b).not()
    }
    /// Lane-wise `a == b` under a mask; unselected lanes yield 0.
    fn mask_cmpeq_i32(&self, mask: Mask16, a: Self::I32, b: Self::I32) -> Mask16 {
        self.cmpeq_i32(a, b).and(mask)
    }
    /// Lane-wise `a == b` (f32, ordered).
    fn cmpeq_f32(&self, a: Self::F32, b: Self::F32) -> Mask16;
    /// Lane-wise `a > b` (f32, ordered).
    fn cmpgt_f32(&self, a: Self::F32, b: Self::F32) -> Mask16;
    /// Lane-wise `a < b` (i32).
    fn cmplt_i32(&self, a: Self::I32, b: Self::I32) -> Mask16;

    // ---- reductions -------------------------------------------------------

    /// Sum of all lanes (`_mm512_reduce_add_ps`).
    fn reduce_add_f32(&self, v: Self::F32) -> f32;
    /// Sum of the selected lanes (`_mm512_mask_reduce_add_ps`) — the paper's
    /// in-vector-reduction instruction.
    fn mask_reduce_add_f32(&self, mask: Mask16, v: Self::F32) -> f32;
    /// Max of all lanes (`_mm512_reduce_max_ps`) — ONLP's label-weight max.
    fn reduce_max_f32(&self, v: Self::F32) -> f32;

    // ---- compression -------------------------------------------------------

    /// `_mm512_maskz_compress_epi32`: selected lanes packed to the front,
    /// rest zeroed. Used to queue the "remaining neighbors" (RN in Fig. 2).
    fn compress_i32(&self, mask: Mask16, v: Self::I32) -> Self::I32;
    /// f32 variant of [`Simd::compress_i32`].
    fn compress_f32(&self, mask: Mask16, v: Self::F32) -> Self::F32;

    // ---- blends -------------------------------------------------------------

    /// Selected lanes take `b`, unselected `a` (`vpblendmd`).
    fn blend_i32(&self, mask: Mask16, a: Self::I32, b: Self::I32) -> Self::I32;
    /// Selected lanes take `b`, unselected `a` (`vblendmps`).
    fn blend_f32(&self, mask: Mask16, a: Self::F32, b: Self::F32) -> Self::F32;
}

/// Derives the paper's "independent lanes" mask from a conflict vector: a
/// lane is *free* when it has no earlier-lane duplicate, i.e. its conflict
/// word is zero. The mask `M` of Figures 1–2.
#[inline(always)]
pub fn conflict_free_mask<S: Simd>(s: &S, conflicts: S::I32) -> Mask16 {
    s.cmpeq_i32(conflicts, s.splat_i32(0))
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// The default-method implementations must agree across backends.
    #[test]
    fn default_cmpneq_consistent() {
        let s = Emulated;
        let a = s.from_array_i32([1; LANES]);
        let b = s.from_array_i32([2; LANES]);
        assert_eq!(s.cmpneq_i32(a, b), Mask16::ALL);
        assert_eq!(s.cmpneq_i32(a, a), Mask16::NONE);
    }

    #[test]
    fn conflict_free_mask_on_unique_values() {
        let s = Emulated;
        let mut vals = [0i32; LANES];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as i32;
        }
        let v = s.from_array_i32(vals);
        assert_eq!(conflict_free_mask(&s, s.conflict_i32(v)), Mask16::ALL);
    }

    #[test]
    fn conflict_free_mask_on_identical_values() {
        let s = Emulated;
        let v = s.splat_i32(7);
        // Only lane 0 has no earlier duplicate.
        assert_eq!(conflict_free_mask(&s, s.conflict_i32(v)), Mask16::single(0));
    }
}
