//! [`Counted`] — a decorator backend that counts each operation.
//!
//! Wrap any [`Simd`] backend: `Counted::new(Emulated)` or
//! `Counted::new(avx512)`. Kernels are generic over `S: Simd`, so the same
//! monomorphized kernel body runs raw (timed) or counted (modeled) with no
//! source changes — the seam DESIGN.md §5 calls out.

use crate::backend::Simd;
use crate::counters::{record, OpClass};
use crate::vector::{Mask16, LANES};

/// A backend decorator recording every operation into the global
/// [`crate::counters`].
#[derive(Debug, Clone, Copy)]
pub struct Counted<S: Simd> {
    inner: S,
}

impl<S: Simd> Counted<S> {
    /// Wraps a backend.
    pub fn new(inner: S) -> Self {
        Counted { inner }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Simd> Simd for Counted<S> {
    type I32 = S::I32;
    type F32 = S::F32;

    const NAME: &'static str = "counted";
    const IS_VECTOR: bool = S::IS_VECTOR;
    const IS_COUNTED: bool = true;

    #[inline(always)]
    fn vectorize<R>(&self, f: impl FnOnce() -> R) -> R {
        self.inner.vectorize(f)
    }

    #[inline(always)]
    fn splat_i32(&self, x: i32) -> Self::I32 {
        record(OpClass::VecAlu, 1);
        self.inner.splat_i32(x)
    }

    #[inline(always)]
    fn splat_f32(&self, x: f32) -> Self::F32 {
        record(OpClass::VecAlu, 1);
        self.inner.splat_f32(x)
    }

    #[inline(always)]
    fn to_array_i32(&self, v: Self::I32) -> [i32; LANES] {
        record(OpClass::VecStore, 1);
        self.inner.to_array_i32(v)
    }

    #[inline(always)]
    fn to_array_f32(&self, v: Self::F32) -> [f32; LANES] {
        record(OpClass::VecStore, 1);
        self.inner.to_array_f32(v)
    }

    #[inline(always)]
    fn from_array_i32(&self, a: [i32; LANES]) -> Self::I32 {
        record(OpClass::VecLoad, 1);
        self.inner.from_array_i32(a)
    }

    #[inline(always)]
    fn from_array_f32(&self, a: [f32; LANES]) -> Self::F32 {
        record(OpClass::VecLoad, 1);
        self.inner.from_array_f32(a)
    }

    #[inline(always)]
    fn load_i32(&self, src: &[i32]) -> Self::I32 {
        record(OpClass::VecLoad, 1);
        self.inner.load_i32(src)
    }

    #[inline(always)]
    fn load_f32(&self, src: &[f32]) -> Self::F32 {
        record(OpClass::VecLoad, 1);
        self.inner.load_f32(src)
    }

    #[inline(always)]
    fn store_i32(&self, dst: &mut [i32], v: Self::I32) {
        record(OpClass::VecStore, 1);
        self.inner.store_i32(dst, v)
    }

    #[inline(always)]
    fn store_f32(&self, dst: &mut [f32], v: Self::F32) {
        record(OpClass::VecStore, 1);
        self.inner.store_f32(dst, v)
    }

    #[inline(always)]
    fn load_tail_i32(&self, src: &[i32]) -> (Self::I32, Mask16) {
        record(OpClass::VecLoad, 1);
        record(OpClass::MaskOp, 1);
        self.inner.load_tail_i32(src)
    }

    #[inline(always)]
    fn load_tail_f32(&self, src: &[f32]) -> (Self::F32, Mask16) {
        record(OpClass::VecLoad, 1);
        record(OpClass::MaskOp, 1);
        self.inner.load_tail_f32(src)
    }

    #[inline(always)]
    unsafe fn gather_i32(
        &self,
        base: &[i32],
        idx: Self::I32,
        mask: Mask16,
        src: Self::I32,
    ) -> Self::I32 {
        record(OpClass::Gather, 1);
        unsafe { self.inner.gather_i32(base, idx, mask, src) }
    }

    #[inline(always)]
    unsafe fn gather_f32(
        &self,
        base: &[f32],
        idx: Self::I32,
        mask: Mask16,
        src: Self::F32,
    ) -> Self::F32 {
        record(OpClass::Gather, 1);
        unsafe { self.inner.gather_f32(base, idx, mask, src) }
    }

    #[inline(always)]
    unsafe fn scatter_i32(&self, base: &mut [i32], idx: Self::I32, v: Self::I32, mask: Mask16) {
        record(OpClass::Scatter, 1);
        unsafe { self.inner.scatter_i32(base, idx, v, mask) }
    }

    #[inline(always)]
    unsafe fn scatter_f32(&self, base: &mut [f32], idx: Self::I32, v: Self::F32, mask: Mask16) {
        record(OpClass::Scatter, 1);
        unsafe { self.inner.scatter_f32(base, idx, v, mask) }
    }

    #[inline(always)]
    fn conflict_i32(&self, v: Self::I32) -> Self::I32 {
        record(OpClass::Conflict, 1);
        self.inner.conflict_i32(v)
    }

    #[inline(always)]
    fn add_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
        record(OpClass::VecAlu, 1);
        self.inner.add_i32(a, b)
    }

    #[inline(always)]
    fn add_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
        record(OpClass::VecAlu, 1);
        self.inner.add_f32(a, b)
    }

    #[inline(always)]
    fn mask_add_f32(&self, src: Self::F32, mask: Mask16, a: Self::F32, b: Self::F32) -> Self::F32 {
        record(OpClass::VecAlu, 1);
        self.inner.mask_add_f32(src, mask, a, b)
    }

    #[inline(always)]
    fn sub_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
        record(OpClass::VecAlu, 1);
        self.inner.sub_f32(a, b)
    }

    #[inline(always)]
    fn mul_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
        record(OpClass::VecAlu, 1);
        self.inner.mul_f32(a, b)
    }

    #[inline(always)]
    fn shl_i32<const IMM: u32>(&self, a: Self::I32) -> Self::I32 {
        record(OpClass::VecAlu, 1);
        self.inner.shl_i32::<IMM>(a)
    }

    #[inline(always)]
    fn or_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
        record(OpClass::VecAlu, 1);
        self.inner.or_i32(a, b)
    }

    #[inline(always)]
    fn and_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
        record(OpClass::VecAlu, 1);
        self.inner.and_i32(a, b)
    }

    #[inline(always)]
    fn max_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
        record(OpClass::VecAlu, 1);
        self.inner.max_f32(a, b)
    }

    #[inline(always)]
    fn cmpeq_i32(&self, a: Self::I32, b: Self::I32) -> Mask16 {
        record(OpClass::VecCmp, 1);
        self.inner.cmpeq_i32(a, b)
    }

    #[inline(always)]
    fn cmpeq_f32(&self, a: Self::F32, b: Self::F32) -> Mask16 {
        record(OpClass::VecCmp, 1);
        self.inner.cmpeq_f32(a, b)
    }

    #[inline(always)]
    fn cmpgt_f32(&self, a: Self::F32, b: Self::F32) -> Mask16 {
        record(OpClass::VecCmp, 1);
        self.inner.cmpgt_f32(a, b)
    }

    #[inline(always)]
    fn cmplt_i32(&self, a: Self::I32, b: Self::I32) -> Mask16 {
        record(OpClass::VecCmp, 1);
        self.inner.cmplt_i32(a, b)
    }

    #[inline(always)]
    fn reduce_add_f32(&self, v: Self::F32) -> f32 {
        record(OpClass::Reduce, 1);
        self.inner.reduce_add_f32(v)
    }

    #[inline(always)]
    fn mask_reduce_add_f32(&self, mask: Mask16, v: Self::F32) -> f32 {
        record(OpClass::Reduce, 1);
        self.inner.mask_reduce_add_f32(mask, v)
    }

    #[inline(always)]
    fn reduce_max_f32(&self, v: Self::F32) -> f32 {
        record(OpClass::Reduce, 1);
        self.inner.reduce_max_f32(v)
    }

    #[inline(always)]
    fn compress_i32(&self, mask: Mask16, v: Self::I32) -> Self::I32 {
        record(OpClass::Compress, 1);
        self.inner.compress_i32(mask, v)
    }

    #[inline(always)]
    fn compress_f32(&self, mask: Mask16, v: Self::F32) -> Self::F32 {
        record(OpClass::Compress, 1);
        self.inner.compress_f32(mask, v)
    }

    #[inline(always)]
    fn blend_i32(&self, mask: Mask16, a: Self::I32, b: Self::I32) -> Self::I32 {
        record(OpClass::VecAlu, 1);
        self.inner.blend_i32(mask, a, b)
    }

    #[inline(always)]
    fn blend_f32(&self, mask: Mask16, a: Self::F32, b: Self::F32) -> Self::F32 {
        record(OpClass::VecAlu, 1);
        self.inner.blend_f32(mask, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Emulated;
    use crate::counters;

    #[test]
    fn counts_flow_to_global_counters() {
        let s = Counted::new(Emulated);
        let ((), counts) = counters::counted_run(|| {
            let a = s.splat_i32(1);
            let b = s.splat_i32(2);
            let c = s.add_i32(a, b);
            let _ = s.cmpeq_i32(c, b);
            let _ = s.conflict_i32(c);
        });
        assert_eq!(counts.get(OpClass::VecAlu), 3); // 2 splat + 1 add
        assert_eq!(counts.get(OpClass::VecCmp), 1);
        assert_eq!(counts.get(OpClass::Conflict), 1);
    }

    #[test]
    fn counted_results_equal_inner() {
        let raw = Emulated;
        let cnt = Counted::new(Emulated);
        let a = [3i32; LANES];
        assert_eq!(
            raw.to_array_i32(raw.conflict_i32(raw.from_array_i32(a))),
            cnt.to_array_i32(cnt.conflict_i32(cnt.from_array_i32(a)))
        );
    }

    #[test]
    fn gather_scatter_counted() {
        let s = Counted::new(Emulated);
        let base: Vec<f32> = (0..32).map(|x| x as f32).collect();
        let mut dst = vec![0f32; 32];
        let ((), counts) = counters::counted_run(|| {
            let idx = s.from_array_i32(std::array::from_fn(|i| i as i32));
            let v = unsafe { s.gather_f32(&base, idx, Mask16::ALL, s.splat_f32(0.0)) };
            unsafe { s.scatter_f32(&mut dst, idx, v, Mask16::ALL) };
        });
        assert_eq!(counts.get(OpClass::Gather), 1);
        assert_eq!(counts.get(OpClass::Scatter), 1);
        assert_eq!(dst[5], 5.0);
    }
}
