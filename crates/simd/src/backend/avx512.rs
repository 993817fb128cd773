//! Native AVX-512F + AVX-512CD backend.
//!
//! Every method maps one-to-one onto the intrinsic named in the [`Simd`]
//! trait docs. Soundness: `Avx512` can only be obtained through
//! [`Avx512::new`], which performs runtime CPU-feature detection, so holding
//! a value proves the instructions exist on this machine.
//!
//! The build targets baseline x86-64, so the same binary runs (on the
//! emulated backend) where AVX-512 is missing. An intrinsic inlines only
//! into code compiled with its feature, which [`Simd::vectorize`] provides:
//! it runs the kernel's per-item body inside an
//! `avx512f,avx512cd` `#[target_feature]` function, the analog of the
//! paper's `icpc -xCORE-AVX512` for exactly the vector kernels.

use super::Simd;
use crate::vector::{Mask16, LANES};

/// Token proving AVX-512F + AVX-512CD are available.
#[derive(Debug, Clone, Copy)]
pub struct Avx512 {
    _priv: (),
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;
    use std::arch::x86_64::*;

    impl Avx512 {
        /// Detects AVX-512F and AVX-512CD; returns `None` if either is
        /// missing.
        pub fn new() -> Option<Self> {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512cd") {
                Some(Avx512 { _priv: () })
            } else {
                None
            }
        }
    }

    impl Simd for Avx512 {
        type I32 = __m512i;
        type F32 = __m512;

        const NAME: &'static str = "avx512";
        const IS_VECTOR: bool = true;

        #[inline(always)]
        fn vectorize<R>(&self, f: impl FnOnce() -> R) -> R {
            /// Runs `f` compiled with AVX-512F/CD enabled, so the
            /// intrinsics it inlines become plain instructions.
            ///
            /// # Safety
            /// The CPU must support AVX-512F and AVX-512CD.
            #[target_feature(enable = "avx512f,avx512cd")]
            #[inline]
            unsafe fn enabled<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
            // SAFETY: an `Avx512` value exists only after `Avx512::new` has
            // detected both AVX-512F and AVX-512CD on this CPU.
            unsafe { enabled(f) }
        }

        #[inline(always)]
        fn splat_i32(&self, x: i32) -> Self::I32 {
            unsafe { _mm512_set1_epi32(x) }
        }

        #[inline(always)]
        fn splat_f32(&self, x: f32) -> Self::F32 {
            unsafe { _mm512_set1_ps(x) }
        }

        #[inline(always)]
        fn to_array_i32(&self, v: Self::I32) -> [i32; LANES] {
            let mut out = [0i32; LANES];
            unsafe { _mm512_storeu_si512(out.as_mut_ptr() as *mut _, v) };
            out
        }

        #[inline(always)]
        fn to_array_f32(&self, v: Self::F32) -> [f32; LANES] {
            let mut out = [0f32; LANES];
            unsafe { _mm512_storeu_ps(out.as_mut_ptr(), v) };
            out
        }

        #[inline(always)]
        fn from_array_i32(&self, a: [i32; LANES]) -> Self::I32 {
            unsafe { _mm512_loadu_si512(a.as_ptr() as *const _) }
        }

        #[inline(always)]
        fn from_array_f32(&self, a: [f32; LANES]) -> Self::F32 {
            unsafe { _mm512_loadu_ps(a.as_ptr()) }
        }

        #[inline(always)]
        fn load_i32(&self, src: &[i32]) -> Self::I32 {
            debug_assert!(src.len() >= LANES);
            unsafe { _mm512_loadu_si512(src.as_ptr() as *const _) }
        }

        #[inline(always)]
        fn load_f32(&self, src: &[f32]) -> Self::F32 {
            debug_assert!(src.len() >= LANES);
            unsafe { _mm512_loadu_ps(src.as_ptr()) }
        }

        #[inline(always)]
        fn store_i32(&self, dst: &mut [i32], v: Self::I32) {
            debug_assert!(dst.len() >= LANES);
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr() as *mut _, v) }
        }

        #[inline(always)]
        fn store_f32(&self, dst: &mut [f32], v: Self::F32) {
            debug_assert!(dst.len() >= LANES);
            unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
        }

        #[inline(always)]
        fn load_tail_i32(&self, src: &[i32]) -> (Self::I32, Mask16) {
            let mask = Mask16::first(src.len());
            // The masked load touches only selected lanes, so reading past
            // src.len() cannot happen.
            let v = unsafe { _mm512_maskz_loadu_epi32(mask.0, src.as_ptr()) };
            (v, mask)
        }

        #[inline(always)]
        fn load_tail_f32(&self, src: &[f32]) -> (Self::F32, Mask16) {
            let mask = Mask16::first(src.len());
            let v = unsafe { _mm512_maskz_loadu_ps(mask.0, src.as_ptr()) };
            (v, mask)
        }

        #[inline(always)]
        unsafe fn gather_i32(
            &self,
            base: &[i32],
            idx: Self::I32,
            mask: Mask16,
            src: Self::I32,
        ) -> Self::I32 {
            #[cfg(debug_assertions)]
            debug_check_bounds(self, base.len(), idx, mask);
            unsafe { _mm512_mask_i32gather_epi32::<4>(src, mask.0, idx, base.as_ptr()) }
        }

        #[inline(always)]
        unsafe fn gather_f32(
            &self,
            base: &[f32],
            idx: Self::I32,
            mask: Mask16,
            src: Self::F32,
        ) -> Self::F32 {
            #[cfg(debug_assertions)]
            debug_check_bounds(self, base.len(), idx, mask);
            unsafe { _mm512_mask_i32gather_ps::<4>(src, mask.0, idx, base.as_ptr()) }
        }

        #[inline(always)]
        unsafe fn scatter_i32(
            &self,
            base: &mut [i32],
            idx: Self::I32,
            v: Self::I32,
            mask: Mask16,
        ) {
            #[cfg(debug_assertions)]
            debug_check_bounds(self, base.len(), idx, mask);
            unsafe { _mm512_mask_i32scatter_epi32::<4>(base.as_mut_ptr(), mask.0, idx, v) }
        }

        #[inline(always)]
        unsafe fn scatter_f32(&self, base: &mut [f32], idx: Self::I32, v: Self::F32, mask: Mask16) {
            #[cfg(debug_assertions)]
            debug_check_bounds(self, base.len(), idx, mask);
            unsafe { _mm512_mask_i32scatter_ps::<4>(base.as_mut_ptr(), mask.0, idx, v) }
        }

        #[inline(always)]
        fn conflict_i32(&self, v: Self::I32) -> Self::I32 {
            unsafe { _mm512_conflict_epi32(v) }
        }

        #[inline(always)]
        fn add_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
            unsafe { _mm512_add_epi32(a, b) }
        }

        #[inline(always)]
        fn add_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
            unsafe { _mm512_add_ps(a, b) }
        }

        #[inline(always)]
        fn mask_add_f32(
            &self,
            src: Self::F32,
            mask: Mask16,
            a: Self::F32,
            b: Self::F32,
        ) -> Self::F32 {
            unsafe { _mm512_mask_add_ps(src, mask.0, a, b) }
        }

        #[inline(always)]
        fn sub_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
            unsafe { _mm512_sub_ps(a, b) }
        }

        #[inline(always)]
        fn mul_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
            unsafe { _mm512_mul_ps(a, b) }
        }

        #[inline(always)]
        fn shl_i32<const IMM: u32>(&self, a: Self::I32) -> Self::I32 {
            unsafe { _mm512_slli_epi32::<IMM>(a) }
        }

        #[inline(always)]
        fn or_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
            unsafe { _mm512_or_si512(a, b) }
        }

        #[inline(always)]
        fn and_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
            unsafe { _mm512_and_si512(a, b) }
        }

        #[inline(always)]
        fn max_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
            unsafe { _mm512_max_ps(a, b) }
        }

        #[inline(always)]
        fn cmpeq_i32(&self, a: Self::I32, b: Self::I32) -> Mask16 {
            Mask16(unsafe { _mm512_cmpeq_epi32_mask(a, b) })
        }

        #[inline(always)]
        fn cmpeq_f32(&self, a: Self::F32, b: Self::F32) -> Mask16 {
            Mask16(unsafe { _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(a, b) })
        }

        #[inline(always)]
        fn cmpgt_f32(&self, a: Self::F32, b: Self::F32) -> Mask16 {
            Mask16(unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b) })
        }

        #[inline(always)]
        fn cmplt_i32(&self, a: Self::I32, b: Self::I32) -> Mask16 {
            Mask16(unsafe { _mm512_cmplt_epi32_mask(a, b) })
        }

        #[inline(always)]
        fn reduce_add_f32(&self, v: Self::F32) -> f32 {
            unsafe { _mm512_reduce_add_ps(v) }
        }

        #[inline(always)]
        fn mask_reduce_add_f32(&self, mask: Mask16, v: Self::F32) -> f32 {
            unsafe { _mm512_mask_reduce_add_ps(mask.0, v) }
        }

        #[inline(always)]
        fn reduce_max_f32(&self, v: Self::F32) -> f32 {
            unsafe { _mm512_reduce_max_ps(v) }
        }

        #[inline(always)]
        fn compress_i32(&self, mask: Mask16, v: Self::I32) -> Self::I32 {
            unsafe { _mm512_maskz_compress_epi32(mask.0, v) }
        }

        #[inline(always)]
        fn compress_f32(&self, mask: Mask16, v: Self::F32) -> Self::F32 {
            unsafe { _mm512_maskz_compress_ps(mask.0, v) }
        }

        #[inline(always)]
        fn blend_i32(&self, mask: Mask16, a: Self::I32, b: Self::I32) -> Self::I32 {
            unsafe { _mm512_mask_blend_epi32(mask.0, a, b) }
        }

        #[inline(always)]
        fn blend_f32(&self, mask: Mask16, a: Self::F32, b: Self::F32) -> Self::F32 {
            unsafe { _mm512_mask_blend_ps(mask.0, a, b) }
        }
    }

    /// Debug-build verification of the gather/scatter safety contract.
    #[cfg(debug_assertions)]
    fn debug_check_bounds(s: &Avx512, len: usize, idx: __m512i, mask: Mask16) {
        let lanes = s.to_array_i32(idx);
        for i in mask.iter_set() {
            assert!(
                lanes[i] >= 0 && (lanes[i] as usize) < len,
                "lane {i} index {} out of bounds for slice of {len}",
                lanes[i]
            );
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl Avx512 {
    /// AVX-512 does not exist off x86-64.
    pub fn new() -> Option<Self> {
        None
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    fn engine() -> Avx512 {
        Avx512::new().expect("host must support AVX-512F/CD for these tests")
    }

    #[test]
    fn detection_succeeds_on_this_host() {
        // The reproduction environment guarantees AVX-512F/CD; if this fails
        // the native figures fall back to the emulated backend.
        assert!(Avx512::new().is_some());
    }

    #[test]
    fn splat_roundtrip() {
        let s = engine();
        let v = s.splat_i32(-7);
        assert_eq!(s.to_array_i32(v), [-7; LANES]);
    }

    #[test]
    fn conflict_matches_reference_vector() {
        let s = engine();
        let mut a = [0i32; LANES];
        for (i, x) in [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7]
            .into_iter()
            .enumerate()
        {
            a[i] = x;
        }
        let out = s.to_array_i32(s.conflict_i32(s.from_array_i32(a)));
        assert_eq!(
            out,
            [0, 0, 0, 0, 1, 2, 4, 8, 0, 0, 0, 0, 256, 512, 1024, 2048]
        );
    }

    #[test]
    fn masked_gather_scatter_roundtrip() {
        let s = engine();
        let base: Vec<i32> = (0..64).map(|x| x * 10).collect();
        let idx = s.from_array_i32(std::array::from_fn(|i| (i * 3) as i32));
        let fallback = s.splat_i32(-1);
        let g = s.to_array_i32(unsafe { s.gather_i32(&base, idx, Mask16(0x00FF), fallback) });
        for (i, &x) in g.iter().enumerate().take(8) {
            assert_eq!(x, (i as i32) * 30);
        }
        for &x in &g[8..] {
            assert_eq!(x, -1);
        }

        let mut dst = vec![0i32; 64];
        let vals = s.splat_i32(5);
        unsafe { s.scatter_i32(&mut dst, idx, vals, Mask16(0x000F)) };
        assert_eq!(dst[0], 5);
        assert_eq!(dst[3], 5);
        assert_eq!(dst[6], 5);
        assert_eq!(dst[9], 5);
        assert_eq!(dst[12], 0);
    }

    #[test]
    fn tail_load_does_not_touch_out_of_bounds() {
        let s = engine();
        let small = [1i32, 2, 3];
        let (v, m) = s.load_tail_i32(&small);
        assert_eq!(m, Mask16::first(3));
        let arr = s.to_array_i32(v);
        assert_eq!(&arr[..3], &[1, 2, 3]);
        assert_eq!(arr[3], 0);
    }

    #[test]
    fn masked_reduce_add() {
        let s = engine();
        let v = s.from_array_f32(std::array::from_fn(|i| i as f32));
        assert_eq!(s.mask_reduce_add_f32(Mask16(0b1110), v), 6.0);
        assert_eq!(s.reduce_add_f32(v), 120.0);
        assert_eq!(s.reduce_max_f32(v), 15.0);
    }

    #[test]
    fn compress_packs() {
        let s = engine();
        let v = s.from_array_i32(std::array::from_fn(|i| i as i32));
        let out = s.to_array_i32(s.compress_i32(Mask16(0b1010_0001), v));
        assert_eq!(&out[..3], &[0, 5, 7]);
        assert_eq!(out[3], 0);
    }
}
