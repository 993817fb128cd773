//! Portable bit-exact emulation of the AVX-512 subset.
//!
//! This backend defines the reference semantics: the property tests assert
//! the native backend matches it lane for lane. It also runs the kernels on
//! machines without AVX-512, and underlies the counted runs that feed the
//! cost model (op counts are backend-independent).

// Lane loops index multiple arrays in lockstep; the indexed style is the
// clearest mirror of the hardware semantics.
#![allow(clippy::needless_range_loop)]

use super::Simd;
use crate::vector::{Mask16, LANES};

/// The emulated backend token. Always constructible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Emulated;

impl Emulated {
    /// Creates the emulated backend (always available).
    pub fn new() -> Self {
        Emulated
    }
}

impl Simd for Emulated {
    type I32 = [i32; LANES];
    type F32 = [f32; LANES];

    const NAME: &'static str = "emulated";
    const IS_VECTOR: bool = false;

    #[inline(always)]
    fn splat_i32(&self, x: i32) -> Self::I32 {
        [x; LANES]
    }

    #[inline(always)]
    fn splat_f32(&self, x: f32) -> Self::F32 {
        [x; LANES]
    }

    #[inline(always)]
    fn to_array_i32(&self, v: Self::I32) -> [i32; LANES] {
        v
    }

    #[inline(always)]
    fn to_array_f32(&self, v: Self::F32) -> [f32; LANES] {
        v
    }

    #[inline(always)]
    fn from_array_i32(&self, a: [i32; LANES]) -> Self::I32 {
        a
    }

    #[inline(always)]
    fn from_array_f32(&self, a: [f32; LANES]) -> Self::F32 {
        a
    }

    #[inline(always)]
    fn load_i32(&self, src: &[i32]) -> Self::I32 {
        src[..LANES].try_into().expect("load_i32 needs >= 16 lanes")
    }

    #[inline(always)]
    fn load_f32(&self, src: &[f32]) -> Self::F32 {
        src[..LANES].try_into().expect("load_f32 needs >= 16 lanes")
    }

    #[inline(always)]
    fn store_i32(&self, dst: &mut [i32], v: Self::I32) {
        dst[..LANES].copy_from_slice(&v);
    }

    #[inline(always)]
    fn store_f32(&self, dst: &mut [f32], v: Self::F32) {
        dst[..LANES].copy_from_slice(&v);
    }

    #[inline(always)]
    fn load_tail_i32(&self, src: &[i32]) -> (Self::I32, Mask16) {
        let n = src.len().min(LANES);
        let mut out = [0i32; LANES];
        out[..n].copy_from_slice(&src[..n]);
        (out, Mask16::first(n))
    }

    #[inline(always)]
    fn load_tail_f32(&self, src: &[f32]) -> (Self::F32, Mask16) {
        let n = src.len().min(LANES);
        let mut out = [0f32; LANES];
        out[..n].copy_from_slice(&src[..n]);
        (out, Mask16::first(n))
    }

    #[inline(always)]
    unsafe fn gather_i32(
        &self,
        base: &[i32],
        idx: Self::I32,
        mask: Mask16,
        src: Self::I32,
    ) -> Self::I32 {
        let mut out = src;
        for i in 0..LANES {
            if mask.bit(i) {
                debug_assert!(
                    (idx[i] as usize) < base.len(),
                    "gather index {} out of bounds {}",
                    idx[i],
                    base.len()
                );
                out[i] = unsafe { *base.get_unchecked(idx[i] as usize) };
            }
        }
        out
    }

    #[inline(always)]
    unsafe fn gather_f32(
        &self,
        base: &[f32],
        idx: Self::I32,
        mask: Mask16,
        src: Self::F32,
    ) -> Self::F32 {
        let mut out = src;
        for i in 0..LANES {
            if mask.bit(i) {
                debug_assert!((idx[i] as usize) < base.len());
                out[i] = unsafe { *base.get_unchecked(idx[i] as usize) };
            }
        }
        out
    }

    #[inline(always)]
    unsafe fn scatter_i32(&self, base: &mut [i32], idx: Self::I32, v: Self::I32, mask: Mask16) {
        // Ascending lane order gives the hardware's "highest lane wins"
        // semantics for duplicate indices.
        for i in 0..LANES {
            if mask.bit(i) {
                debug_assert!((idx[i] as usize) < base.len());
                unsafe {
                    *base.get_unchecked_mut(idx[i] as usize) = v[i];
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn scatter_f32(&self, base: &mut [f32], idx: Self::I32, v: Self::F32, mask: Mask16) {
        for i in 0..LANES {
            if mask.bit(i) {
                debug_assert!((idx[i] as usize) < base.len());
                unsafe {
                    *base.get_unchecked_mut(idx[i] as usize) = v[i];
                }
            }
        }
    }

    #[inline(always)]
    fn conflict_i32(&self, v: Self::I32) -> Self::I32 {
        let mut out = [0i32; LANES];
        for i in 1..LANES {
            let mut bits = 0i32;
            for j in 0..i {
                if v[j] == v[i] {
                    bits |= 1 << j;
                }
            }
            out[i] = bits;
        }
        out
    }

    #[inline(always)]
    fn add_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
        std::array::from_fn(|i| a[i].wrapping_add(b[i]))
    }

    #[inline(always)]
    fn add_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
        std::array::from_fn(|i| a[i] + b[i])
    }

    #[inline(always)]
    fn mask_add_f32(&self, src: Self::F32, mask: Mask16, a: Self::F32, b: Self::F32) -> Self::F32 {
        std::array::from_fn(|i| if mask.bit(i) { a[i] + b[i] } else { src[i] })
    }

    #[inline(always)]
    fn sub_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
        std::array::from_fn(|i| a[i] - b[i])
    }

    #[inline(always)]
    fn mul_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
        std::array::from_fn(|i| a[i] * b[i])
    }

    #[inline(always)]
    fn shl_i32<const IMM: u32>(&self, a: Self::I32) -> Self::I32 {
        std::array::from_fn(|i| ((a[i] as u32) << IMM) as i32)
    }

    #[inline(always)]
    fn or_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
        std::array::from_fn(|i| a[i] | b[i])
    }

    #[inline(always)]
    fn and_i32(&self, a: Self::I32, b: Self::I32) -> Self::I32 {
        std::array::from_fn(|i| a[i] & b[i])
    }

    #[inline(always)]
    fn max_f32(&self, a: Self::F32, b: Self::F32) -> Self::F32 {
        // vmaxps semantics: if a[i] or b[i] is NaN, returns b[i].
        std::array::from_fn(|i| if a[i] > b[i] { a[i] } else { b[i] })
    }

    #[inline(always)]
    fn cmpeq_i32(&self, a: Self::I32, b: Self::I32) -> Mask16 {
        let mut m = 0u16;
        for i in 0..LANES {
            if a[i] == b[i] {
                m |= 1 << i;
            }
        }
        Mask16(m)
    }

    #[inline(always)]
    fn cmpeq_f32(&self, a: Self::F32, b: Self::F32) -> Mask16 {
        let mut m = 0u16;
        for i in 0..LANES {
            if a[i] == b[i] {
                m |= 1 << i;
            }
        }
        Mask16(m)
    }

    #[inline(always)]
    fn cmpgt_f32(&self, a: Self::F32, b: Self::F32) -> Mask16 {
        let mut m = 0u16;
        for i in 0..LANES {
            if a[i] > b[i] {
                m |= 1 << i;
            }
        }
        Mask16(m)
    }

    #[inline(always)]
    fn cmplt_i32(&self, a: Self::I32, b: Self::I32) -> Mask16 {
        let mut m = 0u16;
        for i in 0..LANES {
            if a[i] < b[i] {
                m |= 1 << i;
            }
        }
        Mask16(m)
    }

    #[inline(always)]
    fn reduce_add_f32(&self, v: Self::F32) -> f32 {
        // Pairwise tree sum, matching the hardware reduction order (the
        // intrinsic is defined as a shuffle/add tree, not a serial sum).
        tree_sum(&v)
    }

    #[inline(always)]
    fn mask_reduce_add_f32(&self, mask: Mask16, v: Self::F32) -> f32 {
        let masked: [f32; LANES] = std::array::from_fn(|i| if mask.bit(i) { v[i] } else { 0.0 });
        tree_sum(&masked)
    }

    #[inline(always)]
    fn reduce_max_f32(&self, v: Self::F32) -> f32 {
        v.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    #[inline(always)]
    fn compress_i32(&self, mask: Mask16, v: Self::I32) -> Self::I32 {
        let mut out = [0i32; LANES];
        let mut k = 0;
        for i in 0..LANES {
            if mask.bit(i) {
                out[k] = v[i];
                k += 1;
            }
        }
        out
    }

    #[inline(always)]
    fn compress_f32(&self, mask: Mask16, v: Self::F32) -> Self::F32 {
        let mut out = [0f32; LANES];
        let mut k = 0;
        for i in 0..LANES {
            if mask.bit(i) {
                out[k] = v[i];
                k += 1;
            }
        }
        out
    }

    #[inline(always)]
    fn blend_i32(&self, mask: Mask16, a: Self::I32, b: Self::I32) -> Self::I32 {
        std::array::from_fn(|i| if mask.bit(i) { b[i] } else { a[i] })
    }

    #[inline(always)]
    fn blend_f32(&self, mask: Mask16, a: Self::F32, b: Self::F32) -> Self::F32 {
        std::array::from_fn(|i| if mask.bit(i) { b[i] } else { a[i] })
    }
}

/// Tree reduction in the same pairing order as `_mm512_reduce_add_ps`,
/// keeping the emulated backend bit-compatible with hardware for the
/// rounding-sensitive affinity sums.
#[inline(always)]
fn tree_sum(v: &[f32; LANES]) -> f32 {
    let mut acc = *v;
    let mut width = LANES / 2;
    while width > 0 {
        for i in 0..width {
            acc[i] += acc[i + width];
        }
        width /= 2;
    }
    acc[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Emulated = Emulated;

    fn iota() -> [i32; LANES] {
        std::array::from_fn(|i| i as i32)
    }

    #[test]
    fn splat_and_extract() {
        let v = S.splat_i32(42);
        assert_eq!(S.extract_i32(v, 0), 42);
        assert_eq!(S.extract_i32(v, 15), 42);
    }

    #[test]
    fn load_store_roundtrip() {
        let data: Vec<i32> = (0..20).collect();
        let v = S.load_i32(&data);
        let mut out = vec![0i32; 16];
        S.store_i32(&mut out, v);
        assert_eq!(out, &data[..16]);
    }

    #[test]
    fn load_tail_partial() {
        let data = [5i32, 6, 7];
        let (v, m) = S.load_tail_i32(&data);
        assert_eq!(m, Mask16::first(3));
        assert_eq!(v[0], 5);
        assert_eq!(v[2], 7);
        assert_eq!(v[3], 0);
    }

    #[test]
    fn load_tail_empty() {
        let (v, m) = S.load_tail_f32(&[]);
        assert_eq!(m, Mask16::NONE);
        assert_eq!(v, [0.0; LANES]);
    }

    #[test]
    fn gather_respects_mask() {
        let base: Vec<i32> = (100..120).collect();
        let idx = S.from_array_i32(iota());
        let fallback = S.splat_i32(-1);
        let out = unsafe { S.gather_i32(&base, idx, Mask16(0b101), fallback) };
        assert_eq!(out[0], 100);
        assert_eq!(out[1], -1);
        assert_eq!(out[2], 102);
        assert_eq!(out[3], -1);
    }

    #[test]
    fn scatter_highest_lane_wins() {
        let mut base = vec![0i32; 4];
        let idx = S.splat_i32(2); // every lane writes index 2
        let vals = S.from_array_i32(iota());
        unsafe { S.scatter_i32(&mut base, idx, vals, Mask16::ALL) };
        assert_eq!(base[2], 15);
    }

    #[test]
    fn scatter_respects_mask() {
        let mut base = vec![9f32; 16];
        let idx = S.from_array_i32(iota());
        let vals = S.splat_f32(1.0);
        unsafe { S.scatter_f32(&mut base, idx, vals, Mask16(0b11)) };
        assert_eq!(base[0], 1.0);
        assert_eq!(base[1], 1.0);
        assert_eq!(base[2], 9.0);
    }

    #[test]
    fn conflict_matches_intel_definition() {
        // Same vector we validated against real hardware output:
        // idx = [0,1,2,3,0,1,2,3,4,5,6,7,4,5,6,7]
        let mut a = [0i32; LANES];
        for (i, x) in [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 6, 7]
            .into_iter()
            .enumerate()
        {
            a[i] = x;
        }
        let out = S.conflict_i32(S.from_array_i32(a));
        assert_eq!(
            out,
            [0, 0, 0, 0, 1, 2, 4, 8, 0, 0, 0, 0, 256, 512, 1024, 2048]
        );
    }

    #[test]
    fn conflict_all_distinct_is_zero() {
        let out = S.conflict_i32(S.from_array_i32(iota()));
        assert_eq!(out, [0; LANES]);
    }

    #[test]
    fn mask_add_passthrough() {
        let src = S.splat_f32(9.0);
        let a = S.splat_f32(1.0);
        let b = S.splat_f32(2.0);
        let out = S.mask_add_f32(src, Mask16(0b10), a, b);
        assert_eq!(out[0], 9.0);
        assert_eq!(out[1], 3.0);
    }

    #[test]
    fn shl_shifts_each_lane() {
        let v = S.from_array_i32(iota());
        let out = S.shl_i32::<4>(v);
        for i in 0..LANES {
            assert_eq!(out[i], (i as i32) << 4);
        }
    }

    #[test]
    fn reduce_add_full_and_masked() {
        let v = S.from_array_f32(std::array::from_fn(|i| i as f32));
        assert_eq!(S.reduce_add_f32(v), 120.0);
        assert_eq!(S.mask_reduce_add_f32(Mask16(0b111), v), 3.0);
        assert_eq!(S.mask_reduce_add_f32(Mask16::NONE, v), 0.0);
    }

    #[test]
    fn reduce_max() {
        let mut a = [1.0f32; LANES];
        a[7] = 42.0;
        assert_eq!(S.reduce_max_f32(S.from_array_f32(a)), 42.0);
    }

    #[test]
    fn compress_packs_selected() {
        let v = S.from_array_i32(iota());
        let out = S.compress_i32(Mask16(0b1010_0001), v);
        assert_eq!(&out[..3], &[0, 5, 7]);
        assert_eq!(out[3], 0);
    }

    #[test]
    fn blend_selects() {
        let a = S.splat_i32(1);
        let b = S.splat_i32(2);
        let out = S.blend_i32(Mask16(0b1), a, b);
        assert_eq!(out[0], 2);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn cmp_ops() {
        let a = S.from_array_i32(iota());
        let b = S.splat_i32(8);
        assert_eq!(S.cmplt_i32(a, b), Mask16::first(8));
        assert_eq!(S.cmpeq_i32(a, b), Mask16::single(8));
        let x = S.splat_f32(1.0);
        let y = S.splat_f32(2.0);
        assert_eq!(S.cmpgt_f32(y, x), Mask16::ALL);
        assert_eq!(S.cmpeq_f32(x, x), Mask16::ALL);
    }

    #[test]
    fn tree_sum_is_pairwise() {
        // Pairwise order: ((v0+v8)+(v4+v12)) + ... — verify against a case
        // where serial summation would differ in floating point.
        let v: [f32; LANES] = std::array::from_fn(|i| if i < 8 { 1e8 } else { 1.0 });
        let expected = {
            let mut acc = v;
            let mut w = 8;
            while w > 0 {
                for i in 0..w {
                    acc[i] += acc[i + w];
                }
                w /= 2;
            }
            acc[0]
        };
        assert_eq!(S.reduce_add_f32(S.from_array_f32(v)), expected);
    }
}
