//! Property tests: the native AVX-512 backend and the portable emulation
//! must agree lane-for-lane on every operation. The emulation is the
//! reference semantics; these tests are what lets the kernels run on either
//! backend interchangeably.
//!
//! On hosts without AVX-512 the tests pass vacuously (there is nothing to
//! compare against).

use gp_simd::backend::{conflict_free_mask, Avx512, Emulated, Simd};
use gp_simd::counted::Counted;
use gp_simd::vector::{Mask16, LANES};
use proptest::prelude::*;

/// Runs `f` only when the native backend exists.
fn with_native(f: impl FnOnce(Avx512)) {
    if let Some(s) = Avx512::new() {
        f(s);
    }
}

fn any_lanes_i32() -> impl Strategy<Value = [i32; LANES]> {
    prop::array::uniform16(any::<i32>())
}

/// Community-id-like lanes: small non-negative values so conflicts are
/// frequent.
fn small_lanes_i32() -> impl Strategy<Value = [i32; LANES]> {
    prop::array::uniform16(0i32..8)
}

fn any_lanes_f32() -> impl Strategy<Value = [f32; LANES]> {
    prop::array::uniform16(-1.0e6f32..1.0e6)
}

fn any_mask() -> impl Strategy<Value = Mask16> {
    any::<u16>().prop_map(Mask16)
}

proptest! {
    #[test]
    fn conflict_matches(vals in small_lanes_i32()) {
        with_native(|n| {
            let e = Emulated;
            let native = n.to_array_i32(n.conflict_i32(n.from_array_i32(vals)));
            let emulated = e.conflict_i32(vals);
            assert_eq!(native, emulated);
        });
    }

    #[test]
    fn conflict_on_arbitrary_values(vals in any_lanes_i32()) {
        with_native(|n| {
            let e = Emulated;
            let native = n.to_array_i32(n.conflict_i32(n.from_array_i32(vals)));
            assert_eq!(native, e.conflict_i32(vals));
        });
    }

    #[test]
    fn add_and_logic_match(a in any_lanes_i32(), b in any_lanes_i32()) {
        with_native(|n| {
            let e = Emulated;
            let (na, nb) = (n.from_array_i32(a), n.from_array_i32(b));
            assert_eq!(n.to_array_i32(n.add_i32(na, nb)), e.add_i32(a, b));
            assert_eq!(n.to_array_i32(n.or_i32(na, nb)), e.or_i32(a, b));
            assert_eq!(n.to_array_i32(n.and_i32(na, nb)), e.and_i32(a, b));
            assert_eq!(n.to_array_i32(n.shl_i32::<4>(na)), e.shl_i32::<4>(a));
        });
    }

    #[test]
    fn compares_match(a in small_lanes_i32(), b in small_lanes_i32()) {
        with_native(|n| {
            let e = Emulated;
            let (na, nb) = (n.from_array_i32(a), n.from_array_i32(b));
            assert_eq!(n.cmpeq_i32(na, nb), e.cmpeq_i32(a, b));
            assert_eq!(n.cmplt_i32(na, nb), e.cmplt_i32(a, b));
            assert_eq!(n.cmpneq_i32(na, nb), e.cmpneq_i32(a, b));
        });
    }

    #[test]
    fn float_compares_match(a in any_lanes_f32(), b in any_lanes_f32()) {
        with_native(|n| {
            let e = Emulated;
            let (na, nb) = (n.from_array_f32(a), n.from_array_f32(b));
            assert_eq!(n.cmpeq_f32(na, nb), e.cmpeq_f32(a, b));
            assert_eq!(n.cmpgt_f32(na, nb), e.cmpgt_f32(a, b));
        });
    }

    #[test]
    fn float_math_matches(a in any_lanes_f32(), b in any_lanes_f32(), mask in any_mask()) {
        with_native(|n| {
            let e = Emulated;
            let (na, nb) = (n.from_array_f32(a), n.from_array_f32(b));
            assert_eq!(n.to_array_f32(n.add_f32(na, nb)), e.add_f32(a, b));
            assert_eq!(n.to_array_f32(n.sub_f32(na, nb)), e.sub_f32(a, b));
            assert_eq!(n.to_array_f32(n.mul_f32(na, nb)), e.mul_f32(a, b));
            assert_eq!(n.to_array_f32(n.max_f32(na, nb)), e.max_f32(a, b));
            assert_eq!(
                n.to_array_f32(n.mask_add_f32(na, mask, na, nb)),
                e.mask_add_f32(a, mask, a, b)
            );
        });
    }

    #[test]
    fn reductions_match(vals in any_lanes_f32(), mask in any_mask()) {
        with_native(|n| {
            let e = Emulated;
            let nv = n.from_array_f32(vals);
            // The reduction tree order is implementation-defined for the
            // intrinsic; accept a tiny relative tolerance.
            let (rn, re) = (n.reduce_add_f32(nv), e.reduce_add_f32(vals));
            let scale = vals.iter().map(|x| x.abs()).sum::<f32>().max(1.0);
            assert!((rn - re).abs() <= 1e-3 * scale, "sum {} vs {}", rn, re);
            let (mn, me) = (n.mask_reduce_add_f32(mask, nv), e.mask_reduce_add_f32(mask, vals));
            assert!((mn - me).abs() <= 1e-3 * scale, "masked {} vs {}", mn, me);
            assert_eq!(n.reduce_max_f32(nv), e.reduce_max_f32(vals));
        });
    }

    #[test]
    fn gather_matches(idx in prop::array::uniform16(0i32..64), mask in any_mask()) {
        with_native(|n| {
            let e = Emulated;
            let base: Vec<i32> = (0..64).map(|x| x * 3 + 1).collect();
            let fallback_arr = [-7i32; LANES];
            let native = n.to_array_i32(unsafe {
                n.gather_i32(&base, n.from_array_i32(idx), mask, n.from_array_i32(fallback_arr))
            });
            let emulated = unsafe { e.gather_i32(&base, idx, mask, fallback_arr) };
            assert_eq!(native, emulated);
        });
    }

    #[test]
    fn scatter_matches(idx in prop::array::uniform16(0i32..64),
                       vals in any_lanes_f32(),
                       mask in any_mask()) {
        with_native(|n| {
            let e = Emulated;
            let mut dst_n = vec![0f32; 64];
            let mut dst_e = vec![0f32; 64];
            unsafe {
                n.scatter_f32(&mut dst_n, n.from_array_i32(idx), n.from_array_f32(vals), mask);
                e.scatter_f32(&mut dst_e, idx, vals, mask);
            }
            assert_eq!(dst_n, dst_e);
        });
    }

    #[test]
    fn compress_matches(vals in any_lanes_i32(), mask in any_mask()) {
        with_native(|n| {
            let e = Emulated;
            let native = n.to_array_i32(n.compress_i32(mask, n.from_array_i32(vals)));
            assert_eq!(native, e.compress_i32(mask, vals));
        });
    }

    #[test]
    fn blend_matches(a in any_lanes_i32(), b in any_lanes_i32(), mask in any_mask()) {
        with_native(|n| {
            let e = Emulated;
            let native = n.to_array_i32(
                n.blend_i32(mask, n.from_array_i32(a), n.from_array_i32(b)));
            assert_eq!(native, e.blend_i32(mask, a, b));
        });
    }

    #[test]
    fn tail_loads_match(len in 0usize..=16) {
        with_native(|n| {
            let e = Emulated;
            let data: Vec<i32> = (0..len as i32).map(|x| x + 100).collect();
            let (nv, nm) = n.load_tail_i32(&data);
            let (ev, em) = e.load_tail_i32(&data);
            assert_eq!(nm, em);
            assert_eq!(n.to_array_i32(nv), ev);
        });
    }
}

/// Scatter must exhibit highest-lane-wins for duplicate indices on both
/// backends — the exact hazard reduce-scatter exists to handle.
#[test]
fn duplicate_scatter_semantics_agree() {
    with_native(|n| {
        let e = Emulated;
        let idx = [3i32; LANES];
        let vals: [i32; LANES] = std::array::from_fn(|i| i as i32);
        let mut dst_n = vec![0i32; 8];
        let mut dst_e = vec![0i32; 8];
        unsafe {
            n.scatter_i32(&mut dst_n, n.from_array_i32(idx), n.from_array_i32(vals), Mask16::ALL);
            e.scatter_i32(&mut dst_e, idx, vals, Mask16::ALL);
        }
        assert_eq!(dst_n, dst_e);
        assert_eq!(dst_n[3], 15);
    });
}

/// `vectorize` must hand back the closure's value after running it exactly
/// once, on every backend and through the counting decorator.
fn check_vectorize_runs_once<S: Simd>(s: S) {
    let mut calls = 0;
    let owned = String::from(S::NAME);
    let out = s.vectorize(|| {
        calls += 1;
        owned
    });
    assert_eq!(out, S::NAME);
    assert_eq!(calls, 1, "{}", S::NAME);
}

#[test]
fn vectorize_runs_the_closure_once_and_returns_its_value() {
    check_vectorize_runs_once(Emulated);
    check_vectorize_runs_once(Counted::new(Emulated));
    with_native(|n| {
        check_vectorize_runs_once(n);
        check_vectorize_runs_once(Counted::new(n));
    });
}

/// One reduce-scatter step as the kernels run it: conflict-free lanes
/// gather, add and scatter into `acc`; the remaining lanes equal to the
/// first of them are summed with a masked reduction.
#[inline(always)]
fn reduce_scatter_step<S: Simd>(
    s: &S,
    idx: [i32; LANES],
    vals: [f32; LANES],
    acc: &mut [f32],
) -> (Mask16, f32) {
    let iv = s.from_array_i32(idx);
    let v = s.from_array_f32(vals);
    let free = conflict_free_mask(s, s.conflict_i32(iv));
    // SAFETY: every index is below acc.len() (the caller draws them so).
    let cur = unsafe { s.gather_f32(acc, iv, free, s.splat_f32(0.0)) };
    unsafe { s.scatter_f32(acc, iv, s.add_f32(cur, v), free) };
    let rest = free.not();
    let sum = match rest.first_set() {
        Some(lane) => {
            let same = s.mask_cmpeq_i32(rest, iv, s.splat_i32(idx[lane]));
            s.mask_reduce_add_f32(same, v)
        }
        None => 0.0,
    };
    (free, sum)
}

proptest! {
    /// The sequence compiled inside `Avx512::vectorize` (intrinsics
    /// inlined) computes what the emulation computes. Integer-valued
    /// weights keep every sum exact, whatever the reduction order.
    #[test]
    fn reduce_scatter_step_inside_vectorize_matches(
        idx in small_lanes_i32(),
        vals in prop::array::uniform16(-1000i32..1000),
    ) {
        let vals = vals.map(|x| x as f32);
        with_native(|n| {
            let mut acc_n: Vec<f32> = (0..8).map(|x| x as f32).collect();
            let mut acc_e = acc_n.clone();
            let native = n.vectorize(|| reduce_scatter_step(&n, idx, vals, &mut acc_n));
            let emulated = reduce_scatter_step(&Emulated, idx, vals, &mut acc_e);
            assert_eq!(native, emulated);
            assert_eq!(acc_n, acc_e);
        });
    }
}
