//! The Figure-5 microbenchmark.
//!
//! "The microbenchmark simulates the affinity calculation of a single
//! vertex in a fairly dense graph (with 4096 neighbors per-vertex packed
//! along the diagonal). The code does a sequence similar to the operations
//! of the algorithms we consider: load, gather, and scatter when running
//! vectorially."
//!
//! Neighbors are the consecutive ids around the diagonal, so gathers and
//! scatters hit adjacent cache lines — the *best case* for the vector
//! memory instructions, which is exactly why the measured gain is modest
//! (~1.2× on SkylakeX) and sets the ceiling expectation for coloring.

use gp_simd::backend::Simd;
use gp_simd::vector::{Mask16, LANES};

/// Workload: one vertex with `degree` neighbors packed along the diagonal.
pub struct MicrobenchData {
    /// Neighbor ids (0..degree).
    pub neighbors: Vec<i32>,
    /// Edge weights.
    pub weights: Vec<f32>,
    /// Community of each neighbor (identity — all distinct, conflict-free).
    pub communities: Vec<i32>,
    /// Affinity accumulator.
    pub affinity: Vec<f32>,
}

impl MicrobenchData {
    /// Builds the paper's configuration (`degree = 4096`).
    pub fn new(degree: usize) -> Self {
        MicrobenchData {
            neighbors: (0..degree as i32).collect(),
            weights: vec![1.0; degree],
            communities: (0..degree as i32).collect(),
            affinity: vec![0.0; degree],
        }
    }

    /// Resets the accumulator between repetitions.
    pub fn reset(&mut self) {
        self.affinity.fill(0.0);
    }
}

/// Scalar affinity pass: `affinity[communities[nbr]] += w` per neighbor.
pub fn affinity_scalar(data: &mut MicrobenchData) {
    for i in 0..data.neighbors.len() {
        let v = data.neighbors[i] as usize;
        let c = data.communities[v] as usize;
        data.affinity[c] += data.weights[i];
    }
}

/// Vector affinity pass: load 16 neighbors + weights, gather communities,
/// gather affinities, add, scatter — the paper's exact op sequence.
pub fn affinity_vector<S: Simd>(s: &S, data: &mut MicrobenchData) {
    s.vectorize(|| {
        let n = data.neighbors.len();
        let mut off = 0;
        while off + LANES <= n {
            let nbrs = s.load_i32(&data.neighbors[off..]);
            let wts = s.load_f32(&data.weights[off..]);
            // SAFETY: neighbor ids < communities.len(); communities are the
            // identity so gathered ids < affinity.len().
            let cs = unsafe { s.gather_i32(&data.communities, nbrs, Mask16::ALL, s.splat_i32(0)) };
            let cur = unsafe { s.gather_f32(&data.affinity, cs, Mask16::ALL, s.splat_f32(0.0)) };
            let upd = s.add_f32(cur, wts);
            unsafe { s.scatter_f32(&mut data.affinity, cs, upd, Mask16::ALL) };
            off += LANES;
        }
        // Tail (degree is a multiple of 16 in the paper's setup, but stay
        // general).
        while off < n {
            let v = data.neighbors[off] as usize;
            let c = data.communities[v] as usize;
            data.affinity[c] += data.weights[off];
            off += 1;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_simd::backend::Emulated;

    #[test]
    fn scalar_and_vector_agree() {
        let mut a = MicrobenchData::new(100);
        let mut b = MicrobenchData::new(100);
        affinity_scalar(&mut a);
        affinity_vector(&Emulated, &mut b);
        assert_eq!(a.affinity, b.affinity);
        assert!(a.affinity.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn reset_clears() {
        let mut d = MicrobenchData::new(32);
        affinity_scalar(&mut d);
        d.reset();
        assert!(d.affinity.iter().all(|&x| x == 0.0));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn native_vector_agrees() {
        if let Some(s) = gp_simd::backend::Avx512::new() {
            let mut a = MicrobenchData::new(4096);
            let mut b = MicrobenchData::new(4096);
            affinity_scalar(&mut a);
            affinity_vector(&s, &mut b);
            assert_eq!(a.affinity, b.affinity);
        }
    }
}
