//! Contrast kernels: SpMV and BFS.
//!
//! The paper positions partitioning kernels against "classic problems like
//! BFS or SpMV", whose vectorizations need only *gather* (and were possible
//! before AVX-512 scatter): SpMV reduces gathered values into a per-row
//! accumulator, BFS expands frontiers with gather + compress. Neither needs
//! the reduce-scatter pattern. These implementations let the benchmark
//! harness demonstrate the paper's architectural claim: gather-only kernels
//! show a small SkylakeX↔CascadeLake gap, while the scatter-bound
//! partitioning kernels are the ones that reward Cascade Lake's scatter
//! hardware.

use crate::reduce_scatter::as_i32;
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{RunInfo, RunTimer};
use gp_simd::backend::Simd;
use gp_simd::vector::LANES;

/// Scalar sparse matrix–vector product over the graph's adjacency:
/// `y[u] = Σ_{v ∈ N(u)} w(u,v) · x[v]`.
pub fn spmv_scalar(g: &Csr, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), g.num_vertices());
    assert_eq!(y.len(), g.num_vertices());
    for u in g.vertices() {
        let mut acc = 0.0f32;
        for (v, w) in g.edges_of(u) {
            acc += w * x[v as usize];
        }
        y[u as usize] = acc;
    }
}

/// Vectorized SpMV: 16 neighbors per step — load column indices and values,
/// gather `x`, multiply-accumulate into a vector register, one horizontal
/// reduction per row. Gather-only: no scatter, no conflict detection.
pub fn spmv_vector<S: Simd>(s: &S, g: &Csr, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), g.num_vertices());
    assert_eq!(y.len(), g.num_vertices());
    s.vectorize(|| {
        let zero = s.splat_f32(0.0);
        for u in g.vertices() {
            let neighbors = as_i32(g.neighbors(u));
            let weights = g.weights_of(u);
            let mut acc = zero;
            let mut off = 0;
            while off < neighbors.len() {
                let (nbrs, mask) = s.load_tail_i32(&neighbors[off..]);
                let (wts, _) = s.load_tail_f32(&weights[off..]);
                // SAFETY: neighbor ids < |V| = x.len() (CSR invariant).
                let xs = unsafe { s.gather_f32(x, nbrs, mask, zero) };
                acc = s.mask_add_f32(acc, mask, acc, s.mul_f32(wts, xs));
                off += LANES;
            }
            y[u as usize] = s.reduce_add_f32(acc);
        }
    })
}

/// Result of a BFS: level per vertex (`u32::MAX` = unreached).
#[derive(Debug, Clone)]
pub struct BfsResult {
    pub levels: Vec<u32>,
    /// Vertices per level (the frontier sizes).
    pub frontier_sizes: Vec<usize>,
    /// Uniform run envelope (backend, depth, completion, wall time).
    /// Excluded from equality.
    pub info: RunInfo,
}

impl PartialEq for BfsResult {
    fn eq(&self, other: &Self) -> bool {
        self.levels == other.levels && self.frontier_sizes == other.frontier_sizes
    }
}

/// Scalar level-synchronous BFS from `source`.
pub fn bfs_scalar(g: &Csr, source: u32) -> BfsResult {
    let timer = RunTimer::start();
    let n = g.num_vertices();
    let mut levels = vec![u32::MAX; n];
    let mut frontier = vec![source];
    levels[source as usize] = 0;
    let mut result = BfsResult {
        levels: Vec::new(),
        frontier_sizes: Vec::new(),
        info: RunInfo::default(),
    };
    let mut depth = 0u32;
    while !frontier.is_empty() {
        result.frontier_sizes.push(frontier.len());
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if levels[v as usize] == u32::MAX {
                    levels[v as usize] = depth + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    result.levels = levels;
    result.info = RunInfo::new(
        "scalar",
        result.frontier_sizes.len(),
        true,
        timer.elapsed_secs(),
    );
    result
}

/// Vectorized level-synchronous BFS: per frontier vertex, gather the levels
/// of 16 neighbors, select the unvisited ones, scatter the new level, and
/// *compress* them into the next frontier — gather + compress + one scatter
/// of constants (no read-modify-write, hence no reduce-scatter needed).
pub fn bfs_vector<S: Simd>(s: &S, g: &Csr, source: u32) -> BfsResult {
    let timer = RunTimer::start();
    let n = g.num_vertices();
    // Levels as i32 with -1 = unreached, for direct vector compares.
    let mut levels = vec![-1i32; n];
    levels[source as usize] = 0;
    let mut frontier = vec![source as i32];
    let mut result = BfsResult {
        levels: Vec::new(),
        frontier_sizes: Vec::new(),
        info: RunInfo::default(),
    };
    s.vectorize(|| {
        let unreached = s.splat_i32(-1);
        let mut depth = 0i32;
        let mut spill = [0i32; LANES];
        while !frontier.is_empty() {
            result.frontier_sizes.push(frontier.len());
            let mut next: Vec<i32> = Vec::new();
            let next_level = s.splat_i32(depth + 1);
            for &u in &frontier {
                let neighbors = as_i32(g.neighbors(u as u32));
                let mut off = 0;
                while off < neighbors.len() {
                    let (nbrs, mask) = s.load_tail_i32(&neighbors[off..]);
                    // SAFETY: neighbor ids < |V| = levels.len().
                    let lv = unsafe { s.gather_i32(&levels, nbrs, mask, s.splat_i32(0)) };
                    let fresh = s.cmpeq_i32(lv, unreached).and(mask);
                    if !fresh.is_empty() {
                        // Mark immediately so later chunks see them; duplicate
                        // lanes within one chunk scatter the same value.
                        unsafe { s.scatter_i32(&mut levels, nbrs, next_level, fresh) };
                        let packed = s.compress_i32(fresh, nbrs);
                        s.store_i32(&mut spill, packed);
                        let mut taken = &spill[..fresh.count()];
                        // In-chunk duplicates survive the compress; drop them so
                        // the frontier matches the scalar algorithm's.
                        let mut seen_in_chunk: Vec<i32> = Vec::with_capacity(taken.len());
                        for &v in taken {
                            if !seen_in_chunk.contains(&v) {
                                seen_in_chunk.push(v);
                            }
                        }
                        taken = &seen_in_chunk[..];
                        next.extend_from_slice(taken);
                    }
                    off += LANES;
                }
            }
            frontier = next;
            depth += 1;
        }
    });
    result.levels = levels.into_iter().map(|l| l as u32).collect();
    result.info = RunInfo::new(
        S::NAME,
        result.frontier_sizes.len(),
        true,
        timer.elapsed_secs(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{erdos_renyi, path, star, triangular_mesh};
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    #[test]
    fn spmv_scalar_matches_vector() {
        let g = erdos_renyi(200, 900, 3);
        let x: Vec<f32> = (0..200).map(|i| (i as f32).sin()).collect();
        let mut y1 = vec![0f32; 200];
        let mut y2 = vec![0f32; 200];
        spmv_scalar(&g, &x, &mut y1);
        spmv_vector(&S, &g, &x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn spmv_on_path_is_neighbor_sum() {
        let g = path(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0f32; 4];
        spmv_vector(&S, &g, &x, &mut y);
        assert_eq!(y, vec![2.0, 4.0, 6.0, 3.0]);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path(5);
        let r = bfs_scalar(&g, 0);
        assert_eq!(r.levels, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.frontier_sizes, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn bfs_vector_matches_scalar_levels() {
        for g in [
            triangular_mesh(15, 15, 3),
            erdos_renyi(300, 1000, 7),
            star(40),
        ] {
            let a = bfs_scalar(&g, 0);
            let b = bfs_vector(&S, &g, 0);
            assert_eq!(a.levels, b.levels);
            assert_eq!(a.frontier_sizes, b.frontier_sizes);
        }
    }

    #[test]
    fn bfs_unreachable_vertices_stay_max() {
        let g = from_pairs(4, [(0, 1)]);
        let r = bfs_vector(&S, &g, 0);
        assert_eq!(r.levels[2], u32::MAX);
        assert_eq!(r.levels[3], u32::MAX);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn contrast_kernels_native_match_emulated() {
        if let Some(n) = gp_simd::backend::Avx512::new() {
            let g = erdos_renyi(256, 1500, 11);
            let x: Vec<f32> = (0..256).map(|i| i as f32 * 0.5).collect();
            let mut y1 = vec![0f32; 256];
            let mut y2 = vec![0f32; 256];
            spmv_vector(&n, &g, &x, &mut y1);
            spmv_vector(&S, &g, &x, &mut y2);
            assert_eq!(y1, y2);
            assert_eq!(bfs_vector(&n, &g, 0).levels, bfs_vector(&S, &g, 0).levels);
        }
    }
}
