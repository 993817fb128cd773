//! R-MAT recursive-matrix graph generator (Chakrabarti et al., SDM 2004).
//!
//! This is the generator behind Table 2 and the Figure 7–10 sweeps. An edge
//! is placed by recursively descending into one of the four quadrants of the
//! adjacency matrix with probabilities `(a, b, c, d)`; `scale` fixes
//! `n = 2^scale` vertices and `edge_factor` requests `n · edge_factor`
//! edge samples (the paper counts `|E| = 2^scale × (2 × edge_factor)`
//! *directed* arcs, i.e. `edge_factor · n` undirected samples symmetrized).
//!
//! ## Parallel sampling with fixed RNG streams
//!
//! Samples are drawn in fixed blocks of [`SAMPLE_CHUNK`] edges, one
//! independent `ChaCha8Rng` stream per block (`set_stream(block_index)`).
//! The block decomposition depends only on the requested sample count —
//! never on the thread count — so the generated graph is a pure function of
//! the config: blocks can be sampled on any number of threads (or serially)
//! and concatenate to the identical edge list.
//!
//! Blocks are fanned out to workers as contiguous *ranges* balanced by
//! sample quota (`chunk_ranges_weighted`), not by block count: the final
//! block carries only `target % SAMPLE_CHUNK` samples, and an even block
//! split would park one worker on that near-empty tail while another
//! carries full blocks. Ranges are processed left-to-right and their edge
//! vectors concatenated in range order, so the edge sequence — and the
//! built graph — is byte-identical to the serial block sweep.

use crate::builder::{DedupPolicy, GraphBuilder};
use crate::csr::Csr;
use crate::par::{chunk_count, chunk_ranges_weighted};
use crate::Edge;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Samples per RNG stream. Fixed (not thread-count-derived) so the sampled
/// edge multiset is identical for any parallelism.
pub(crate) const SAMPLE_CHUNK: usize = 1 << 16;

/// The three probability distributions of Table 2.
pub const TABLE2_DISTRIBUTIONS: [(f64, f64, f64, f64); 3] = [
    (0.33, 0.33, 0.33, 0.01),
    (0.40, 0.30, 0.20, 0.10),
    (0.57, 0.19, 0.19, 0.05),
];

/// Parameters for [`rmat`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// `n = 2^scale` vertices.
    pub scale: u32,
    /// Requested edges per vertex (undirected samples = `edge_factor * n`).
    pub edge_factor: u32,
    /// Quadrant probabilities; must be non-negative and sum to ~1.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
    /// Add per-lane noise to the probabilities at each recursion level, as in
    /// the Graph500 reference generator, to avoid grid artifacts.
    pub noise: f64,
}

impl RmatConfig {
    /// The Graph500-style defaults (a=57%, b=19%, c=19%, d=5%).
    pub fn new(scale: u32, edge_factor: u32) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            seed: 0x5eed,
            noise: 0.0,
        }
    }

    /// Overrides the quadrant probabilities.
    pub fn with_probabilities(mut self, a: f64, b: f64, c: f64, d: f64) -> Self {
        self.a = a;
        self.b = b;
        self.c = c;
        self.d = d;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables probability noise (0.0..0.5 is sensible).
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    fn validate(&self) {
        assert!(self.scale >= 1 && self.scale <= 30, "scale out of range");
        assert!(self.edge_factor >= 1, "edge_factor must be >= 1");
        let s = self.a + self.b + self.c + self.d;
        assert!(
            (s - 1.0).abs() < 1e-6,
            "quadrant probabilities must sum to 1 (got {s})"
        );
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0,
            "probabilities must be non-negative"
        );
    }
}

/// Quadrant bits of one recursion level, branch-free. `lt[i]` says the
/// quadrant draw fell below the `i`-th cumulative threshold (`a`, `a+b`,
/// `a+b+c`); the first threshold it falls below picks the quadrant, so `u`
/// gets a bit in quadrants c and d, `v` in quadrants b and d. Exact for any
/// thresholds, ordered or not.
#[inline(always)]
fn quadrant(lt: [bool; 3]) -> (u32, u32) {
    let u = !(lt[0] | lt[1]);
    let v = !lt[0] & (lt[1] | !lt[2]);
    (u as u32, v as u32)
}

/// Samples one edge endpoint pair.
///
/// Each level's quadrant draw is one `f64` `r = k · 2^-53` (`k = next_u64() >> 11`),
/// compared with the cumulative thresholds. Without noise the thresholds
/// are fixed, so the compares run on `k` against `ceil(t · 2^53)`:
/// `k · 2^-53 < t` holds exactly when `k < ceil(t · 2^53)`, since both
/// scalings by `2^53` are exact. Same draws, same edges as `f64` compares.
fn sample_edge(cfg: &RmatConfig, fixed: &[u64; 3], rng: &mut impl Rng) -> (u32, u32) {
    let mut u = 0u32;
    let mut v = 0u32;
    let mut descend = |(bu, bv): (u32, u32)| {
        u = (u << 1) | bu;
        v = (v << 1) | bv;
    };
    if cfg.noise > 0.0 {
        for _ in 0..cfg.scale {
            // Multiplicative noise per level, renormalized.
            let na = cfg.a * (1.0 - cfg.noise + 2.0 * cfg.noise * rng.gen::<f64>());
            let nb = cfg.b * (1.0 - cfg.noise + 2.0 * cfg.noise * rng.gen::<f64>());
            let nc = cfg.c * (1.0 - cfg.noise + 2.0 * cfg.noise * rng.gen::<f64>());
            let nd = cfg.d * (1.0 - cfg.noise + 2.0 * cfg.noise * rng.gen::<f64>());
            let s = na + nb + nc + nd;
            let (a, b, c) = (na / s, nb / s, nc / s);
            let r: f64 = rng.gen();
            descend(quadrant([r < a, r < a + b, r < a + b + c]));
        }
    } else {
        for _ in 0..cfg.scale {
            let k = rng.next_u64() >> 11;
            descend(quadrant([k < fixed[0], k < fixed[1], k < fixed[2]]));
        }
    }
    (u, v)
}

/// The noise-free cumulative thresholds `a`, `a+b`, `a+b+c` (summed as
/// `f64`, left to right), scaled to integer draws: `ceil(t · 2^53)`.
fn fixed_thresholds(cfg: &RmatConfig) -> [u64; 3] {
    let scale = (1u64 << 53) as f64;
    [cfg.a, cfg.a + cfg.b, cfg.a + cfg.b + cfg.c].map(|t| (t * scale).ceil() as u64)
}

/// Generates an undirected R-MAT graph.
///
/// ```
/// use gp_graph::generators::rmat::{rmat, RmatConfig};
///
/// let g = rmat(RmatConfig::new(8, 4).with_seed(1));
/// assert_eq!(g.num_vertices(), 256);
/// assert!(g.num_edges() > 500);
/// ```
///
/// `edge_factor · n` endpoint pairs are sampled; self-loops are discarded
/// (without replacement draws, as in the Graph500 reference) and duplicate
/// edges are merged (weight 1 kept, NetworKit-style unweighted semantics),
/// so the final `num_edges()` is slightly below `edge_factor · n`.
///
/// Sampling is parallel over fixed-size blocks with one RNG stream each; the
/// output is byte-identical for any thread count.
pub fn rmat(cfg: RmatConfig) -> Csr {
    cfg.validate();
    let n = 1usize << cfg.scale;
    let target = n * cfg.edge_factor as usize;
    let blocks = sample_block_count(&cfg);
    let quota = |block: usize| SAMPLE_CHUNK.min(target - block * SAMPLE_CHUNK);
    let fixed = fixed_thresholds(&cfg);

    // One task per worker, each owning a contiguous block range balanced by
    // sample quota — the tail block can be nearly empty, so splitting by
    // block count would strand a worker on it (see module docs).
    let ranges = chunk_ranges_weighted(blocks, chunk_count(blocks, 1), |b| quota(b) as u64);
    let sampled: Vec<Vec<Edge>> = gp_par::current().map(ranges, |range| {
        let samples: usize = range.clone().map(quota).sum();
        let mut out = Vec::with_capacity(samples);
        for block in range {
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
            rng.set_stream(block as u64);
            for _ in 0..quota(block) {
                let (u, v) = sample_edge(&cfg, &fixed, &mut rng);
                if u != v {
                    out.push(Edge::unweighted(u, v));
                }
            }
        }
        out
    });

    let mut builder = GraphBuilder::new(n).dedup_policy(DedupPolicy::KeepMax);
    for chunk in sampled {
        builder = builder.add_edges(chunk);
    }
    builder.build()
}

/// Number of fixed-size RNG sample blocks [`rmat`] draws for this config —
/// the upper bound on usable parallelism during edge generation (each block
/// is one independent `ChaCha8Rng` stream and cannot be subdivided without
/// changing the output).
pub fn sample_block_count(cfg: &RmatConfig) -> usize {
    let target = (1usize << cfg.scale) * cfg.edge_factor as usize;
    target.div_ceil(SAMPLE_CHUNK).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;

    #[test]
    fn deterministic_for_seed() {
        let g1 = rmat(RmatConfig::new(8, 4).with_seed(7));
        let g2 = rmat(RmatConfig::new(8, 4).with_seed(7));
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seed_changes_graph() {
        let g1 = rmat(RmatConfig::new(8, 4).with_seed(7));
        let g2 = rmat(RmatConfig::new(8, 4).with_seed(8));
        assert_ne!(g1, g2);
    }

    #[test]
    fn thread_count_does_not_change_graph() {
        // Spans multiple sample blocks (2^14 * 8 = 2 blocks).
        let cfg = RmatConfig::new(14, 8).with_seed(11);
        let reference = with_threads(1, || rmat(cfg));
        for t in [2usize, 8] {
            let g = with_threads(t, || rmat(cfg));
            assert_eq!(g, reference, "graph changed at {t} threads");
        }
    }

    #[test]
    fn partial_tail_block_is_thread_invariant() {
        // 2^13 * 9 = 73728 samples = one full block + a 8192-sample tail:
        // exercises the quota-weighted range split around an uneven block.
        let cfg = RmatConfig::new(13, 9).with_seed(5);
        assert_eq!(sample_block_count(&cfg), 2);
        let reference = with_threads(1, || rmat(cfg));
        for t in [2usize, 4, 8] {
            let g = with_threads(t, || rmat(cfg));
            assert_eq!(g, reference, "graph changed at {t} threads");
        }
    }

    #[test]
    fn sample_block_count_matches_target() {
        assert_eq!(sample_block_count(&RmatConfig::new(8, 4)), 1); // 2^10 samples
        assert_eq!(sample_block_count(&RmatConfig::new(14, 8)), 2); // 2^17 / 2^16
        assert_eq!(sample_block_count(&RmatConfig::new(18, 8)), 32); // 2^21 / 2^16
    }

    #[test]
    fn vertex_count_is_power_of_scale() {
        let g = rmat(RmatConfig::new(10, 2));
        assert_eq!(g.num_vertices(), 1024);
    }

    #[test]
    fn edge_count_near_target() {
        let g = rmat(RmatConfig::new(10, 8));
        let target = 1024 * 8;
        // Self-loop drops and dedup remove some, but the bulk should be there.
        assert!(g.num_edges() > target / 2, "too few edges: {}", g.num_edges());
        assert!(g.num_edges() <= target);
    }

    #[test]
    fn no_self_loops() {
        let g = rmat(RmatConfig::new(9, 4));
        assert_eq!(g.num_self_loops(), 0);
    }

    #[test]
    fn symmetric_output() {
        let g = rmat(RmatConfig::new(7, 4));
        assert!(g.is_symmetric());
    }

    #[test]
    fn skewed_distribution_creates_hubs() {
        // With a = 57%, low-id vertices should accumulate much higher degree
        // than the average — the power-law the paper relies on.
        let g = rmat(RmatConfig::new(12, 8).with_probabilities(0.57, 0.19, 0.19, 0.05));
        let avg = g.avg_degree();
        assert!(
            g.max_degree() as f64 > 4.0 * avg,
            "expected hub vertices: max {} vs avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn uniform_distribution_is_balanced() {
        let g = rmat(RmatConfig::new(10, 8).with_probabilities(0.25, 0.25, 0.25, 0.25));
        // Erdős–Rényi-like: max degree within a small factor of the average.
        assert!((g.max_degree() as f64) < 5.0 * g.avg_degree());
    }

    #[test]
    fn noise_still_deterministic() {
        let g1 = rmat(RmatConfig::new(8, 4).with_noise(0.1));
        let g2 = rmat(RmatConfig::new(8, 4).with_noise(0.1));
        assert_eq!(g1, g2);
    }

    /// The if/else chain `quadrant` replaces.
    fn quadrant_branchy(r: f64, t: [f64; 3]) -> (u32, u32) {
        if r < t[0] {
            (0, 0)
        } else if r < t[1] {
            (0, 1)
        } else if r < t[2] {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn quadrant_matches_the_branch_chain_for_any_thresholds() {
        let grid = [-0.5, 0.0, 0.2, 0.5, 0.7, 1.0, 1.5];
        for t0 in grid {
            for t1 in grid {
                for t2 in grid {
                    for r in grid {
                        let t = [t0, t1, t2];
                        let lt = [r < t0, r < t1, r < t2];
                        assert_eq!(quadrant(lt), quadrant_branchy(r, t), "r {r} t {t:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn integer_thresholds_match_f64_compares_at_the_boundaries() {
        let scale = (1u64 << 53) as f64;
        for (a, b, c, d) in TABLE2_DISTRIBUTIONS
            .into_iter()
            .chain([(0.57, 0.19, 0.19, 0.05)])
        {
            let cfg = RmatConfig::new(4, 1).with_probabilities(a, b, c, d);
            let fixed = fixed_thresholds(&cfg);
            let t = [a, a + b, a + b + c];
            for (i, &f) in fixed.iter().enumerate() {
                for k in [f - 2, f - 1, f, f + 1] {
                    // How `Rng::gen::<f64>` turns the draw into `r`.
                    let r = k as f64 * (1.0 / scale);
                    assert_eq!(
                        k < f,
                        r < t[i],
                        "threshold {i} of {:?}, k {k}",
                        (a, b, c, d)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        rmat(RmatConfig::new(8, 4).with_probabilities(0.5, 0.5, 0.5, 0.5));
    }

    #[test]
    fn table2_distributions_sum_to_one() {
        for (a, b, c, d) in TABLE2_DISTRIBUTIONS {
            assert!((a + b + c + d - 1.0).abs() < 1e-9);
        }
    }
}
