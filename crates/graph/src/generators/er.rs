//! Erdős–Rényi G(n, m) generator, used in tests and as an unstructured
//! control workload for the kernels.
//!
//! ## Parallel sampling with fixed RNG streams
//!
//! Candidate pairs are drawn in fixed blocks of [`SAMPLE_CHUNK`], one
//! independent `ChaCha8Rng` stream per block (`set_stream(block_index)`).
//! The sampled pairs are radix-sorted and deduplicated, so the retained
//! edge set — every distinct pair sampled — is a pure function of
//! `(n, m, seed)` regardless of how many threads sampled the blocks. A
//! serial top-up pass on a dedicated stream (`u64::MAX`) replaces the
//! candidates lost to duplicates: it accepts each new pair that is neither
//! among the sorted samples nor among the pairs it already accepted, until
//! `m` edges exist — the exact-`m` contract of the original rejection
//! sampler.

use super::rmat::SAMPLE_CHUNK;
use crate::builder::{bits, radix_sort_by_key, DedupPolicy, GraphBuilder, PARALLEL_THRESHOLD};
use crate::csr::Csr;
use crate::Edge;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::BTreeSet;

/// An undirected G(n, m) random graph (m distinct non-loop edges), sampled
/// by rejection; deterministic per seed *and thread count*. `m` must be
/// achievable, i.e. `m <= n·(n-1)/2`.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    assert!(n >= 2 || m == 0, "need at least 2 vertices for any edge");
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max_m, "m = {m} exceeds the {max_m} possible edges");

    // Canonical pair `u < v` as one key, ordered like `(u, v)`.
    let b = bits(n.saturating_sub(1) as u64);
    let key = |u: u32, v: u32| ((u.min(v) as u64) << b) | u.max(v) as u64;

    // Parallel phase: sample `m` canonical non-loop pairs in fixed-size
    // blocks, one RNG stream each. Block layout depends only on `m`.
    let sampled: Vec<Vec<u64>> = (0..m.div_ceil(SAMPLE_CHUNK))
        .into_par_iter()
        .map(|block| {
            let quota = SAMPLE_CHUNK.min(m - block * SAMPLE_CHUNK);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_stream(block as u64);
            let mut out = Vec::with_capacity(quota);
            while out.len() < quota {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u != v {
                    out.push(key(u, v));
                }
            }
            out
        })
        .collect();
    let mut keys = radix_sort_by_key(sampled.concat(), 2 * b, |&k| k, m >= PARALLEL_THRESHOLD);
    keys.dedup();

    // Serial top-up on a reserved stream to restore the exact-m contract
    // (block sampling can lose candidates to cross-block duplicates).
    let mut extra = BTreeSet::new();
    if keys.len() < m {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(u64::MAX);
        while keys.len() + extra.len() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            let k = key(u, v);
            if keys.binary_search(&k).is_err() {
                extra.insert(k);
            }
        }
    }
    let mask = (1u64 << b) - 1;
    let edge = |k: u64| Edge::unweighted((k >> b) as u32, (k & mask) as u32);
    GraphBuilder::new(n)
        .dedup_policy(DedupPolicy::KeepMax)
        .add_edges(keys.into_iter().chain(extra).map(edge))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;

    #[test]
    fn exact_edge_count() {
        let g = erdos_renyi(100, 250, 42);
        assert_eq!(g.num_edges(), 250);
        assert!(g.is_symmetric());
        assert_eq!(g.num_self_loops(), 0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(50, 100, 1), erdos_renyi(50, 100, 1));
        assert_ne!(erdos_renyi(50, 100, 1), erdos_renyi(50, 100, 2));
    }

    #[test]
    fn zero_edges() {
        let g = erdos_renyi(10, 0, 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn complete_graph_via_max_m() {
        let g = erdos_renyi(6, 15, 3);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn exact_count_across_block_boundary() {
        // m spans multiple sample blocks; the top-up pass must restore the
        // exact count even when cross-block duplicates appear.
        let m = SAMPLE_CHUNK + SAMPLE_CHUNK / 2;
        let g = erdos_renyi(1500, m, 5);
        assert_eq!(g.num_edges(), m);
        assert_eq!(g.num_self_loops(), 0);
    }

    #[test]
    fn thread_count_does_not_change_graph() {
        let m = SAMPLE_CHUNK * 2 + 123;
        let reference = with_threads(1, || erdos_renyi(2000, m, 17));
        for t in [2usize, 8] {
            let g = with_threads(t, || erdos_renyi(2000, m, 17));
            assert_eq!(g, reference, "graph changed at {t} threads");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_impossible_m() {
        erdos_renyi(4, 7, 0);
    }
}
