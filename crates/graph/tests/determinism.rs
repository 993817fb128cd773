//! Cross-thread-count determinism for the parallel graph substrate.
//!
//! Every parallel pass in `gp-graph` is written so its output is a pure
//! function of its input: generators sample fixed-size blocks with one RNG
//! stream each, the builder's counting sorts combine per-chunk results in
//! chunk order, and CSR assembly scatters into precomputed disjoint
//! positions. These tests pin that contract: the same config must produce
//! *byte-identical* graphs on 1, 2, and 8 worker threads.
//!
//! The `*_bytes_are_pinned` tests go further and pin the bytes themselves:
//! digests recorded before the R-MAT sampler went branch-free, the builder
//! moved to a radix sort, and ER and BA dropped their hash sets. Cache keys,
//! `corpus/` cases and every `results/*.txt` row depend on these edge
//! streams, so a digest change is a generator version change, not a
//! refactor.

use gp_graph::builder::{DedupPolicy, GraphBuilder};
use gp_graph::csr::Csr;
use gp_graph::generators::rmat::{rmat, RmatConfig, TABLE2_DISTRIBUTIONS};
use gp_graph::generators::{erdos_renyi, preferential_attachment, triangular_mesh};
use gp_graph::par::with_threads;
use gp_graph::Edge;

/// Asserts `make()` yields identical graphs at 1, 2, and 8 threads;
/// returns the graph.
fn assert_thread_invariant(label: &str, make: impl Fn() -> Csr + Send + Sync) -> Csr {
    let reference = with_threads(1, &make);
    for t in [2usize, 8] {
        let g = with_threads(t, &make);
        assert_eq!(
            g.num_vertices(),
            reference.num_vertices(),
            "{label}: vertex count changed at {t} threads"
        );
        assert_eq!(
            g.num_edges(),
            reference.num_edges(),
            "{label}: edge count changed at {t} threads"
        );
        assert_eq!(g, reference, "{label}: bytes changed at {t} threads");
    }
    reference
}

/// FNV-1a over the CSR arrays: offsets, neighbors, then weight bits.
fn digest(g: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        h ^= u64::from(x);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    g.xadj().iter().for_each(|&x| eat(x));
    g.adj().iter().for_each(|&x| eat(x));
    g.weights().iter().for_each(|&w| eat(w.to_bits()));
    h
}

/// Asserts `make()` is thread-invariant and hashes to the pinned digest.
fn assert_pinned(label: &str, want: u64, make: impl Fn() -> Csr + Send + Sync) {
    let got = digest(&assert_thread_invariant(label, make));
    assert_eq!(
        got, want,
        "{label}: digest 0x{got:016x}, pinned 0x{want:016x}"
    );
}

#[test]
fn rmat_bytes_are_pinned() {
    // Four sample blocks; the quadrant compares run on integer thresholds.
    assert_pinned("rmat", 0x7b61_b2dc_2d35_06e7, || {
        rmat(RmatConfig::new(15, 8).with_seed(3))
    });
    // Table 2's near-uniform mix: `a+b+c` rounds in f64.
    let (a, b, c, d) = TABLE2_DISTRIBUTIONS[0];
    assert_pinned("rmat-table2", 0xb266_64d1_2fdc_73bb, || {
        rmat(
            RmatConfig::new(12, 6)
                .with_seed(4)
                .with_probabilities(a, b, c, d),
        )
    });
    // Noisy levels keep the f64 compares.
    assert_pinned("rmat-noise", 0xa68c_5849_fc8e_925b, || {
        rmat(RmatConfig::new(13, 8).with_seed(5).with_noise(0.1))
    });
}

#[test]
fn erdos_renyi_bytes_are_pinned() {
    // Sparse, three sample blocks, a few cross-block duplicates to top up.
    assert_pinned("er-sparse", 0x2906_d711_f286_9637, || {
        erdos_renyi(3000, (1 << 17) + 321, 9)
    });
    // 20000 of the 44850 possible pairs: thousands of duplicates, so the
    // top-up loop runs long and checks membership against both sets.
    assert_pinned("er-dense", 0xb5f7_6712_7df9_9623, || {
        erdos_renyi(300, 20_000, 11)
    });
}

#[test]
fn preferential_attachment_bytes_are_pinned() {
    assert_pinned("ba", 0xdf08_911a_7672_a281, || {
        preferential_attachment(3000, 4, 27)
    });
}

#[test]
fn mesh_bytes_are_pinned() {
    assert_pinned("mesh", 0x3797_309d_3a3f_6b59, || {
        triangular_mesh(120, 90, 7)
    });
}

/// SplitMix64 finalizer: the staged-edge stream below.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` edges over `n` vertices, each pair staged about three times in
/// both orientations with varying weights.
fn staged_edges(n: usize, count: usize) -> Vec<Edge> {
    let pairs = (count / 3).max(1) as u64;
    (0..count as u64)
        .map(|i| {
            let h = mix(i % pairs);
            let (u, v) = ((h % n as u64) as u32, ((h >> 32) % n as u64) as u32);
            let w = (mix(i) % 5) as f32 * 0.75 + 0.25;
            if i % 2 == 0 {
                Edge::new(u, v, w)
            } else {
                Edge::new(v, u, w)
            }
        })
        .collect()
}

#[test]
fn builder_bytes_are_pinned() {
    let edges = staged_edges(5003, 40_000);
    for (policy, want) in [
        (DedupPolicy::SumWeights, 0xd816_e0f3_8624_9f06),
        (DedupPolicy::KeepMax, 0x5d33_c921_ee0c_9f06),
        (DedupPolicy::KeepAll, 0x28bb_91ed_f605_6cbb),
    ] {
        assert_pinned(&format!("builder-{policy:?}"), want, || {
            GraphBuilder::new(5003)
                .dedup_policy(policy)
                .add_edges(edges.iter().copied())
                .build()
        });
    }
}

/// Duplicates whose f32 sum depends on the fold order, above the parallel
/// threshold: every pool must fold each run in ascending weight bits
/// (1 + 1 + 2^24 = 2^24 + 2, where the staged order 2^24, 1, 1 rounds to
/// 2^24).
#[test]
fn sum_weights_folds_duplicates_in_weight_order() {
    let big = (1u32 << 24) as f32;
    let n = 1000u32;
    let edges: Vec<Edge> = (0..3 * 10_000u32)
        .map(|i| {
            let p = i % 10_000;
            let (u, v) = (p % n, (p / n + p) % n);
            let w = if i < 10_000 { big } else { 1.0 };
            if i % 2 == 0 {
                Edge::new(u, v, w)
            } else {
                Edge::new(v, u, w)
            }
        })
        .collect();
    let g = assert_thread_invariant("sum-order", || {
        GraphBuilder::new(n as usize)
            .add_edges(edges.iter().copied())
            .build()
    });
    for u in g.vertices() {
        for (v, w) in g.edges_of(u) {
            assert_eq!(w, big + 2.0, "edge ({u}, {v}) folded out of weight order");
        }
    }
}

#[test]
fn rmat_is_thread_invariant() {
    // Scale 15 × 8 spans multiple 2^16 sample blocks.
    assert_thread_invariant("rmat", || rmat(RmatConfig::new(15, 8).with_seed(3)));
}

#[test]
fn rmat_with_noise_is_thread_invariant() {
    assert_thread_invariant("rmat-noise", || {
        rmat(RmatConfig::new(13, 8).with_seed(5).with_noise(0.1))
    });
}

#[test]
fn erdos_renyi_is_thread_invariant() {
    // m spans multiple sample blocks and forces the top-up path.
    let m = (1usize << 17) + 321;
    assert_thread_invariant("er", || erdos_renyi(3000, m, 9));
}

#[test]
fn preferential_attachment_is_thread_invariant() {
    assert_thread_invariant("ba", || preferential_attachment(3000, 4, 27));
}

/// Builder with duplicate-heavy input exceeding the parallel threshold: the
/// dedup + counting-sort pipeline must not leak chunk boundaries.
#[test]
fn builder_dedup_is_thread_invariant() {
    let n = 1usize << 12;
    let edges: Vec<Edge> = (0..(1usize << 15))
        .map(|i| {
            let u = ((i as u64 * 2654435761) % n as u64) as u32;
            let v = ((i as u64).wrapping_mul(40503).wrapping_add(17) % n as u64) as u32;
            Edge::new(u, v, (i % 7) as f32 + 0.5)
        })
        .collect();
    for policy in [DedupPolicy::KeepMax, DedupPolicy::SumWeights] {
        let build = || {
            GraphBuilder::new(n)
                .dedup_policy(policy)
                .add_edges(edges.iter().copied())
                .build()
        };
        assert_thread_invariant("builder", build);
    }
}

/// The generate→build pipeline end to end, compared against a serial run —
/// the composition the CLI's `--threads` knob exercises.
#[test]
fn generate_build_pipeline_matches_serial() {
    let make = || {
        let g = rmat(RmatConfig::new(12, 6).with_seed(77));
        // Rebuild through the builder to run both parallel layers.
        let edges: Vec<Edge> = g
            .vertices()
            .flat_map(|u| {
                g.edges_of(u)
                    .filter(move |&(v, _)| u <= v)
                    .map(move |(v, w)| Edge::new(u, v, w))
            })
            .collect();
        GraphBuilder::new(g.num_vertices())
            .dedup_policy(DedupPolicy::KeepMax)
            .add_edges(edges)
            .build()
    };
    assert_thread_invariant("pipeline", make);
}
