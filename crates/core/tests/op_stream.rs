//! Pins the counted op stream of every kernel that aggregates through the
//! reduce-scatter primitive: ONPL Louvain (conflict detection, in-vector
//! reduction, adaptive), ONLP label propagation, multilevel partitioning
//! with ONPL refinement, and SLPA. Each case records an FNV-1a digest of
//! its output and its per-`OpClass` counts under `Counted<Emulated>` on a
//! weighted R-MAT and on a triangular mesh. The modeled figures are
//! functions of these counts, so a change to the primitive that moves a
//! single operation fails here.
//!
//! Every counted run goes through `counted_run`, which serializes them, and
//! nothing in this binary records operations outside one, so the
//! process-global counters cannot leak between the tests.

use gp_core::api::{run_kernel, Backend, Kernel, KernelSpec};
use gp_core::louvain::Variant;
use gp_core::overlap::{slpa_with, SlpaConfig};
use gp_core::partition::{partition_graph_with, PartitionConfig};
use gp_core::reduce_scatter::Strategy;
use gp_graph::csr::Csr;
use gp_graph::generators::{rmat, triangular_mesh, RmatConfig};
use gp_graph::weights::{randomize_weights, WeightDistribution};
use gp_metrics::telemetry::NoopRecorder;
use gp_simd::backend::Emulated;
use gp_simd::counted::Counted;
use gp_simd::counters::{counted_run, ALL_OP_CLASSES, NUM_OP_CLASSES};

/// `(output digest, counts in `ALL_OP_CLASSES` order)` per graph.
type Pin = (u64, [u64; NUM_OP_CLASSES]);

fn graphs() -> [(&'static str, Csr); 2] {
    let mut cfg = RmatConfig::new(10, 8);
    cfg.seed = 11;
    let skewed = randomize_weights(&rmat(cfg), WeightDistribution::HeavyTail { sigma: 2.0 }, 5);
    [
        ("weighted rmat", skewed),
        ("mesh", triangular_mesh(24, 24, 3)),
    ]
}

fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs `run` counted on both graphs and compares against `pins`.
fn assert_pinned(kernel: &str, run: impl Fn(&Csr) -> u64, pins: [Pin; 2]) {
    for ((name, g), pin) in graphs().iter().zip(pins) {
        let (digest, counts) = counted_run(|| run(g));
        let got = (digest, ALL_OP_CLASSES.map(|c| counts.get(c)));
        assert_eq!(got, pin, "{kernel} on {name}");
    }
}

/// A sequential counted run through `run_kernel` on the emulated backend.
fn run_counted(g: &Csr, kernel: Kernel) -> u64 {
    let spec = KernelSpec::new(kernel)
        .with_backend(Backend::Emulated)
        .sequential()
        .counted();
    let out = run_kernel(g, &spec, &mut NoopRecorder);
    fnv(out.communities().expect("community kernel").iter().copied())
}

fn onpl(strategy: Strategy) -> impl Fn(&Csr) -> u64 {
    move |g| run_counted(g, Kernel::Louvain(Variant::Onpl(strategy)))
}

#[test]
fn onpl_conflict_detect_op_stream_is_pinned() {
    assert_pinned(
        "onpl-cd",
        onpl(Strategy::ConflictDetect),
        [
            (
                13438287280992092760,
                [
                    0, 32155, 10781, 53529, 21468, 13782, 9349, 16092, 5736, 5736, 51754, 22078,
                    943, 0, 13782,
                ],
            ),
            (
                4680769227924221602,
                [
                    0, 17643, 4877, 30409, 11260, 3970, 3757, 3970, 1985, 1985, 11910, 5955, 0, 0,
                    3970,
                ],
            ),
        ],
    );
}

#[test]
fn onpl_in_vector_reduce_op_stream_is_pinned() {
    assert_pinned(
        "onpl-ivr",
        onpl(Strategy::InVectorReduce),
        [
            (
                13438287280992092760,
                [
                    0, 81773, 60399, 103147, 71086, 13782, 11388, 10356, 0, 0, 40275, 16335, 6672,
                    0, 13782,
                ],
            ),
            (
                4680769227924221602,
                [
                    0, 18695, 5929, 31461, 12312, 3970, 3770, 1985, 0, 0, 7940, 3970, 1985, 0, 3970,
                ],
            ),
        ],
    );
}

#[test]
fn onpl_adaptive_op_stream_is_pinned() {
    assert_pinned(
        "onpl-adaptive",
        onpl(Strategy::Adaptive),
        [
            (
                13438287280992092760,
                [
                    0, 32209, 10835, 53583, 21522, 13782, 9349, 16072, 5716, 5736, 51754, 22078,
                    963, 0, 13782,
                ],
            ),
            (
                4680769227924221602,
                [
                    0, 16130, 3364, 28896, 9747, 3970, 3562, 3215, 1230, 1985, 11910, 5955, 755, 0,
                    3970,
                ],
            ),
        ],
    );
}

#[test]
fn onlp_op_stream_is_pinned() {
    assert_pinned(
        "onlp",
        |g| run_counted(g, Kernel::Labelprop),
        [
            (
                3152728173857791503,
                [
                    74180, 118383, 62749, 99839, 99839, 9436, 7524, 9436, 3558, 3558, 29749, 14083,
                    2072, 0, 9436,
                ],
            ),
            (
                2099819318002248842,
                [
                    17350, 25111, 12099, 20774, 20774, 4542, 3379, 4542, 1514, 1514, 17218, 6620,
                    1514, 0, 4542,
                ],
            ),
        ],
    );
}

#[test]
fn partition_refinement_op_stream_is_pinned() {
    let run = |g: &Csr| {
        let cfg = PartitionConfig {
            k: 4,
            ..Default::default()
        };
        let r = partition_graph_with(&Counted::new(Emulated), g, &cfg);
        let cut = r.edge_cut.to_bits();
        fnv(r
            .parts
            .iter()
            .copied()
            .chain([cut as u32, (cut >> 32) as u32]))
    };
    assert_pinned(
        "partition",
        run,
        [
            (
                4911753466073959711,
                [
                    0, 100936, 100936, 100936, 100936, 34134, 29859, 23696, 6629, 17067, 80970,
                    51201, 10438, 0, 34134,
                ],
            ),
            (
                12096649677076229509,
                [
                    0, 2139, 2139, 2139, 2139, 5148, 3450, 2867, 293, 2574, 15444, 7722, 2281, 0,
                    5148,
                ],
            ),
        ],
    );
}

#[test]
fn slpa_op_stream_is_pinned() {
    let run = |g: &Csr| {
        let cfg = SlpaConfig {
            iterations: 8,
            ..Default::default()
        };
        let r = slpa_with(&Counted::new(Emulated), g, &cfg);
        fnv(r
            .memberships
            .iter()
            .flat_map(|m| m.iter().copied().chain([u32::MAX])))
    };
    assert_pinned(
        "slpa",
        run,
        [
            (
                14270517045878202259,
                [
                    0, 6591, 6591, 6591, 6591, 20288, 13842, 20282, 10138, 10144, 49680, 30432, 6,
                    0, 20288,
                ],
            ),
            (
                15216508526358926815,
                [
                    0, 3684, 3684, 3684, 3684, 9216, 6987, 9056, 4448, 4608, 27648, 13824, 160, 0,
                    9216,
                ],
            ),
        ],
    );
}
