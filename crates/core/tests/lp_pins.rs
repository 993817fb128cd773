//! Pins the outputs of label propagation: MPLP (`Backend::Scalar`) and ONLP
//! (`Backend::Native`, which runs emulated on a host without AVX-512, and
//! `Backend::Emulated`) at seeds 1 and 7919, on a weighted R-MAT and a mesh.
//!
//! Each digest is an FNV-1a hash of the labels, the sweep count and every
//! sweep's update count, so it moves when the traversal order, the
//! heaviest-label selection or the convergence test changes a single bit.
//! The R-MAT's footprint (8.3 MiB) lies above the shuffled-sweep prefetch
//! gate and the mesh's below it, so the two graphs pin both arms of the
//! gate: label propagation with and without its prefetch pipeline.

use gp_core::api::{run_kernel, Backend, Kernel, KernelSpec};
use gp_core::labelprop::LabelPropResult;
use gp_graph::csr::Csr;
use gp_graph::generators::{rmat, triangular_mesh, RmatConfig};
use gp_graph::weights::{randomize_weights, WeightDistribution};
use gp_metrics::telemetry::NoopRecorder;

const SEEDS: [u64; 2] = [1, 7919];

fn weighted_rmat() -> Csr {
    randomize_weights(
        &rmat(RmatConfig::new(16, 8).with_seed(3)),
        WeightDistribution::HeavyTail { sigma: 2.0 },
        11,
    )
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

fn digest(r: &LabelPropResult) -> u64 {
    let updates = r.updates.iter().flat_map(|&u| [u as u32, (u >> 32) as u32]);
    fnv(r
        .labels
        .iter()
        .copied()
        .chain([r.iterations as u32])
        .chain(updates))
}

fn run(g: &Csr, backend: Backend, seed: u64) -> u64 {
    let spec = KernelSpec::new(Kernel::Labelprop)
        .sequential()
        .with_seed(seed)
        .with_backend(backend);
    let out = run_kernel(g, &spec, &mut NoopRecorder);
    digest(out.as_labelprop().expect("a labelprop spec returns labels"))
}

/// Checks MPLP against `mplp` and both ONLP backends against `onlp`, one
/// pin per seed in [`SEEDS`] order.
fn assert_pinned(name: &str, g: &Csr, mplp: [u64; 2], onlp: [u64; 2]) {
    for (i, seed) in SEEDS.into_iter().enumerate() {
        assert_eq!(
            run(g, Backend::Scalar, seed),
            mplp[i],
            "MPLP on {name}, seed {seed}"
        );
        for backend in [Backend::Emulated, Backend::Native] {
            assert_eq!(
                run(g, backend, seed),
                onlp[i],
                "ONLP ({}) on {name}, seed {seed}",
                backend.name()
            );
        }
    }
}

#[test]
fn weighted_rmat_labels_are_pinned() {
    assert_pinned(
        "weighted R-MAT",
        &weighted_rmat(),
        [15626084996810889926, 15025249072540808025],
        [15626084996810889926, 15025249072540808025],
    );
}

#[test]
fn mesh_labels_are_pinned() {
    assert_pinned(
        "mesh",
        &triangular_mesh(129, 129, 9),
        [4422648391146676379, 5049049715328131969],
        [1053163163906872000, 16917179223347702406],
    );
}
