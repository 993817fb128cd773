//! Pins the outputs of speculative greedy coloring: the scalar kernel
//! (`Backend::Scalar`) and the ONPL kernel (`Backend::Emulated`, and
//! `Backend::Native`, which runs emulated on a host without AVX-512) on a
//! hub-heavy R-MAT, a Barabási–Albert graph and a mesh.
//!
//! Each digest is an FNV-1a hash of the colors, the color count and the
//! round count, so it moves when the visit order or the first-fit rule
//! changes a single bit. The R-MAT and the Barabási–Albert graph mix
//! vertices of degree ≤ 16, which the scalar kernel colors through its
//! bitmask, with hubs past it; every mesh vertex is low-degree. The
//! sequential spec runs at 1 and 4 threads and the parallel spec at 1
//! thread, whose pool is inline, so every case is deterministic. All three
//! backends implement the same first-fit rule, so they share one pin per
//! graph.

use gp_core::api::{run_kernel, Backend, Kernel, KernelSpec};
use gp_core::coloring::{verify_coloring, ColoringResult};
use gp_graph::csr::Csr;
use gp_graph::generators::{preferential_attachment, rmat, triangular_mesh, RmatConfig};
use gp_graph::par::with_threads;
use gp_metrics::telemetry::NoopRecorder;

const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Emulated, Backend::Native];

fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn digest(r: &ColoringResult) -> u64 {
    fnv(r
        .colors
        .iter()
        .copied()
        .chain([r.num_colors, r.rounds as u32]))
}

/// Runs every backend under the sequential spec at 1 and 4 threads and
/// under the parallel spec at 1 thread, and checks each against `pin`.
fn assert_pinned(name: &str, g: &Csr, pin: u64) {
    for backend in BACKENDS {
        let seq = KernelSpec::new(Kernel::Coloring)
            .sequential()
            .with_backend(backend);
        let par = KernelSpec {
            parallel: true,
            ..seq
        };
        for (spec, threads) in [(seq, 1), (seq, 4), (par, 1)] {
            let out = with_threads(threads, || run_kernel(g, &spec, &mut NoopRecorder));
            let r = out.as_coloring().expect("a coloring spec returns colors");
            verify_coloring(g, &r.colors).expect("valid coloring");
            assert_eq!(
                digest(r),
                pin,
                "{} on {name}, parallel {} at {threads} threads",
                backend.name(),
                spec.parallel
            );
        }
    }
}

#[test]
fn hub_heavy_rmat_colors_are_pinned() {
    let g = rmat(RmatConfig::new(13, 8).with_seed(3));
    let max = g.max_degree();
    let low = (0..g.num_vertices() as u32)
        .filter(|&v| g.degree(v) <= 16)
        .count();
    assert!(
        max > 16 && low > 0 && low < g.num_vertices(),
        "mixed degrees"
    );
    assert_pinned("R-MAT", &g, 1457223468367977517);
}

#[test]
fn barabasi_albert_colors_are_pinned() {
    assert_pinned(
        "Barabási–Albert",
        &preferential_attachment(8000, 4, 7),
        11573442635822978209,
    );
}

#[test]
fn mesh_colors_are_pinned() {
    let g = triangular_mesh(65, 65, 9);
    assert!(g.max_degree() <= 16, "every mesh vertex is low-degree");
    assert_pinned("mesh", &g, 15375707043217824306);
}
