//! The locality-layer equivalence suite: cache blocking and degree
//! bucketing are **scheduling** decisions, never semantic ones. For every
//! kernel, every backend, every sweep mode, every pool size, and every
//! block size — including the degenerate one-vertex block — a blocked,
//! bucketed run must be bit-identical to the unblocked, unbucketed
//! reference.
//!
//! Scope mirrors `active_set.rs`: byte equality is asserted for sequential
//! specs on any pool and for parallel specs on inline pools (1 thread, or
//! `GP_PAR_SEQ=1` — CI re-runs this whole suite under that env). Parallel
//! specs on multi-thread pools are speculative by design; for those the
//! suite asserts validity, not equality.

use gp_core::api::{run_kernel, Backend, Blocking, Bucketing, Kernel, KernelSpec, SweepMode};
use gp_core::coloring::verify_coloring;
use gp_graph::csr::Csr;
use gp_graph::generators::{erdos_renyi, preferential_attachment, star, triangular_mesh};
use gp_graph::par::with_threads;
use gp_metrics::telemetry::NoopRecorder;
use proptest::prelude::*;

/// Every kernel × variant the unified entrypoint can dispatch.
const ALL_KERNELS: [&str; 8] = [
    "color",
    "louvain-plm",
    "louvain-mplm",
    "louvain-onpl-cd",
    "louvain-onpl-ivr",
    "louvain-onpl",
    "louvain-ovpl",
    "labelprop",
];

/// The blocked configurations under test: a degenerate one-vertex block
/// (every vertex is its own locality unit — the harshest schedule), a
/// small odd vertex count (blocks misaligned with 16-lane vectors),
/// and a cache-budget policy (the production default shape).
const BLOCKS: [Blocking; 3] = [Blocking::Vertices(1), Blocking::Vertices(7), Blocking::Kb(64)];

/// Graphs with deliberately different degree profiles: a regular mesh
/// (everything mid-degree), a power law (hubs + low-degree fringe), and a
/// sparse ER graph (mostly ≤ 16 neighbors — the low bucket dominates).
fn zoo() -> Vec<(&'static str, Csr)> {
    vec![
        ("mesh", triangular_mesh(16, 16, 3)),
        ("powerlaw", preferential_attachment(500, 4, 17)),
        ("er", erdos_renyi(600, 1500, 5)),
    ]
}

fn unblocked(kernel: &str, sweep: SweepMode) -> KernelSpec {
    KernelSpec::new(kernel.parse::<Kernel>().unwrap())
        .with_sweep(sweep)
        .with_block(Blocking::Off)
        .with_bucket(Bucketing::Off)
}

fn blocked(kernel: &str, sweep: SweepMode, block: Blocking) -> KernelSpec {
    KernelSpec::new(kernel.parse::<Kernel>().unwrap())
        .with_sweep(sweep)
        .with_block(block)
        .with_bucket(Bucketing::Degree)
}

/// Runs the full kernel × sweep × block matrix on one backend and asserts
/// byte equality against the unblocked reference (sequential specs, so the
/// contract holds on every pool).
fn backend_suite(backend: Backend) {
    for (gname, g) in zoo() {
        for kernel in ALL_KERNELS {
            for sweep in [SweepMode::Full, SweepMode::Active] {
                let reference = run_kernel(
                    &g,
                    &unblocked(kernel, sweep).sequential().with_backend(backend),
                    &mut NoopRecorder,
                );
                for block in BLOCKS {
                    let out = run_kernel(
                        &g,
                        &blocked(kernel, sweep, block).sequential().with_backend(backend),
                        &mut NoopRecorder,
                    );
                    assert_eq!(
                        reference, out,
                        "{kernel} on {gname} ({backend:?}, {sweep}, block={block}): \
                         blocked run diverged from unblocked"
                    );
                }
            }
        }
    }
}

#[test]
fn blocked_equals_unblocked_auto_backend() {
    backend_suite(Backend::Auto);
}

#[test]
fn blocked_equals_unblocked_scalar_backend() {
    backend_suite(Backend::Scalar);
}

#[test]
fn blocked_equals_unblocked_emulated_backend() {
    backend_suite(Backend::Emulated);
}

#[test]
fn blocked_equals_unblocked_native_backend() {
    // On hosts without AVX-512 `Backend::Native` falls back to the emulated
    // engine, so this still exercises the dispatch path rather than
    // silently skipping.
    backend_suite(Backend::Native);
}

/// Pool sizes must not leak into blocked outputs: sequential specs are
/// bit-identical at 1, 2, and 8 threads, and parallel specs are
/// bit-identical on the inline 1-thread pool (where `gp-par` runs every
/// combinator in chunk order — the same schedule `GP_PAR_SEQ=1` forces on
/// any pool).
#[test]
fn blocked_equals_unblocked_at_every_thread_count() {
    let g = preferential_attachment(700, 5, 23);
    for kernel in ALL_KERNELS {
        let reference = with_threads(1, || {
            run_kernel(&g, &unblocked(kernel, SweepMode::Full).sequential(), &mut NoopRecorder)
        });
        for threads in [1usize, 2, 8] {
            for block in BLOCKS {
                let out = with_threads(threads, || {
                    run_kernel(
                        &g,
                        &blocked(kernel, SweepMode::Full, block).sequential(),
                        &mut NoopRecorder,
                    )
                });
                assert_eq!(
                    reference, out,
                    "{kernel}: sequential blocked run diverged at {threads} threads (block={block})"
                );
            }
        }
        // Parallel specs on the inline pool: same schedule, same bytes.
        let par_reference = with_threads(1, || {
            run_kernel(&g, &unblocked(kernel, SweepMode::Active), &mut NoopRecorder)
        });
        for block in BLOCKS {
            let out = with_threads(1, || {
                run_kernel(&g, &blocked(kernel, SweepMode::Active, block), &mut NoopRecorder)
            });
            assert_eq!(
                par_reference, out,
                "{kernel}: parallel blocked run diverged on the 1-thread pool (block={block})"
            );
        }
    }
}

/// Speculative parallel runs on multi-thread pools are intentionally racy;
/// blocking must preserve *validity* there even when byte equality is out
/// of scope.
#[test]
fn blocked_parallel_specs_stay_valid_on_multithread_pools() {
    let g = preferential_attachment(700, 5, 23);
    let n = g.num_vertices() as u32;
    for threads in [2usize, 8] {
        for kernel in ALL_KERNELS {
            let out = with_threads(threads, || {
                run_kernel(
                    &g,
                    &blocked(kernel, SweepMode::Active, Blocking::Vertices(64)),
                    &mut NoopRecorder,
                )
            });
            assert!(out.rounds() > 0, "{kernel} at {threads} threads: no rounds");
            match &out {
                gp_core::api::KernelOutput::Coloring(r) => {
                    verify_coloring(&g, &r.colors)
                        .unwrap_or_else(|e| panic!("{kernel} at {threads} threads: {e}"));
                }
                gp_core::api::KernelOutput::Louvain(r) => {
                    assert_eq!(r.communities.len(), n as usize);
                    assert!(r.communities.iter().all(|&c| c < n));
                }
                gp_core::api::KernelOutput::Labelprop(r) => {
                    assert_eq!(r.labels.len(), n as usize);
                    assert!(r.labels.iter().all(|&l| l < n));
                }
            }
        }
    }
}

/// Hub-and-spoke: one vertex with n-1 neighbors (a hub scheduling unit all
/// by itself) surrounded by degree-1 spokes (all in the ≤ 16 batch bucket).
/// The nastiest bucketing shape — every bucket boundary is exercised at
/// once.
#[test]
fn blocked_equals_unblocked_on_hub_and_spoke() {
    for n in [17usize, 33, 100, 400] {
        let g = star(n);
        for kernel in ALL_KERNELS {
            let reference =
                run_kernel(&g, &unblocked(kernel, SweepMode::Full).sequential(), &mut NoopRecorder);
            for block in BLOCKS {
                let out = run_kernel(
                    &g,
                    &blocked(kernel, SweepMode::Full, block).sequential(),
                    &mut NoopRecorder,
                );
                let d = reference.diff(&out);
                assert!(
                    d.results_identical(),
                    "{kernel} on star({n}), block={block}:\n{d}"
                );
            }
        }
    }
}

// Random graphs salted with degree-0/degree-1 spam plus a planted hub now
// live in the conformance harness (`gp_conform::generators`), shared with
// the full differential sweep in `crates/conform/tests/conformance.rs`.
use gp_conform::generators::arb_spammy_graph;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked ≡ unblocked on arbitrary spammy graphs, all kernels, both
    /// sweeps, the degenerate one-vertex block included.
    #[test]
    fn blocked_bit_identical_on_spammy_graphs(g in arb_spammy_graph()) {
        for kernel in ALL_KERNELS {
            for sweep in [SweepMode::Full, SweepMode::Active] {
                let reference =
                    run_kernel(&g, &unblocked(kernel, sweep).sequential(), &mut NoopRecorder);
                for block in BLOCKS {
                    let out = run_kernel(
                        &g,
                        &blocked(kernel, sweep, block).sequential(),
                        &mut NoopRecorder,
                    );
                    prop_assert_eq!(
                        &reference, &out,
                        "{} diverged (sweep {}, block {})", kernel, sweep, block
                    );
                }
            }
        }
    }
}
