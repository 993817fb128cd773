//! Concurrency stress: run the speculative/optimistic parallel algorithms
//! on an explicit many-thread `gp-par` pool (oversubscribing the host's cores)
//! so the benign races the paper's algorithms are designed around actually
//! fire — and verify every safety invariant still holds.

use gp_core::api::{run_kernel, Backend, Kernel, KernelOutput, KernelSpec};
use gp_core::coloring::{color_with, verify_coloring, ColoringConfig};
use gp_core::labelprop::LabelPropConfig;
use gp_core::louvain::{modularity, move_phase_with, LouvainConfig, MoveState, Variant};
use gp_core::reduce_scatter::Strategy;
use gp_graph::generators::{erdos_renyi, planted_partition, preferential_attachment};
use gp_metrics::telemetry::NoopRecorder;
use gp_simd::backend::Emulated;

fn pool() -> gp_par::Pool {
    gp_par::cached(8)
}

/// True when `GP_PAR_SEQ=1` forces every pool inline — the stress tests
/// below still run (the invariants must hold trivially), but the
/// "genuinely concurrent" assertions are vacuous there.
fn real_concurrency() -> bool {
    !gp_par::sequential_mode()
}

#[test]
fn shared_writer_disjoint_scatter_under_real_pool() {
    use gp_graph::par::SharedWriter;

    // A permuted disjoint scatter, repeated: every index written exactly
    // once per run from whichever worker claims it. Any double-write or
    // missed write shows up as a value mismatch.
    let n = 1 << 16;
    let perm: Vec<usize> = (0..n).map(|i| (i * 48_271 + 11) % n).collect();
    // 48271 is coprime with 2^16, so `perm` is a permutation.
    {
        let mut check = perm.clone();
        check.sort_unstable();
        assert!(check.iter().enumerate().all(|(i, &p)| i == p));
    }
    pool().install(|| {
        for run in 0..4u64 {
            let mut out = vec![u64::MAX; n];
            let writer = SharedWriter::new(&mut out);
            gp_par::current().for_each_range(n, 256, |r| {
                for i in r {
                    // Each destination `perm[i]` is hit by exactly one source `i`.
                    unsafe { writer.write(perm[i], (i as u64) ^ (run << 32)) };
                }
            });
            for (i, &p) in perm.iter().enumerate() {
                assert_eq!(out[p], (i as u64) ^ (run << 32), "run {run} index {i}");
            }
        }
    });
}

#[test]
fn histogram_merge_from_concurrent_workers_loses_nothing() {
    use gp_metrics::histogram::{Histogram, HistogramSnapshot};

    let workers = 8usize;
    let per_worker = 10_000u64;
    let shared = Histogram::new();
    let locals: Vec<Histogram> = (0..workers).map(|_| Histogram::new()).collect();

    let p = gp_par::cached(workers);
    p.scope(|s| {
        for (w, local) in locals.iter().enumerate() {
            let shared = &shared;
            s.spawn(move || {
                for i in 0..per_worker {
                    let us = (w as u64) * per_worker + i + 1;
                    local.record_us(us);
                    shared.record_us(us);
                }
            });
        }
    });

    let expect_count = workers as u64 * per_worker;
    let expect_max = expect_count; // largest sample recorded above
    let expect_sum: u64 = (1..=expect_count).sum();

    // Path 1: concurrent records into one shared histogram.
    let s = shared.snapshot();
    assert_eq!(s.count, expect_count);
    assert_eq!(s.max_us, expect_max);
    assert_eq!(s.sum_us, expect_sum);

    // Path 2: per-worker histograms merged at report time (the load
    // generator's shape) must agree exactly with the shared one.
    let mut merged = HistogramSnapshot::default();
    for local in &locals {
        merged.merge(&local.snapshot());
    }
    assert_eq!(merged.count, expect_count);
    assert_eq!(merged.max_us, expect_max);
    assert_eq!(merged.sum_us, expect_sum);
    assert_eq!(merged.quantile_us(0.5), s.quantile_us(0.5));
    assert_eq!(merged.quantile_us(0.999), s.quantile_us(0.999));

    if real_concurrency() {
        assert!(p.threads() == workers, "expected a real {workers}-thread pool");
    }
}

#[test]
fn speculative_coloring_survives_oversubscription() {
    let g = erdos_renyi(2000, 12_000, 3);
    pool().install(|| {
        for run in 0..3 {
            let spec = KernelSpec::new(Kernel::Coloring).with_backend(Backend::Scalar);
            let out = run_kernel(&g, &spec, &mut NoopRecorder);
            verify_coloring(&g, out.colors().unwrap())
                .unwrap_or_else(|e| panic!("run {run}: invalid coloring: {e}"));
            let r = color_with(&Emulated, &g, &ColoringConfig::default(), &mut NoopRecorder);
            verify_coloring(&g, &r.colors)
                .unwrap_or_else(|e| panic!("run {run}: invalid ONPL coloring: {e}"));
        }
    });
}

#[test]
fn optimistic_louvain_keeps_volume_invariant_under_races() {
    let g = preferential_attachment(1500, 4, 9);
    let cfg = LouvainConfig {
        variant: Variant::Onpl(Strategy::Adaptive),
        parallel: true,
        ..Default::default()
    };
    pool().install(|| {
        let state = MoveState::singleton(&g);
        move_phase_with(&Emulated, &g, &state, &cfg, &mut NoopRecorder);
        // Volumes must balance even after racy concurrent moves: every
        // apply_move is a pair of atomic adds.
        let total: f64 = state.volume.iter().map(|v| v.load() as f64).sum();
        let expect = g.total_volume();
        assert!(
            (total - expect).abs() < 1e-3 * expect,
            "volume leaked: {total} vs {expect}"
        );
        // Communities are still a valid assignment.
        let zeta = state.communities();
        assert!(zeta.iter().all(|&c| (c as usize) < g.num_vertices()));
        let q = modularity(&g, &zeta);
        assert!(q > 0.0, "racy run collapsed to Q = {q}");
    });
}

#[test]
fn parallel_label_propagation_converges_under_oversubscription() {
    let g = planted_partition(6, 40, 0.4, 0.01, 21);
    let cfg = LabelPropConfig::default();
    pool().install(|| {
        let spec = KernelSpec::new(Kernel::Labelprop).with_backend(Backend::Scalar);
        let KernelOutput::Labelprop(r) = run_kernel(&g, &spec, &mut NoopRecorder) else {
            unreachable!()
        };
        assert!(r.iterations < cfg.max_iterations, "no convergence");
        let q = modularity(&g, &r.labels);
        assert!(q > 0.4, "parallel LP quality collapsed: {q}");
    });
}

#[test]
fn move_phase_is_convergent_across_repeated_racy_runs() {
    // The 25-iteration cap is PLM's safety net; under light load the racy
    // runs should converge well before it.
    let g = planted_partition(4, 30, 0.5, 0.02, 5);
    let cfg = LouvainConfig {
        variant: Variant::Mplm,
        parallel: true,
        ..Default::default()
    };
    pool().install(|| {
        for _ in 0..5 {
            let state = MoveState::singleton(&g);
            let stats = move_phase_with(&Emulated, &g, &state, &cfg, &mut NoopRecorder);
            assert!(
                stats.iterations <= cfg.max_move_iterations,
                "cap violated: {}",
                stats.iterations
            );
        }
    });
}
