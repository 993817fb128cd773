//! Pipeline determinism suite (ROADMAP item 4).
//!
//! The executor's contract: for `parallel: false` specs, a batch driven
//! through any window size on any pool size produces outputs bit-identical
//! to a sequential per-item `run_kernel` loop; `parallel: true` specs keep
//! their valid-but-racy semantics; cancellation mid-batch leaves completed
//! items intact and drops in-flight items cleanly. Also hosts the
//! wrapper-overhead gate's test half (satellite: pipeline wrapping must
//! cost <3% over the direct loop, self-skipping when the host can't
//! produce repeatable timings).

use gp_core::api::{run_kernel, Kernel, KernelOutput, KernelSpec, Variant};
use gp_core::coloring::verify_coloring;
use gp_core::pipeline::{BatchItem, CancelToken, ItemOutcome, PipelineExecutor};
use gp_graph::csr::Csr;
use gp_graph::generators::ba::preferential_attachment;
use gp_graph::generators::er::erdos_renyi;
use gp_graph::generators::rmat::{rmat, RmatConfig};
use gp_metrics::interval::NoopIntervals;
use gp_metrics::telemetry::NoopRecorder;
use std::time::Instant;

/// One batch line: label, spec, graph source.
type SpecEntry = (&'static str, KernelSpec, fn() -> Csr);

/// The mixed-substrate spec list both suites run: every generator family ×
/// every kernel, distinct seeds.
fn mixed_batch_specs() -> Vec<SpecEntry> {
    vec![
        (
            "rmat-color",
            KernelSpec::new(Kernel::Coloring).sequential(),
            (|| rmat(RmatConfig::new(9, 4).with_seed(11))) as fn() -> Csr,
        ),
        (
            "er-labelprop",
            KernelSpec::new(Kernel::Labelprop).sequential().with_seed(21),
            || erdos_renyi(1 << 9, 1 << 11, 22),
        ),
        (
            "ba-louvain",
            KernelSpec::new(Kernel::Louvain(Variant::Mplm))
                .sequential()
                .with_seed(31),
            || preferential_attachment(1 << 9, 4, 32),
        ),
        (
            "rmat-labelprop",
            KernelSpec::new(Kernel::Labelprop).sequential().with_seed(41),
            || rmat(RmatConfig::new(8, 8).with_seed(42)),
        ),
    ]
}

fn build_items(specs: &[SpecEntry]) -> Vec<BatchItem> {
    specs
        .iter()
        .map(|(label, spec, source)| BatchItem::new(*label, *spec, *source))
        .collect()
}

/// The baseline the pipeline must match: a plain per-item loop over the
/// same shared `run_kernel` entry point.
fn sequential_baseline(specs: &[SpecEntry]) -> Vec<KernelOutput> {
    specs
        .iter()
        .map(|(_, spec, source)| run_kernel(&source(), spec, &mut NoopRecorder))
        .collect()
}

#[test]
fn pipelined_outputs_bit_identical_across_windows_and_pools() {
    let specs = mixed_batch_specs();
    let baseline = sequential_baseline(&specs);
    for window in [1usize, 2, 4] {
        for threads in [1usize, 2, 8] {
            let got = gp_par::cached(threads)
                .install(|| PipelineExecutor::new(window).run(build_items(&specs), &NoopIntervals));
            assert_eq!(got.len(), baseline.len());
            for (i, (outcome, expected)) in got.iter().zip(&baseline).enumerate() {
                let out = outcome
                    .output()
                    .unwrap_or_else(|| panic!("item {i} cancelled (window {window}, {threads}t)"));
                // PartialEq on KernelOutput compares the full algorithmic
                // output (labels/colors), i.e. bit-identity of the result
                // vectors, not just summary stats.
                assert_eq!(
                    out, expected,
                    "item {i} ({}) diverged at window {window}, {threads} threads",
                    specs[i].0
                );
            }
        }
    }
}

#[test]
fn racy_specs_stay_valid_through_the_pipeline() {
    // `parallel: true` coloring is speculative: outputs may differ run to
    // run, but every run must be a proper coloring.
    let g = rmat(RmatConfig::new(9, 4).with_seed(5));
    let items = vec![
        BatchItem::new("racy-color", KernelSpec::new(Kernel::Coloring), || {
            rmat(RmatConfig::new(9, 4).with_seed(5))
        }),
        BatchItem::new("racy-labelprop", KernelSpec::new(Kernel::Labelprop), || {
            rmat(RmatConfig::new(9, 4).with_seed(6))
        }),
    ];
    let got = gp_par::cached(2).install(|| PipelineExecutor::new(2).run(items, &NoopIntervals));
    let colors = got[0].output().unwrap().colors().unwrap().to_vec();
    verify_coloring(&g, &colors).expect("pipelined racy coloring must still be proper");
    let labels = got[1].output().unwrap().communities().unwrap();
    assert_eq!(labels.len(), 1 << 9);
}

#[test]
fn cancellation_mid_batch_keeps_completed_items_and_drops_the_rest() {
    let specs = mixed_batch_specs();
    let baseline = sequential_baseline(&specs);
    let cancel = CancelToken::new();
    let cancel_in_callback = cancel.clone();
    // Window 4 lets the substrate lane run items 2..4 ahead while item 0's
    // kernel runs; cancelling after item 1 completes must drop that
    // in-flight work without corrupting items 0..=1.
    let got = PipelineExecutor::new(4).run_with(
        build_items(&specs),
        &NoopIntervals,
        &cancel,
        |index, _| {
            if index == 1 {
                cancel_in_callback.cancel();
            }
        },
    );
    assert_eq!(got[0].output().unwrap(), &baseline[0]);
    assert_eq!(got[1].output().unwrap(), &baseline[1]);
    assert!(got[2..].iter().all(ItemOutcome::is_cancelled));
}

/// Wrapper-overhead gate (test half): a window-1 pipeline over a batch
/// must cost <3% over the direct build + `run_kernel` loop on
/// identical specs. Timing-based, so it self-skips when the host can't
/// repeat the baseline within 2% (same hygiene as the fig `--check`
/// variance gates).
#[test]
fn pipeline_wrapper_overhead_below_three_percent() {
    let specs = mixed_batch_specs();
    let reps = 5usize;
    let direct = || {
        let t = Instant::now();
        for (_, spec, source) in &specs {
            let g = source();
            std::hint::black_box(run_kernel(&g, spec, &mut NoopRecorder));
        }
        t.elapsed().as_secs_f64()
    };
    let piped = || {
        let t = Instant::now();
        std::hint::black_box(PipelineExecutor::new(1).run(build_items(&specs), &NoopIntervals));
        t.elapsed().as_secs_f64()
    };
    let mut direct_runs: Vec<f64> = (0..reps).map(|_| direct()).collect();
    let mut piped_runs: Vec<f64> = (0..reps).map(|_| piped()).collect();
    direct_runs.sort_by(f64::total_cmp);
    piped_runs.sort_by(f64::total_cmp);
    let mean = direct_runs.iter().sum::<f64>() / reps as f64;
    let sigma =
        (direct_runs.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / reps as f64).sqrt();
    if sigma / mean >= 0.02 {
        eprintln!(
            "overhead gate SKIPPED: baseline not repeatable on this host (sigma/mean = {:.3})",
            sigma / mean
        );
        return;
    }
    let direct_med = direct_runs[reps / 2];
    let piped_med = piped_runs[reps / 2];
    let overhead = piped_med / direct_med - 1.0;
    assert!(
        overhead < 0.03,
        "pipeline wrapper overhead {:.2}% >= 3% (direct {direct_med:.4}s, piped {piped_med:.4}s)",
        overhead * 100.0
    );
}
