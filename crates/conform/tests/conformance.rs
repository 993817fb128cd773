//! The conformance sweep: every case in the short corpus through every
//! tier of the determinism contract, plus proptest-shrunk adversarial
//! inputs and the 2^16 community-count boundary.
//!
//! When a proptest case fails here, the shrunk witness should be frozen
//! into `corpus/` with `gp_conform::corpus::render_edges` — see
//! `docs/CONFORMANCE.md` for the workflow.

use gp_conform::corpus::{render_edges, short_corpus};
use gp_conform::generators::{arb_adversarial, arb_churn_script, Churn};
use gp_conform::runner::{bit_tier, racy_tier, streaming_tier, ALL_KERNELS};
use proptest::prelude::*;

/// The full matrix on the generated corpus: every named (non-heavy) case
/// through every bit-identity the contract promises.
#[test]
fn short_corpus_bit_tier() {
    let mut comparisons = 0;
    for case in short_corpus().iter().filter(|c| !c.heavy) {
        comparisons += bit_tier(&case.name, &case.graph, &ALL_KERNELS);
    }
    // The matrix must not silently collapse: 13 light cases × 8 kernels ×
    // (pairs + sweeps + threads) comparisons each.
    assert!(
        comparisons >= 13 * 8 * 6,
        "matrix collapsed to {comparisons} comparisons"
    );
}

/// Racy tier on the same corpus: parallel runs valid, community quality
/// within tolerance of sequential, parallel@1 bit-identical.
#[test]
fn short_corpus_racy_tier() {
    let mut checks = 0;
    for case in short_corpus().iter().filter(|c| !c.heavy) {
        checks += racy_tier(&case.name, &case.graph, &ALL_KERNELS);
    }
    assert!(checks >= 13 * 8 * 2, "racy tier collapsed to {checks} checks");
}

/// Streaming tier: churn scripts over a few corpus shapes, incremental
/// results valid after every batch and comparable to cold reruns. A
/// kernel subset keeps this inside CI time (the full kernel list runs on
/// the incremental equivalence suite in gp-core).
#[test]
fn short_corpus_streaming_tier() {
    let kernels = ["color", "louvain-onpl", "labelprop"];
    let mut checks = 0;
    // Pure stars are excluded from the quality clause: the harness found
    // that a warm start whose previous solution is the one-community star
    // optimum is a local-optimum trap — after churn adds leaf-leaf edges,
    // no single move improves modularity, so incremental Louvain stays at
    // Q=0 while a cold run finds the new leaf communities. That is
    // documented Louvain behavior, not an SIMD divergence; see
    // docs/CONFORMANCE.md ("known limits of the incremental tier").
    for case in short_corpus().iter().filter(|c| {
        !c.heavy
            && c.graph.num_arcs() > 0
            && c.graph.num_vertices() <= 600
            && !c.name.starts_with("star-")
    }) {
        // Small batches: the incremental contract covers small-delta
        // updates (the gp-core suite pins ~1% churn); heavy rewrites are
        // expected to degrade warm-start quality and are not a divergence.
        let script = Churn::new(&case.graph, 0xD1FF).script(3, 0.02);
        checks += streaming_tier(&case.name, &case.graph, &script, &kernels);
    }
    assert!(checks > 0);
}

/// The near-2^16 community-count boundary: community ids must cross
/// 65_536 without truncation on the vector backends. Far too heavy for
/// the full matrix (131k vertices, debug build) — one targeted
/// emulated-vs-native bit check per community kernel, plus the direct
/// proof that more than 2^16 distinct ids survived.
#[test]
fn community_count_past_u16_boundary() {
    use gp_core::api::{run_kernel, Backend, Kernel, KernelOutput, KernelSpec};
    use gp_metrics::telemetry::NoopRecorder;
    use std::collections::HashSet;

    let case = short_corpus().into_iter().find(|c| c.heavy).unwrap();
    let g = &case.graph;
    assert!(g.num_vertices() > 2 * 65_536);
    for kernel in ["louvain-onpl", "labelprop"] {
        let spec = KernelSpec::new(kernel.parse::<Kernel>().unwrap()).sequential();
        let emu = run_kernel(g, &spec.with_backend(Backend::Emulated), &mut NoopRecorder);
        let nat = run_kernel(g, &spec.with_backend(Backend::Native), &mut NoopRecorder);
        let d = emu.diff(&nat);
        assert!(d.results_identical(), "{}: {kernel}: {d}", case.name);
        let ids: HashSet<u32> = match &emu {
            KernelOutput::Louvain(r) => r.communities.iter().copied().collect(),
            KernelOutput::Labelprop(r) => r.labels.iter().copied().collect(),
            KernelOutput::Coloring(_) => unreachable!(),
        };
        assert!(
            ids.len() > 65_536,
            "{kernel}: only {} distinct ids — truncated at the 16-bit boundary?",
            ids.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized adversarial graphs through the bit tier on one kernel
    /// per family (the deterministic corpus covers the full kernel list;
    /// this hunts for *shapes* the corpus missed). On failure, proptest
    /// shrinks the graph — freeze the witness via `render_edges`.
    #[test]
    fn adversarial_graphs_conform(g in arb_adversarial()) {
        let name = format!("adversarial (freeze with render_edges if this shrinks):\n{}",
            render_edges("shrunk", &g));
        bit_tier(&name, &g, &["color", "louvain-onpl", "labelprop"]);
    }

    /// Randomized delta-edit scripts through the streaming tier.
    #[test]
    fn churn_scripts_conform((g, script) in arb_churn_script()) {
        streaming_tier("arb-churn", &g, &script, &["color", "labelprop"]);
    }
}
