//! The differential runner: executes one graph through every combination
//! the determinism contract speaks about and diffs the outputs with
//! [`KernelOutput::diff`].
//!
//! ## Contract tiers
//!
//! The runner encodes the repo's determinism contract
//! (`docs/KERNELS.md`, `docs/PARALLELISM.md`) as two tiers:
//!
//! * **Bit tier** — outputs must be byte-identical. Holds for: `full` vs
//!   `active` sweeps; sequential specs across 1/2/8-thread pools; and
//!   backend pairs per kernel family — coloring and Louvain agree across
//!   *all* backends (the scalar reference and the 16-lane kernels are
//!   move-for-move equivalent), label propagation only across the vector
//!   backends (scalar MPLP tie-breaks differently by design, and `auto`
//!   resolves to MPLP on non-AVX-512 hosts — the [`gp_core::backends`]
//!   registry decides which pairs are comparable on this host).
//! * **Racy tier** — parallel execution on multi-thread pools may reorder
//!   speculative moves, so outputs are checked for *validity* (proper
//!   coloring within the greedy Δ+1 bound, assignments in range) and
//!   *quality* (community kernels within [`MODULARITY_TOL`] of the
//!   sequential reference) instead of bits.
//!
//! Every check panics with the offending `(case, kernel, combination)` and
//! the rendered [`OutputDiff`], so a CI failure names the divergence
//! instead of dumping arrays. The entry points return the number of
//! comparisons they made — the conformance tests assert the matrix did not
//! silently collapse.

use gp_core::api::{run_kernel, Backend, Kernel, KernelSpec, SweepMode};
use gp_core::api::KernelOutput;
use gp_core::coloring::verify_coloring;
use gp_core::incremental::run_kernel_incremental;
use gp_core::louvain::modularity;
use gp_graph::csr::Csr;
use gp_graph::delta::DeltaCsr;
use gp_graph::par::with_threads;
use gp_metrics::telemetry::NoopRecorder;

/// Every kernel × variant the unified entrypoint dispatches — the same
/// list the equivalence suites iterate.
pub const ALL_KERNELS: [&str; 8] = [
    "color",
    "louvain-plm",
    "louvain-mplm",
    "louvain-onpl-cd",
    "louvain-onpl-ivr",
    "louvain-onpl",
    "louvain-ovpl",
    "labelprop",
];

/// Racy-tier quality bound: a parallel (or incremental) community result
/// must come within this much modularity of the sequential reference.
pub const MODULARITY_TOL: f64 = 0.25;

/// Thread counts the bit tier is checked across (the substrate contract:
/// sequential specs are pool-size-invariant).
pub const THREADS: [usize; 3] = [1, 2, 8];

fn spec_for(kernel: &str) -> KernelSpec {
    KernelSpec::new(kernel.parse::<Kernel>().unwrap())
}

/// Backend pairs the bit tier promises identical on *this host*, per
/// kernel family. Derived from the backend registry: label propagation's
/// `auto` resolves to scalar MPLP on hosts without AVX-512 (or under the
/// forced-emulation override), where it is only comparable to the scalar
/// pin.
pub fn bit_identical_pairs(kernel: &str) -> Vec<(Backend, Backend)> {
    let native = gp_core::backends::engine().is_native();
    if kernel == "labelprop" {
        let mut pairs = vec![(Backend::Emulated, Backend::Native)];
        if native {
            pairs.push((Backend::Auto, Backend::Native));
        } else {
            pairs.push((Backend::Auto, Backend::Scalar));
        }
        pairs
    } else {
        // Coloring and every Louvain variant: scalar reference and vector
        // kernels are move-for-move equivalent, so all pins agree.
        vec![
            (Backend::Scalar, Backend::Emulated),
            (Backend::Emulated, Backend::Native),
            (Backend::Auto, Backend::Native),
        ]
    }
}

fn assert_identical(case: &str, what: &str, a: &KernelOutput, b: &KernelOutput) {
    let d = a.diff(b);
    assert!(
        d.results_identical(),
        "{case}: {what} diverged:\n{d}"
    );
}

/// **Bit tier.** Runs `kernels` on `g` and asserts every bit-identity the
/// contract promises: backend pairs, full ≡ active, and 1/2/8-thread
/// invariance of sequential specs.
/// Returns the number of output comparisons performed.
pub fn bit_tier(case: &str, g: &Csr, kernels: &[&str]) -> usize {
    let mut comparisons = 0;
    for kernel in kernels {
        let base = spec_for(kernel).sequential();
        let reference = run_kernel(g, &base, &mut NoopRecorder);

        // Backend pairs (sequential, both sweeps).
        for (left, right) in bit_identical_pairs(kernel) {
            for sweep in [SweepMode::Full, SweepMode::Active] {
                let a = run_kernel(
                    g,
                    &base.with_backend(left).with_sweep(sweep),
                    &mut NoopRecorder,
                );
                let b = run_kernel(
                    g,
                    &base.with_backend(right).with_sweep(sweep),
                    &mut NoopRecorder,
                );
                assert_identical(
                    case,
                    &format!("{kernel} {left} vs {right} (sweep {sweep})"),
                    &a,
                    &b,
                );
                comparisons += 1;
            }
        }

        // full ≡ active on the default backend.
        let full = run_kernel(g, &base.with_sweep(SweepMode::Full), &mut NoopRecorder);
        let active = run_kernel(g, &base.with_sweep(SweepMode::Active), &mut NoopRecorder);
        assert_identical(case, &format!("{kernel} full vs active"), &full, &active);
        comparisons += 1;

        // Pool-size invariance of the sequential spec.
        for threads in THREADS {
            let out = with_threads(threads, || run_kernel(g, &base, &mut NoopRecorder));
            assert_identical(case, &format!("{kernel} @ {threads} threads"), &reference, &out);
            comparisons += 1;
        }
    }
    comparisons
}

/// Structural validity of an output on `g`; `max_degree` bounds the greedy
/// coloring. Panics with `(case, kernel)` on violation.
pub fn assert_valid(case: &str, kernel: &str, g: &Csr, max_degree: usize, out: &KernelOutput) {
    let n = g.num_vertices() as u32;
    match out {
        KernelOutput::Coloring(r) => {
            verify_coloring(g, &r.colors).unwrap_or_else(|e| panic!("{case}: {kernel}: {e}"));
            assert!(
                r.num_colors <= max_degree as u32 + 1,
                "{case}: {kernel}: {} colors beyond the greedy Δ+1 bound",
                r.num_colors
            );
        }
        KernelOutput::Louvain(r) => {
            assert_eq!(r.communities.len(), n as usize, "{case}: {kernel}: length");
            assert!(
                r.communities.iter().all(|&c| c < n),
                "{case}: {kernel}: community id out of range"
            );
            assert!(r.modularity.is_finite(), "{case}: {kernel}: modularity NaN");
        }
        KernelOutput::Labelprop(r) => {
            assert_eq!(r.labels.len(), n as usize, "{case}: {kernel}: length");
            assert!(
                r.labels.iter().all(|&l| l < n),
                "{case}: {kernel}: label out of range"
            );
        }
    }
}

/// Modularity of a community-style output (None for coloring).
fn quality(out: &KernelOutput, g: &Csr) -> Option<f64> {
    match out {
        KernelOutput::Louvain(r) => Some(modularity(g, &r.communities)),
        KernelOutput::Labelprop(r) => Some(modularity(g, &r.labels)),
        KernelOutput::Coloring(_) => None,
    }
}

/// **Racy tier.** Runs `kernels` in parallel mode on an 8-thread pool and
/// checks validity plus (for Louvain) quality against the sequential
/// reference. Also asserts the ≤1-thread escape hatch: a parallel spec on
/// a 1-thread pool is bit-identical to the sequential spec.
pub fn racy_tier(case: &str, g: &Csr, kernels: &[&str]) -> usize {
    let mut checks = 0;
    let max_degree = g.max_degree();
    for kernel in kernels {
        let seq = run_kernel(g, &spec_for(kernel).sequential(), &mut NoopRecorder);
        let par_spec = spec_for(kernel);

        // Parallel on a 1-thread pool collapses to the sequential schedule.
        let par1 = with_threads(1, || run_kernel(g, &par_spec, &mut NoopRecorder));
        assert_identical(case, &format!("{kernel} parallel@1 vs sequential"), &seq, &par1);
        checks += 1;

        // Parallel on a real pool: validity + quality, never bits.
        let par8 = with_threads(8, || run_kernel(g, &par_spec, &mut NoopRecorder));
        assert_valid(case, kernel, g, max_degree, &par8);
        checks += 1;
        if kernel.starts_with("louvain") {
            let (q_seq, q_par) = (quality(&seq, g).unwrap(), quality(&par8, g).unwrap());
            assert!(
                q_par >= q_seq - MODULARITY_TOL,
                "{case}: {kernel}: parallel modularity {q_par:.4} fell {:.4} below sequential {q_seq:.4}",
                q_seq - q_par
            );
            checks += 1;
        }
    }
    checks
}

/// **Streaming tier.** Replays a delta-edit script through
/// `run_kernel_incremental`, asserting validity after every batch and
/// final quality against a from-scratch run on the mutated graph — the
/// incremental contract (valid and comparable, not bit-identical).
pub fn streaming_tier(
    case: &str,
    g: &Csr,
    script: &[crate::generators::EditBatch],
    kernels: &[&str],
) -> usize {
    let mut checks = 0;
    for kernel in kernels {
        let spec = spec_for(kernel).sequential();
        let mut delta = DeltaCsr::from_csr(g);
        let mut prev = run_kernel(delta.as_csr(), &spec, &mut NoopRecorder);
        for (step, (adds, dels)) in script.iter().enumerate() {
            let touched = delta
                .apply_edges(adds, dels)
                .unwrap_or_else(|e| panic!("{case}: {kernel}: step {step} refused: {e}"));
            prev = run_kernel_incremental(delta.as_csr(), &spec, &prev, &touched, &mut NoopRecorder);
            assert_valid(
                &format!("{case} step {step}"),
                kernel,
                &delta.snapshot(),
                delta.as_csr().max_degree(),
                &prev,
            );
            checks += 1;
        }
        let dense = delta.snapshot();
        let cold = run_kernel(&dense, &spec, &mut NoopRecorder);
        if let (Some(q_inc), Some(q_cold)) = (quality(&prev, &dense), quality(&cold, &dense)) {
            assert!(
                q_inc >= q_cold - MODULARITY_TOL,
                "{case}: {kernel}: incremental modularity {q_inc:.4} fell {:.4} below cold {q_cold:.4}",
                q_cold - q_inc
            );
            checks += 1;
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_registry_consistent() {
        for kernel in ALL_KERNELS {
            let pairs = bit_identical_pairs(kernel);
            assert!(!pairs.is_empty());
            // Every named backend must appear in the registry.
            for (a, b) in pairs {
                for backend in [a, b] {
                    assert!(Backend::available().iter().any(|r| r.backend == backend));
                }
            }
        }
    }

    #[test]
    fn smoke_on_a_tiny_graph() {
        let g = crate::generators::pendant_spam(24, 20, 1);
        let c = bit_tier("smoke", &g, &["color", "labelprop"]);
        assert!(c > 0);
        let c = racy_tier("smoke", &g, &["color"]);
        assert!(c > 0);
    }
}
