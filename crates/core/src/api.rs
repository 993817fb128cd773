//! The unified kernel entrypoint: one function, every kernel × variant ×
//! backend × sweep combination.
//!
//! [`run_kernel`] replaces the eighteen per-kernel entry functions
//! (`color_graph*`, `label_propagation*`, `louvain*`, `run_move_phase*`)
//! that callers previously had to dispatch over by hand — the serve
//! worker, the CLI, and the benchmark bins each carried their own copy of
//! that match. Those functions are gone; callers describe the run with a
//! [`KernelSpec`] and let the library dispatch:
//!
//! ```
//! use gp_core::api::{run_kernel, Kernel, KernelSpec};
//! use gp_graph::generators::triangular_mesh;
//! use gp_metrics::telemetry::NoopRecorder;
//!
//! let g = triangular_mesh(8, 8, 3);
//! let spec = KernelSpec::new(Kernel::Coloring).sequential();
//! let out = run_kernel(&g, &spec, &mut NoopRecorder);
//! assert!(out.converged());
//! assert!(out.colors().is_some());
//! ```
//!
//! The string forms accepted by [`FromStr`] (and produced by `Display`) are
//! the single source of truth for the CLI flags, the serve JSON fields, and
//! the serve result-cache key — the three previously kept their own
//! hand-rolled parsers.

use crate::coloring::{ColoringConfig, ColoringResult};
pub use crate::error::{RunError, SpecError};
use crate::labelprop::{LabelPropConfig, LabelPropResult};
use crate::louvain::{LouvainConfig, LouvainResult};
pub use crate::frontier::SweepMode;
pub use crate::louvain::Variant;
pub use crate::reduce_scatter::Strategy;
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{Recorder, RunInfo};
use gp_simd::backend::Emulated;
use gp_simd::counted::Counted;
use gp_simd::engine::Engine;
use std::fmt;
use std::str::FromStr;

/// Which kernel family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Speculative greedy coloring (paper §4).
    #[default]
    Coloring,
    /// Louvain move phases in the selected variant (paper §5).
    Louvain(Variant),
    /// Label propagation (paper §3.3 / Figure 15).
    Labelprop,
}

impl Kernel {
    /// Kernel-family label (`color` / `louvain` / `labelprop`) — the serve
    /// response's `kernel` field and the latency-histogram key.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Coloring => "color",
            Kernel::Louvain(_) => "louvain",
            Kernel::Labelprop => "labelprop",
        }
    }

    /// Variant-qualified label (`color`, `louvain-mplm`, …) — distinguishes
    /// cache entries and figures where the variant matters.
    pub fn cache_label(self) -> &'static str {
        match self {
            Kernel::Coloring => "color",
            Kernel::Louvain(v) => match v {
                Variant::Plm => "louvain-plm",
                Variant::Mplm => "louvain-mplm",
                Variant::Onpl(_) => "louvain-onpl",
                Variant::Ovpl => "louvain-ovpl",
            },
            Kernel::Labelprop => "labelprop",
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cache_label())
    }
}

impl FromStr for Kernel {
    type Err = SpecError;

    /// Accepts the family names (`color`/`coloring`, `louvain`,
    /// `labelprop`/`lp`) and the variant-qualified `louvain-<variant>`
    /// forms, so [`Kernel::cache_label`] round-trips.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "color" | "coloring" => Ok(Kernel::Coloring),
            "labelprop" | "lp" => Ok(Kernel::Labelprop),
            "louvain" => Ok(Kernel::Louvain(Variant::default())),
            other => match other.strip_prefix("louvain-") {
                Some(v) => Ok(Kernel::Louvain(v.parse()?)),
                None => Err(SpecError::UnknownKernel(other.to_string())),
            },
        }
    }
}

impl FromStr for Variant {
    type Err = SpecError;

    /// The CLI `--variant` / serve JSON `variant` values. `onpl` selects
    /// the adaptive reduce-scatter strategy (the paper's "either one of
    /// them, depending on circumstances"); a fixed strategy is reachable as
    /// `onpl-cd` / `onpl-iter` / `onpl-ivr`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "plm" => Ok(Variant::Plm),
            "mplm" => Ok(Variant::Mplm),
            "onpl" => Ok(Variant::Onpl(Strategy::Adaptive)),
            "onpl-cd" => Ok(Variant::Onpl(Strategy::ConflictDetect)),
            "onpl-iter" => Ok(Variant::Onpl(Strategy::ConflictIterative)),
            "onpl-ivr" => Ok(Variant::Onpl(Strategy::InVectorReduce)),
            "ovpl" => Ok(Variant::Ovpl),
            other => Err(SpecError::UnknownVariant(other.to_string())),
        }
    }
}

/// Which execution backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Best available: AVX-512 when the CPU has it, emulated otherwise.
    /// For coloring and label propagation an emulated host runs the scalar
    /// reference kernel (emulating lane-by-lane would only be slower).
    #[default]
    Auto,
    /// Force the scalar reference kernel (greedy coloring / MPLP). The
    /// Louvain scalar/vector split is the [`Variant`] itself — PLM and MPLM
    /// are scalar by construction — so `Scalar` does not override the
    /// variant there.
    Scalar,
    /// Pin the software-emulated 16-lane vector backend. With
    /// [`KernelSpec::counted`] the run goes through `Counted<Emulated>` so
    /// vector op counts land in `gp_simd::counters` (modeled runs).
    Emulated,
    /// Pin the AVX-512 backend. On hosts without AVX-512 this falls back to
    /// the emulated backend (outputs are bit-identical by the backend
    /// equivalence contract); the result's [`KernelOutput::backend`]
    /// reports what actually ran.
    Native,
}

impl Backend {
    /// Stable lowercase name (CLI flag value, serve JSON value, cache key).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Auto => "auto",
            Backend::Scalar => "scalar",
            Backend::Emulated => "emulated",
            Backend::Native => "native",
        }
    }

    /// The explicit pin matching the registry engine: [`Backend::Native`] on
    /// AVX-512 hosts, [`Backend::Emulated`] elsewhere. Benchmarks use this
    /// to say "the vectorized configuration" with an explicit backend.
    pub fn best_vector() -> Backend {
        if crate::backends::engine().is_native() {
            Backend::Native
        } else {
            Backend::Emulated
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "scalar" => Ok(Backend::Scalar),
            "emulated" => Ok(Backend::Emulated),
            "native" | "avx512" => Ok(Backend::Native),
            other => Err(SpecError::UnknownBackend(other.to_string())),
        }
    }
}

/// A complete, declarative description of one kernel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpec {
    /// Kernel family (and Louvain variant).
    pub kernel: Kernel,
    /// Execution backend.
    pub backend: Backend,
    /// Sweep enumeration mode (`active` frontier worklists vs. `full`
    /// scans; bit-identical outputs — see `docs/KERNELS.md`).
    pub sweep: SweepMode,
    /// Thread-parallel execution (`false` = deterministic sequential).
    pub parallel: bool,
    /// Traversal seed; only label propagation consumes it (its sweeps need
    /// a randomized visit order).
    pub seed: u64,
    /// Record scalar/vector op counts into `gp_simd::counters` for modeled
    /// architecture comparisons.
    pub count_ops: bool,
}

impl Default for KernelSpec {
    fn default() -> Self {
        KernelSpec {
            kernel: Kernel::default(),
            backend: Backend::default(),
            sweep: SweepMode::default(),
            parallel: true,
            seed: 0x1abe1,
            count_ops: false,
        }
    }
}

impl KernelSpec {
    /// Spec for `kernel` with default backend/sweep/parallelism.
    pub fn new(kernel: Kernel) -> Self {
        KernelSpec {
            kernel,
            ..Default::default()
        }
    }

    /// Selects the backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the sweep mode.
    pub fn with_sweep(mut self, sweep: SweepMode) -> Self {
        self.sweep = sweep;
        self
    }

    /// Sets the traversal seed (label propagation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Deterministic sequential execution.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Enables op counting for modeled runs.
    pub fn counted(mut self) -> Self {
        self.count_ops = true;
        self
    }

    /// The spec's contribution to a result-cache key:
    /// `kernel|backend|sweep|seed=N`. Every field that can change the
    /// output is present; two requests with equal tokens (on the same
    /// graph) produce byte-identical results.
    pub fn cache_token(&self) -> String {
        format!(
            "{}|{}|{}|seed={}",
            self.kernel.cache_label(),
            self.backend.name(),
            self.sweep.name(),
            self.seed
        )
    }
}

/// The result of [`run_kernel`]: the kernel-specific result wrapped with
/// uniform accessors for the fields every caller wants (backend, rounds,
/// convergence, wall time, community/color vectors).
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOutput {
    /// A coloring run.
    Coloring(ColoringResult),
    /// A Louvain run.
    Louvain(LouvainResult),
    /// A label-propagation run.
    Labelprop(LabelPropResult),
}

impl KernelOutput {
    /// The uniform run envelope (backend, rounds, convergence, wall time,
    /// optional trace).
    pub fn info(&self) -> &RunInfo {
        match self {
            KernelOutput::Coloring(r) => &r.info,
            KernelOutput::Louvain(r) => &r.info,
            KernelOutput::Labelprop(r) => &r.info,
        }
    }

    /// Backend the run executed on.
    pub fn backend(&self) -> &'static str {
        self.info().backend
    }

    /// Rounds / sweeps / levels executed (kernel-defined: coloring rounds,
    /// Louvain coarsening levels, label-propagation sweeps).
    pub fn rounds(&self) -> usize {
        self.info().rounds
    }

    /// Whether the kernel reached its convergence criterion.
    pub fn converged(&self) -> bool {
        self.info().converged
    }

    /// Whole-run wall time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.info().elapsed_secs
    }

    /// Per-vertex community assignment (Louvain communities or
    /// label-propagation labels); `None` for coloring.
    pub fn communities(&self) -> Option<&[u32]> {
        match self {
            KernelOutput::Coloring(_) => None,
            KernelOutput::Louvain(r) => Some(&r.communities),
            KernelOutput::Labelprop(r) => Some(&r.labels),
        }
    }

    /// Per-vertex colors; `None` for the community kernels.
    pub fn colors(&self) -> Option<&[u32]> {
        match self {
            KernelOutput::Coloring(r) => Some(&r.colors),
            _ => None,
        }
    }

    /// The coloring result, if this was a coloring run.
    pub fn as_coloring(&self) -> Option<&ColoringResult> {
        match self {
            KernelOutput::Coloring(r) => Some(r),
            _ => None,
        }
    }

    /// The Louvain result, if this was a Louvain run.
    pub fn as_louvain(&self) -> Option<&LouvainResult> {
        match self {
            KernelOutput::Louvain(r) => Some(r),
            _ => None,
        }
    }

    /// The label-propagation result, if this was a label-propagation run.
    pub fn as_labelprop(&self) -> Option<&LabelPropResult> {
        match self {
            KernelOutput::Labelprop(r) => Some(r),
            _ => None,
        }
    }
}

/// Resolves an explicitly pinned vector backend ([`Backend::Emulated`] or
/// [`Backend::Native`]) to a concrete `Simd` value — wrapped in
/// [`Counted`] when op counting is requested, falling back to emulated when
/// AVX-512 is absent — and runs `$body` with `$s` bound to a reference.
macro_rules! with_vector_backend {
    ($backend:expr, $count_ops:expr, |$s:ident| $body:expr) => {{
        let native = match ($backend, crate::backends::engine()) {
            (Backend::Native, Engine::Native(n)) => Some(n),
            _ => None,
        };
        match (native, $count_ops) {
            (Some($s), false) => $body,
            (Some(n), true) => {
                let $s = Counted::new(n);
                $body
            }
            (None, false) => {
                let $s = Emulated;
                $body
            }
            (None, true) => {
                let $s = Counted::new(Emulated);
                $body
            }
        }
    }};
}

/// Warm-start payload for [`crate::incremental::run_kernel_incremental`]:
/// the previous output re-shaped into the matching kernel family's warm
/// config, dispatched alongside the spec by [`run_kernel_inner`].
#[derive(Debug, Clone)]
pub(crate) enum WarmStart {
    Color(crate::coloring::ColorWarm),
    Lp(crate::labelprop::LpWarm),
    Louvain(crate::louvain::LouvainWarm),
}

/// Runs the kernel described by `spec` on `g`, delivering per-round
/// telemetry (and deadline polls) to `rec`.
///
/// This is the single dispatch point over kernel × variant × backend ×
/// sweep. `Auto` picks the best engine the way the paper's measured
/// configurations do (vectorized assignment on AVX-512 hosts, the scalar
/// reference otherwise); `Emulated`/`Native` pin the vector backend
/// explicitly, and combined with [`KernelSpec::counted`] route through
/// `Counted<_>` so vector op counts reach `gp_simd::counters`.
pub fn run_kernel<R: Recorder>(g: &Csr, spec: &KernelSpec, rec: &mut R) -> KernelOutput {
    run_kernel_inner(g, spec, rec, None)
}

/// [`run_kernel`] with an optional warm start — the shared dispatch body,
/// also entered by the incremental path with `Some(warm)`. A warm payload
/// whose family does not match `spec.kernel` is ignored (cold run).
pub(crate) fn run_kernel_inner<R: Recorder>(
    g: &Csr,
    spec: &KernelSpec,
    rec: &mut R,
    warm: Option<WarmStart>,
) -> KernelOutput {
    match spec.kernel {
        Kernel::Coloring => {
            let cfg = ColoringConfig {
                parallel: spec.parallel,
                count_ops: spec.count_ops,
                sweep: spec.sweep,
                warm: match warm {
                    Some(WarmStart::Color(w)) => Some(w),
                    _ => None,
                },
                ..Default::default()
            };
            let r = match spec.backend {
                Backend::Scalar => crate::coloring::greedy::color_graph_scalar_recorded(g, &cfg, rec),
                Backend::Auto => match crate::backends::engine() {
                    Engine::Native(s) => crate::coloring::color_with(&s, g, &cfg, rec),
                    Engine::Emulated(_) => {
                        crate::coloring::greedy::color_graph_scalar_recorded(g, &cfg, rec)
                    }
                },
                Backend::Emulated | Backend::Native => {
                    with_vector_backend!(spec.backend, spec.count_ops, |s| {
                        crate::coloring::color_with(&s, g, &cfg, rec)
                    })
                }
            };
            KernelOutput::Coloring(r)
        }
        Kernel::Louvain(variant) => {
            let cfg = LouvainConfig {
                variant,
                parallel: spec.parallel,
                count_ops: spec.count_ops,
                sweep: spec.sweep,
                warm: match warm {
                    Some(WarmStart::Louvain(w)) => Some(w),
                    _ => None,
                },
                ..Default::default()
            };
            let r = match spec.backend {
                Backend::Auto | Backend::Scalar => {
                    crate::louvain::driver::louvain_recorded(g, &cfg, rec)
                }
                Backend::Emulated | Backend::Native => {
                    with_vector_backend!(spec.backend, spec.count_ops, |s| {
                        crate::louvain::driver::louvain_pinned_recorded(&s, g, &cfg, rec)
                    })
                }
            };
            KernelOutput::Louvain(r)
        }
        Kernel::Labelprop => {
            let cfg = LabelPropConfig {
                parallel: spec.parallel,
                count_ops: spec.count_ops,
                seed: spec.seed,
                sweep: spec.sweep,
                warm: match warm {
                    Some(WarmStart::Lp(w)) => Some(w),
                    _ => None,
                },
                ..Default::default()
            };
            let r = match spec.backend {
                Backend::Scalar => {
                    crate::labelprop::mplp::label_propagation_mplp_recorded(g, &cfg, rec)
                }
                Backend::Auto => match crate::backends::engine() {
                    Engine::Native(s) => {
                        crate::labelprop::onlp::label_propagation_onlp_recorded(&s, g, &cfg, rec)
                    }
                    Engine::Emulated(_) => {
                        crate::labelprop::mplp::label_propagation_mplp_recorded(g, &cfg, rec)
                    }
                },
                Backend::Emulated | Backend::Native => {
                    with_vector_backend!(spec.backend, spec.count_ops, |s| {
                        crate::labelprop::onlp::label_propagation_onlp_recorded(&s, g, &cfg, rec)
                    })
                }
            };
            KernelOutput::Labelprop(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::verify_coloring;
    use gp_graph::generators::{planted_partition, triangular_mesh};
    use gp_metrics::telemetry::{NoopRecorder, TraceRecorder};
    use gp_simd::counters;

    #[test]
    fn kernel_strings_round_trip() {
        for k in [
            Kernel::Coloring,
            Kernel::Louvain(Variant::Plm),
            Kernel::Louvain(Variant::Mplm),
            Kernel::Louvain(Variant::Onpl(Strategy::Adaptive)),
            Kernel::Louvain(Variant::Ovpl),
            Kernel::Labelprop,
        ] {
            assert_eq!(k.cache_label().parse::<Kernel>().unwrap(), k);
            assert_eq!(k.to_string(), k.cache_label());
        }
        for b in [
            Backend::Auto,
            Backend::Scalar,
            Backend::Emulated,
            Backend::Native,
        ] {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
        }
        for m in [SweepMode::Full, SweepMode::Active] {
            assert_eq!(m.name().parse::<SweepMode>().unwrap(), m);
        }
    }

    #[test]
    fn kernel_parse_aliases_and_errors() {
        assert_eq!("coloring".parse::<Kernel>().unwrap(), Kernel::Coloring);
        assert_eq!("lp".parse::<Kernel>().unwrap(), Kernel::Labelprop);
        assert_eq!(
            "louvain".parse::<Kernel>().unwrap(),
            Kernel::Louvain(Variant::Mplm)
        );
        assert_eq!(
            "onpl-ivr".parse::<Variant>().unwrap(),
            Variant::Onpl(Strategy::InVectorReduce)
        );
        assert_eq!("avx512".parse::<Backend>().unwrap(), Backend::Native);
        assert!("pagerank".parse::<Kernel>().is_err());
        assert!("louvain-x".parse::<Kernel>().is_err());
        assert!("gpu".parse::<Backend>().is_err());
        assert!("lazy".parse::<SweepMode>().is_err());
    }

    #[test]
    fn cache_token_distinguishes_every_axis() {
        let base = KernelSpec::new(Kernel::Louvain(Variant::Mplm));
        let mut tokens = vec![base.cache_token()];
        tokens.push(base.with_backend(Backend::Scalar).cache_token());
        tokens.push(base.with_backend(Backend::Emulated).cache_token());
        tokens.push(base.with_backend(Backend::Native).cache_token());
        tokens.push(base.with_sweep(SweepMode::Full).cache_token());
        tokens.push(base.with_seed(7).cache_token());
        tokens.push(KernelSpec::new(Kernel::Louvain(Variant::Ovpl)).cache_token());
        let unique: std::collections::HashSet<_> = tokens.iter().collect();
        assert_eq!(unique.len(), tokens.len(), "{tokens:?}");
    }

    #[test]
    fn pinned_vector_coloring_matches_scalar() {
        // Sequential runs are deterministic and the backends implement the
        // same greedy rule, so every pin must give identical colors.
        let g = triangular_mesh(10, 10, 4);
        let scalar = run_kernel(
            &g,
            &KernelSpec::new(Kernel::Coloring)
                .sequential()
                .with_backend(Backend::Scalar),
            &mut NoopRecorder,
        );
        assert!(verify_coloring(&g, scalar.colors().unwrap()).is_ok());
        for backend in [Backend::Auto, Backend::Emulated, Backend::Native] {
            let out = run_kernel(
                &g,
                &KernelSpec::new(Kernel::Coloring)
                    .sequential()
                    .with_backend(backend),
                &mut NoopRecorder,
            );
            assert_eq!(
                out.colors().unwrap(),
                scalar.colors().unwrap(),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn louvain_all_variants_and_pins_agree() {
        let g = planted_partition(3, 12, 0.7, 0.05, 11);
        for variant in [
            Variant::Plm,
            Variant::Mplm,
            Variant::Onpl(Strategy::Adaptive),
            Variant::Ovpl,
        ] {
            let auto = run_kernel(
                &g,
                &KernelSpec::new(Kernel::Louvain(variant)).sequential(),
                &mut NoopRecorder,
            );
            let pinned = run_kernel(
                &g,
                &KernelSpec::new(Kernel::Louvain(variant))
                    .sequential()
                    .with_backend(Backend::Emulated),
                &mut NoopRecorder,
            );
            let a = auto.as_louvain().unwrap();
            let p = pinned.as_louvain().unwrap();
            assert_eq!(a.communities, p.communities, "{}", variant.name());
            assert_eq!(a.modularity, p.modularity);
            assert!(a.modularity > 0.0);
            assert_eq!(auto.communities().unwrap(), &a.communities[..]);
        }
    }

    #[test]
    fn labelprop_backend_pins_agree_with_dispatch() {
        let g = planted_partition(4, 10, 0.8, 0.02, 5);
        let run = |backend: Backend| {
            let spec = KernelSpec::new(Kernel::Labelprop)
                .sequential()
                .with_backend(backend)
                .with_seed(99);
            run_kernel(&g, &spec, &mut NoopRecorder)
        };
        let scalar = run(Backend::Scalar);
        let emulated = run(Backend::Emulated);
        let native = run(Backend::Native);
        // The two vector pins run the same 16-lane ONLP and must agree
        // bit-for-bit (Native falls back to Emulated without AVX-512).
        assert_eq!(
            emulated.as_labelprop().unwrap(),
            native.as_labelprop().unwrap()
        );
        // Auto dispatches to ONLP on native hosts and MPLP otherwise, and
        // must match that pin exactly. MPLP and ONLP themselves may break
        // label-weight ties differently, so no cross-algorithm equality.
        let auto = run(Backend::Auto);
        let expect = if crate::backends::engine().is_native() { &native } else { &scalar };
        assert_eq!(
            auto.as_labelprop().unwrap(),
            expect.as_labelprop().unwrap()
        );
        assert!(scalar.converged() && auto.converged());
    }

    #[test]
    fn counted_emulated_pin_records_vector_ops() {
        // Every mesh vertex has degree ≤ 16, which the scalar kernel colors
        // through its bitmask; a vector run still takes the ONPL kernel on
        // each of them, so the counted run records vector ops.
        let g = triangular_mesh(8, 8, 2);
        let spec = KernelSpec::new(Kernel::Coloring)
            .sequential()
            .with_backend(Backend::Emulated)
            .counted();
        let (out, counts) = counters::counted_run(|| run_kernel(&g, &spec, &mut NoopRecorder));
        assert!(out.converged());
        assert!(
            counts.total_vector() > 0,
            "counted emulated run recorded no vector ops: {counts:?}"
        );
    }

    #[test]
    fn run_kernel_feeds_the_recorder() {
        let g = triangular_mesh(8, 8, 3);
        let mut rec = TraceRecorder::new("api");
        let out = run_kernel(
            &g,
            &KernelSpec::new(Kernel::Labelprop).sequential(),
            &mut rec,
        );
        let trace = rec.into_trace();
        assert_eq!(trace.rounds.len(), out.rounds());
        assert!(trace.rounds[0].active > 0);
    }

    #[test]
    fn scalar_backend_reports_scalar() {
        let g = triangular_mesh(6, 6, 1);
        let out = run_kernel(
            &g,
            &KernelSpec::new(Kernel::Coloring)
                .sequential()
                .with_backend(Backend::Scalar),
            &mut NoopRecorder,
        );
        assert_eq!(out.backend(), "scalar");
    }

    #[test]
    fn native_pin_reports_what_actually_ran() {
        let g = triangular_mesh(6, 6, 1);
        let out = run_kernel(
            &g,
            &KernelSpec::new(Kernel::Coloring)
                .sequential()
                .with_backend(Backend::Native),
            &mut NoopRecorder,
        );
        // On AVX-512 hosts this is the native backend; elsewhere the pin
        // falls back and says so.
        assert!(
            out.backend() == "avx512" || out.backend() == "emulated",
            "{}",
            out.backend()
        );
        assert_eq!(
            Backend::best_vector(),
            if crate::backends::engine().is_native() {
                Backend::Native
            } else {
                Backend::Emulated
            }
        );
    }
}
