//! Shared measurement pipeline for the figure binaries.
//!
//! Every comparison in the paper is produced two ways:
//!
//! * **measured** — wall-clock of the real kernels on this host (native
//!   AVX-512 when available), 25 runs, mean + bootstrap CI;
//! * **modeled** — one counted run per kernel through the
//!   SkylakeX/Cascade-Lake cost model, the substitution for the paper's
//!   second machine (DESIGN.md §2).

use gp_core::api::{run_kernel, Backend, Blocking, Bucketing, Kernel, KernelOutput, KernelSpec};
use gp_core::coloring::{color_with, ColoringConfig, ColoringResult};
use gp_core::louvain::ovpl::{move_phase_ovpl, prepare};
use gp_core::louvain::{move_phase_with, LouvainConfig, MoveState, Variant};
use gp_metrics::telemetry::NoopRecorder;
use gp_graph::csr::Csr;
use gp_graph::suite::SuiteScale;
use gp_metrics::stats::Summary;
use gp_metrics::timer::{time_runs, TimingConfig};
use gp_simd::backend::{Emulated, Simd};
use gp_simd::counted::Counted;
use gp_simd::cost::{ArchProfile, CASCADE_LAKE, SKYLAKE_X};
use gp_simd::counters::{self, OpCounts};
use gp_simd::engine::Engine;

/// Shared experiment context parsed from the environment.
#[derive(Debug, Clone, Copy)]
pub struct BenchContext {
    pub timing: TimingConfig,
    pub scale: SuiteScale,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// Substrate worker threads (`GP_THREADS`; 0 = the default global pool).
    pub threads: usize,
}

impl BenchContext {
    /// Reads `GP_QUICK`, `GP_RUNS`, `GP_SCALE`, `GP_CSV`, `GP_THREADS`.
    ///
    /// When `GP_THREADS` is set, the global `gp-par` pool is sized accordingly
    /// before any parallel work runs, so every substrate pass in the binary
    /// (generation, CSR builds, coarsening) uses that many workers. The
    /// substrate is deterministic for any pool size — the knob trades
    /// wall-clock only.
    pub fn from_env() -> Self {
        let threads = gp_graph::par::threads_from_env().unwrap_or(0);
        if threads != 0 {
            // First caller wins; a pre-initialized pool keeps its size.
            let _ = gp_par::set_global_threads(threads);
        }
        let quick = std::env::var("GP_QUICK").is_ok_and(|v| v == "1");
        let mut timing = if quick {
            TimingConfig::quick()
        } else {
            TimingConfig::default()
        };
        if let Ok(runs) = std::env::var("GP_RUNS") {
            if let Ok(runs) = runs.parse::<usize>() {
                timing.runs = runs.max(1);
            }
        }
        let scale = match std::env::var("GP_SCALE").as_deref() {
            Ok("test") => SuiteScale::Test,
            Ok("large") => SuiteScale::Large,
            Ok("bench") => SuiteScale::Bench,
            _ if quick => SuiteScale::Test,
            _ => SuiteScale::Bench,
        };
        BenchContext {
            timing,
            scale,
            csv: std::env::var("GP_CSV").is_ok_and(|v| v == "1"),
            threads,
        }
    }

    /// Runs `f` inside a scoped pool of `self.threads` workers (ambient
    /// pool when 0) — for sections that must re-assert the knob even after
    /// another component sized the global pool.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        gp_graph::par::with_threads(self.threads, f)
    }

    /// Prints a table per the `csv` flag.
    pub fn emit(&self, table: &gp_metrics::report::Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.render());
        }
    }
}

/// Prints the standard experiment header (host backend, scale, runs).
pub fn print_header(name: &str, ctx: &BenchContext) {
    if ctx.csv {
        return;
    }
    let threads = if ctx.threads == 0 {
        "default".to_string()
    } else {
        ctx.threads.to_string()
    };
    println!(
        "== {name} | backend: {} | scale: {:?} | runs: {} | threads: {threads} ==\n",
        gp_core::backends::engine().name(),
        ctx.scale,
        ctx.timing.runs
    );
}

/// Effective *random* working set of a kernel run: total footprint weighted
/// by the graph's access locality. A mesh or road network numbered locally
/// keeps its random accesses (zeta/affinity lookups) within a sliding window
/// — only web-crawl-like graphs expose the full footprint to the memory
/// system. The normalized average edge span is the locality proxy.
fn effective_random_bytes(g: &Csr, total_bytes: usize) -> usize {
    let n = g.num_vertices().max(1) as f64;
    let span = gp_graph::ordering::average_edge_span(g);
    let locality = (3.0 * span / n).clamp(0.01, 1.0);
    (total_bytes as f64 * locality) as usize
}

/// The two study architectures with memory costs scaled to this graph's own
/// footprint (used by the R-MAT sweeps, whose reduced scale is part of the
/// reported axis).
pub fn study_archs_for(g: &Csr) -> [ArchProfile; 2] {
    let bytes = g.memory_bytes() + g.num_vertices() * 12; // zeta + volumes + vol(u)
    let eff = effective_random_bytes(g, bytes);
    [
        CASCADE_LAKE.for_working_set(eff),
        SKYLAKE_X.for_working_set(eff),
    ]
}

/// The two study architectures priced at the *paper's* graph size for this
/// suite entry: the op mix comes from the structure-matched stand-in, the
/// memory pressure from the real graph's dimensions — together they model
/// the paper's machines running the paper's workload (DESIGN.md §2).
///
/// Locality extrapolation: the stand-in's average edge span grows like
/// `n^α` with the family's intrinsic dimension (α ≈ ½ for meshes, ⅔ for 3-D
/// stencils, → 1 for random crawls). The effective random window at paper
/// scale is the paper-size span times the per-vertex footprint — tiny for
/// local graphs (mesh kernels stay cache-friendly even at 50M vertices),
/// the full footprint for web crawls.
pub fn study_archs_for_paper(entry: &gp_graph::suite::SuiteEntry, g: &Csr) -> [ArchProfile; 2] {
    let paper_bytes =
        (entry.paper_vertices + 1) * 4 + entry.paper_edges * 2 * 8 + entry.paper_vertices * 12;
    let n_standin = g.num_vertices().max(2) as f64;
    let span_standin = gp_graph::ordering::average_edge_span(g).max(1.0);
    let alpha = (span_standin.ln() / n_standin.ln()).clamp(0.0, 1.0);
    let n_paper = entry.paper_vertices.max(2) as f64;
    let span_paper = n_paper.powf(alpha);
    let per_vertex = paper_bytes as f64 / n_paper;
    let eff = ((3.0 * span_paper * per_vertex).min(paper_bytes as f64)) as usize;
    [
        CASCADE_LAKE.for_working_set(eff),
        SKYLAKE_X.for_working_set(eff),
    ]
}

// ---------------------------------------------------------------- Louvain

/// Wall-clock of one Louvain move phase (state construction excluded from
/// variant-specific cost the same for all variants; OVPL preprocessing is
/// done once outside the timed region, as the paper's move-phase timings
/// do).
pub fn time_louvain_move(g: &Csr, variant: Variant, ctx: &BenchContext) -> Summary {
    let config = LouvainConfig {
        variant,
        parallel: true,
        ..Default::default()
    };
    match variant {
        Variant::Ovpl => {
            let layout = prepare(g, &config);
            match gp_core::backends::engine() {
                Engine::Native(s) => time_runs(&ctx.timing, |_| {
                    let state = MoveState::singleton(g);
                    move_phase_ovpl(&s, &layout, &state, &config)
                }),
                Engine::Emulated(s) => time_runs(&ctx.timing, |_| {
                    let state = MoveState::singleton(g);
                    move_phase_ovpl(&s, &layout, &state, &config)
                }),
            }
        }
        _ => match gp_core::backends::engine() {
            Engine::Native(s) => time_runs(&ctx.timing, |_| {
                let state = MoveState::singleton(g);
                move_phase_with(&s, g, &state, &config, &mut NoopRecorder)
            }),
            Engine::Emulated(s) => time_runs(&ctx.timing, |_| {
                let state = MoveState::singleton(g);
                move_phase_with(&s, g, &state, &config, &mut NoopRecorder)
            }),
        },
    }
}

/// Op counts of one sequential Louvain move phase (modeled runs).
pub fn counts_louvain_move(g: &Csr, variant: Variant) -> OpCounts {
    let config = LouvainConfig {
        variant,
        parallel: false,
        count_ops: true,
        ..Default::default()
    };
    let s: Counted<Emulated> = Counted::new(Emulated);
    let ((), counts) = counters::counted_run(|| {
        let state = MoveState::singleton(g);
        move_phase_with(&s, g, &state, &config, &mut NoopRecorder);
    });
    counts
}

/// Modularity reached by one sequential move phase of a variant.
pub fn quality_louvain_move(g: &Csr, variant: Variant) -> f64 {
    let config = LouvainConfig::sequential(variant);
    let state = MoveState::singleton(g);
    move_phase_with(&Emulated, g, &state, &config, &mut NoopRecorder);
    gp_core::louvain::modularity(g, &state.communities())
}

/// Modularity of a full multilevel Louvain run — what Figure 11b compares
/// (coarsening erases most schedule-order differences between variants).
pub fn quality_louvain_full(g: &Csr, variant: Variant) -> f64 {
    let spec = KernelSpec::new(Kernel::Louvain(variant)).sequential();
    match run_kernel(g, &spec, &mut NoopRecorder) {
        KernelOutput::Louvain(r) => r.modularity,
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------- Coloring

/// Wall-clock of a full speculative coloring run.
pub fn time_coloring(g: &Csr, vectorized: bool, ctx: &BenchContext) -> Summary {
    if vectorized {
        let config = ColoringConfig::default();
        match gp_core::backends::engine() {
            Engine::Native(s) => {
                time_runs(&ctx.timing, |_| color_with(&s, g, &config, &mut NoopRecorder))
            }
            Engine::Emulated(s) => {
                time_runs(&ctx.timing, |_| color_with(&s, g, &config, &mut NoopRecorder))
            }
        }
    } else {
        let spec = KernelSpec::new(Kernel::Coloring).with_backend(Backend::Scalar);
        time_runs(&ctx.timing, |_| run_kernel(g, &spec, &mut NoopRecorder))
    }
}

/// Op counts of a sequential coloring run. Locality routing is pinned off:
/// the figure compares the paper's scalar and vector *kernels*, and degree
/// bucketing would swap low-degree vertices onto a different kernel shape
/// (the op mix would then measure the router, not the kernel).
pub fn counts_coloring(g: &Csr, vectorized: bool) -> (ColoringResult, OpCounts) {
    let backend = if vectorized { Backend::Emulated } else { Backend::Scalar };
    let spec = KernelSpec::new(Kernel::Coloring)
        .sequential()
        .counted()
        .with_block(Blocking::Off)
        .with_bucket(Bucketing::Off)
        .with_backend(backend);
    let (out, counts) = counters::counted_run(|| run_kernel(g, &spec, &mut NoopRecorder));
    match out {
        KernelOutput::Coloring(r) => (r, counts),
        _ => unreachable!(),
    }
}

// ----------------------------------------------------------- Label prop

/// Wall-clock of a full label-propagation run.
pub fn time_labelprop(g: &Csr, vectorized: bool, ctx: &BenchContext) -> Summary {
    let backend = if vectorized {
        Backend::best_vector()
    } else {
        Backend::Scalar
    };
    let spec = KernelSpec::new(Kernel::Labelprop).with_backend(backend);
    time_runs(&ctx.timing, |_| run_kernel(g, &spec, &mut NoopRecorder))
}

/// Op counts of a sequential label-propagation run.
pub fn counts_labelprop(g: &Csr, vectorized: bool) -> OpCounts {
    let backend = if vectorized { Backend::Emulated } else { Backend::Scalar };
    let spec = KernelSpec::new(Kernel::Labelprop)
        .sequential()
        .counted()
        .with_block(Blocking::Off)
        .with_bucket(Bucketing::Off)
        .with_backend(backend);
    counters::counted_run(|| run_kernel(g, &spec, &mut NoopRecorder)).1
}

// ------------------------------------------- Measurement hygiene (checks)

/// Outcome of the three-run variance gate.
pub enum VarianceVerdict {
    /// σ/mean over three runs, below the 2% bar.
    Steady(f64),
    /// σ/mean over three runs, at or above the bar — the host is too noisy
    /// for ratio-based `--check` gates to mean anything.
    Noisy(f64),
    /// Gate self-skipped: a ≤ 1-CPU host co-schedules the measurement with
    /// everything else, so run-to-run spread reflects the scheduler, not
    /// the kernel.
    SkippedLowCpu,
}

/// Three-run σ < 2% variance gate for the `--check` paths: measures `f`
/// three times and reports whether the relative standard deviation stays
/// under 2%. Callers fail their check on [`VarianceVerdict::Noisy`] —
/// a comparison taken on a host that can't repeat a measurement within 2%
/// is not evidence either way.
pub fn variance_gate(mut f: impl FnMut()) -> VarianceVerdict {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) <= 1 {
        return VarianceVerdict::SkippedLowCpu;
    }
    let mut samples = [0.0f64; 3];
    for s in &mut samples {
        let started = std::time::Instant::now();
        f();
        *s = started.elapsed().as_secs_f64();
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
        / samples.len() as f64;
    let rel_sigma = var.sqrt() / mean.max(1e-12);
    if rel_sigma < 0.02 {
        VarianceVerdict::Steady(rel_sigma)
    } else {
        VarianceVerdict::Noisy(rel_sigma)
    }
}

// ------------------------------------------------------------- Tracing

/// Directory named by `GP_TRACE`, created on demand. `None` when the
/// variable is unset (the default: no per-round recording anywhere in the
/// timed paths).
pub fn trace_dir() -> Option<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(std::env::var("GP_TRACE").ok()?);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("GP_TRACE: cannot create {}: {e}", dir.display());
        return None;
    }
    Some(dir)
}

/// When `GP_TRACE=<dir>` is set, re-runs the counted sequential kernels with
/// a [`TraceRecorder`] attached and drops one JSON trace per kernel into the
/// directory (`<prefix>-<kernel>.json`). Runs *outside* the timed loops so
/// the figures' wall-clock numbers stay untouched; the counted `Emulated`
/// backend makes the per-round op-class deltas non-zero.
pub fn emit_traces(prefix: &str, g: &Csr) {
    use gp_metrics::telemetry::TraceRecorder;
    use gp_metrics::write_trace;
    let Some(dir) = trace_dir() else { return };
    let s: Counted<Emulated> = Counted::new(Emulated);
    let emit = |kernel: &str, rec: TraceRecorder| {
        let path = dir.join(format!("{prefix}-{kernel}.json"));
        match write_trace(path.to_str().unwrap_or_default(), &rec.into_trace()) {
            Ok(()) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    };

    let mut rec = TraceRecorder::new("coloring-scalar");
    let spec = KernelSpec::new(Kernel::Coloring)
        .sequential()
        .counted()
        .with_backend(Backend::Scalar);
    counters::counted_run(|| run_kernel(g, &spec, &mut rec));
    emit("coloring-scalar", rec);
    let mut rec = TraceRecorder::new("coloring-onpl");
    let spec = spec.with_backend(Backend::Emulated);
    counters::counted_run(|| run_kernel(g, &spec, &mut rec));
    emit("coloring-onpl", rec);

    for variant in [
        Variant::Mplm,
        Variant::Onpl(gp_core::reduce_scatter::Strategy::Adaptive),
    ] {
        let config = LouvainConfig {
            count_ops: true,
            ..LouvainConfig::sequential(variant)
        };
        let kernel = format!("louvain-{}", variant.name());
        let mut rec = TraceRecorder::new(kernel.clone());
        counters::counted_run(|| {
            let state = MoveState::singleton(g);
            move_phase_with(&s, g, &state, &config, &mut rec);
        });
        emit(&kernel, rec);
    }

    let mut rec = TraceRecorder::new("labelprop-onlp");
    let spec = KernelSpec::new(Kernel::Labelprop)
        .sequential()
        .counted()
        .with_backend(Backend::Emulated);
    counters::counted_run(|| run_kernel(g, &spec, &mut rec));
    emit("labelprop-onlp", rec);
}

/// Runs a kernel under the counting decorator regardless of backend — for
/// ad-hoc modeled sections in the binaries.
pub fn counted<R>(f: impl FnOnce(&Counted<Emulated>) -> R) -> (R, OpCounts) {
    let s = Counted::new(Emulated);
    counters::counted_run(|| f(&s))
}

/// Generic monomorphized runner: lets binaries run one closure body on
/// whichever backend the host offers.
pub fn with_best_engine<R>(f: impl Fn(&dyn BackendRunner) -> R) -> R {
    match gp_core::backends::engine() {
        Engine::Native(s) => f(&s),
        Engine::Emulated(s) => f(&s),
    }
}

/// Object-safe subset for [`with_best_engine`] users that only need to know
/// the backend exists (kernels themselves stay generic).
pub trait BackendRunner {
    /// Backend display name.
    fn name(&self) -> &'static str;
}

impl<S: Simd> BackendRunner for S {
    fn name(&self) -> &'static str {
        S::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::generators::planted_partition;

    fn quick_ctx() -> BenchContext {
        BenchContext {
            timing: TimingConfig { runs: 2, warmup: 0 },
            scale: SuiteScale::Test,
            csv: false,
            threads: 0,
        }
    }

    #[test]
    fn louvain_pipeline_measures() {
        let g = planted_partition(3, 12, 0.7, 0.03, 1);
        let ctx = quick_ctx();
        for variant in [
            Variant::Mplm,
            Variant::Onpl(gp_core::reduce_scatter::Strategy::ConflictDetect),
            Variant::Ovpl,
        ] {
            let t = time_louvain_move(&g, variant, &ctx);
            assert!(t.mean > 0.0, "{variant:?}");
            let c = counts_louvain_move(&g, variant);
            assert!(c.total() > 0, "{variant:?} counted nothing");
        }
    }

    #[test]
    fn scalar_louvain_counts_are_scalar_only() {
        let g = planted_partition(3, 8, 0.7, 0.05, 2);
        let c = counts_louvain_move(&g, Variant::Mplm);
        assert_eq!(c.total_vector(), 0);
        assert!(c.total_scalar() > 0);
    }

    #[test]
    fn vector_louvain_counts_use_gathers() {
        let g = planted_partition(3, 8, 0.7, 0.05, 2);
        let c = counts_louvain_move(
            &g,
            Variant::Onpl(gp_core::reduce_scatter::Strategy::ConflictDetect),
        );
        assert!(c.get(gp_simd::counters::OpClass::Gather) > 0);
        assert!(c.get(gp_simd::counters::OpClass::Scatter) > 0);
    }

    #[test]
    fn coloring_pipeline_measures() {
        let g = planted_partition(2, 16, 0.5, 0.1, 3);
        let ctx = quick_ctx();
        assert!(time_coloring(&g, false, &ctx).mean > 0.0);
        assert!(time_coloring(&g, true, &ctx).mean > 0.0);
        let (r_s, c_s) = counts_coloring(&g, false);
        let (r_v, c_v) = counts_coloring(&g, true);
        assert_eq!(r_s.num_colors, r_v.num_colors);
        assert!(c_s.total_scalar() > 0);
        assert!(c_v.get(gp_simd::counters::OpClass::Scatter) > 0);
    }

    #[test]
    fn labelprop_pipeline_measures() {
        let g = planted_partition(3, 10, 0.7, 0.02, 5);
        let ctx = quick_ctx();
        assert!(time_labelprop(&g, false, &ctx).mean > 0.0);
        assert!(time_labelprop(&g, true, &ctx).mean > 0.0);
        assert!(counts_labelprop(&g, false).total_scalar() > 0);
        assert!(counts_labelprop(&g, true).get(gp_simd::counters::OpClass::Gather) > 0);
    }

    #[test]
    fn quality_helper_returns_positive_modularity() {
        let g = planted_partition(4, 12, 0.8, 0.02, 7);
        assert!(quality_louvain_move(&g, Variant::Mplm) > 0.3);
    }

    #[test]
    fn context_from_env_defaults() {
        // Whatever the env holds, the context must be constructible.
        let ctx = BenchContext::from_env();
        assert!(ctx.timing.runs >= 1);
    }
}
