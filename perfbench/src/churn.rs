//! `stream-churn`: one streaming session on a `DeltaCsr`.
//!
//! Closed loop, one caller. Setup builds an R-MAT (scale 16, edge factor 8)
//! and its `DeltaCsr`; a cold run of each kernel gives the first outputs.
//! Each step applies a seeded batch of 0.1% churn (equal numbers of edge
//! additions and deletions of live edges), then reruns coloring, Louvain
//! (ONPL) and label propagation incrementally from the previous outputs.
//! The batch is drawn before the step's timer starts; every output is
//! checked after it stops. Setup and steps are timed with the calling
//! thread's CPU clock, checked over the run (see `clock`).

use crate::check::check_output;
use crate::clock::{cpu_ms_since, thread_cpu_secs, Window};
use crate::inputs::Rng;
use crate::trace::Tracer;
use crate::{stats, Outcome, RunCfg};
use gp_core::api::{run_kernel, Kernel, KernelOutput, KernelSpec, Strategy, Variant};
use gp_core::incremental::run_kernel_incremental;
use gp_graph::generators::{rmat, RmatConfig};
use gp_graph::{DeltaCsr, Edge};
use gp_metrics::telemetry::{NoopRecorder, TraceRecorder};
use std::time::Instant;

const SCALE: u32 = 16;
const EDGE_FACTOR: u32 = 8;
/// Share of the live edges changed per step (half added, half deleted).
const CHURN: f64 = 0.001;
/// Setup is repeated this many times; `setup_s` is the median.
const SETUPS: usize = 3;
const FAMILIES: [&str; 3] = ["color", "louvain", "labelprop"];
/// Steps recorded with a `TraceRecorder` after a traced window.
const RECORDED_STEPS: usize = 5;

fn specs(seed: u64) -> [KernelSpec; 3] {
    let seq = |k: Kernel| KernelSpec::new(k).sequential().with_seed(seed);
    [
        seq(Kernel::Coloring),
        seq(Kernel::Louvain(Variant::Onpl(Strategy::Adaptive))),
        seq(Kernel::Labelprop),
    ]
}

/// A batch of `k` additions of absent edges and `k` deletions of live ones.
fn draw_batch(d: &DeltaCsr, rng: &mut Rng, k: usize) -> (Vec<Edge>, Vec<(u32, u32)>) {
    let n = d.num_vertices() as u64;
    let g = d.as_csr();
    let mut adds = Vec::with_capacity(k);
    while adds.len() < k {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v && !d.has_live_edge(u, v) {
            adds.push(Edge::unweighted(u, v));
        }
    }
    let mut dels = Vec::with_capacity(k);
    while dels.len() < k {
        let u = rng.below(n) as u32;
        let live: Vec<u32> = g
            .edges_of(u)
            .filter(|&(v, w)| v != u && w > 0.0)
            .map(|(v, _)| v)
            .collect();
        if !live.is_empty() {
            let v = live[rng.below(live.len() as u64) as usize];
            if !dels.contains(&(u, v)) && !dels.contains(&(v, u)) {
                dels.push((u, v));
            }
        }
    }
    (adds, dels)
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(cfg.trace);
    let clocks = Window::start();
    let mut setups = Vec::new();
    let mut delta = None;
    for _ in 0..SETUPS {
        drop(delta.take());
        let t = thread_cpu_secs();
        let g = rmat(RmatConfig::new(SCALE, EDGE_FACTOR).with_seed(cfg.seed));
        delta = Some(DeltaCsr::from_csr(&g));
        setups.push(cpu_ms_since(t) / 1e3);
    }
    let mut d = delta.expect("SETUPS > 0");
    out.e2e.put("setup_s", stats::median(&setups), "s");
    out.settings.push((
        "stream_churn.graph",
        format!("rmat:scale={SCALE},ef={EDGE_FACTOR},churn={CHURN}"),
    ));

    let specs = specs(cfg.seed);
    let mut prev: Vec<KernelOutput> = Vec::new();
    for (f, spec) in specs.iter().enumerate() {
        let o = run_kernel(d.as_csr(), spec, &mut NoopRecorder);
        out.backends
            .push((format!("churn.{}", FAMILIES[f]), o.backend().to_string()));
        out.tally.record(check_output(d.as_csr(), &o));
        prev.push(o);
    }

    let k = ((CHURN * d.num_live_arcs() as f64 / 2.0) / 2.0)
        .round()
        .max(1.0) as usize;
    let mut rng = Rng(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let (mut steps, mut family_ms): (Vec<f64>, [Vec<f64>; 3]) = Default::default();
    let (mut modularity, mut colors) = (Vec::new(), Vec::new());
    let mut touched_n = Vec::new();
    let start = Instant::now();
    while steps.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let (adds, dels) = draw_batch(&d, &mut rng, k);
        let t = thread_cpu_secs();
        let op = tracer.begin("op");
        let applied = tracer.span("graph.delta", || d.apply_edges(&adds, &dels));
        let touched = match applied {
            Ok(touched) => touched,
            Err(e) => {
                tracer.end(op);
                out.tally
                    .record::<()>(Err(format!("churn batch rejected: {e}")));
                continue;
            }
        };
        let mut outs = Vec::with_capacity(3);
        for (f, spec) in specs.iter().enumerate() {
            let t = thread_cpu_secs();
            let o = tracer.span("core", || {
                run_kernel_incremental(d.as_csr(), spec, &prev[f], &touched, &mut NoopRecorder)
            });
            family_ms[f].push(cpu_ms_since(t));
            outs.push(o);
        }
        tracer.end(op);
        steps.push(cpu_ms_since(t));
        touched_n.push(touched.len() as f64);

        for (f, o) in outs.into_iter().enumerate() {
            let label = FAMILIES[f];
            if let Some(q) = out
                .tally
                .record(check_output(d.as_csr(), &o).map_err(|e| format!("{label}: {e}")))
            {
                modularity.extend(q.modularity);
                colors.extend(q.colors);
            }
            prev[f] = o;
        }
    }
    clocks.finish(&mut out);

    let total: f64 = steps.iter().sum();
    out.e2e
        .put("items_per_s", steps.len() as f64 / (total / 1e3), "items/s");
    out.e2e.put("p50_ms", stats::median(&steps), "ms");
    out.e2e.put("p90_ms", stats::quantile(&steps, 0.90), "ms");
    // The tail a few hundred steps support; in the report line only.
    out.e2e.put("p95_ms", stats::quantile(&steps, 0.95), "ms");
    for (f, name) in FAMILIES.iter().enumerate() {
        out.e2e.put(
            format!("solve_ms.{name}"),
            stats::median(&family_ms[f]),
            "ms",
        );
    }
    out.e2e.put("modularity", stats::mean(&modularity), "Q");
    out.e2e.put("colors", stats::mean(&colors), "count");

    if tracer.on() {
        let op = tracer.total_secs("op");
        let (apply, core) = (tracer.self_secs("graph.delta"), tracer.self_secs("core"));
        let l = &mut out.layers;
        l.put("graph.self_frac", 0.0, "ratio");
        l.put("graph.delta.self_frac", apply / op, "ratio");
        l.put("pipeline.wait_frac", 0.0, "ratio");
        l.put("core.self_frac", core / op, "ratio");
        l.put(
            "core.ms",
            1e3 * stats::median(&tracer.durations("core")),
            "ms",
        );
        l.put("trace.residual_frac", 1.0 - (apply + core) / op, "ratio");
        let (active_frac, rounds) =
            recorded_steps(&mut out, &mut d, &specs, &mut prev, &mut rng, k);
        out.layers
            .put("core.rounds", stats::mean(&rounds.concat()), "count");
        let s = d.stats();
        let dt = &mut out.detail;
        dt.put("graph.setup_build_ms", 1e3 * stats::median(&setups), "ms");
        dt.put("graph.delta.steps", steps.len() as f64, "count");
        dt.put(
            "graph.delta.apply_ms",
            1e3 * stats::median(&tracer.durations("graph.delta")),
            "ms",
        );
        dt.put("graph.delta.touched", stats::mean(&touched_n), "count");
        dt.put("graph.delta.compactions", s.compactions as f64, "count");
        dt.put(
            "graph.delta.slack_frac",
            s.slack_slots as f64 / s.padded_arcs.max(1) as f64,
            "ratio",
        );
        dt.put("graph.delta.batch_edges", 2.0 * k as f64, "count");
        for (f, name) in FAMILIES.iter().enumerate() {
            dt.put(
                format!("core.incremental.{name}.ms"),
                stats::median(&family_ms[f]),
                "ms",
            );
            dt.put(
                format!("core.incremental.{name}.active_frac"),
                stats::mean(&active_frac[f]),
                "ratio",
            );
            dt.put(
                format!("core.incremental.{name}.rounds"),
                stats::mean(&rounds[f]),
                "count",
            );
        }
    }
    Ok(out)
}

/// Steps run after the window with a `TraceRecorder` on each kernel, for
/// the round statistics: per family, the round-1 active share of the
/// vertices and the rounds of every step. Outputs are checked as usual.
fn recorded_steps(
    out: &mut Outcome,
    d: &mut DeltaCsr,
    specs: &[KernelSpec; 3],
    prev: &mut [KernelOutput],
    rng: &mut Rng,
    k: usize,
) -> ([Vec<f64>; 3], [Vec<f64>; 3]) {
    let n = d.num_vertices() as f64;
    let (mut active, mut rounds): ([Vec<f64>; 3], [Vec<f64>; 3]) = Default::default();
    for _ in 0..RECORDED_STEPS {
        let (adds, dels) = draw_batch(d, rng, k);
        let Some(touched) = out
            .tally
            .record(d.apply_edges(&adds, &dels).map_err(|e| e.to_string()))
        else {
            continue;
        };
        for (f, spec) in specs.iter().enumerate() {
            let mut rec = TraceRecorder::new(FAMILIES[f]);
            let o = run_kernel_incremental(d.as_csr(), spec, &prev[f], &touched, &mut rec);
            let tr = rec.into_trace();
            active[f].push(tr.rounds.first().map_or(0.0, |r| r.active as f64 / n));
            rounds[f].push(o.rounds() as f64);
            out.tally.record(check_output(d.as_csr(), &o));
            prev[f] = o;
        }
    }
    (active, rounds)
}
