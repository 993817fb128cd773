//! `batch-cold`: `gpart batch` on never-seen graphs.
//!
//! Closed loop, one caller. Each batch is one `PipelineExecutor` run
//! (window 2) of 4 items: the four graph families (R-MAT, ER, BA, mesh;
//! about 130k vertices each), each paired with one of the four sequential
//! kernel specs (`color`, `louvain-onpl`, `louvain-mplm`, `labelprop`). The
//! pairing rotates from batch to batch, so a cycle of four batches holds all
//! 16 pairings, and the window runs whole cycles: every run measures the
//! same mix. Each item generates its graph inside the batch from a seed no
//! earlier item used. After each batch, outside the timed part, every output
//! is checked on its regenerated graph and compared with a direct sequential
//! `run_kernel` on that graph.
//!
//! Latency is per batch, what a `gpart batch` caller waits for (median over
//! batches). Per-item latencies would not do: in a pipeline an item's
//! latency depends on the item ahead of it, the values fall into one mode
//! per kernel, and their median jumps between modes. `solve_ms.<family>` is
//! the family's kernel time summed over a cycle's four graphs (median over
//! cycles), as on `kernel-hot`, taken from the direct run that checks each
//! output, on the caller's thread CPU clock with nothing else running.
//! Inside the pipeline a kernel shares caches and the memory bus with the
//! build lane, by as much as the two lanes happen to overlap: the pipelined
//! color times of ten seeds spread up to 0.42 of their median.

use crate::check::{check_output, checksum};
use crate::clock::{cpu_ms_since, thread_cpu_secs};
use crate::inputs::graph_spec;
use crate::{stats, Outcome, RunCfg};
use gp_core::api::{run_kernel, Kernel, KernelOutput, KernelSpec, Strategy, Variant};
use gp_core::pipeline::{BatchItem, PipelineExecutor};
use gp_graph::builder::GraphBuilder;
use gp_graph::Edge;
use gp_metrics::interval::{IntervalRecorder, IntervalSink, NoopIntervals, Span};
use gp_metrics::telemetry::NoopRecorder;
use gp_serve::GraphSpec;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// log2 of the vertex count of every item graph.
const SCALE: u32 = 17;
/// Pipeline in-flight window (`gpart batch`'s default).
const WINDOW: usize = 2;
/// Setup is repeated this many times; `setup_s` is the median.
const SETUPS: usize = 5;
/// Items per batch: every graph family, each with one kernel.
const ITEMS: usize = 4;
/// Batches per cycle: every graph family with every kernel.
const CYCLE: u64 = 4;
/// Batch number of the setup's warm-up batch (never reached by the window).
const WARMUP_BATCH: u64 = 1 << 40;

/// Kernel specs by index (see [`kernel_spec`]).
const KERNELS: [&str; 4] = ["color", "louvain-onpl", "louvain-mplm", "labelprop"];
/// `solve_ms.*` families, in metric order.
const FAMILIES: [&str; 3] = ["color", "louvain", "labelprop"];

/// The `solve_ms` family kernel `k` feeds (`louvain-onpl` is the Louvain
/// headline; `louvain-mplm` feeds none).
fn family_of(k: usize) -> Option<usize> {
    match k {
        0 => Some(0),
        1 => Some(1),
        3 => Some(2),
        _ => None,
    }
}

fn kernel_spec(k: usize) -> KernelSpec {
    let kernel = match k {
        0 => Kernel::Coloring,
        1 => Kernel::Louvain(Variant::Onpl(Strategy::Adaptive)),
        2 => Kernel::Louvain(Variant::Mplm),
        _ => Kernel::Labelprop,
    };
    KernelSpec::new(kernel).sequential()
}

/// Item `i` of batch `b`: its graph (family `i`) and kernel index. Batch
/// `b` is row `b mod 4` of a Latin square of families and kernels.
fn item(seed: u64, b: u64, i: usize, scale: u32) -> (GraphSpec, usize) {
    let family = i;
    let k = (family + (b % CYCLE) as usize) % 4;
    let graph_seed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(ITEMS as u64))
        .wrapping_add(i as u64 + 1);
    (graph_spec(family, graph_seed, scale), k)
}

/// What one batch produced.
struct BatchRun {
    wall: f64,
    /// Items that produced an output.
    done: usize,
    gen_ms: Vec<f64>,
    outputs: Vec<Option<KernelOutput>>,
    spans: Vec<Span>,
}

fn run_batch<S: IntervalSink>(items: &[(GraphSpec, usize)], sink: &S, timed_gen: bool) -> BatchRun {
    let gen_ms = Arc::new(Mutex::new(Vec::new()));
    let batch: Vec<BatchItem> = items
        .iter()
        .map(|(graph, k)| {
            let (graph, gen_ms) = (graph.clone(), Arc::clone(&gen_ms));
            BatchItem::new(graph.canonical_key(), kernel_spec(*k), move || {
                let t = Instant::now();
                let g = graph.build();
                if timed_gen {
                    gen_ms
                        .lock()
                        .expect("gen times")
                        .push(t.elapsed().as_secs_f64() * 1e3);
                }
                g
            })
        })
        .collect();
    let t = Instant::now();
    let results = PipelineExecutor::new(WINDOW).run(batch, sink);
    let wall = t.elapsed().as_secs_f64();
    let outputs: Vec<Option<KernelOutput>> =
        results.into_iter().map(|r| r.output().cloned()).collect();
    let gen_ms = gen_ms.lock().expect("gen times").clone();
    BatchRun {
        wall,
        done: outputs.iter().flatten().count(),
        gen_ms,
        outputs,
        spans: Vec::new(),
    }
}

/// Pool start plus one small batch through the executor.
fn setup(seed: u64) -> f64 {
    let t = Instant::now();
    // The shared gp-par pool at `gpart batch`'s default size (`GP_THREADS`,
    // else 1): the build lane runs on it beside the kernel lane.
    gp_par::global().install(|| {});
    let warm: Vec<(GraphSpec, usize)> = (0..ITEMS)
        .map(|i| item(seed, WARMUP_BATCH, i, 12))
        .collect();
    run_batch(&warm, &NoopIntervals, false);
    t.elapsed().as_secs_f64()
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup(cfg.seed)).collect();
    out.e2e.put("setup_s", stats::median(&setups), "s");
    out.settings.push((
        "batch_cold.items",
        format!("scale={SCALE},window={WINDOW},items={ITEMS}"),
    ));

    let mut wall = 0.0;
    let (mut items_done, mut batch_ms) = (0, Vec::new());
    let mut gen_ms = Vec::new();
    // Per cycle, each family's summed kernel time.
    let mut solve: [Vec<f64>; 3] = Default::default();
    let mut kernel_ms = Vec::new();
    let mut rounds = Vec::new();
    let (mut modularity, mut colors) = (Vec::new(), Vec::new());
    let mut spans: Vec<Vec<Span>> = Vec::new();
    let mut b = 0u64;
    while !b.is_multiple_of(CYCLE) || b == 0 || wall < cfg.seconds {
        let items: Vec<(GraphSpec, usize)> =
            (0..ITEMS).map(|i| item(cfg.seed, b, i, SCALE)).collect();
        let mut run = if cfg.trace {
            let rec = IntervalRecorder::new();
            let mut r = run_batch(&items, &rec, true);
            r.spans = rec.into_timeline().spans().to_vec();
            r
        } else {
            run_batch(&items, &NoopIntervals, false)
        };
        wall += run.wall;
        items_done += run.done;
        batch_ms.push(run.wall * 1e3);
        gen_ms.append(&mut run.gen_ms);
        spans.push(std::mem::take(&mut run.spans));

        if b.is_multiple_of(CYCLE) {
            solve.iter_mut().for_each(|s| s.push(0.0));
        }
        // Untimed: check every output on its regenerated graph.
        for ((graph, k), o) in items.iter().zip(&run.outputs) {
            let label = format!("{} on {}", KERNELS[*k], graph.canonical_key());
            let Some(o) = o else {
                out.tally.record::<()>(Err(format!("{label}: no output")));
                continue;
            };
            out.backends
                .push((KERNELS[*k].to_string(), o.backend().to_string()));
            let g = graph.build();
            let verdict = check_output(&g, o).and_then(|q| {
                let t = thread_cpu_secs();
                let direct = run_kernel(&g, &kernel_spec(*k), &mut NoopRecorder);
                let direct_ms = cpu_ms_since(t);
                if checksum(&direct) == checksum(o) {
                    Ok((q, direct_ms))
                } else {
                    Err(format!("{label}: pipelined output differs from direct run"))
                }
            });
            if let Some((q, direct_ms)) = out.tally.record(verdict) {
                modularity.extend(q.modularity);
                colors.extend(q.colors);
                kernel_ms.push(o.elapsed_secs() * 1e3);
                rounds.push(o.rounds() as f64);
                if let Some(f) = family_of(*k) {
                    *solve[f].last_mut().expect("pushed at cycle start") += direct_ms;
                }
            }
        }
        b += 1;
    }

    out.e2e
        .put("items_per_s", items_done as f64 / wall, "items/s");
    out.e2e.put("p50_ms", stats::median(&batch_ms), "ms");
    out.e2e
        .put("p90_ms", stats::quantile(&batch_ms, 0.90), "ms");
    for (f, name) in FAMILIES.iter().enumerate() {
        out.e2e
            .put(format!("solve_ms.{name}"), stats::median(&solve[f]), "ms");
    }
    out.e2e.put("modularity", stats::mean(&modularity), "Q");
    out.e2e.put("colors", stats::mean(&colors), "count");

    if cfg.trace {
        layers(
            &mut out, &spans, wall, &gen_ms, &kernel_ms, &rounds, cfg.seed,
        );
    }
    Ok(out)
}

/// The batch-cold layer table from the executor's interval timeline: lane
/// busy fractions, overlap, and how long the kernel lane waited for the
/// build lane; plus generator and `GraphBuilder` times.
fn layers(
    out: &mut Outcome,
    batches: &[Vec<Span>],
    wall: f64,
    gen_ms: &[f64],
    kernel_ms: &[f64],
    rounds: &[f64],
    seed: u64,
) {
    let (mut build, mut kernel, mut wait, mut overlap) = (0.0, 0.0, 0.0, 0.0);
    for spans in batches {
        let mut kernels: Vec<&Span> = spans.iter().filter(|s| s.stage == "kernel").collect();
        kernels.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut free_at = 0.0;
        for s in &kernels {
            wait += (s.start - free_at).max(0.0);
            kernel += s.secs();
            free_at = s.end;
        }
        build += spans
            .iter()
            .filter(|s| s.lane == "substrate")
            .map(Span::secs)
            .sum::<f64>();
        overlap += gp_metrics::interval::Timeline::from_spans(spans.clone()).overlap_secs();
    }
    let l = &mut out.layers;
    l.put("graph.self_frac", build / wall, "ratio");
    l.put("graph.delta.self_frac", 0.0, "ratio");
    l.put("pipeline.wait_frac", wait / wall, "ratio");
    l.put("core.self_frac", kernel / wall, "ratio");
    l.put("core.ms", stats::median(kernel_ms), "ms");
    l.put("core.rounds", stats::mean(rounds), "count");
    // The kernel lane is the caller: it is either running a kernel or
    // waiting for the build lane; the rest is unattributed.
    l.put("trace.residual_frac", 1.0 - (kernel + wait) / wall, "ratio");

    let d = &mut out.detail;
    d.put("pipeline.build_busy_frac", build / wall, "ratio");
    d.put("pipeline.kernel_busy_frac", kernel / wall, "ratio");
    d.put("pipeline.overlap_frac", overlap / wall, "ratio");
    d.put("pipeline.kernel_wait_s", wait, "s");
    d.put("par.threads", gp_par::global().threads() as f64, "count");
    d.put("graph.gen_ms", stats::median(gen_ms), "ms");
    // GraphBuilder alone, on each family's edge list (after the window).
    let (mut builder_ms, mut edges_per_s) = (Vec::new(), Vec::new());
    for family in 0..4 {
        let g = graph_spec(family, seed, SCALE).build();
        let edges: Vec<Edge> = g
            .vertices()
            .flat_map(|u| {
                g.edges_of(u)
                    .filter(move |&(v, _)| u <= v)
                    .map(move |(v, w)| Edge::new(u, v, w))
            })
            .collect();
        let m = edges.len() as f64;
        let t = Instant::now();
        let rebuilt = GraphBuilder::new(g.num_vertices()).add_edges(edges).build();
        let secs = t.elapsed().as_secs_f64();
        if rebuilt.num_edges() != g.num_edges() {
            out.tally.fail(format!(
                "GraphBuilder rebuilt family {family} with a different edge count"
            ));
        }
        builder_ms.push(secs * 1e3);
        edges_per_s.push(m / secs);
    }
    d.put("graph.builder_ms", stats::median(&builder_ms), "ms");
    d.put("graph.edges_per_s", stats::median(&edges_per_s), "1/s");
}
