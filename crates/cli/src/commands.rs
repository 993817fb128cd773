//! Subcommand implementations.

use crate::io::{load, save, save_assignment};
use gp_core::api::{run_kernel, Backend, Kernel, KernelOutput, KernelSpec, SweepMode, Variant};
use gp_core::coloring::verify_coloring;
use gp_core::incremental::{apply_update, run_kernel_incremental};
use gp_graph::csr::Csr;
use gp_graph::{DeltaCsr, Edge};
use gp_graph::stats::{graph_stats, DegreeHistogram, LOW_DEGREE_SLOTS};
use gp_metrics::telemetry::{DegreeSummary, NoopRecorder, TraceRecorder};
use gp_metrics::write_trace;

pub const USAGE: &str = "\
gpart — AVX-512 graph partitioning kernels

USAGE:
  gpart stats     <graph>
  gpart generate  <family> <out> [n] [seed]     families: rmat, mesh, road,
                                                stencil, er, ba
  gpart convert   <in> <out>
  gpart color     <graph> [--out file] [--trace file]
  gpart louvain   <graph> [--variant plm|mplm|onpl|ovpl] [--out file]
                          [--trace file]
  gpart labelprop <graph> [--out file] [--trace file]
          color/louvain/labelprop also take [--sweep active|full] (frontier
          worklists vs. full scans; identical outputs) and
          [--backend auto|scalar]
  gpart update    <graph> [--kernel color|louvain-<v>|labelprop]
                          [--edits file] [--steps n] [--churn frac] [--seed n]
                          [--out file] [--trace file] (+ kernel flags above)
  gpart batch     <specs> [--window n] [--timeline file] [--no-baseline]
  gpart partition <graph> [--k n] [--out file]
  gpart slpa      <graph> [--threshold r] [--out file]
  gpart serve     [--addr host:port] [--workers n] [--shards n]
                  [--queue-depth n] [--graph-cache n] [--result-cache n]
                  [--deadline-ms n] [--max-vertices n]
  gpart --version

Graph formats by extension: .el/.txt/.edges (edge list),
.graph/.metis (METIS), .mtx/.mm (Matrix Market).
--trace records per-round telemetry (JSON, or CSV for a .csv path),
including substrate phase timings (coarsen/project) for multilevel runs
and delta_apply/compaction phases for streaming (update) runs.
batch runs a specs file (one `<kernel> <family:key=value,...>` per line,
plus the kernel flags above, `--seed n`, `--sequential`) through the
pipelined executor: graph build for item N+1 overlaps item N's kernel
rounds (docs/PIPELINE.md). --window bounds in-flight items, --timeline
writes the busy/idle span CSV, and sequential items are checked
bit-identical against the per-item baseline (skip it: --no-baseline).
update streams edge mutations through a DeltaCsr and re-runs the kernel
incrementally per batch: --edits applies one batch from a file of
`+ u v [w]` / `- u v` lines; otherwise --steps random churn batches of
--churn fraction of the edges are applied (docs/STREAMING.md).
--threads n (any command, or GP_THREADS=n) runs the substrate on a scoped
pool of n workers; outputs are identical for any thread count.
serve hosts the newline-delimited JSON partition service (docs/SERVICE.md);
stop it with ctrl-c / SIGTERM for a drained shutdown and a stats dump.
";

/// Extracts `--flag value` from an argument list, returning the remainder.
fn take_flag(args: &[String], flag: &str) -> (Option<String>, Vec<String>) {
    let mut value = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            value = it.next().cloned();
        } else {
            rest.push(a.clone());
        }
    }
    (value, rest)
}

fn positional<'a>(args: &'a [String], index: usize, name: &str) -> Result<&'a str, String> {
    args.get(index)
        .map(String::as_str)
        .ok_or_else(|| format!("missing <{name}> argument\n\n{USAGE}"))
}

pub fn stats(args: &[String]) -> Result<(), String> {
    let g = load(positional(args, 0, "graph")?)?;
    let s = graph_stats(&g);
    println!("vertices      {}", s.num_vertices);
    println!("edges         {}", s.num_edges);
    println!("max degree    {}", s.max_degree);
    println!("avg degree    {:.2}", s.avg_degree);
    println!("degree cv     {:.3}", s.degree_cv);
    println!("self loops    {}", s.num_self_loops);
    println!("components    {}", s.num_components);
    // Exact low-degree counts (≤16 neighbors: the vertices scalar coloring
    // colors through its bitmask), log2 buckets above, and the locality
    // layer's hub cut.
    let h = DegreeHistogram::build(&g);
    let low: Vec<String> = h.low.iter().map(|n| n.to_string()).collect();
    println!("deg 0..={}    {}", LOW_DEGREE_SLOTS, low.join(" "));
    for (b, &count) in h.log2.iter().enumerate() {
        if count > 0 {
            println!("deg 2^{b:<2}      {count}");
        }
    }
    println!("low bin       {} ({:.1}%)", h.low_total(), {
        if s.num_vertices > 0 {
            100.0 * h.low_total() as f64 / s.num_vertices as f64
        } else {
            0.0
        }
    });
    match h.hub_threshold() {
        u32::MAX => println!("hub cut       none"),
        t => println!("hub cut       degree >= {t}"),
    }
    // The streaming substrate's layout for this graph: the slack the
    // default compaction policy would grant a DeltaCsr built from it
    // (tombstones appear only after deletions — see docs/STREAMING.md).
    let ds = DeltaCsr::from_csr(&g).stats();
    let headroom = if ds.padded_arcs > 0 {
        100.0 * ds.slack_slots as f64 / ds.padded_arcs as f64
    } else {
        0.0
    };
    println!(
        "delta layout  {} live + {} slack = {} padded arcs ({headroom:.1}% headroom)",
        ds.live_arcs, ds.slack_slots, ds.padded_arcs
    );
    Ok(())
}

pub fn generate(args: &[String]) -> Result<(), String> {
    let family = positional(args, 0, "family")?;
    let out = positional(args, 1, "out")?;
    let n: usize = args
        .get(2)
        .map(|v| v.parse().map_err(|e| format!("bad n: {e}")))
        .transpose()?
        .unwrap_or(10_000);
    let seed: u64 = args
        .get(3)
        .map(|v| v.parse().map_err(|e| format!("bad seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    // The family/n/seed → parameter mapping lives in `GraphSpec` so the CLI,
    // the service, and the load generator all describe graphs identically
    // (and the service's cache keys match what this command writes).
    let spec = gp_serve::GraphSpec::from_family(family, n, seed)
        .map_err(|e| format!("{e}\n\n{USAGE}"))?;
    let g = spec.build();
    save(&g, out)?;
    println!(
        "wrote {}: {} vertices, {} edges ({})",
        out,
        g.num_vertices(),
        g.num_edges(),
        spec.canonical_key()
    );
    Ok(())
}

pub fn convert(args: &[String]) -> Result<(), String> {
    let g = load(positional(args, 0, "in")?)?;
    let out = positional(args, 1, "out")?;
    save(&g, out)?;
    println!("wrote {out}");
    Ok(())
}

/// Writes a recorded trace to `path` (JSON, or CSV when the path ends in
/// `.csv`) and reports where it went. The graph's degree summary rides
/// along so the locality layer's bin boundaries are reproducible from the
/// trace artifact alone.
fn emit_trace(rec: TraceRecorder, g: &Csr, path: &str) -> Result<(), String> {
    let mut trace = rec.into_trace();
    trace.degree_hist = Some(degree_summary(g));
    write_trace(path, &trace).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("trace written to {path}");
    Ok(())
}

/// Converts the graph's compact degree histogram into the trace-attachable
/// form (`gp-metrics` is graph-agnostic, so the conversion lives here).
fn degree_summary(g: &Csr) -> DegreeSummary {
    let h = DegreeHistogram::build(g);
    DegreeSummary {
        low: h.low.iter().map(|&n| n as u64).collect(),
        log2: h.log2.iter().map(|&n| n as u64).collect(),
        max_degree: h.max_degree as u64,
        hub_threshold: match h.hub_threshold() {
            u32::MAX => None,
            t => Some(t),
        },
    }
}

/// Pulls the flags shared by every kernel command (`--sweep`, `--backend`)
/// off the argument list and folds them into `spec`. The removed locality
/// flags `--block` and `--bucket` are refused, not ignored.
fn take_spec_flags(args: &[String], mut spec: KernelSpec) -> Result<(KernelSpec, Vec<String>), String> {
    if let Some(flag) = args.iter().find(|a| *a == "--block" || *a == "--bucket") {
        return Err(format!(
            "{flag} was removed: the locality layer has no settings (docs/KERNELS.md §8)"
        ));
    }
    let (sweep, rest) = take_flag(args, "--sweep");
    if let Some(s) = sweep {
        spec.sweep = s.parse::<SweepMode>()?;
    }
    let (backend, rest) = take_flag(&rest, "--backend");
    if let Some(b) = backend {
        spec.backend = b.parse::<Backend>()?;
    }
    Ok((spec, rest))
}

/// Runs `spec` on `g`, optionally recording a per-round trace to `path`.
fn run_traced(
    g: &Csr,
    spec: &KernelSpec,
    trace: Option<&str>,
    trace_name: &str,
) -> Result<KernelOutput, String> {
    match trace {
        Some(path) => {
            let mut rec = TraceRecorder::new(trace_name);
            let out = run_kernel(g, spec, &mut rec);
            emit_trace(rec, g, path)?;
            Ok(out)
        }
        None => Ok(run_kernel(g, spec, &mut NoopRecorder)),
    }
}

pub fn color(args: &[String]) -> Result<(), String> {
    let (out, rest) = take_flag(args, "--out");
    let (trace, rest) = take_flag(&rest, "--trace");
    // The one place serve + CLI construct a coloring kernel value; every
    // other path parses the shared string forms.
    let (spec, rest) = take_spec_flags(&rest, KernelSpec::new(Kernel::Coloring))?;
    let g = load(positional(&rest, 0, "graph")?)?;
    let out_k = run_traced(&g, &spec, trace.as_deref(), "coloring")?;
    let r = out_k.as_coloring().expect("coloring spec yields coloring output");
    verify_coloring(&g, &r.colors).map_err(|e| format!("internal error: {e}"))?;
    println!(
        "{} colors in {} rounds (backend: {})",
        r.num_colors,
        r.rounds,
        gp_core::backends::engine().name()
    );
    if let Some(path) = out {
        save_assignment(&r.colors, &path)?;
        println!("colors written to {path}");
    }
    Ok(())
}

pub fn louvain(args: &[String]) -> Result<(), String> {
    let (variant, rest) = take_flag(args, "--variant");
    let (out, rest) = take_flag(&rest, "--out");
    let (trace, rest) = take_flag(&rest, "--trace");
    let variant: Variant = variant.as_deref().unwrap_or("mplm").parse()?;
    let (spec, rest) = take_spec_flags(&rest, KernelSpec::new(Kernel::Louvain(variant)))?;
    let g = load(positional(&rest, 0, "graph")?)?;
    let trace_name = format!("louvain-{}", variant.name());
    let out_k = run_traced(&g, &spec, trace.as_deref(), &trace_name)?;
    let r = out_k.as_louvain().expect("louvain spec yields louvain output");
    let communities = gp_core::louvain::modularity::count_communities(&r.communities);
    println!(
        "{} communities, modularity {:.4}, {} levels ({}, backend: {})",
        communities,
        r.modularity,
        r.levels,
        variant.name(),
        gp_core::backends::engine().name()
    );
    if let Some(path) = out {
        save_assignment(&r.communities, &path)?;
        println!("communities written to {path}");
    }
    Ok(())
}

pub fn partition(args: &[String]) -> Result<(), String> {
    use gp_core::partition::{partition_graph, verify_partition, PartitionConfig};
    let (k, rest) = take_flag(args, "--k");
    let (out, rest) = take_flag(&rest, "--out");
    let g = load(positional(&rest, 0, "graph")?)?;
    let k: usize = k
        .map(|v| v.parse().map_err(|e| format!("bad k: {e}")))
        .transpose()?
        .unwrap_or(2);
    let r = partition_graph(&g, &PartitionConfig::kway(k));
    verify_partition(&g, &r.parts, k).map_err(|e| format!("internal error: {e}"))?;
    println!(
        "{k}-way partition: edge cut {:.0} ({:.1}% of weight), balance {:.3}, {} levels",
        r.edge_cut,
        100.0 * r.edge_cut / g.total_weight().max(1e-12),
        r.balance,
        r.levels
    );
    if let Some(path) = out {
        save_assignment(&r.parts, &path)?;
        println!("parts written to {path}");
    }
    Ok(())
}

pub fn slpa(args: &[String]) -> Result<(), String> {
    use gp_core::overlap::{slpa as run_slpa, SlpaConfig};
    let (threshold, rest) = take_flag(args, "--threshold");
    let (out, rest) = take_flag(&rest, "--out");
    let g = load(positional(&rest, 0, "graph")?)?;
    let threshold: f64 = threshold
        .map(|v| v.parse().map_err(|e| format!("bad threshold: {e}")))
        .transpose()?
        .unwrap_or(0.3);
    let r = run_slpa(
        &g,
        &SlpaConfig {
            threshold,
            ..Default::default()
        },
    );
    println!(
        "{} overlapping communities, {} multi-membership vertices (backend: {})",
        r.num_communities,
        r.overlapping_vertices(),
        gp_core::backends::engine().name()
    );
    if let Some(path) = out {
        use std::io::Write;
        let file = std::fs::File::create(&path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        for m in &r.memberships {
            let line: Vec<String> = m.iter().map(|l| l.to_string()).collect();
            writeln!(w, "{}", line.join(" ")).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        println!("memberships written to {path}");
    }
    Ok(())
}

/// Parses an optional numeric `--flag value` into `T`, defaulting when absent.
fn numeric_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<(T, Vec<String>), String>
where
    T::Err: std::fmt::Display,
{
    let (value, rest) = take_flag(args, flag);
    let parsed = match value {
        Some(v) => v
            .parse::<T>()
            .map_err(|e| format!("bad {flag} value `{v}`: {e}"))?,
        None => default,
    };
    Ok((parsed, rest))
}

pub fn serve(args: &[String]) -> Result<(), String> {
    let (addr, rest) = take_flag(args, "--addr");
    // Worker-pool size: explicit flag, else the GP_THREADS knob the rest of
    // the CLI honors (validated in main's `take_threads`), else one per
    // core.
    let (workers_flag, rest) = take_flag(&rest, "--workers");
    let workers = match workers_flag {
        Some(v) => v
            .parse::<usize>()
            .map_err(|e| format!("bad --workers value `{v}`: {e}"))?,
        None => std::env::var("GP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0),
    };
    let (shards, rest) = numeric_flag::<usize>(&rest, "--shards", 1)?;
    let (queue_depth, rest) = numeric_flag::<usize>(&rest, "--queue-depth", 64)?;
    let (graph_cache, rest) = numeric_flag::<usize>(&rest, "--graph-cache", 8)?;
    let (result_cache, rest) = numeric_flag::<usize>(&rest, "--result-cache", 256)?;
    let (deadline_ms, rest) = numeric_flag::<u64>(&rest, "--deadline-ms", 0)?;
    let (max_vertices, rest) = numeric_flag::<usize>(&rest, "--max-vertices", 1 << 24)?;
    if let Some(extra) = rest.first() {
        return Err(format!("serve: unexpected argument `{extra}`\n\n{USAGE}"));
    }
    let cfg = gp_serve::ServeConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7201".to_string()),
        workers,
        shards,
        queue_depth,
        graph_cache,
        result_cache,
        default_deadline_ms: deadline_ms,
        max_vertices,
    };
    gp_serve::install_shutdown_signals();
    let server = gp_serve::Server::start(cfg).map_err(|e| format!("cannot start server: {e}"))?;
    println!("gpart serve listening on {}", server.local_addr());
    println!("send {{\"stats\":true}} for live counters; ctrl-c / SIGTERM to drain and stop");
    while !gp_serve::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("gpart serve: shutdown requested, draining…");
    let final_stats = server.shutdown();
    println!("{final_stats}");
    Ok(())
}

/// The per-vertex assignment a kernel output carries (colors, communities,
/// or labels), for step-to-step delta reporting.
fn assignment_of(out: &KernelOutput) -> &[u32] {
    match out {
        KernelOutput::Coloring(r) => &r.colors,
        KernelOutput::Louvain(r) => &r.communities,
        KernelOutput::Labelprop(r) => &r.labels,
    }
}

/// One mutation batch: edge insertions plus `(u, v)` deletion endpoints.
type EditBatch = (Vec<Edge>, Vec<(u32, u32)>);

/// Parses an edits file: one mutation per line, `+ u v [w]` inserts and
/// `- u v` deletes; blank lines and `#` comments are skipped.
fn parse_edits(path: &str) -> Result<EditBatch, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut adds = Vec::new();
    let mut dels = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("{path}:{}: {what}: `{line}`", lineno + 1);
        let mut parts = line.split_whitespace();
        let op = parts.next().unwrap();
        let u: u32 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("expected `+ u v [w]` or `- u v`"))?;
        let v: u32 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("expected `+ u v [w]` or `- u v`"))?;
        match op {
            "+" => {
                let w: f32 = match parts.next() {
                    None => 1.0,
                    Some(t) => t.parse().map_err(|_| bad("bad weight"))?,
                };
                adds.push(Edge::new(u, v, w));
            }
            "-" => dels.push((u, v)),
            _ => return Err(bad("unknown op (use `+` or `-`)")),
        }
        if parts.next().is_some() {
            return Err(bad("trailing tokens"));
        }
    }
    Ok((adds, dels))
}

/// Draws a churn batch against the current delta state: `frac` of the live
/// edges deleted, the same number of fresh random edges added. The LCG
/// makes runs reproducible per `--seed`.
fn churn_batch(delta: &DeltaCsr, frac: f64, rng: &mut u64) -> EditBatch {
    use std::collections::BTreeSet;
    let snap = delta.snapshot();
    let n = snap.num_vertices() as u32;
    let mut live: Vec<(u32, u32)> = Vec::new();
    for u in 0..n {
        for &v in snap.neighbors(u) {
            if v > u {
                live.push((u, v));
            }
        }
    }
    let mut next = || {
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*rng >> 33) as u32
    };
    let k = ((live.len() as f64 * frac).ceil() as usize).clamp(1, live.len().max(1));
    let mut dels: BTreeSet<(u32, u32)> = BTreeSet::new();
    for _ in 0..8 * k {
        if dels.len() >= k || live.is_empty() {
            break;
        }
        dels.insert(live[next() as usize % live.len()]);
    }
    let mut adds = Vec::new();
    for _ in 0..64 * k {
        if adds.len() >= k || n < 2 {
            break;
        }
        let (a, b) = (next() % n, next() % n);
        let (u, v) = (a.min(b), a.max(b));
        if u != v && !snap.has_edge(u, v) && !dels.contains(&(u, v)) {
            adds.push(Edge::unweighted(u, v));
        }
    }
    (adds, dels.into_iter().collect())
}

pub fn update(args: &[String]) -> Result<(), String> {
    let (kernel, rest) = take_flag(args, "--kernel");
    let (edits, rest) = take_flag(&rest, "--edits");
    let (trace, rest) = take_flag(&rest, "--trace");
    let (out, rest) = take_flag(&rest, "--out");
    let (steps, rest) = numeric_flag::<usize>(&rest, "--steps", 3)?;
    let (churn, rest) = numeric_flag::<f64>(&rest, "--churn", 0.01)?;
    let (seed, rest) = numeric_flag::<u64>(&rest, "--seed", 42)?;
    let kernel: Kernel = kernel.as_deref().unwrap_or("color").parse()?;
    let (spec, rest) = take_spec_flags(&rest, KernelSpec::new(kernel))?;
    let g = load(positional(&rest, 0, "graph")?)?;
    if !(churn > 0.0 && churn <= 1.0) {
        return Err(format!("--churn must be in (0, 1], got {churn}"));
    }
    let steps = if edits.is_some() { 1 } else { steps.max(1) };

    let mut delta = DeltaCsr::from_csr(&g);
    let mut rec = TraceRecorder::new("update");
    let mut prev = run_kernel(delta.as_csr(), &spec, &mut NoopRecorder);
    println!(
        "baseline: {} vertices, {} edges, kernel {} (backend: {})",
        g.num_vertices(),
        g.num_edges(),
        spec.kernel.cache_label(),
        prev.backend()
    );

    let mut rng = seed ^ 0x9e3779b97f4a7c15;
    for step in 1..=steps {
        let (adds, dels) = match &edits {
            Some(path) => parse_edits(path)?,
            None => churn_batch(&delta, churn, &mut rng),
        };
        let before = delta.stats();
        let touched = apply_update(&mut delta, &adds, &dels, &mut rec)
            .map_err(|e| format!("step {step}: update rejected: {e}"))?;
        let after = delta.stats();
        let next_out = run_kernel_incremental(delta.as_csr(), &spec, &prev, &touched, &mut rec);
        if let Some(r) = next_out.as_coloring() {
            verify_coloring(&delta.snapshot(), &r.colors)
                .map_err(|e| format!("internal error after step {step}: {e}"))?;
        }
        let changed = assignment_of(&prev)
            .iter()
            .zip(assignment_of(&next_out))
            .filter(|(a, b)| a != b)
            .count();
        println!(
            "step {step}: epoch {}, +{} -{} edges, touched {}, changed {}, {} rounds",
            after.epoch,
            after.applied_additions - before.applied_additions,
            after.applied_deletions - before.applied_deletions,
            touched.len(),
            changed,
            next_out.rounds()
        );
        prev = next_out;
    }

    // Satellite observability: the mutable structure's occupancy, so slack
    // and tombstone pressure (and the compaction policy's behavior) are
    // visible without a debugger.
    let s = delta.stats();
    let pct = |part: usize| {
        if s.padded_arcs == 0 {
            0.0
        } else {
            100.0 * part as f64 / s.padded_arcs as f64
        }
    };
    println!(
        "delta graph   live {} ({:.1}%), tombstones {} ({:.1}%), slack {} ({:.1}%)",
        s.live_arcs,
        pct(s.live_arcs),
        s.tombstones,
        pct(s.tombstones),
        s.slack_slots,
        pct(s.slack_slots)
    );
    println!(
        "compactions   {} across {} applied additions, {} deletions",
        s.compactions, s.applied_additions, s.applied_deletions
    );
    match &prev {
        KernelOutput::Coloring(r) => println!("final         {} colors", r.num_colors),
        KernelOutput::Louvain(r) => println!(
            "final         {} communities, modularity {:.4}",
            gp_core::louvain::modularity::count_communities(&r.communities),
            r.modularity
        ),
        KernelOutput::Labelprop(r) => println!(
            "final         {} communities",
            gp_core::louvain::modularity::count_communities(&r.labels)
        ),
    }
    if let Some(path) = out {
        save_assignment(assignment_of(&prev), &path)?;
        println!("assignment written to {path}");
    }
    if let Some(path) = trace {
        let snap = delta.snapshot();
        emit_trace(rec, &snap, &path)?;
    }
    Ok(())
}

pub fn labelprop(args: &[String]) -> Result<(), String> {
    let (out, rest) = take_flag(args, "--out");
    let (trace, rest) = take_flag(&rest, "--trace");
    let (spec, rest) = take_spec_flags(&rest, KernelSpec::new(Kernel::Labelprop))?;
    let g = load(positional(&rest, 0, "graph")?)?;
    let out_k = run_traced(&g, &spec, trace.as_deref(), "labelprop")?;
    let r = out_k
        .as_labelprop()
        .expect("labelprop spec yields labelprop output");
    let communities = gp_core::louvain::modularity::count_communities(&r.labels);
    println!(
        "{} communities after {} sweeps (backend: {})",
        communities,
        r.iterations,
        gp_core::backends::engine().name()
    );
    if let Some(path) = out {
        save_assignment(&r.labels, &path)?;
        println!("labels written to {path}");
    }
    Ok(())
}

/// `true` + remainder when `flag` appears in `args` (valueless switch).
fn take_switch(args: &[String], flag: &str) -> (bool, Vec<String>) {
    let rest: Vec<String> = args.iter().filter(|a| *a != flag).cloned().collect();
    (rest.len() != args.len(), rest)
}

/// One parsed line of a batch specs file.
struct BatchLine {
    label: String,
    spec: KernelSpec,
    graph: gp_serve::GraphSpec,
}

/// Parses a specs file: one `<kernel> <graph> [flags]` per line, where
/// `<graph>` is the compact family spec `generate` reports (e.g.
/// `rmat:scale=14,ef=8,seed=42`), flags are the shared kernel flags plus
/// `--seed n` / `--sequential`; `#` comments and blank lines are skipped.
fn parse_batch_specs(path: &str) -> Result<Vec<BatchLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut lines = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |e: String| format!("{path}:{}: {e}", idx + 1);
        let toks: Vec<String> = line.split_whitespace().map(String::from).collect();
        let kernel: Kernel = toks[0].parse().map_err(|e| at(String::from(e)))?;
        let graph = toks
            .get(1)
            .ok_or_else(|| at("missing <graph> spec after kernel".into()))?;
        let graph = gp_serve::GraphSpec::from_compact(graph).map_err(at)?;
        let (spec, rest) = take_spec_flags(&toks[2..], KernelSpec::new(kernel)).map_err(at)?;
        let (seed, rest) = take_flag(&rest, "--seed");
        let mut spec = match seed {
            Some(s) => spec.with_seed(s.parse().map_err(|e| at(format!("bad seed: {e}")))?),
            None => spec,
        };
        let (sequential, rest) = take_switch(&rest, "--sequential");
        if sequential {
            spec = spec.sequential();
        }
        if let Some(extra) = rest.first() {
            return Err(at(format!("unexpected argument `{extra}`")));
        }
        lines.push(BatchLine {
            label: format!("{} {}", toks[0], graph.canonical_key()),
            spec,
            graph,
        });
    }
    if lines.is_empty() {
        return Err(format!("{path}: no batch specs found"));
    }
    Ok(lines)
}

pub fn batch(args: &[String]) -> Result<(), String> {
    use gp_core::pipeline::{BatchItem, PipelineExecutor};
    use gp_metrics::interval::IntervalRecorder;

    let (window, rest) = take_flag(args, "--window");
    let window: usize = window
        .map(|w| w.parse().map_err(|e| format!("bad window: {e}")))
        .transpose()?
        .unwrap_or(2);
    let (timeline, rest) = take_flag(&rest, "--timeline");
    let (no_baseline, rest) = take_switch(&rest, "--no-baseline");
    let lines = parse_batch_specs(positional(&rest, 0, "specs")?)?;

    // Sequential baseline: the same per-item loop `color`/`louvain`/
    // `labelprop` would run one invocation at a time — the reference both
    // for the end-to-end speedup and for the bit-identity check below.
    let baseline = if no_baseline {
        None
    } else {
        let t = std::time::Instant::now();
        let outs: Vec<KernelOutput> = lines
            .iter()
            .map(|l| {
                run_kernel(&l.graph.build(), &l.spec, &mut NoopRecorder)
            })
            .collect();
        Some((outs, t.elapsed().as_secs_f64()))
    };

    let items: Vec<BatchItem> = lines
        .iter()
        .map(|l| {
            let graph = l.graph.clone();
            BatchItem::new(l.label.clone(), l.spec, move || graph.build())
        })
        .collect();
    let rec = IntervalRecorder::new();
    let t = std::time::Instant::now();
    let results = PipelineExecutor::new(window).run(items, &rec);
    let piped_secs = t.elapsed().as_secs_f64();

    for (line, outcome) in lines.iter().zip(&results) {
        let out = outcome
            .output()
            .ok_or_else(|| format!("{}: cancelled", line.label))?;
        println!(
            "{:<40} {} rounds  {:.3}s  (backend: {})",
            line.label,
            out.rounds(),
            out.elapsed_secs(),
            out.backend()
        );
    }

    let tl = rec.into_timeline();
    let sum = tl.summary();
    println!("---");
    for st in &sum.stages {
        println!(
            "stage {:<10} busy {:>8.3}s  ({:>5.1}% of wall)",
            st.stage,
            st.busy_secs,
            100.0 * st.busy_fraction
        );
    }
    println!(
        "pipelined: {piped_secs:.3}s over {} items (window {window}, overlap {:.1}%)",
        lines.len(),
        100.0 * sum.overlap_fraction
    );
    if let Some((outs, seq_secs)) = &baseline {
        println!(
            "sequential baseline: {seq_secs:.3}s  (pipeline speedup {:.2}x)",
            seq_secs / piped_secs.max(1e-12)
        );
        // Determinism contract: `parallel: false` items must match the
        // baseline bit-for-bit at any window size.
        for ((line, outcome), expected) in lines.iter().zip(&results).zip(outs) {
            if !line.spec.parallel && outcome.output() != Some(expected) {
                return Err(format!(
                    "{}: pipelined output diverged from sequential baseline",
                    line.label
                ));
            }
        }
        let checked = lines.iter().filter(|l| !l.spec.parallel).count();
        println!("bit-identity: {checked}/{} sequential items match baseline", lines.len());
    }
    if let Some(path) = timeline {
        std::fs::write(&path, tl.to_csv()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("timeline written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn take_flag_extracts_value() {
        let (v, rest) = take_flag(&args(&["g.mtx", "--out", "x.txt", "tail"]), "--out");
        assert_eq!(v.as_deref(), Some("x.txt"));
        assert_eq!(rest, args(&["g.mtx", "tail"]));
    }

    #[test]
    fn take_flag_absent() {
        let (v, rest) = take_flag(&args(&["g.mtx"]), "--out");
        assert!(v.is_none());
        assert_eq!(rest, args(&["g.mtx"]));
    }

    #[test]
    fn positional_reports_missing() {
        let err = positional(&[], 0, "graph").unwrap_err();
        assert!(err.contains("<graph>"));
    }

    #[test]
    fn generate_rejects_unknown_family() {
        let err = generate(&args(&["nope", "/tmp/x.el"])).unwrap_err();
        assert!(err.contains("unknown family"));
    }

    #[test]
    fn stats_rejects_missing_file() {
        assert!(stats(&args(&["/nonexistent/file.mtx"])).is_err());
    }

    #[test]
    fn end_to_end_generate_color_louvain() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gpcli_test_{}.mtx", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        generate(&args(&["mesh", &path_s, "400", "3"])).unwrap();
        stats(&args(&[&path_s])).unwrap();
        color(&args(&[&path_s])).unwrap();
        louvain(&args(&[&path_s, "--variant", "onpl"])).unwrap();
        louvain(&args(&[&path_s, "--sweep", "full"])).unwrap();
        labelprop(&args(&[&path_s])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn removed_locality_flags_are_refused() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let graph = dir.join(format!("gpcli_locality_{pid}.mtx"));
        let specs = dir.join(format!("gpcli_locality_{pid}.txt"));
        let graph_s = graph.to_str().unwrap().to_string();
        let specs_s = specs.to_str().unwrap().to_string();
        generate(&args(&["mesh", &graph_s, "400", "3"])).unwrap();
        for run in [color, louvain, labelprop] {
            let err = run(&args(&[&graph_s, "--block", "auto"])).unwrap_err();
            assert!(err.contains("--block was removed"), "{err}");
            let err = run(&args(&[&graph_s, "--bucket", "off"])).unwrap_err();
            assert!(err.contains("--bucket was removed"), "{err}");
        }
        std::fs::write(
            &specs,
            "color mesh:w=8,seed=1 --bucket degree --sequential\n",
        )
        .unwrap();
        let err = batch(&args(&[&specs_s, "--no-baseline"])).unwrap_err();
        assert!(
            err.contains(":1:") && err.contains("--bucket was removed"),
            "{err}"
        );
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&specs).ok();
    }

    #[test]
    fn trace_flag_writes_per_round_telemetry() {
        let dir = std::env::temp_dir();
        let graph = dir.join(format!("gpcli_trace_{}.mtx", std::process::id()));
        let json = dir.join(format!("gpcli_trace_{}.json", std::process::id()));
        let csv = dir.join(format!("gpcli_trace_{}.csv", std::process::id()));
        let graph_s = graph.to_str().unwrap().to_string();
        let json_s = json.to_str().unwrap().to_string();
        let csv_s = csv.to_str().unwrap().to_string();
        generate(&args(&["mesh", &graph_s, "400", "3"])).unwrap();
        color(&args(&[&graph_s, "--trace", &json_s])).unwrap();
        louvain(&args(&[&graph_s, "--trace", &csv_s])).unwrap();
        labelprop(&args(&[&graph_s, "--trace", &json_s])).unwrap();
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(body.contains("\"kernel\": \"labelprop\""), "{body}");
        assert!(body.contains("\"round\""), "{body}");
        // The degree summary makes bin boundaries reproducible from the
        // artifact alone.
        assert!(body.contains("\"degree_hist\""), "{body}");
        assert!(body.contains("\"hub_threshold\""), "{body}");
        let header = std::fs::read_to_string(&csv).unwrap();
        assert!(header.starts_with("round,level,secs,"), "{header}");
        assert!(header.lines().count() > 1, "{header}");
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn update_streams_churn_and_edit_batches() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let graph = dir.join(format!("gpcli_upd_{pid}.mtx"));
        let edits = dir.join(format!("gpcli_upd_{pid}.edits"));
        let out = dir.join(format!("gpcli_upd_{pid}.out"));
        let trace = dir.join(format!("gpcli_upd_{pid}.json"));
        let graph_s = graph.to_str().unwrap().to_string();
        let edits_s = edits.to_str().unwrap().to_string();
        let out_s = out.to_str().unwrap().to_string();
        let trace_s = trace.to_str().unwrap().to_string();
        generate(&args(&["mesh", &graph_s, "400", "3"])).unwrap();

        // Synthetic churn across every kernel family, reproducibly seeded.
        update(&args(&[&graph_s, "--steps", "2", "--churn", "0.01", "--seed", "7"])).unwrap();
        update(&args(&[&graph_s, "--kernel", "louvain-plm", "--steps", "2"])).unwrap();
        update(&args(&[&graph_s, "--kernel", "labelprop", "--steps", "1"])).unwrap();

        // An explicit edits file, with the assignment and trace artifacts.
        std::fs::write(&edits, "# widen two corners\n+ 0 41 2.5\n+ 1 42\n- 0 1\n").unwrap();
        update(&args(&[
            &graph_s, "--edits", &edits_s, "--out", &out_s, "--trace", &trace_s,
        ]))
        .unwrap();
        let assignment = std::fs::read_to_string(&out).unwrap();
        assert_eq!(assignment.lines().count(), 400, "one color per vertex");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains("delta_apply"), "trace records apply phases: {body}");

        // Malformed edits are line-addressed errors; bad churn is rejected.
        std::fs::write(&edits, "+ 0\n").unwrap();
        let err = update(&args(&[&graph_s, "--edits", &edits_s])).unwrap_err();
        assert!(err.contains(":1:"), "{err}");
        std::fs::write(&edits, "* 0 1\n").unwrap();
        let err = update(&args(&[&graph_s, "--edits", &edits_s])).unwrap_err();
        assert!(err.contains("unknown op"), "{err}");
        let err = update(&args(&[&graph_s, "--churn", "0"])).unwrap_err();
        assert!(err.contains("--churn"), "{err}");
        // Out-of-range endpoints are refused atomically by the delta layer.
        std::fs::write(&edits, "+ 0 99999\n").unwrap();
        let err = update(&args(&[&graph_s, "--edits", &edits_s])).unwrap_err();
        assert!(err.contains("update rejected"), "{err}");

        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&edits).ok();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn convert_between_formats() {
        let dir = std::env::temp_dir();
        let a = dir.join(format!("gpcli_conv_{}.mtx", std::process::id()));
        let b = dir.join(format!("gpcli_conv_{}.graph", std::process::id()));
        let a_s = a.to_str().unwrap().to_string();
        let b_s = b.to_str().unwrap().to_string();
        generate(&args(&["er", &a_s, "200", "1"])).unwrap();
        convert(&args(&[&a_s, &b_s])).unwrap();
        let g1 = crate::io::load(&a_s).unwrap();
        let g2 = crate::io::load(&b_s).unwrap();
        assert_eq!(g1.num_edges(), g2.num_edges());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }
}
