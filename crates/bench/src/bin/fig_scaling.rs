//! Figure (extension) — thread scaling of substrate passes and kernels on
//! the `gp-par` work-stealing pool.
//!
//! Every substrate pass runs on the `crates/par` pool; this binary measures
//! what that buys: wall-clock at 1/2/4/8 worker threads for three substrate
//! passes (R-MAT generation, counting-sort CSR assembly, coarsening) and
//! three kernels (MPLM Louvain, MPLP label propagation, speculative
//! coloring) on an R-MAT graph. The substrate passes are output-invariant
//! across pool sizes (asserted here via content checksums); the speculative
//! kernels are valid-but-racy at ≥2 threads, so only their wall-clock is
//! compared.
//!
//! Knobs: `GP_RMAT_SCALE` (default 18, the checked-in `BENCH_scaling.json`
//! run; CI uses 14), `GP_JSON_OUT=<path>` writes a machine-readable summary
//! including `host_cpus`, `--check` verifies the 4-thread run is ≥1.3×
//! faster than 1-thread on at least two substrate passes — skipped with a
//! warning (exit 0) when the host has fewer than 4 CPUs, where no such
//! speedup is physically available — and applies the σ/mean < 2% variance
//! gate shared with the other figure checks (self-skipping on ≤1 CPU).
//!
//! Per-pass *busy fractions* (speedup/threads — the fraction of the pool
//! doing useful work) are reported alongside raw speedups so idle-tail
//! regressions are visible: a pass whose 4-thread busy fraction sits near
//! 0.25 is running serially no matter what its wall-clock says. The rmat
//! row also reports its RNG sample-block count, the hard upper bound on its
//! generation parallelism.

use gp_bench::harness::{print_header, variance_gate, BenchContext, VarianceVerdict};
use gp_core::api::{run_kernel, Kernel, KernelSpec};
use gp_core::louvain::coarsen::coarsen;
use gp_graph::builder::{DedupPolicy, GraphBuilder};
use gp_graph::generators::rmat::{rmat, sample_block_count, RmatConfig};
use gp_graph::par::with_threads;
use gp_graph::{csr::Csr, Edge};
use gp_metrics::report::{fmt_ratio, fmt_secs, Table};
use gp_metrics::telemetry::NoopRecorder;
use gp_metrics::timer::time_runs;
use std::io::Write;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A measured pass: substrate passes must be pool-size-invariant
/// (checksummed), kernels only valid.
struct Row {
    name: &'static str,
    kind: &'static str, // "substrate" | "kernel"
    secs: Vec<f64>,     // parallel to THREADS
}

impl Row {
    fn speedup(&self, threads: usize) -> f64 {
        let i = THREADS.iter().position(|&t| t == threads).unwrap();
        self.secs[0] / self.secs[i]
    }

    /// Fraction of the pool doing useful work at this size: speedup divided
    /// by threads. 1.0 = perfectly parallel, 1/threads = fully serial.
    fn busy_fraction(&self, threads: usize) -> f64 {
        self.speedup(threads) / threads as f64
    }
}

/// Order- and pool-independent content checksum of a CSR (FNV over the raw
/// arrays — bit-identical outputs hash identically).
fn checksum(g: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for &x in g.xadj() {
        eat(u64::from(x));
    }
    for &a in g.adj() {
        eat(u64::from(a));
    }
    for &w in g.weights() {
        eat(u64::from(w.to_bits()));
    }
    h
}

fn main() {
    let ctx = BenchContext::from_env();
    print_header("Thread scaling on the gp-par pool", &ctx);
    let scale: u32 = std::env::var("GP_RMAT_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(18);
    let check = std::env::args().any(|a| a == "--check");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let rmat_cfg = RmatConfig::new(scale, 8).with_seed(42);
    let sample_blocks = sample_block_count(&rmat_cfg);
    let g = rmat(rmat_cfg);
    if !ctx.csv {
        println!(
            "graph: rmat scale={scale} ef=8 ({} vertices, {} edges) | rmat sample blocks: \
             {sample_blocks} | host cpus: {host_cpus}{}\n",
            g.num_vertices(),
            g.num_edges(),
            if gp_par::sequential_mode() {
                " | GP_PAR_SEQ=1 (all pools inline)"
            } else {
                ""
            }
        );
    }

    // Inputs shared by all thread counts, prepared once outside the timers.
    let edges: Vec<Edge> = g
        .vertices()
        .flat_map(|u| {
            g.edges_of(u)
                .filter(move |&(v, _)| u <= v)
                .map(move |(v, w)| Edge::new(u, v, w))
        })
        .collect();
    let zeta = match run_kernel(
        &g,
        &KernelSpec::new("labelprop".parse::<Kernel>().unwrap()).sequential(),
        &mut NoopRecorder,
    ) {
        gp_core::api::KernelOutput::Labelprop(r) => r.labels,
        _ => unreachable!(),
    };

    let reference = checksum(&g);
    let mut rows: Vec<Row> = Vec::new();

    // --- Substrate passes: timed per thread count, checksummed against the
    // 1-thread output (thread-count invariance is part of the contract).
    type Pass<'a> = Box<dyn FnMut() -> u64 + Send + 'a>;
    let mut substrate: Vec<(&'static str, Pass<'_>)> = vec![
        (
            "rmat_gen",
            Box::new(|| checksum(&rmat(RmatConfig::new(scale, 8).with_seed(42)))),
        ),
        (
            "build_csr",
            Box::new(|| {
                checksum(
                    &GraphBuilder::new(g.num_vertices())
                        .dedup_policy(DedupPolicy::KeepMax)
                        .add_edges(edges.iter().copied())
                        .build(),
                )
            }),
        ),
        (
            "coarsen",
            Box::new(|| checksum(&coarsen(&g, &zeta).graph)),
        ),
    ];
    for (name, pass) in substrate.iter_mut() {
        let expect = with_threads(1, &mut *pass);
        if *name == "rmat_gen" {
            assert_eq!(expect, reference, "rmat_gen: 1-thread rerun diverged");
        }
        let mut secs = Vec::new();
        for &t in &THREADS {
            let sum = with_threads(t, &mut *pass);
            assert_eq!(sum, expect, "{name}: {t}-thread output != 1-thread output");
            let s = with_threads(t, || time_runs(&ctx.timing, |_| pass()));
            secs.push(s.mean);
        }
        rows.push(Row {
            name,
            kind: "substrate",
            secs,
        });
    }

    // --- Kernels: default specs are parallel; at ≥2 threads the
    // speculative races make outputs run-dependent, so only wall-clock is
    // recorded (validity is covered by the concurrency stress suite).
    for kernel in ["louvain-mplm", "labelprop", "color"] {
        let spec = KernelSpec::new(kernel.parse::<Kernel>().unwrap());
        let mut secs = Vec::new();
        for &t in &THREADS {
            let s = with_threads(t, || {
                time_runs(&ctx.timing, |_| run_kernel(&g, &spec, &mut NoopRecorder))
            });
            secs.push(s.mean);
        }
        rows.push(Row {
            name: match kernel {
                "louvain-mplm" => "mplm",
                "labelprop" => "mplp",
                _ => "coloring",
            },
            kind: "kernel",
            secs,
        });
    }

    let mut table = Table::new(
        format!("Wall time by pool size (rmat scale {scale}, host cpus {host_cpus})"),
        &["pass", "kind", "1t", "2t", "4t", "8t", "4t/1t", "8t/1t", "busy4t", "busy8t"],
    );
    for r in &rows {
        table.row(&[
            r.name.to_string(),
            r.kind.to_string(),
            fmt_secs(r.secs[0]),
            fmt_secs(r.secs[1]),
            fmt_secs(r.secs[2]),
            fmt_secs(r.secs[3]),
            fmt_ratio(r.speedup(4)),
            fmt_ratio(r.speedup(8)),
            format!("{:.2}", r.busy_fraction(4)),
            format!("{:.2}", r.busy_fraction(8)),
        ]);
    }
    ctx.emit(&table);

    if let Ok(path) = std::env::var("GP_JSON_OUT") {
        write_json(&path, scale, host_cpus, sample_blocks, &g, &rows).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        if !ctx.csv {
            println!("\nJSON summary written to {path}");
        }
    }

    if check {
        // Measurement hygiene first, same σ/mean < 2% bar as the other
        // figure checks (self-skips on ≤1 CPU).
        let mut failed = false;
        match variance_gate(|| {
            std::hint::black_box(rmat(RmatConfig::new(scale.min(14), 8).with_seed(42)));
        }) {
            VarianceVerdict::Steady(s) => {
                println!("\nvariance gate: σ/mean = {:.2}% over 3 runs", 100.0 * s);
            }
            VarianceVerdict::Noisy(s) => {
                eprintln!(
                    "CHECK FAILED: host too noisy — σ/mean = {:.2}% ≥ 2% over 3 runs",
                    100.0 * s
                );
                failed = true;
            }
            VarianceVerdict::SkippedLowCpu => {
                println!("\nvariance gate SKIPPED: ≤ 1 CPU available");
            }
        }
        if host_cpus < 4 {
            println!(
                "\ncheck SKIPPED: host has {host_cpus} cpu(s); a 4-thread speedup gate \
                 needs >= 4 (oversubscribed pools cannot beat wall-clock)"
            );
            if failed {
                std::process::exit(1);
            }
            return;
        }
        if gp_par::sequential_mode() {
            println!("\ncheck SKIPPED: GP_PAR_SEQ=1 forces inline pools");
            if failed {
                std::process::exit(1);
            }
            return;
        }
        let passing: Vec<&Row> = rows
            .iter()
            .filter(|r| r.kind == "substrate" && r.speedup(4) >= 1.3)
            .collect();
        if passing.len() < 2 {
            eprintln!(
                "CHECK FAILED: only {}/3 substrate passes reached 1.3x at 4 threads",
                passing.len()
            );
            for r in rows.iter().filter(|r| r.kind == "substrate") {
                eprintln!("  {}: {:.2}x", r.name, r.speedup(4));
            }
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "\ncheck OK: {}/3 substrate passes >= 1.3x at 4 threads",
            passing.len()
        );
    }
}

/// Minimal hand-rolled JSON (no serde in the bench bins).
fn write_json(
    path: &str,
    scale: u32,
    host_cpus: usize,
    sample_blocks: usize,
    g: &Csr,
    rows: &[Row],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"figure\": \"scaling\",")?;
    writeln!(f, "  \"host_cpus\": {host_cpus},")?;
    writeln!(f, "  \"threads\": [1, 2, 4, 8],")?;
    writeln!(
        f,
        "  \"graph\": {{\"family\": \"rmat\", \"scale\": {scale}, \"edge_factor\": 8, \"vertices\": {}, \"edges\": {}, \"rmat_sample_blocks\": {sample_blocks}}},",
        g.num_vertices(),
        g.num_edges()
    )?;
    writeln!(f, "  \"passes\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let secs: Vec<String> = r.secs.iter().map(|s| format!("{s:.6}")).collect();
        writeln!(
            f,
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"secs\": [{}], \"speedup_4t\": {:.4}, \"speedup_8t\": {:.4}, \"busy_fraction_4t\": {:.4}, \"busy_fraction_8t\": {:.4}}}{comma}",
            r.name,
            r.kind,
            secs.join(", "),
            r.speedup(4),
            r.speedup(8),
            r.busy_fraction(4),
            r.busy_fraction(8)
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}
