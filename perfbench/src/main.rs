//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed <n|default|holdout>] [--seconds <s>]
//!           [--trace <0|1>]
//! perfbench compare <results-a> <results-b>
//! ```
//!
//! Each workload runs in its own process and drives the library through the
//! public APIs `gpart` and `gp-serve` call. A run prints one
//! `perfbench-report {...}` line (fingerprint, every metric, failures) and,
//! as its last line, the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See README.md for the metric definitions.

mod batch;
mod check;
mod churn;
mod clock;
mod env;
mod hot;
mod inputs;
mod serve;
mod stats;
mod trace;

use gp_serve::json::{Json, ObjBuilder};
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["batch-cold", "kernel-hot", "serve-open", "stream-churn"];

/// The seed used while a change is developed.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of development, for confirming a claimed gain.
const HOLDOUT_SEED: u64 = 7_919;

/// End-to-end metrics every workload reports (`--trace 0`).
const E2E: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("solve_ms.color", "ms"),
    ("solve_ms.louvain", "ms"),
    ("solve_ms.labelprop", "ms"),
    ("modularity", "Q"),
    ("colors", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports (`--trace 1`). The
/// workload-specific layer detail goes to the report line.
const LAYERS: [(&str, &str); 8] = [
    ("graph.self_frac", "ratio"),
    ("graph.delta.self_frac", "ratio"),
    ("pipeline.wait_frac", "ratio"),
    ("core.self_frac", "ratio"),
    ("core.ms", "ms"),
    ("core.rounds", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
];

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record layer spans.
    pub trace: bool,
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        ObjBuilder::new()
                            .num("value", *value)
                            .str("unit", unit)
                            .build(),
                    )
                })
                .collect(),
        )
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted / failed operations.
    pub tally: check::Tally,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// The universal per-layer metrics ([`LAYERS`]).
    pub layers: Metrics,
    /// Workload-specific per-layer detail (traced runs).
    pub detail: Metrics,
    /// `(configuration, backend)` as each kernel output reported it.
    pub backends: Vec<(String, String)>,
    /// Workload settings recorded in the fingerprint.
    pub settings: Vec<(&'static str, String)>,
    /// Reasons the run is invalid (not slow): the measurement itself broke.
    pub invalid: Vec<String>,
}

fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "batch-cold" => batch::run(cfg),
        "kernel-hot" => hot::run(cfg),
        "serve-open" => serve::run(cfg),
        "stream-churn" => churn::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (one of {WORKLOADS:?} or `all`)"
        )),
    }
}

/// Runs one workload; with tracing, an untraced half-window first so the
/// traced half can report its own overhead.
fn measure(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    if !cfg.trace {
        let mut out = run_workload(name, cfg)?;
        out.e2e.put("peak_rss_mb", env::peak_rss_mb(), "MB");
        return Ok(out);
    }
    let half = RunCfg {
        seconds: cfg.seconds / 2.0,
        ..*cfg
    };
    let plain = run_workload(
        name,
        &RunCfg {
            trace: false,
            ..half
        },
    )?;
    let mut traced = run_workload(name, &half)?;
    let (p0, p1) = (
        plain.e2e.get("p50_ms").unwrap_or(0.0),
        traced.e2e.get("p50_ms").unwrap_or(0.0),
    );
    let overhead = if p0 > 0.0 { p1 / p0 - 1.0 } else { 0.0 };
    traced.layers.put("trace.overhead_frac", overhead, "ratio");
    traced.e2e.put("peak_rss_mb", env::peak_rss_mb(), "MB");
    traced.tally.attempted += plain.tally.attempted;
    traced.tally.failed += plain.tally.failed;
    traced.tally.messages.extend(plain.tally.messages);
    traced.invalid.extend(plain.invalid);
    Ok(traced)
}

fn parse_seed(v: &str) -> Result<u64, String> {
    match v {
        "default" => Ok(DEFAULT_SEED),
        "holdout" => Ok(HOLDOUT_SEED),
        n => n.parse().map_err(|e| format!("bad --seed `{n}`: {e}")),
    }
}

struct Args {
    workload: String,
    cfg: RunCfg,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => cfg.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                cfg.seconds = v.parse().map_err(|e| format!("bad --seconds `{v}`: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {v}"));
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, cfg })
}

/// The metrics named in `expected`, in that order, as the result object's
/// `metrics`: each must be measured, in its declared unit, and finite.
/// Anything else a workload measured stays in the report line.
fn declared_json(metrics: &Metrics, expected: &[(&str, &str)]) -> Result<Json, String> {
    let mut fields = Vec::new();
    for (name, unit) in expected {
        match metrics.0.iter().find(|(n, _, _)| n == name) {
            None => return Err(format!("metric `{name}` was not measured")),
            Some((_, v, u)) if u != unit || !v.is_finite() => {
                return Err(format!(
                    "metric `{name}` = {v} {u}, expected a finite value in {unit}"
                ))
            }
            Some((_, v, _)) => fields.push((
                name.to_string(),
                ObjBuilder::new().num("value", *v).str("unit", unit).build(),
            )),
        }
    }
    Ok(Json::Obj(fields))
}

fn run_one(name: &str, cfg: &RunCfg) -> Result<bool, String> {
    let out = measure(name, cfg)?;
    let (declared, metrics) = if cfg.trace {
        (&LAYERS[..], &out.layers)
    } else {
        (&E2E[..], &out.e2e)
    };
    let declared = declared_json(metrics, declared)?;
    let t = &out.tally;
    let fail_frac = t.failed as f64 / t.attempted.max(1) as f64;
    let correct = t.failed == 0 && out.invalid.is_empty() && t.attempted > 0;
    let report = ObjBuilder::new()
        .str("workload", name)
        .num("seed", cfg.seed as f64)
        .num("seconds", cfg.seconds)
        .bool("trace", cfg.trace)
        .field(
            "fingerprint",
            env::fingerprint(&out.backends, &out.settings),
        )
        .num("fail_frac", fail_frac)
        .field(
            "failures",
            Json::Arr(t.messages.iter().map(|m| Json::Str(m.clone())).collect()),
        )
        .field(
            "invalid",
            Json::Arr(out.invalid.iter().map(|m| Json::Str(m.clone())).collect()),
        )
        .field("end_to_end", out.e2e.to_json())
        .field("per_layer", out.layers.to_json())
        .field("layer_detail", out.detail.to_json())
        .build();
    println!("perfbench-report {report}");
    for m in t.messages.iter().chain(&out.invalid) {
        eprintln!("perfbench: {name}: {m}");
    }
    let result = ObjBuilder::new()
        .bool("correct", correct)
        .num("attempted", t.attempted as f64)
        .num("failed", t.failed as f64)
        .field("metrics", declared)
        .build();
    println!("{result}");
    Ok(correct)
}

/// `--workload all`: each workload in its own process, in turn.
fn run_all(cfg: &RunCfg) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut all_ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        if !status.success() {
            eprintln!("perfbench: workload {name} failed ({status})");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

/// The reports (`perfbench-report` lines) of a saved output file.
fn read_reports(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    text.lines()
        .filter_map(|l| l.strip_prefix("perfbench-report "))
        .map(|l| gp_serve::json::parse(l).map_err(|e| format!("{path}: bad report: {e}")))
        .collect()
}

/// One line of `compare`: a workload's end-to-end metric in both files.
struct Row {
    workload: &'static str,
    metric: &'static str,
    a: Vec<f64>,
    b: Vec<f64>,
}

/// The `compare` lines of two sets of reports. Each workload records its own
/// settings and kernel backends, so fingerprints are compared within a
/// workload: every report of workload `w`, in either set, must match the
/// first one. Refuses when any two differ.
fn compare_reports(ra: &[Json], rb: &[Json]) -> Result<Vec<Row>, String> {
    if ra.is_empty() || rb.is_empty() {
        return Err("no perfbench-report lines to compare".to_string());
    }
    let of = |r: &&Json, w: &str| r.get("workload").and_then(Json::as_str) == Some(w);
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let group: Vec<&Json> = ra.iter().chain(rb).filter(|r| of(r, w)).collect();
        let fingerprint = |r: &Json| r.get("fingerprint").cloned().unwrap_or(Json::Null);
        if let Some(first) = group.first() {
            let fp0 = fingerprint(first);
            for r in &group {
                let diff = env::differences(&fp0, &fingerprint(r));
                if !diff.is_empty() {
                    return Err(format!(
                        "{w}: fingerprints differ in {diff:?}; refusing to compare"
                    ));
                }
            }
        }
        let values = |reports: &[Json], metric: &str| -> Vec<f64> {
            reports
                .iter()
                .filter(|r| of(r, w))
                .filter_map(|r| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
                .collect()
        };
        for (metric, _) in E2E {
            let (a, b) = (values(ra, metric), values(rb, metric));
            if !a.is_empty() && !b.is_empty() {
                rows.push(Row {
                    workload: w,
                    metric,
                    a,
                    b,
                });
            }
        }
    }
    Ok(rows)
}

/// `compare a b`: per workload and end-to-end metric, the median over each
/// file's reports of that workload.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let rows = compare_reports(&read_reports(a)?, &read_reports(b)?)?;
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8}",
        "workload", "metric", "median a", "median b", "b/a-1"
    );
    for r in rows {
        let (ma, mb) = (stats::median(&r.a), stats::median(&r.b));
        let change = if ma != 0.0 { mb / ma - 1.0 } else { 0.0 };
        println!(
            "{:<14} {:<20} {ma:>12.4} {mb:>12.4} {:>7.1}%  (n={}/{})",
            r.workload,
            r.metric,
            100.0 * change,
            r.a.len(),
            r.b.len()
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare(a, b),
            _ => Err("usage: perfbench compare <results-a> <results-b>".to_string()),
        }
    } else {
        parse_args(&args).and_then(|a| {
            if a.workload == "all" {
                run_all(&a.cfg)
            } else {
                run_one(&a.workload, &a.cfg)
            }
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_have_names() {
        assert_eq!(parse_seed("default").unwrap(), DEFAULT_SEED);
        assert_eq!(parse_seed("holdout").unwrap(), HOLDOUT_SEED);
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert!(parse_seed("x").is_err());
    }

    /// A report of `workload` whose fingerprint carries `setting` and a
    /// `p50_ms` of `p50`.
    fn report(workload: &str, setting: &str, p50: f64) -> Json {
        let fingerprint = env::fingerprint(
            &[(format!("{workload}.color"), "avx512".to_string())],
            &[("setting", setting.to_string())],
        );
        let mut e2e = Metrics::default();
        e2e.put("p50_ms", p50, "ms");
        ObjBuilder::new()
            .str("workload", workload)
            .field("fingerprint", fingerprint)
            .field("end_to_end", e2e.to_json())
            .build()
    }

    #[test]
    fn compare_checks_fingerprints_within_each_workload() {
        let a = [
            report("kernel-hot", "graphs", 10.0),
            report("serve-open", "rate", 5.0),
            report("kernel-hot", "graphs", 12.0),
        ];
        let b = [
            report("serve-open", "rate", 6.0),
            report("kernel-hot", "graphs", 11.0),
        ];
        let rows = compare_reports(&a, &b).unwrap();
        let found: Vec<(&str, &str, usize, usize)> = rows
            .iter()
            .map(|r| (r.workload, r.metric, r.a.len(), r.b.len()))
            .collect();
        assert_eq!(
            found,
            [
                ("kernel-hot", "p50_ms", 2, 1),
                ("serve-open", "p50_ms", 1, 1)
            ]
        );
        let changed = [report("serve-open", "other rate", 6.0)];
        let err = compare_reports(&a, &changed).err().unwrap();
        assert!(err.starts_with("serve-open:"), "{err}");
        assert!(compare_reports(&a, &[]).is_err());
    }

    #[test]
    fn only_declared_metrics_reach_the_result() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "ms");
        m.put("extra", 2.0, "ms");
        let json = declared_json(&m, &[("a", "ms")]).unwrap();
        assert_eq!(json.to_string(), r#"{"a":{"value":1,"unit":"ms"}}"#);
        assert!(declared_json(&m, &[("a", "s")]).is_err());
        assert!(declared_json(&m, &[("b", "ms")]).is_err());
        m.put("a", f64::NAN, "ms");
        assert!(declared_json(&m, &[("a", "ms")]).is_err());
    }
}
