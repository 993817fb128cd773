//! Plain-text, CSV, and JSON emission for the figure binaries.
//!
//! Every experiment binary prints one [`Table`] whose rows mirror the
//! series of the corresponding paper figure, so EXPERIMENTS.md can quote the
//! output directly. Per-round [`Trace`]s (see [`crate::telemetry`]) export
//! through [`trace_json`] / [`trace_csv`] / [`write_trace`] so a figure
//! binary can drop a convergence trace next to its table.

use crate::telemetry::Trace;
use gp_simd::counters::ALL_OP_CLASSES;
use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: appends a row of displayable values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:width$}", cell, width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders a GitHub-flavored Markdown table (for EXPERIMENTS.md-style
    /// documents).
    pub fn to_markdown(&self) -> String {
        let escape = |cell: &str| cell.replace('|', "\\|");
        let mut out = String::new();
        let _ = writeln!(out, "**{}**", self.title);
        let _ = writeln!(
            out,
            "| {} |",
            self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(" | ")
        );
        let _ = writeln!(out, "|{}|", vec!["---"; self.headers.len()].join("|"));
        for row in &self.rows {
            let _ = writeln!(
                out,
                "| {} |",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(" | ")
            );
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// JSON-safe float: finite values as-is, NaN/inf as 0 (JSON has no NaN).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` is shortest-round-trip for f64 and always valid JSON.
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

/// Renders a per-round trace as a self-describing JSON document:
///
/// ```json
/// {
///   "kernel": "coloring-onpl",
///   "total_secs": 0.0123,
///   "rounds": [
///     {"round": 0, "level": 0, "secs": 0.004, "moves": 1000,
///      "conflicts": 37, "active": 1000, "active_edges": 8000,
///      "quality_delta": 0.0, "ops": {"gather": 4096, "conflict": 256}}
///   ],
///   "phases": [
///     {"phase": "coarsen", "level": 0, "secs": 0.002}
///   ]
/// }
/// ```
///
/// `ops` lists only non-zero op classes (keys are
/// [`gp_simd::counters::OpClass::label`] strings).
pub fn trace_json(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"kernel\": \"{}\",",
        trace.kernel.replace('"', "\\\"")
    );
    let _ = writeln!(out, "  \"total_secs\": {},", json_f64(trace.total_secs()));
    if let Some(h) = &trace.degree_hist {
        let join = |v: &[u64]| {
            v.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ")
        };
        let _ = writeln!(
            out,
            "  \"degree_hist\": {{\"low\": [{}], \"log2\": [{}], \
             \"max_degree\": {}, \"hub_threshold\": {}}},",
            join(&h.low),
            join(&h.log2),
            h.max_degree,
            h.hub_threshold.map_or("null".to_string(), |t| t.to_string())
        );
    }
    let _ = writeln!(out, "  \"rounds\": [");
    for (i, r) in trace.rounds.iter().enumerate() {
        let ops: Vec<String> = r
            .ops
            .iter_nonzero()
            .map(|(c, n)| format!("\"{}\": {}", c.label(), n))
            .collect();
        let _ = write!(
            out,
            "    {{\"round\": {}, \"level\": {}, \"secs\": {}, \"moves\": {}, \
             \"conflicts\": {}, \"active\": {}, \"active_edges\": {}, \
             \"quality_delta\": {}, \"ops\": {{{}}}}}",
            r.round,
            r.level,
            json_f64(r.secs),
            r.moves,
            r.conflicts,
            r.active,
            r.active_edges,
            json_f64(r.quality_delta),
            ops.join(", ")
        );
        let _ = writeln!(out, "{}", if i + 1 < trace.rounds.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"phases\": [");
    for (i, p) in trace.phases.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"phase\": \"{}\", \"level\": {}, \"secs\": {}}}",
            p.name,
            p.level,
            json_f64(p.secs)
        );
        let _ = writeln!(out, "{}", if i + 1 < trace.phases.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

/// Renders a per-round trace as CSV with one column per op class:
/// `round,level,secs,moves,conflicts,active,active_edges,quality_delta,s.load,...,mask`.
/// Substrate phases are appended as `# phase,<name>,<level>,<secs>` comment
/// lines so the round table keeps its fixed schema.
pub fn trace_csv(trace: &Trace) -> String {
    let mut out = String::new();
    let mut header: Vec<&str> = vec![
        "round",
        "level",
        "secs",
        "moves",
        "conflicts",
        "active",
        "active_edges",
        "quality_delta",
    ];
    header.extend(ALL_OP_CLASSES.iter().map(|c| c.label()));
    let _ = writeln!(out, "{}", header.join(","));
    for r in &trace.rounds {
        let mut cells = vec![
            r.round.to_string(),
            r.level.to_string(),
            format!("{:e}", r.secs),
            r.moves.to_string(),
            r.conflicts.to_string(),
            r.active.to_string(),
            r.active_edges.to_string(),
            format!("{:e}", r.quality_delta),
        ];
        cells.extend(ALL_OP_CLASSES.iter().map(|&c| r.ops.get(c).to_string()));
        let _ = writeln!(out, "{}", cells.join(","));
    }
    // Substrate phases ride along as comment lines so the round table keeps
    // its fixed schema for existing consumers.
    for p in &trace.phases {
        let _ = writeln!(out, "# phase,{},{},{:e}", p.name, p.level, p.secs);
    }
    out
}

/// Writes a trace to `path`, choosing the format by extension: `.csv` gets
/// [`trace_csv`], anything else gets [`trace_json`].
pub fn write_trace(path: &str, trace: &Trace) -> std::io::Result<()> {
    let body = if path.ends_with(".csv") {
        trace_csv(trace)
    } else {
        trace_json(trace)
    };
    std::fs::write(path, body)
}

/// Formats a ratio the way the paper's bar charts label them.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats seconds with sensible units.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["graph", "speedup"]);
        t.row(&["belgium".into(), "1.52".into()]);
        t.row(&["uk-2002".into(), "0.91".into()]);
        let s = t.render();
        assert!(s.contains("# Demo"));
        assert!(s.contains("belgium"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["has,comma".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        Table::new("x", &["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(1.5), "1.50");
        assert_eq!(fmt_secs(2.0), "2.000 s");
        assert_eq!(fmt_secs(0.002), "2.000 ms");
        assert_eq!(fmt_secs(0.0000005), "0.5 µs");
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Md", &["a", "b"]);
        t.row(&["x|y".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("**Md**"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("x\\|y"), "{md}");
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    fn demo_trace() -> Trace {
        use crate::telemetry::{DegreeSummary, PhaseStats, RoundStats};
        use gp_simd::counters::{OpClass, OpCounts};
        Trace {
            kernel: "demo-kernel".into(),
            degree_hist: Some(DegreeSummary {
                low: vec![1, 80, 19],
                log2: vec![80, 19, 0, 0, 0, 0, 1],
                max_degree: 99,
                hub_threshold: Some(64),
            }),
            phases: vec![PhaseStats {
                name: "coarsen",
                level: 0,
                secs: 0.125,
            }],
            rounds: vec![
                RoundStats {
                    round: 0,
                    level: 0,
                    secs: 0.5,
                    moves: 100,
                    conflicts: 7,
                    active: 100,
                    active_edges: 840,
                    quality_delta: 0.25,
                    ops: OpCounts::default()
                        .with(OpClass::Gather, 64)
                        .with(OpClass::Conflict, 4),
                },
                RoundStats {
                    round: 1,
                    level: 1,
                    secs: 0.25,
                    moves: 3,
                    conflicts: 0,
                    active: 7,
                    active_edges: 52,
                    quality_delta: f64::NAN,
                    ops: OpCounts::default(),
                },
            ],
        }
    }

    #[test]
    fn trace_json_shape() {
        let json = trace_json(&demo_trace());
        assert!(json.contains("\"kernel\": \"demo-kernel\""));
        assert!(json.contains("\"round\": 0"));
        assert!(json.contains("\"gather\": 64"));
        assert!(json.contains("\"conflict\": 4"));
        assert!(json.contains("\"moves\": 100"));
        assert!(json.contains("\"active_edges\": 840"));
        assert!(json.contains("\"total_secs\": 0.75"));
        assert!(
            json.contains("\"degree_hist\": {\"low\": [1, 80, 19], \"log2\": [80, 19, 0, 0, 0, 0, 1], \"max_degree\": 99, \"hub_threshold\": 64}"),
            "{json}"
        );
        assert!(json.contains("\"phase\": \"coarsen\""), "{json}");
        // NaN must not leak into JSON.
        assert!(!json.contains("NaN"));
        // Crude structural sanity: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn trace_csv_shape() {
        let csv = trace_csv(&demo_trace());
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header
            .starts_with("round,level,secs,moves,conflicts,active,active_edges,quality_delta"));
        assert!(header.ends_with("mask"));
        let row0 = lines.next().unwrap();
        assert!(row0.starts_with("0,0,"));
        assert_eq!(
            header.split(',').count(),
            row0.split(',').count(),
            "column count mismatch"
        );
        // 1 header + 2 rounds + 1 phase comment.
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.lines().last().unwrap().starts_with("# phase,coarsen,0,"));
    }

    #[test]
    fn write_trace_by_extension() {
        let dir = std::env::temp_dir();
        let json_path = dir.join(format!("gp_trace_{}.json", std::process::id()));
        let csv_path = dir.join(format!("gp_trace_{}.csv", std::process::id()));
        let t = demo_trace();
        write_trace(json_path.to_str().unwrap(), &t).unwrap();
        write_trace(csv_path.to_str().unwrap(), &t).unwrap();
        let json = std::fs::read_to_string(&json_path).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(json.starts_with('{'));
        assert!(csv.starts_with("round,"));
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }
}
