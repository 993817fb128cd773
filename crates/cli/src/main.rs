//! `gpart` — command-line front end for the graph-partitioning kernels.
//!
//! ```text
//! gpart stats     <graph>                     print Table-1-style statistics
//! gpart generate  <family> <out> [args…]      write a synthetic graph
//! gpart convert   <in> <out>                  convert between formats
//! gpart color     <graph> [--out f]           speculative greedy coloring
//! gpart louvain   <graph> [--variant v] [--out f]
//! gpart labelprop <graph> [--out f]
//! gpart update    <graph> [--kernel k] [--edits f | --steps n --churn r]
//! gpart partition <graph> [--k n] [--out f]
//! gpart slpa      <graph> [--threshold r] [--out f]
//! gpart serve     [--addr a] [--queue-depth n] [--deadline-ms n] …
//! ```
//!
//! Formats are inferred from extensions: `.el`/`.txt` edge list,
//! `.graph`/`.metis` METIS, `.mtx` Matrix Market.
//!
//! A global `--threads n` flag (any position, or the `GP_THREADS`
//! environment variable) runs the whole command with a `gp-par` pool of
//! `n` workers made current. Graph generation, CSR construction, and coarsening are
//! deterministic for any pool size, so the knob trades wall-clock only.

mod commands;
mod io;

use std::process::ExitCode;

/// Parses a thread-count value: a positive integer. `0` and garbage are
/// rejected with an explicit error (silently ignoring them hid typos like
/// `GP_THREADS=four`); omit the knob entirely to use the ambient pool.
fn parse_thread_count(source: &str, v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "bad {source} value `{v}`: thread count must be ≥ 1 (omit it to use the ambient pool)"
        )),
        Ok(t) => Ok(t),
        Err(e) => Err(format!("bad {source} value `{v}`: {e}")),
    }
}

/// Extracts the global `--threads n` flag (any position) and returns the
/// thread count plus the remaining arguments. Falls back to the
/// `GP_THREADS` environment variable; with neither set, 0 is returned,
/// meaning "use the ambient pool".
fn take_threads(args: Vec<String>) -> Result<(usize, Vec<String>), String> {
    let mut threads = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let v = it
                .next()
                .ok_or_else(|| "`--threads` needs a value".to_string())?;
            threads = Some(parse_thread_count("--threads", &v)?);
        } else {
            rest.push(a);
        }
    }
    let threads = match threads {
        Some(t) => t,
        None => match std::env::var("GP_THREADS") {
            Ok(v) if !v.trim().is_empty() => parse_thread_count("GP_THREADS", &v)?,
            _ => 0,
        },
    };
    Ok((threads, rest))
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("stats") => commands::stats(&args[1..]),
        Some("generate") => commands::generate(&args[1..]),
        Some("convert") => commands::convert(&args[1..]),
        Some("color") => commands::color(&args[1..]),
        Some("louvain") => commands::louvain(&args[1..]),
        Some("labelprop") => commands::labelprop(&args[1..]),
        Some("update") => commands::update(&args[1..]),
        Some("batch") => commands::batch(&args[1..]),
        Some("partition") => commands::partition(&args[1..]),
        Some("slpa") => commands::slpa(&args[1..]),
        Some("serve") => commands::serve(&args[1..]),
        Some("--version") | Some("-V") => {
            println!("gpart {}", env!("CARGO_PKG_VERSION"));
            let isa = gp_core::backends::isa();
            println!(
                "isa: avx512f={} avx512cd={}",
                isa.avx512f as u8, isa.avx512cd as u8
            );
            for row in gp_core::api::Backend::available() {
                let avail = if row.available { "yes" } else { "no " };
                let via = match row.env_override {
                    Some(tag) => format!(" (via {tag})"),
                    None => String::new(),
                };
                println!(
                    "backend {:<8} available={avail} resolves-to={}{via}",
                    row.backend.name(),
                    row.resolves_to()
                );
            }
            Ok(())
        }
        Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{}", commands::USAGE)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = take_threads(args)
        .and_then(|(threads, rest)| gp_graph::par::with_threads(threads, || dispatch(&rest)));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("gpart: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::take_threads;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn take_threads_extracts_flag_anywhere() {
        let (t, rest) = take_threads(args(&["color", "--threads", "4", "g.mtx"])).unwrap();
        assert_eq!(t, 4);
        assert_eq!(rest, args(&["color", "g.mtx"]));
    }

    #[test]
    fn take_threads_defaults_to_ambient() {
        // GP_THREADS may be set by the harness; only assert pass-through.
        let (_, rest) = take_threads(args(&["stats", "g.mtx"])).unwrap();
        assert_eq!(rest, args(&["stats", "g.mtx"]));
    }

    #[test]
    fn take_threads_rejects_garbage() {
        assert!(take_threads(args(&["--threads", "lots"])).is_err());
        assert!(take_threads(args(&["--threads"])).is_err());
    }

    #[test]
    fn take_threads_rejects_zero_with_guidance() {
        let err = take_threads(args(&["--threads", "0", "stats"])).unwrap_err();
        assert!(err.contains("must be ≥ 1"), "{err}");
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn parse_thread_count_covers_env_source() {
        assert_eq!(super::parse_thread_count("GP_THREADS", " 8 "), Ok(8));
        let err = super::parse_thread_count("GP_THREADS", "four").unwrap_err();
        assert!(err.contains("GP_THREADS"), "{err}");
        assert!(super::parse_thread_count("GP_THREADS", "0").is_err());
    }
}
