//! The host and environment fingerprint recorded with every result, and the
//! process high-water mark.
//!
//! Two results are comparable only when their fingerprints agree on every
//! field except the commit (which is what a comparison varies).

use gp_serve::json::{Json, ObjBuilder};
use std::process::Command;

/// `GP_*` variables that change which code runs.
pub const GP_VARS: [&str; 6] = [
    "GP_FORCE_EMULATED",
    "GP_PAR_SEQ",
    "GP_THREADS",
    "GP_BLOCK_KB",
    "GP_PREFETCH",
    "GP_BATCH16",
];

/// Fingerprint fields that may differ between comparable results.
pub const NOT_COMPARED: [&str; 1] = ["commit"];

/// Online CPUs as the process sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn has_feature(name: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match name {
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            "avx512cd" => std::arch::is_x86_feature_detected!("avx512cd"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = name;
        false
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
}

/// The commit of the checkout, when it is a git work tree of its own (git
/// is not consulted otherwise, so nothing outside the checkout is read).
fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        if let Some(c) = command_line("git", &["rev-parse", "HEAD"]) {
            return c;
        }
    }
    "unknown".to_string()
}

/// The fingerprint: host, toolchain, code-selecting environment, and the
/// `backend` string each kernel configuration reported.
pub fn fingerprint(backends: &[(String, String)], extra: &[(&str, String)]) -> Json {
    let mut b = ObjBuilder::new()
        .num("nproc", nproc() as f64)
        .str("cpu_model", &cpu_model())
        .bool("avx512f", has_feature("avx512f"))
        .bool("avx512cd", has_feature("avx512cd"))
        .str(
            "rustc",
            &command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        )
        .str("commit", &commit())
        .str("engine", gp_core::backends::engine().name());
    for var in GP_VARS {
        let v = std::env::var(var).unwrap_or_else(|_| "unset".to_string());
        b = b.str(var, &v);
    }
    for (k, v) in extra {
        b = b.str(k, v);
    }
    let mut sorted = backends.to_vec();
    sorted.sort();
    sorted.dedup();
    let backends = sorted
        .into_iter()
        .map(|(config, backend)| (config, Json::Str(backend)))
        .collect();
    b.field("backends", Json::Obj(backends)).build()
}

/// Fields on which two fingerprints differ, ignoring [`NOT_COMPARED`].
pub fn differences(a: &Json, b: &Json) -> Vec<String> {
    let keys = |j: &Json| -> Vec<String> {
        j.fields()
            .map(|f| f.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    };
    let mut all = keys(a);
    all.extend(keys(b));
    all.sort();
    all.dedup();
    all.into_iter()
        .filter(|k| !NOT_COMPARED.contains(&k.as_str()))
        .filter(|k| a.get(k).map(Json::to_string) != b.get(k).map(Json::to_string))
        .collect()
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_differ_on_host_fields_but_not_commit() {
        let a = fingerprint(&[("color".into(), "avx512".into())], &[]);
        let mut fields = a.fields().unwrap().to_vec();
        for (k, v) in fields.iter_mut() {
            if k == "commit" {
                *v = Json::Str("other".into());
            }
        }
        assert!(differences(&a, &Json::Obj(fields.clone())).is_empty());
        let b = fingerprint(&[("color".into(), "emulated".into())], &[]);
        assert_eq!(differences(&a, &b), vec!["backends".to_string()]);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
