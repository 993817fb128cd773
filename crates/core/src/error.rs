//! Typed errors for the kernel API.
//!
//! Historically every fallible seam in the workspace returned `String`:
//! the `FromStr` impls behind the CLI flags and serve JSON fields, the
//! streaming mutation path, the graph-spec parsers. That worked while each
//! consumer only printed the message, but the conformance harness needs to
//! *classify* failures (is this a spec rejection or a runtime refusal?),
//! and the serve tier promises byte-identical `bad_request` bodies across
//! refactors. So the strings become enums:
//!
//! * [`SpecError`] — a [`KernelSpec`](crate::api::KernelSpec) field failed
//!   to parse. One variant per field vocabulary, carrying the rejected
//!   input verbatim.
//! * [`RunError`] — an accepted request failed at run time (today: a
//!   streaming mutation batch was refused by the delta layer).
//!
//! The `Display` impls render the *exact* strings the CLI and serve wire
//! have always produced — golden tests in `gp-serve` pin the full
//! `bad_request` bodies byte-for-byte, and `From<…> for String` keeps `?`
//! working in the CLI's `Result<_, String>` plumbing.

use gp_graph::delta::ApplyError;

/// A `KernelSpec` field (or the CLI/wire string feeding it) failed to
/// parse. Each variant owns the rejected input; the valid vocabulary is
/// part of the rendered message, exactly as the stringly era spelled it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Not a kernel name (`color|louvain[-<variant>]|labelprop`).
    UnknownKernel(String),
    /// Not a Louvain variant (`plm|mplm|onpl|ovpl`).
    UnknownVariant(String),
    /// Not a backend name (`auto|scalar|emulated|native`).
    UnknownBackend(String),
    /// Not a sweep mode (`full|active`).
    UnknownSweep(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownKernel(s) => {
                write!(f, "unknown kernel '{s}' (color|louvain[-<variant>]|labelprop)")
            }
            SpecError::UnknownVariant(s) => {
                write!(f, "unknown louvain variant '{s}' (plm|mplm|onpl|ovpl)")
            }
            SpecError::UnknownBackend(s) => {
                write!(f, "unknown backend '{s}' (auto|scalar|emulated|native)")
            }
            SpecError::UnknownSweep(s) => {
                write!(f, "unknown sweep mode '{s}' (full|active)")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for String {
    fn from(e: SpecError) -> String {
        e.to_string()
    }
}

/// An accepted request failed while running. Distinct from [`SpecError`]
/// so callers (the serve refusal path, the conformance runner) can tell a
/// malformed request from a valid one the engine refused to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A streaming mutation batch was rejected before application (see
    /// [`gp_graph::delta::ApplyError`] — the whole batch is refused, the
    /// graph is never left half-mutated).
    Update(ApplyError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Update(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Update(e) => Some(e),
        }
    }
}

impl From<ApplyError> for RunError {
    fn from(e: ApplyError) -> RunError {
        RunError::Update(e)
    }
}

impl From<RunError> for String {
    fn from(e: RunError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact strings the stringly era produced — the serve wire bodies
    /// embed these verbatim, so they are pinned here and again (as full
    /// JSON bodies) by the serve golden tests.
    #[test]
    fn display_matches_legacy_messages() {
        let cases: [(SpecError, &str); 4] = [
            (
                SpecError::UnknownKernel("zap".into()),
                "unknown kernel 'zap' (color|louvain[-<variant>]|labelprop)",
            ),
            (
                SpecError::UnknownVariant("zap".into()),
                "unknown louvain variant 'zap' (plm|mplm|onpl|ovpl)",
            ),
            (
                SpecError::UnknownBackend("zap".into()),
                "unknown backend 'zap' (auto|scalar|emulated|native)",
            ),
            (
                SpecError::UnknownSweep("zap".into()),
                "unknown sweep mode 'zap' (full|active)",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
            assert_eq!(String::from(err), want);
        }
    }

    #[test]
    fn run_error_wraps_apply_error_verbatim() {
        let inner = ApplyError::EdgeOutOfRange { u: 7, v: 9, n: 4 };
        let run: RunError = inner.into();
        assert_eq!(run.to_string(), "edge (7, 9) out of range (n = 4)");
        assert_eq!(run.to_string(), inner.to_string());
        let weight = RunError::Update(ApplyError::NonPositiveWeight { u: 1, v: 2, w: 0.0 });
        assert_eq!(weight.to_string(), "edge (1, 2) weight 0 must be > 0");
        let del = RunError::Update(ApplyError::DeletionOutOfRange { u: 5, v: 0, n: 3 });
        assert_eq!(del.to_string(), "deletion (5, 0) out of range (n = 3)");
    }
}
