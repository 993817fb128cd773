//! Golden pins for the serve tier's `bad_request` wire bodies.
//!
//! The typed error layer (`gp_core::error::{SpecError, RunError}`,
//! `gp_graph::delta::ApplyError`) replaced the stringly `Err(String)`
//! returns the protocol used to thread straight onto the wire. These tests
//! pin every refusal body byte-for-byte, so a future refactor of the error
//! enums cannot silently change what clients see. If one of these
//! assertions fails, the wire contract changed — that needs a protocol
//! version bump, not a test update.

use gp_serve::protocol::{parse_line, refusal_line, Refusal};

/// Runs a malformed request line through the parser and renders the exact
/// refusal the connection loop would write back.
fn refusal_for(line: &str) -> String {
    let err = parse_line(line).expect_err("line must be refused");
    refusal_line(Refusal::BadRequest, &err.detail, None, err.version)
}

#[test]
fn unknown_kernel_body_is_pinned() {
    assert_eq!(
        refusal_for(r#"{"kernel":"zap","graph":{"rmat":{"scale":4,"seed":1}}}"#),
        r#"{"v":1,"ok":false,"error":"bad_request","code":400,"detail":"unknown kernel 'zap' (color|louvain[-<variant>]|labelprop)"}"#
    );
}

#[test]
fn unknown_variant_body_is_pinned() {
    assert_eq!(
        refusal_for(r#"{"kernel":"louvain","variant":"zap","graph":{"rmat":{"scale":4,"seed":1}}}"#),
        r#"{"v":1,"ok":false,"error":"bad_request","code":400,"detail":"unknown louvain variant 'zap' (plm|mplm|onpl|ovpl)"}"#
    );
}

#[test]
fn unknown_backend_body_is_pinned() {
    assert_eq!(
        refusal_for(r#"{"kernel":"color","backend":"cuda","graph":{"rmat":{"scale":4,"seed":1}}}"#),
        r#"{"v":1,"ok":false,"error":"bad_request","code":400,"detail":"unknown backend 'cuda' (auto|scalar|emulated|native)"}"#
    );
}

#[test]
fn unknown_sweep_body_is_pinned() {
    assert_eq!(
        refusal_for(r#"{"kernel":"color","sweep":"lazy","graph":{"rmat":{"scale":4,"seed":1}}}"#),
        r#"{"v":1,"ok":false,"error":"bad_request","code":400,"detail":"unknown sweep mode 'lazy' (full|active)"}"#
    );
}

/// `block` and `bucket` were removed from v2; a request naming either is
/// refused with a hint, as `variant` is.
#[test]
fn removed_locality_field_bodies_are_pinned() {
    assert_eq!(
        refusal_for(
            r#"{"v":2,"req":{"kernel":"color","block":"auto","graph":"rmat:scale=4,ef=8,seed=1"}}"#
        ),
        r#"{"v":2,"ok":false,"error":"bad_request","code":400,"detail":"unknown field `block` (the locality layer has no settings; drop the field)"}"#
    );
    assert_eq!(
        refusal_for(
            r#"{"v":2,"req":{"kernel":"color","bucket":"degree","graph":"rmat:scale=4,ef=8,seed=1"}}"#
        ),
        r#"{"v":2,"ok":false,"error":"bad_request","code":400,"detail":"unknown field `bucket` (the locality layer has no settings; drop the field)"}"#
    );
}

/// The worker-side update-rejection detail: `apply_update` now returns the
/// typed `RunError`, and the `update rejected: {e}` prefix plus the
/// `ApplyError` rendering must match the stringly era exactly.
#[test]
fn update_rejection_details_are_pinned() {
    use gp_core::error::RunError;
    use gp_graph::delta::ApplyError;

    let cases: [(ApplyError, &str); 3] = [
        (
            ApplyError::EdgeOutOfRange { u: 7, v: 9, n: 4 },
            "update rejected: edge (7, 9) out of range (n = 4)",
        ),
        (
            ApplyError::NonPositiveWeight { u: 1, v: 2, w: 0.0 },
            "update rejected: edge (1, 2) weight 0 must be > 0",
        ),
        (
            ApplyError::DeletionOutOfRange { u: 5, v: 0, n: 3 },
            "update rejected: deletion (5, 0) out of range (n = 3)",
        ),
    ];
    for (apply, want) in cases {
        let e = RunError::Update(apply);
        assert_eq!(format!("update rejected: {e}"), want);
    }
}

/// Versioned framing details around the detail string: id echo and the
/// version stamp both survive the typed-error migration.
#[test]
fn refusal_framing_is_pinned() {
    assert_eq!(
        refusal_line(Refusal::BadRequest, "nope", Some("r1"), 2),
        r#"{"v":2,"ok":false,"error":"bad_request","code":400,"detail":"nope","id":"r1"}"#
    );
    assert_eq!(
        refusal_line(Refusal::QueueFull, "", None, 1),
        r#"{"v":1,"ok":false,"error":"queue_full","code":503}"#
    );
}
