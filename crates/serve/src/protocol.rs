//! The newline-delimited JSON request/response protocol, versions 1 and 2.
//!
//! One JSON object per line in each direction. **v2** (canonical) wraps the
//! request body in a versioned envelope and is parsed *strictly* — unknown
//! fields are rejected with a structured `bad_request` so client typos fail
//! loudly:
//!
//! ```json
//! {"v":2,"req":{"kernel":"louvain-mplm","graph":"rmat:scale=14,ef=8,seed=1",
//!               "backend":"auto","sweep":"active","seed":7,
//!               "deadline_ms":250,"id":"req-1"}}
//! {"v":2,"req":{"kernel":"sleep","ms":50}}
//! {"v":2,"req":{"stats":true}}
//! ```
//!
//! The v2 request body mirrors [`gp_core::api::KernelSpec`] field-for-field
//! (kernel string including the Louvain variant, backend, sweep, seed) and
//! is serialized from it by [`to_v2_line`] — there is no hand-maintained
//! parallel field list. **v1** (legacy, no `"v"` key) is still accepted
//! through a translation shim: lenient parsing, a separate `"variant"`
//! field for Louvain, unknown fields ignored. Both versions produce the
//! same [`Request`]; responses echo the request's `"v"`.
//!
//! Responses always carry `"ok"`; successful runs add the
//! [`gp_metrics::RunInfo`] envelope fields (`backend`, `rounds`,
//! `converged`) plus `timed_out`, `cached`, and kernel-specific outputs.
//! Refusals use `{"ok":false,"error":"queue_full","code":503}` —
//! `queue_full` and `shutting_down` are backpressure (retryable),
//! `bad_request` is not.

use crate::json::{self, Json, ObjBuilder};
use crate::spec::GraphSpec;
pub use gp_core::api::{Backend, SweepMode};
use gp_core::api::{Kernel as RunKernel, KernelSpec};
use gp_core::louvain::Variant;
use gp_core::reduce_scatter::Strategy;
use gp_graph::Edge;

/// One streaming mutation batch riding on a v2 request:
/// `{"update":{"add":[[u,v,w?],...],"del":[[u,v],...]}}`. The batch is
/// applied to the request's graph session (a [`gp_graph::DeltaCsr`] seeded
/// from the shard's cached graph) before the request's kernel runs
/// incrementally from the previous output. v2-only; v1 predates sessions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateBatch {
    /// Edges to insert. A missing third element means unit weight.
    pub add: Vec<Edge>,
    /// Edges to tombstone, as `(u, v)` pairs.
    pub del: Vec<(u32, u32)>,
}

impl UpdateBatch {
    /// Parses the `"update"` object, strictly: exactly the `add`/`del`
    /// keys, each an array of `[u,v]` / `[u,v,w]` number arrays.
    fn from_json(v: &Json) -> Result<UpdateBatch, String> {
        let Json::Obj(fields) = v else {
            return Err("`update` must be an object with `add`/`del` arrays".to_string());
        };
        for (k, _) in fields {
            if k != "add" && k != "del" {
                return Err(format!("unknown `update` field `{k}` (allowed: `add`, `del`)"));
            }
        }
        let pair = |e: &Json, what: &str, max_len: usize| -> Result<(u32, u32, Option<f64>), String> {
            let Json::Arr(items) = e else {
                return Err(format!("`update.{what}` entries must be arrays"));
            };
            if items.len() < 2 || items.len() > max_len {
                return Err(format!(
                    "`update.{what}` entries need {} numbers, got {}",
                    if max_len == 3 { "[u,v] or [u,v,w]" } else { "[u,v]" },
                    items.len()
                ));
            }
            let vertex = |j: &Json| {
                j.as_u64()
                    .filter(|&x| x <= u32::MAX as u64)
                    .map(|x| x as u32)
                    .ok_or_else(|| format!("`update.{what}` vertex ids must be u32 integers"))
            };
            let w = match items.get(2) {
                None => None,
                Some(j) => Some(
                    j.as_f64()
                        .ok_or_else(|| format!("`update.{what}` weights must be numbers"))?,
                ),
            };
            Ok((vertex(&items[0])?, vertex(&items[1])?, w))
        };
        let mut batch = UpdateBatch::default();
        if let Some(Json::Arr(adds)) = fields_get(fields, "add") {
            for e in adds {
                let (u, vv, w) = pair(e, "add", 3)?;
                batch.add.push(Edge::new(u, vv, w.unwrap_or(1.0) as f32));
            }
        } else if fields_get(fields, "add").is_some() {
            return Err("`update.add` must be an array".to_string());
        }
        if let Some(Json::Arr(dels)) = fields_get(fields, "del") {
            for e in dels {
                let (u, vv, _) = pair(e, "del", 2)?;
                batch.del.push((u, vv));
            }
        } else if fields_get(fields, "del").is_some() {
            return Err("`update.del` must be an array".to_string());
        }
        Ok(batch)
    }

    /// Total mutations carried (additions + deletions).
    pub fn len(&self) -> usize {
        self.add.len() + self.del.len()
    }

    /// Whether the batch carries no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.del.is_empty()
    }
}

/// Field lookup on a raw object body (insertion order preserved).
fn fields_get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Which kernel a request runs: one of the real kernels, carried as the
/// full [`KernelSpec`] it will execute with (backend, sweep, raw request
/// seed), or the serve-only diagnostic `sleep`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// A real kernel run, dispatched through [`gp_core::api::run_kernel`].
    /// The spec holds the *raw* request seed; [`Request::kernel_spec`]
    /// applies the library-default XOR before execution.
    Run(KernelSpec),
    /// Diagnostic kernel: hold a worker for `ms` milliseconds. Used by the
    /// load generator and CI to force `queue_full` / timeout conditions
    /// deterministically; never cached, never coalesced.
    Sleep {
        /// How long to occupy the worker.
        ms: u64,
    },
}

impl Kernel {
    /// Short label, also the latency-histogram key
    /// (see [`crate::stats::KERNEL_NAMES`]).
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Run(ks) => ks.kernel.label(),
            Kernel::Sleep { .. } => "sleep",
        }
    }

    /// Cache-key fragment: label plus variant where one exists.
    pub fn cache_label(&self) -> &'static str {
        match self {
            Kernel::Run(ks) => ks.kernel.cache_label(),
            Kernel::Sleep { .. } => "sleep",
        }
    }
}

/// The v2 wire name of a kernel: round-trips through the
/// [`gp_core::api::Kernel`] `FromStr` impl, including the fixed ONPL
/// reduce-scatter strategies that `cache_label` collapses.
pub fn kernel_wire_name(k: RunKernel) -> &'static str {
    match k {
        RunKernel::Coloring => "color",
        RunKernel::Labelprop => "labelprop",
        RunKernel::Louvain(v) => match v {
            Variant::Plm => "louvain-plm",
            Variant::Mplm => "louvain-mplm",
            Variant::Onpl(Strategy::ConflictDetect) => "louvain-onpl-cd",
            Variant::Onpl(Strategy::ConflictIterative) => "louvain-onpl-iter",
            Variant::Onpl(Strategy::InVectorReduce) => "louvain-onpl-ivr",
            // `Scalar` is a library-internal reference strategy with no wire
            // name of its own; `louvain-onpl` (adaptive) is the closest
            // addressable form and the only ONPL the protocol can admit.
            Variant::Onpl(Strategy::Adaptive | Strategy::Scalar) => "louvain-onpl",
            Variant::Ovpl => "louvain-ovpl",
        },
    }
}

/// A parsed run request (either protocol version).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Kernel to execute, with its full execution spec.
    pub kernel: Kernel,
    /// Graph to run on (absent for `sleep`).
    pub spec: Option<GraphSpec>,
    /// Per-request deadline in milliseconds (`None` → server default).
    pub deadline_ms: Option<u64>,
    /// Streaming mutation batch to apply before running the kernel
    /// (v2-only). Update requests are never cached or coalesced.
    pub update: Option<UpdateBatch>,
    /// Opaque client correlation id, echoed in the response.
    pub id: Option<String>,
    /// Protocol version the request arrived in (1 or 2); responses echo it.
    pub version: u8,
}

impl Request {
    /// Result-cache key: `(graph spec, kernel+variant, backend, sweep,
    /// seed)` — exactly [`GraphSpec::canonical_key`] plus
    /// [`KernelSpec::cache_token`], so the service cache and the library's
    /// own cache labels can never drift. `sleep` requests are never cached.
    /// Sweep mode is part of the key even though outputs are bit-identical
    /// across modes: the cached body carries mode-dependent fields
    /// (`exec_ms`, round telemetry). Update requests mutate state and are
    /// never cached.
    pub fn cache_key(&self) -> Option<String> {
        if self.update.is_some() {
            return None;
        }
        match (&self.kernel, &self.spec) {
            (Kernel::Sleep { .. }, _) | (_, None) => None,
            (Kernel::Run(ks), Some(spec)) => {
                Some(format!("{}|{}", spec.canonical_key(), ks.cache_token()))
            }
        }
    }

    /// The [`KernelSpec`] this request executes; `None` for `sleep`.
    ///
    /// The label-propagation traversal seed is the request seed XORed with
    /// the kernel's default (`0x1abe1`), so `seed: 0` requests reproduce
    /// the library default shuffle. The cache key uses the raw seed.
    pub fn kernel_spec(&self) -> Option<KernelSpec> {
        match self.kernel {
            Kernel::Sleep { .. } => None,
            Kernel::Run(ks) => Some(KernelSpec {
                seed: ks.seed ^ 0x1abe1,
                ..ks
            }),
        }
    }
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A kernel run.
    Run(Request),
    /// A stats probe (`{"stats":true}` in v1, `{"v":2,"req":{"stats":true}}`
    /// in v2). The version tags the response.
    Stats {
        /// Protocol version of the probe.
        version: u8,
    },
}

/// A structured parse failure: what went wrong, and which protocol version
/// the line was speaking (so the refusal can echo the right `"v"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description, echoed as the refusal `detail`.
    pub detail: String,
    /// Protocol version attributed to the line (1 when no envelope).
    pub version: u8,
}

impl ParseError {
    fn v(version: u8, detail: impl Into<String>) -> ParseError {
        ParseError {
            detail: detail.into(),
            version,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Parses one request line, dispatching on the presence of the `"v"`
/// envelope key: absent → legacy v1 (lenient), present → must be 2
/// (strict).
pub fn parse_line(line: &str) -> Result<Incoming, ParseError> {
    let v = json::parse(line.trim()).map_err(|e| ParseError::v(1, format!("invalid JSON: {e}")))?;
    match v.get("v") {
        None => parse_v1(&v),
        Some(ver) => {
            if ver.as_u64() != Some(2) {
                return Err(ParseError::v(
                    2,
                    format!("unsupported protocol version {ver} (this server speaks v1 and v2)"),
                ));
            }
            parse_v2(&v)
        }
    }
}

/// Shared scalar-field extraction used by both protocol versions.
struct Common {
    id: Option<String>,
    deadline_ms: Option<u64>,
    seed: u64,
    backend: Backend,
    sweep: SweepMode,
}

fn parse_common(v: &Json, version: u8) -> Result<Common, ParseError> {
    let id = v.get("id").and_then(Json::as_str).map(str::to_string);
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(d) => Some(d.as_u64().ok_or_else(|| {
            ParseError::v(version, "`deadline_ms` must be a non-negative integer")
        })?),
    };
    let seed = match v.get("seed") {
        None | Some(Json::Null) => 0,
        Some(s) => s
            .as_u64()
            .ok_or_else(|| ParseError::v(version, "`seed` must be a non-negative integer"))?,
    };
    let backend: Backend = match v.get("backend").and_then(Json::as_str) {
        None => Backend::Auto,
        Some(s) => s.parse().map_err(|e| ParseError::v(version, String::from(e)))?,
    };
    let sweep: SweepMode = match v.get("sweep").and_then(Json::as_str) {
        None => SweepMode::Active,
        Some(s) => s.parse().map_err(|e| ParseError::v(version, String::from(e)))?,
    };
    Ok(Common {
        id,
        deadline_ms,
        seed,
        backend,
        sweep,
    })
}

/// Assembles the embedded [`KernelSpec`] a run request will execute with.
/// `parallel`/`count_ops` are service policy, not wire fields.
fn spec_of(run: RunKernel, c: &Common) -> KernelSpec {
    KernelSpec {
        kernel: run,
        backend: c.backend,
        sweep: c.sweep,
        parallel: true,
        seed: c.seed,
        count_ops: false,
    }
}

/// Legacy v1: flat object, lenient (unknown fields ignored), Louvain
/// variant in a separate `"variant"` field.
fn parse_v1(v: &Json) -> Result<Incoming, ParseError> {
    if v.get("stats").and_then(Json::as_bool) == Some(true) {
        return Ok(Incoming::Stats { version: 1 });
    }
    let err = |detail: String| ParseError::v(1, detail);
    let kernel_name = v
        .get("kernel")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing `kernel` field".to_string()))?;
    let common = parse_common(v, 1)?;

    if kernel_name == "sleep" {
        let ms = v
            .get("ms")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("`sleep` needs integer `ms`".to_string()))?;
        return Ok(Incoming::Run(Request {
            kernel: Kernel::Sleep { ms },
            spec: None,
            deadline_ms: common.deadline_ms,
            update: None,
            id: common.id,
            version: 1,
        }));
    }

    // Kernel (and louvain variant) names come from the shared FromStr impls
    // in `gp_core::api` — one parser for the CLI flags and this protocol.
    let mut run: RunKernel = kernel_name.parse().map_err(|e| err(String::from(e)))?;
    if let Some(vs) = v.get("variant").and_then(Json::as_str) {
        if let RunKernel::Louvain(variant) = &mut run {
            *variant = vs.parse().map_err(|e| err(String::from(e)))?;
        }
    }
    let spec_json = v
        .get("graph")
        .ok_or_else(|| err(format!("kernel `{kernel_name}` needs a `graph` spec")))?;
    let spec = GraphSpec::from_json(spec_json).map_err(err)?;
    Ok(Incoming::Run(Request {
        kernel: Kernel::Run(spec_of(run, &common)),
        spec: Some(spec),
        deadline_ms: common.deadline_ms,
        // v1 predates streaming sessions; an `update` field, like any other
        // unknown v1 field, is ignored by the lenient parser above.
        update: None,
        id: common.id,
        version: 1,
    }))
}

/// v2: `{"v":2,"req":{...}}` envelope, strict field validation.
fn parse_v2(v: &Json) -> Result<Incoming, ParseError> {
    let err = |detail: String| ParseError::v(2, detail);
    let Json::Obj(envelope) = v else {
        return Err(err("v2 request must be a JSON object".to_string()));
    };
    for (k, _) in envelope {
        if k != "v" && k != "req" {
            return Err(err(format!("unknown envelope field `{k}` (v2 allows `v`, `req`)")));
        }
    }
    let req = v
        .get("req")
        .ok_or_else(|| err("v2 envelope needs a `req` object".to_string()))?;
    let Json::Obj(fields) = req else {
        return Err(err("`req` must be a JSON object".to_string()));
    };

    if req.get("stats").and_then(Json::as_bool) == Some(true) {
        if fields.len() != 1 {
            return Err(err("a stats probe carries no other fields".to_string()));
        }
        return Ok(Incoming::Stats { version: 2 });
    }

    let kernel_name = req
        .get("kernel")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing `kernel` field".to_string()))?;
    let allowed: &[&str] = if kernel_name == "sleep" {
        &["kernel", "ms", "deadline_ms", "id"]
    } else {
        &[
            "kernel", "graph", "backend", "sweep", "seed", "deadline_ms", "update", "id",
        ]
    };
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            let hint = match k.as_str() {
                "variant" => " (v2 folds the variant into the kernel string, e.g. `louvain-mplm`)",
                "block" | "bucket" => " (the locality layer has no settings; drop the field)",
                _ => "",
            };
            return Err(err(format!("unknown field `{k}`{hint}")));
        }
    }
    let common = parse_common(req, 2)?;

    if kernel_name == "sleep" {
        let ms = req
            .get("ms")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("`sleep` needs integer `ms`".to_string()))?;
        return Ok(Incoming::Run(Request {
            kernel: Kernel::Sleep { ms },
            spec: None,
            deadline_ms: common.deadline_ms,
            update: None,
            id: common.id,
            version: 2,
        }));
    }

    let run: RunKernel = kernel_name.parse().map_err(|e| err(String::from(e)))?;
    let spec_json = req
        .get("graph")
        .ok_or_else(|| err(format!("kernel `{kernel_name}` needs a `graph` spec")))?;
    let spec = GraphSpec::from_json(spec_json).map_err(err)?;
    let update = match req.get("update") {
        None | Some(Json::Null) => None,
        Some(u) => {
            // Kernel deadlines are incompatible with sessions: a cut-short
            // repair could park an invalid assignment as the next warm
            // start, so update frames always run to convergence.
            if common.deadline_ms.is_some() {
                return Err(err("`update` frames do not accept `deadline_ms`".to_string()));
            }
            Some(UpdateBatch::from_json(u).map_err(err)?)
        }
    };
    Ok(Incoming::Run(Request {
        kernel: Kernel::Run(spec_of(run, &common)),
        spec: Some(spec),
        deadline_ms: common.deadline_ms,
        update,
        id: common.id,
        version: 2,
    }))
}

/// Serializes a request as a canonical v2 line (no trailing newline) —
/// the v1→v2 translation shim, driven entirely by the embedded
/// [`KernelSpec`]. Parsing the output reproduces the request with
/// `version: 2`.
pub fn to_v2_line(request: &Request) -> String {
    let mut req = ObjBuilder::new();
    match &request.kernel {
        Kernel::Sleep { ms } => {
            req = req.str("kernel", "sleep").num("ms", *ms as f64);
        }
        Kernel::Run(ks) => {
            req = req.str("kernel", kernel_wire_name(ks.kernel));
            if let Some(spec) = &request.spec {
                req = req.str("graph", &spec.canonical_key());
            }
            req = req
                .str("backend", ks.backend.name())
                .str("sweep", ks.sweep.name())
                .num("seed", ks.seed as f64);
        }
    }
    if let Some(u) = &request.update {
        let nums = |xs: Vec<f64>| Json::Arr(xs.into_iter().map(Json::Num).collect());
        req = req.field(
            "update",
            ObjBuilder::new()
                .field(
                    "add",
                    Json::Arr(
                        u.add
                            .iter()
                            .map(|e| nums(vec![e.u as f64, e.v as f64, e.w as f64]))
                            .collect(),
                    ),
                )
                .field(
                    "del",
                    Json::Arr(u.del.iter().map(|&(a, b)| nums(vec![a as f64, b as f64])).collect()),
                )
                .build(),
        );
    }
    if let Some(d) = request.deadline_ms {
        req = req.num("deadline_ms", d as f64);
    }
    if let Some(id) = &request.id {
        req = req.str("id", id);
    }
    ObjBuilder::new()
        .num("v", 2.0)
        .field("req", req.build())
        .build()
        .to_string()
}

/// Refusal kinds with their (HTTP-flavored) status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Admission queue at capacity — retry later.
    QueueFull,
    /// Server is draining for shutdown — retry elsewhere.
    ShuttingDown,
    /// Malformed or unsatisfiable request — don't retry.
    BadRequest,
}

impl Refusal {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Refusal::QueueFull => "queue_full",
            Refusal::ShuttingDown => "shutting_down",
            Refusal::BadRequest => "bad_request",
        }
    }

    /// Status code.
    pub fn code(self) -> u32 {
        match self {
            Refusal::QueueFull | Refusal::ShuttingDown => 503,
            Refusal::BadRequest => 400,
        }
    }
}

/// Renders a refusal response line (without trailing newline), stamped with
/// the protocol version of the request it answers.
pub fn refusal_line(kind: Refusal, detail: &str, id: Option<&str>, version: u8) -> String {
    let mut obj = ObjBuilder::new()
        .num("v", version as f64)
        .bool("ok", false)
        .str("error", kind.name())
        .num("code", kind.code() as f64);
    if !detail.is_empty() {
        obj = obj.str("detail", detail);
    }
    if let Some(id) = id {
        obj = obj.str("id", id);
    }
    obj.build().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(line: &str) -> Request {
        match parse_line(line).unwrap() {
            Incoming::Run(r) => r,
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn parses_full_v1_louvain_request() {
        let line = r#"{"kernel":"louvain","graph":{"rmat":{"scale":12,"seed":3}},"variant":"ovpl","backend":"scalar","sweep":"full","seed":9,"deadline_ms":100,"id":"a1"}"#;
        let req = run_of(line);
        let Kernel::Run(ks) = req.kernel else { panic!() };
        assert_eq!(ks.kernel, "louvain-ovpl".parse().unwrap());
        assert_eq!(ks.backend, Backend::Scalar);
        assert_eq!(ks.sweep, SweepMode::Full);
        assert_eq!(ks.seed, 9);
        assert_eq!(req.deadline_ms, Some(100));
        assert_eq!(req.id.as_deref(), Some("a1"));
        assert_eq!(req.version, 1);
        assert_eq!(
            req.cache_key().unwrap(),
            "rmat:scale=12,ef=8,seed=3|louvain-ovpl|scalar|full|seed=9"
        );
        let spec = req.kernel_spec().unwrap();
        assert_eq!(spec.kernel.cache_label(), "louvain-ovpl");
        assert_eq!(spec.seed, 9 ^ 0x1abe1);
        assert!(spec.parallel);
        assert!(!spec.count_ops);
    }

    #[test]
    fn parses_full_v2_request() {
        let line = r#"{"v":2,"req":{"kernel":"louvain-mplm","graph":"rmat:scale=12,ef=8,seed=3","backend":"emulated","sweep":"active","seed":4,"deadline_ms":50,"id":"b2"}}"#;
        let req = run_of(line);
        assert_eq!(req.version, 2);
        let Kernel::Run(ks) = req.kernel else { panic!() };
        assert_eq!(ks.kernel, "louvain-mplm".parse().unwrap());
        assert_eq!(ks.backend, Backend::Emulated);
        assert_eq!(ks.seed, 4);
        assert_eq!(req.deadline_ms, Some(50));
        assert_eq!(req.id.as_deref(), Some("b2"));
        assert_eq!(
            req.cache_key().unwrap(),
            "rmat:scale=12,ef=8,seed=3|louvain-mplm|emulated|active|seed=4"
        );
    }

    #[test]
    fn parses_stats_and_sleep_in_both_versions() {
        assert_eq!(
            parse_line(r#"{"stats":true}"#).unwrap(),
            Incoming::Stats { version: 1 }
        );
        assert_eq!(
            parse_line(r#"{"v":2,"req":{"stats":true}}"#).unwrap(),
            Incoming::Stats { version: 2 }
        );
        let req = run_of(r#"{"kernel":"sleep","ms":25}"#);
        assert_eq!(req.kernel, Kernel::Sleep { ms: 25 });
        assert!(req.cache_key().is_none());
        assert!(req.kernel_spec().is_none());
        let req = run_of(r#"{"v":2,"req":{"kernel":"sleep","ms":25,"id":"s"}}"#);
        assert_eq!(req.kernel, Kernel::Sleep { ms: 25 });
        assert_eq!(req.version, 2);
    }

    #[test]
    fn v1_defaults_are_applied() {
        let req = run_of(r#"{"kernel":"color","graph":"mesh:w=10,seed=2"}"#);
        let Kernel::Run(ks) = req.kernel else { panic!() };
        assert_eq!(ks.kernel, "color".parse().unwrap());
        assert_eq!(ks.backend, Backend::Auto);
        assert_eq!(ks.sweep, SweepMode::Active);
        assert_eq!(ks.seed, 0);
        assert_eq!(req.deadline_ms, None);
        assert!(req.id.is_none());
    }

    #[test]
    fn v1_ignores_unknown_fields_v2_rejects_them() {
        let lenient = parse_line(r#"{"kernel":"color","graph":"mesh:w=10,seed=2","bogus":1}"#);
        assert!(lenient.is_ok(), "v1 must ignore unknown fields");
        let strict =
            parse_line(r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=10,seed=2","bogus":1}}"#);
        let e = strict.unwrap_err();
        assert_eq!(e.version, 2);
        assert!(e.detail.contains("unknown field `bogus`"), "{e}");
        // `variant` is a v1-ism; the v2 error explains where it went.
        let e = parse_line(
            r#"{"v":2,"req":{"kernel":"louvain","graph":"mesh:w=10,seed=2","variant":"mplm"}}"#,
        )
        .unwrap_err();
        assert!(e.detail.contains("kernel string"), "{e}");
        // Envelope-level unknown fields are rejected too.
        let e = parse_line(r#"{"v":2,"req":{"stats":true},"extra":1}"#).unwrap_err();
        assert!(e.detail.contains("unknown envelope field `extra`"), "{e}");
    }

    #[test]
    fn unsupported_versions_are_refused_structurally() {
        let e = parse_line(r#"{"v":3,"req":{"stats":true}}"#).unwrap_err();
        assert_eq!(e.version, 2);
        assert!(e.detail.contains("unsupported protocol version"), "{e}");
        let e = parse_line(r#"{"v":"two","req":{"stats":true}}"#).unwrap_err();
        assert!(e.detail.contains("unsupported protocol version"), "{e}");
    }

    #[test]
    fn v1_to_v2_translation_is_faithful() {
        // Golden pairs: every v1 form and its canonical v2 line.
        let cases = [
            (
                r#"{"kernel":"louvain","graph":{"rmat":{"scale":12,"seed":3}},"variant":"ovpl","backend":"scalar","sweep":"full","seed":9,"deadline_ms":100,"id":"a1"}"#,
                r#"{"v":2,"req":{"kernel":"louvain-ovpl","graph":"rmat:scale=12,ef=8,seed=3","backend":"scalar","sweep":"full","seed":9,"deadline_ms":100,"id":"a1"}}"#,
            ),
            (
                r#"{"kernel":"color","graph":"mesh:w=10,seed=2"}"#,
                r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=10,h=10,seed=2","backend":"auto","sweep":"active","seed":0}}"#,
            ),
            (
                r#"{"kernel":"sleep","ms":25,"id":"s1"}"#,
                r#"{"v":2,"req":{"kernel":"sleep","ms":25,"id":"s1"}}"#,
            ),
        ];
        for (v1, golden_v2) in cases {
            let original = run_of(v1);
            let v2_line = to_v2_line(&original);
            assert_eq!(v2_line, golden_v2, "canonical serialization for {v1}");
            let reparsed = run_of(&v2_line);
            // Equal modulo the version stamp.
            assert_eq!(
                Request {
                    version: 1,
                    ..reparsed.clone()
                },
                original,
                "round-trip for {v1}"
            );
            assert_eq!(reparsed.version, 2);
            assert_eq!(reparsed.cache_key(), original.cache_key());
        }
    }

    #[test]
    fn fixed_onpl_strategies_survive_the_wire() {
        for name in ["louvain-onpl", "louvain-onpl-cd", "louvain-onpl-iter", "louvain-onpl-ivr"] {
            let req = run_of(&format!(
                r#"{{"v":2,"req":{{"kernel":"{name}","graph":"mesh:w=8,seed=1"}}}}"#
            ));
            let Kernel::Run(ks) = req.kernel else { panic!() };
            assert_eq!(kernel_wire_name(ks.kernel), name);
        }
    }

    #[test]
    fn v1_ignores_the_removed_locality_fields() {
        // v1 is lenient: `block`/`bucket`, like any unknown v1 field, are
        // dropped, and the request shares the plain request's cache entry.
        let plain = run_of(r#"{"kernel":"color","graph":"mesh:w=10,seed=2"}"#);
        let knobbed =
            run_of(r#"{"kernel":"color","graph":"mesh:w=10,seed=2","block":"4096","bucket":"off"}"#);
        assert_eq!(knobbed, plain);
        assert_eq!(knobbed.cache_key(), plain.cache_key());
        assert!(!plain.cache_key().unwrap().contains("block="));
    }

    #[test]
    fn v2_refuses_the_removed_locality_fields() {
        for field in ["block", "bucket"] {
            for value in ["\"auto\"", "\"off\"", "4096"] {
                let line = format!(
                    r#"{{"v":2,"req":{{"kernel":"labelprop","graph":"mesh:w=8,seed=1","{field}":{value}}}}}"#
                );
                let e = parse_line(&line).expect_err(&line);
                assert_eq!(e.version, 2);
                assert!(e.detail.contains(&format!("unknown field `{field}`")), "{e}");
                assert!(e.detail.contains("the locality layer has no settings"), "{e}");
            }
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"graph":"mesh:w=4"}"#).is_err()); // no kernel
        assert!(parse_line(r#"{"kernel":"color"}"#).is_err()); // no graph
        assert!(parse_line(r#"{"kernel":"warp","graph":"mesh:w=4"}"#).is_err());
        assert!(parse_line(r#"{"kernel":"louvain","graph":"mesh:w=4","variant":"x"}"#).is_err());
        assert!(parse_line(r#"{"kernel":"color","graph":"mesh:w=4","deadline_ms":-5}"#).is_err());
        assert!(parse_line(r#"{"kernel":"sleep"}"#).is_err()); // no ms
        assert!(parse_line(r#"{"kernel":"color","graph":"mesh:w=4","backend":"gpu"}"#).is_err());
        assert!(parse_line(r#"{"kernel":"color","graph":"mesh:w=4","sweep":"lazy"}"#).is_err());
        assert!(parse_line(r#"{"v":2}"#).is_err()); // no req
        assert!(parse_line(r#"{"v":2,"req":{"kernel":"color"}}"#).is_err()); // no graph
        assert!(parse_line(r#"{"v":2,"req":{"stats":true,"id":"x"}}"#).is_err());
    }

    #[test]
    fn v2_update_frames_parse_strictly() {
        let req = run_of(
            r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":{"add":[[0,1],[2,3,2.5]],"del":[[4,5]]}}}"#,
        );
        assert_eq!(req.version, 2);
        let u = req.update.as_ref().expect("update batch");
        assert_eq!(u.add.len(), 2);
        assert_eq!(u.add[0], Edge::new(0, 1, 1.0), "missing weight defaults to 1");
        assert_eq!(u.add[1], Edge::new(2, 3, 2.5));
        assert_eq!(u.del, vec![(4, 5)]);
        assert_eq!(u.len(), 3);
        assert!(!u.is_empty());
        // Mutating requests are never cached.
        assert!(req.cache_key().is_none());
        // The canonical serialization round-trips the batch.
        let v2 = to_v2_line(&req);
        assert!(v2.contains(r#""update""#), "{v2}");
        assert_eq!(run_of(&v2), req);
        // Empty batch objects are well-formed no-ops.
        let req = run_of(r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":{}}}"#);
        assert!(req.update.as_ref().unwrap().is_empty());
    }

    #[test]
    fn malformed_update_frames_are_rejected() {
        for line in [
            // deadline + update is an invalid combination
            r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":{"add":[[0,1]]},"deadline_ms":10}}"#,
            // wrong shapes
            r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":[1,2]}}"#,
            r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":{"add":[[0]]}}}"#,
            r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":{"del":[[0,1,2]]}}}"#,
            r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":{"add":[[0,-1]]}}}"#,
            r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":{"grow":[[0,1]]}}}"#,
            r#"{"v":2,"req":{"kernel":"color","graph":"mesh:w=8,seed=1","update":{"add":[[0,1,"x"]]}}}"#,
            // sleep cannot carry an update
            r#"{"v":2,"req":{"kernel":"sleep","ms":5,"update":{"add":[[0,1]]}}}"#,
        ] {
            assert!(parse_line(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn v1_ignores_update_fields() {
        // v1 predates sessions: its lenient parser drops the field rather
        // than mutating anything.
        let req = run_of(r#"{"kernel":"color","graph":"mesh:w=8,seed=1","update":{"add":[[0,1]]}}"#);
        assert_eq!(req.version, 1);
        assert!(req.update.is_none());
        assert!(req.cache_key().is_some(), "still a plain cacheable run");
    }

    #[test]
    fn refusal_lines_carry_version_code_and_id() {
        let line = refusal_line(Refusal::QueueFull, "", Some("r7"), 1);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("queue_full"));
        assert_eq!(v.get("code").and_then(Json::as_u64), Some(503));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r7"));
        let line = refusal_line(Refusal::BadRequest, "nope", None, 2);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("code").and_then(Json::as_u64), Some(400));
    }

    #[test]
    fn cache_key_distinguishes_kernel_backend_sweep_and_seed() {
        let a = run_of(r#"{"kernel":"labelprop","graph":"mesh:w=8,seed=1"}"#);
        let b = run_of(r#"{"kernel":"labelprop","graph":"mesh:w=8,seed=1","seed":5}"#);
        assert_ne!(a.cache_key(), b.cache_key());
        let c = run_of(r#"{"kernel":"labelprop","graph":"mesh:w=8,seed=1","sweep":"full"}"#);
        assert_ne!(a.cache_key(), c.cache_key());
        // A v2 request with the same parameters shares the v1 cache entry.
        let d = run_of(r#"{"v":2,"req":{"kernel":"labelprop","graph":"mesh:w=8,seed=1"}}"#);
        assert_eq!(a.cache_key(), d.cache_key());
    }
}
