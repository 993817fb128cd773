//! `gp-loadgen` — closed- and open-loop load generator for the `gp-serve`
//! partition service.
//!
//! ```text
//! gp-loadgen [--spawn] [--addr host:port] [--clients n] [--requests n]
//!            [--scale s] [--deadline-every n] [--workers n] [--shards n]
//!            [--queue-depth n] [--burst n]
//!            [--open-loop rate|Nx] [--duration secs] [--churn frac]
//! ```
//!
//! **Closed loop** (the default): `--clients` clients each wait for a
//! response before sending the next request, retrying on `queue_full`
//! backpressure, then a synchronized burst of `sleep` requests sized to
//! exceed `workers + queue_depth` demonstrates shedding. Each wire attempt
//! (including retries) counts once on both sides, so the server's
//! `received` counter reconciles exactly against the client's attempt
//! count — retried requests are no longer double-booked as extra logical
//! requests.
//!
//! **Open loop** (`--open-loop`): requests arrive on a fixed Poisson
//! schedule regardless of how fast responses come back, which is the only
//! honest way to measure tail latency and shed rate under overload. The
//! rate is either absolute (`--open-loop 250`) or a multiple of the
//! server's calibrated sustainable throughput (`--open-loop 2x`). Sheds
//! are terminal — an open-loop client never retries, because the shed
//! *is* the measurement. The run reports offered vs achieved rate,
//! p50/p99/p999 latency, and the shed rate.
//!
//! **Churn** (`--churn frac`, closed loop only): the given fraction of the
//! mix becomes v2 `update` frames against a shared session graph
//! (materialized by one plain run before the mix starts), interleaved with
//! the ordinary partition traffic. Latency is reported per class — plain
//! runs and updates separately, each with p50/p99/p999 — and the final
//! reconciliation extends to the streaming counters: the server's
//! `updates` / `edges_added` / `edges_deleted` must equal the client-side
//! count of ok update responses and the sums of their `applied_add` /
//! `applied_del` fields.
//!
//! With `--spawn` (the default when no `--addr` is given) the server runs
//! in-process on an ephemeral port, and the final `{"stats":true}` probe is
//! *reconciled* against the client-side counts — received/served/shed/
//! rejected/timed-out/coalesced and result-cache hits must all agree
//! exactly in both modes, and any drift or malformed response exits
//! nonzero.

use gp_metrics::{Histogram, HistogramSnapshot};
use gp_serve::{Json, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "\
gp-loadgen — closed- and open-loop load generator for the gp-serve service

USAGE:
  gp-loadgen [--spawn] [--addr host:port] [--clients n] [--requests n]
             [--scale s] [--deadline-every n] [--workers n] [--shards n]
             [--queue-depth n] [--burst n] [--open-loop rate|Nx]
             [--duration secs]

  --spawn            run an in-process server on an ephemeral port (default
                     when --addr is absent); enables strict stats
                     reconciliation
  --addr host:port   target an already-running `gpart serve`
  --clients n        concurrent connections                 [default 8]
  --requests n       closed-loop: total requests in the mix [default 1200]
  --scale s          RMAT scale for the mix                 [default 14]
  --deadline-every n every n-th request gets deadline_ms=1  [default 16]
  --workers n        spawned server's worker threads        [default 2]
  --shards n         spawned server's keyspace shards       [default 1]
  --queue-depth n    spawned server's admission queue       [default 4]
  --burst n          sleep-burst size (0 = auto for --spawn, skip otherwise)
  --open-loop r      open-loop mode: Poisson arrivals at rate r req/s, or
                     `Nx` (e.g. 2x) times the calibrated sustainable rate;
                     sheds are terminal, never retried
  --duration secs    open-loop measurement window           [default 5]
  --churn frac       closed-loop only: this fraction of the mix are v2
                     update frames against a shared session graph, with
                     per-class latency and streaming-counter reconciliation
";

/// Client-side tallies, merged across all client threads.
///
/// `sent` counts *wire attempts* — every line written, including
/// closed-loop retries after a shed — so it pairs exactly with the
/// server's `received`. Every response is classified into exactly one of
/// `ok` / `shed` / `rejected` / `protocol_errors`, so
/// `sent == ok + shed + rejected + protocol_errors` whenever every write
/// got a response.
#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    ok: AtomicU64,
    cached: AtomicU64,
    coalesced: AtomicU64,
    timed_out: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    protocol_errors: AtomicU64,
    /// Ok responses that carried `applied_add` — i.e. served update frames.
    updates: AtomicU64,
    /// Sums of the `applied_add` / `applied_del` fields across those
    /// responses; must equal the server's `edges_added` / `edges_deleted`.
    edges_added: AtomicU64,
    edges_deleted: AtomicU64,
}

impl Tally {
    fn get(&self, c: &AtomicU64) -> u64 {
        c.load(Ordering::SeqCst)
    }
}

/// Open-loop arrival rate: absolute, or a multiple of calibrated capacity.
enum Rate {
    PerSec(f64),
    Multiple(f64),
}

struct Options {
    spawn: bool,
    addr: Option<String>,
    clients: usize,
    requests: u64,
    scale: u32,
    deadline_every: u64,
    workers: usize,
    shards: usize,
    queue_depth: usize,
    burst: Option<usize>,
    open_loop: Option<Rate>,
    duration: f64,
    /// Fraction of the closed-loop mix sent as v2 `update` frames.
    churn: Option<f64>,
}

fn parse_rate(v: &str) -> Result<Rate, String> {
    if let Some(prefix) = v.strip_suffix('x') {
        let factor: f64 = prefix
            .parse()
            .map_err(|e| format!("bad --open-loop multiple `{v}`: {e}"))?;
        if factor <= 0.0 {
            return Err(format!("--open-loop multiple must be positive, got `{v}`"));
        }
        Ok(Rate::Multiple(factor))
    } else {
        let rate: f64 = v
            .parse()
            .map_err(|e| format!("bad --open-loop rate `{v}`: {e}"))?;
        if rate <= 0.0 {
            return Err(format!("--open-loop rate must be positive, got `{v}`"));
        }
        Ok(Rate::PerSec(rate))
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        spawn: false,
        addr: None,
        clients: 8,
        requests: 1200,
        scale: 14,
        deadline_every: 16,
        workers: 2,
        shards: 1,
        queue_depth: 4,
        burst: None,
        open_loop: None,
        duration: 5.0,
        churn: None,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("bad {name} value: {e}"))
        };
        match a.as_str() {
            "--spawn" => opts.spawn = true,
            "--addr" => opts.addr = Some(it.next().ok_or("--addr needs a value")?),
            "--clients" => opts.clients = num("--clients")?.max(1) as usize,
            "--requests" => opts.requests = num("--requests")?,
            "--scale" => opts.scale = num("--scale")? as u32,
            "--deadline-every" => opts.deadline_every = num("--deadline-every")?.max(1),
            "--workers" => opts.workers = num("--workers")?.max(1) as usize,
            "--shards" => opts.shards = num("--shards")?.max(1) as usize,
            "--queue-depth" => opts.queue_depth = num("--queue-depth")? as usize,
            "--burst" => opts.burst = Some(num("--burst")? as usize),
            "--open-loop" => {
                let v = it.next().ok_or("--open-loop needs a value")?;
                opts.open_loop = Some(parse_rate(&v)?);
            }
            "--churn" => {
                let v = it.next().ok_or("--churn needs a value")?;
                let frac: f64 = v.parse().map_err(|e| format!("bad --churn value: {e}"))?;
                if !(frac > 0.0 && frac <= 1.0) {
                    return Err(format!("--churn must be in (0, 1], got `{v}`"));
                }
                opts.churn = Some(frac);
            }
            "--duration" => {
                let v = it.next().ok_or("--duration needs a value")?;
                opts.duration = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --duration value: {e}"))?
                    .max(0.1);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    if opts.addr.is_none() {
        opts.spawn = true;
    }
    if opts.churn.is_some() && opts.open_loop.is_some() {
        return Err("--churn is closed-loop only (drop --open-loop)".to_string());
    }
    Ok(opts)
}

/// One request line of the deterministic mix, by global request index.
fn mix_line(i: u64, scale: u32, deadline_every: u64) -> String {
    if i % deadline_every == deadline_every - 1 {
        // A guaranteed result-cache miss (unique seed) with a 1 ms deadline:
        // scale-14 Louvain cannot finish that fast, so this exercises the
        // cooperative-cancellation path and returns `timed_out:true`.
        return format!(
            "{{\"kernel\":\"louvain\",\"graph\":{{\"rmat\":{{\"scale\":{scale},\"seed\":3}}}},\
             \"seed\":{},\"deadline_ms\":1,\"id\":\"dl-{i}\"}}",
            100_000 + i
        );
    }
    let kernel = match i % 3 {
        0 => "color",
        1 => "louvain",
        _ => "labelprop",
    };
    // Rotate over a handful of seeds so the result cache sees repeats.
    format!(
        "{{\"kernel\":\"{kernel}\",\"graph\":{{\"rmat\":{{\"scale\":{scale},\"seed\":3}}}},\
         \"seed\":{},\"id\":\"m-{i}\"}}",
        i % 4
    )
}

/// The canonical spec of the shared session graph that every `update`
/// frame of the churn mix mutates. Seed 9 keeps it disjoint from the mix
/// and calibration graphs, so plain-run result-cache reconciliation is
/// unaffected by the moving epoch.
fn session_graph(scale: u32) -> String {
    format!("rmat:scale={scale},ef=8,seed=9")
}

/// One request line of the churn mix: every `inv`-th request is a v2
/// `update` frame (one random insertion + one random deletion — deleting
/// an absent edge is a documented no-op, so the stream needs no
/// bookkeeping); everything else is the ordinary v1 mix, deadline slots
/// included. Returns the line and whether it is an update frame.
fn churn_line(i: u64, scale: u32, inv: u64, deadline_every: u64) -> (String, bool) {
    if !i.is_multiple_of(inv) {
        return (mix_line(i, scale, deadline_every), false);
    }
    let n = 1u64 << scale;
    let mut x = i
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    let mut next = |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let (au, av, du, dv) = (next(n), next(n), next(n), next(n));
    let av = if av == au { (av + 1) % n } else { av };
    let dv = if dv == du { (dv + 1) % n } else { dv };
    (
        format!(
            "{{\"v\":2,\"req\":{{\"kernel\":\"color\",\"graph\":\"{}\",\
             \"update\":{{\"add\":[[{au},{av}]],\"del\":[[{du},{dv}]]}},\"id\":\"u-{i}\"}}}}",
            session_graph(scale)
        ),
        true,
    )
}

/// One protocol-v2 open-loop request line. The graph seed rotates over four
/// distinct specs so traffic spreads across shards, and the request seed is
/// unique so every admitted request costs a real kernel execution (no
/// result-cache hits, no coalescing — the measurement wants real work).
fn open_line(i: u64, scale: u32) -> String {
    format!(
        "{{\"v\":2,\"req\":{{\"kernel\":\"labelprop\",\
         \"graph\":\"rmat:scale={scale},ef=8,seed={}\",\
         \"seed\":{},\"id\":\"o-{i}\"}}}}",
        i % 4,
        500_000 + i
    )
}

/// Sends one line, reads one line. `Err` means transport failure.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) => Err("connection closed".to_string()),
        Ok(_) => Ok(response),
        Err(e) => Err(format!("read: {e}")),
    }
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// What one response line was, from the client's point of view.
#[derive(PartialEq)]
enum Class {
    /// A successful result — retry loop done.
    Done,
    /// `queue_full` backpressure — retryable (closed loop only).
    Shed,
    /// `shutting_down` — give up on this request.
    Rejected,
    /// Anything else — a protocol bug.
    Error,
}

/// Classifies one response line into the tally; records latency on success.
fn account(response: &str, latency: Duration, tally: &Tally, hist: &Histogram) -> Class {
    let Ok(v) = gp_serve::json::parse(response.trim()) else {
        tally.protocol_errors.fetch_add(1, Ordering::SeqCst);
        eprintln!("unparseable response: {}", response.trim());
        return Class::Error;
    };
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            tally.ok.fetch_add(1, Ordering::SeqCst);
            hist.record(latency);
            // Served update frames echo what the batch actually changed;
            // summing the echoes reconciles exactly against the server's
            // streaming counters (duplicate adds / absent dels are no-ops
            // on both sides).
            if let Some(added) = v.get("applied_add").and_then(Json::as_u64) {
                tally.updates.fetch_add(1, Ordering::SeqCst);
                tally.edges_added.fetch_add(added, Ordering::SeqCst);
                let deleted = v.get("applied_del").and_then(Json::as_u64).unwrap_or(0);
                tally.edges_deleted.fetch_add(deleted, Ordering::SeqCst);
            }
            if v.get("cached").and_then(Json::as_bool) == Some(true) {
                tally.cached.fetch_add(1, Ordering::SeqCst);
            }
            if v.get("coalesced").and_then(Json::as_bool) == Some(true) {
                tally.coalesced.fetch_add(1, Ordering::SeqCst);
            }
            if v.get("timed_out").and_then(Json::as_bool) == Some(true) {
                tally.timed_out.fetch_add(1, Ordering::SeqCst);
            }
            Class::Done
        }
        Some(false) => match v.get("error").and_then(Json::as_str) {
            Some("queue_full") => {
                tally.shed.fetch_add(1, Ordering::SeqCst);
                Class::Shed
            }
            Some("shutting_down") => {
                tally.rejected.fetch_add(1, Ordering::SeqCst);
                Class::Rejected
            }
            other => {
                tally.protocol_errors.fetch_add(1, Ordering::SeqCst);
                eprintln!("unexpected refusal {other:?}: {}", response.trim());
                Class::Error
            }
        },
        None => {
            tally.protocol_errors.fetch_add(1, Ordering::SeqCst);
            eprintln!("response without `ok`: {}", response.trim());
            Class::Error
        }
    }
}

/// The main closed-loop phase: `clients` threads pull global indices off a
/// shared counter until `requests` have been sent. Returns per-class
/// latency snapshots: plain runs and update frames separately (the update
/// one is empty without `--churn`).
fn run_mix(
    addr: &str,
    opts: &Options,
    tally: &Arc<Tally>,
) -> Result<(HistogramSnapshot, HistogramSnapshot), String> {
    let next = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicUsize::new(0));
    // `--churn f` sends every round(1/f)-th request as an update frame.
    let churn_inv = opts.churn.map(|f| ((1.0 / f).round() as u64).max(1));
    let mut handles = Vec::new();
    for c in 0..opts.clients {
        let addr = addr.to_string();
        let next = Arc::clone(&next);
        let tally = Arc::clone(tally);
        let failures = Arc::clone(&failures);
        let (requests, scale, deadline_every) = (opts.requests, opts.scale, opts.deadline_every);
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-{c}"))
                .spawn(move || {
                    let run_hist = Histogram::new();
                    let update_hist = Histogram::new();
                    let Ok((mut stream, mut reader)) = connect(&addr) else {
                        failures.fetch_add(1, Ordering::SeqCst);
                        return (run_hist.snapshot(), update_hist.snapshot());
                    };
                    'requests: loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= requests {
                            break;
                        }
                        let (line, is_update) = match churn_inv {
                            Some(inv) => churn_line(i, scale, inv, deadline_every),
                            None => (mix_line(i, scale, deadline_every), false),
                        };
                        let hist = if is_update { &update_hist } else { &run_hist };
                        // Closed-loop with retry-on-shed: `queue_full` is
                        // backpressure, so back off (capped exponential) and
                        // resend until the request lands or the server
                        // starts draining. Every wire attempt counts once
                        // as `sent` and its response once as ok/shed/…, so
                        // client and server tallies stay in exact agreement
                        // even when a request takes several attempts.
                        let mut backoff = Duration::from_millis(1);
                        loop {
                            tally.sent.fetch_add(1, Ordering::SeqCst);
                            let started = Instant::now();
                            match roundtrip(&mut stream, &mut reader, &line) {
                                Ok(response) => {
                                    match account(&response, started.elapsed(), &tally, hist) {
                                        Class::Shed => {
                                            std::thread::sleep(backoff);
                                            backoff = (backoff * 2).min(Duration::from_millis(64));
                                        }
                                        Class::Done | Class::Rejected | Class::Error => break,
                                    }
                                }
                                Err(e) => {
                                    eprintln!("client {c}: {e}");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                    break 'requests;
                                }
                            }
                        }
                    }
                    (run_hist.snapshot(), update_hist.snapshot())
                })
                .map_err(|e| e.to_string())?,
        );
    }
    let mut merged: Option<(HistogramSnapshot, HistogramSnapshot)> = None;
    for h in handles {
        let (runs, updates) = h.join().map_err(|_| "client thread panicked".to_string())?;
        match &mut merged {
            Some((m_runs, m_updates)) => {
                m_runs.merge(&runs);
                m_updates.merge(&updates);
            }
            None => merged = Some((runs, updates)),
        }
    }
    if failures.load(Ordering::SeqCst) > 0 {
        return Err(format!(
            "{} client(s) hit transport failures",
            failures.load(Ordering::SeqCst)
        ));
    }
    merged.ok_or_else(|| "no clients ran".to_string())
}

/// Materializes the churn mix's session graph with one plain v2 run, so
/// the first update frame never races an unmaterialized graph. Flows
/// through the normal tally (the latency stays out of the mix histograms,
/// like the burst).
fn materialize_session(addr: &str, scale: u32, tally: &Tally) -> Result<(), String> {
    let (mut stream, mut reader) = connect(addr)?;
    let line = format!(
        "{{\"v\":2,\"req\":{{\"kernel\":\"color\",\"graph\":\"{}\",\"id\":\"mat-0\"}}}}",
        session_graph(scale)
    );
    tally.sent.fetch_add(1, Ordering::SeqCst);
    let started = Instant::now();
    let response = roundtrip(&mut stream, &mut reader, &line)?;
    let hist = Histogram::new();
    if account(&response, started.elapsed(), tally, &hist) != Class::Done {
        return Err(format!("session materialization failed: {}", response.trim()));
    }
    Ok(())
}

/// The shed burst: `burst` connections release a long `sleep` each at the
/// same instant. With capacity `workers + queue_depth`, everything beyond
/// that must come back as `queue_full`.
fn run_burst(addr: &str, burst: usize, tally: &Arc<Tally>) -> Result<(), String> {
    let barrier = Arc::new(Barrier::new(burst));
    let mut handles = Vec::new();
    for b in 0..burst {
        let addr = addr.to_string();
        let barrier = Arc::clone(&barrier);
        let tally = Arc::clone(tally);
        handles.push(
            std::thread::Builder::new()
                .name(format!("burst-{b}"))
                .spawn(move || -> Result<(), String> {
                    let (mut stream, mut reader) = connect(&addr)?;
                    let line = format!("{{\"kernel\":\"sleep\",\"ms\":120,\"id\":\"b-{b}\"}}");
                    barrier.wait();
                    tally.sent.fetch_add(1, Ordering::SeqCst);
                    let started = Instant::now();
                    let hist = Histogram::new(); // burst latencies stay out of the mix histogram
                    let response = roundtrip(&mut stream, &mut reader, &line)?;
                    account(&response, started.elapsed(), &tally, &hist);
                    Ok(())
                })
                .map_err(|e| e.to_string())?,
        );
    }
    for h in handles {
        h.join().map_err(|_| "burst thread panicked".to_string())??;
    }
    Ok(())
}

/// Deterministic xorshift64 PRNG — good enough for inter-arrival jitter,
/// and keeps the run reproducible.
struct XorShift64(u64);

impl XorShift64 {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in (0, 1] — never zero, so `ln` is always finite.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// One open-loop connection: the scheduler writes through `writer`, a
/// dedicated reader thread resolves responses against `pending` (id → send
/// instant) to measure latency without any lock-step coupling.
struct OpenConn {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<String, Instant>>,
}

/// Measures the mean service time of a scale-`scale` labelprop request by
/// sending a few sequentially (the first warms the graph cache and is
/// excluded). Calibration requests flow through the normal tally so the
/// final reconciliation still balances.
fn calibrate(addr: &str, scale: u32, tally: &Tally) -> Result<f64, String> {
    let (mut stream, mut reader) = connect(addr)?;
    let hist = Histogram::new();
    let mut total = Duration::ZERO;
    let mut measured = 0u32;
    for i in 0..6u64 {
        let line = format!(
            "{{\"v\":2,\"req\":{{\"kernel\":\"labelprop\",\
             \"graph\":\"rmat:scale={scale},ef=8,seed={}\",\
             \"seed\":{},\"id\":\"cal-{i}\"}}}}",
            i % 4,
            900_000 + i
        );
        tally.sent.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let response = roundtrip(&mut stream, &mut reader, &line)?;
        let latency = started.elapsed();
        if account(&response, latency, tally, &hist) != Class::Done {
            return Err(format!("calibration request failed: {}", response.trim()));
        }
        if i > 0 {
            total += latency;
            measured += 1;
        }
    }
    Ok((total / measured).as_secs_f64())
}

/// The open-loop phase: a Poisson scheduler fires requests at `rate` req/s
/// round-robin across `clients` connections for `duration` seconds, reader
/// threads account responses as they arrive, then outstanding requests are
/// drained. Returns the latency snapshot, the offered rate actually
/// achieved by the scheduler, and the wall-clock measurement window.
fn run_open(
    addr: &str,
    opts: &Options,
    rate: f64,
    tally: &Arc<Tally>,
) -> Result<(HistogramSnapshot, f64, f64), String> {
    let hist = Arc::new(Histogram::new());
    let done = Arc::new(AtomicBool::new(false));
    let failures = Arc::new(AtomicUsize::new(0));
    let mut conns = Vec::new();
    let mut readers = Vec::new();
    for c in 0..opts.clients {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let conn = Arc::new(OpenConn {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
        });
        conns.push(Arc::clone(&conn));
        let tally = Arc::clone(tally);
        let hist = Arc::clone(&hist);
        let done = Arc::clone(&done);
        let failures = Arc::clone(&failures);
        readers.push(
            std::thread::Builder::new()
                .name(format!("open-reader-{c}"))
                .spawn(move || {
                    let mut reader = BufReader::new(read_half);
                    let mut response = String::new();
                    loop {
                        response.clear();
                        match reader.read_line(&mut response) {
                            Ok(0) => break, // stream shut down after the drain
                            Ok(_) => {}
                            Err(_) if done.load(Ordering::SeqCst) => break,
                            Err(e) => {
                                eprintln!("open-reader-{c}: read: {e}");
                                failures.fetch_add(1, Ordering::SeqCst);
                                break;
                            }
                        }
                        // Latency runs from the instant the scheduler
                        // stamped this id, not from any read-side clock.
                        let sent_at = gp_serve::json::parse(response.trim())
                            .ok()
                            .and_then(|v| v.get("id").and_then(Json::as_str).map(String::from))
                            .and_then(|id| conn.pending.lock().unwrap().remove(&id));
                        let Some(sent_at) = sent_at else {
                            tally.protocol_errors.fetch_add(1, Ordering::SeqCst);
                            eprintln!("unmatched response: {}", response.trim());
                            continue;
                        };
                        account(&response, sent_at.elapsed(), &tally, &hist);
                    }
                })
                .map_err(|e| e.to_string())?,
        );
    }

    // Poisson scheduler: exponential inter-arrival gaps at the offered
    // rate. If the process falls behind schedule it sends immediately —
    // open-loop arrivals never wait for the server.
    let duration = Duration::from_secs_f64(opts.duration);
    let mut rng = XorShift64(0x9e37_79b9_7f4a_7c15);
    let started = Instant::now();
    let mut next = Duration::ZERO;
    let mut i = 0u64;
    while next < duration {
        let now = started.elapsed();
        if next > now {
            std::thread::sleep(next - now);
        }
        let conn = &conns[(i % conns.len() as u64) as usize];
        let line = open_line(i, opts.scale);
        conn.pending
            .lock()
            .unwrap()
            .insert(format!("o-{i}"), Instant::now());
        tally.sent.fetch_add(1, Ordering::SeqCst);
        {
            let mut w = conn.writer.lock().unwrap();
            w.write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
                .map_err(|e| format!("open-loop write: {e}"))?;
        }
        i += 1;
        next += Duration::from_secs_f64(-rng.next_unit().ln() / rate);
    }
    let offered_secs = started.elapsed().as_secs_f64();
    let offered_rate = i as f64 / offered_secs;

    // Drain: every in-flight id must resolve (served, shed, or rejected).
    // Bounded by queue capacity × service time, so 30 s is generous.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let outstanding: usize = conns.iter().map(|c| c.pending.lock().unwrap().len()).sum();
        if outstanding == 0 {
            break;
        }
        if Instant::now() > drain_deadline {
            return Err(format!("{outstanding} responses never arrived"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done.store(true, Ordering::SeqCst);
    for conn in &conns {
        let _ = conn.writer.lock().unwrap().shutdown(Shutdown::Both);
    }
    for r in readers {
        r.join().map_err(|_| "reader thread panicked".to_string())?;
    }
    if failures.load(Ordering::SeqCst) > 0 {
        return Err(format!(
            "{} reader(s) hit transport failures",
            failures.load(Ordering::SeqCst)
        ));
    }
    Ok((hist.snapshot(), offered_rate, started.elapsed().as_secs_f64()))
}

/// Pulls the server's `{"stats":true}` snapshot.
fn fetch_stats(addr: &str) -> Result<Json, String> {
    let (mut stream, mut reader) = connect(addr)?;
    let response = roundtrip(&mut stream, &mut reader, r#"{"stats":true}"#)?;
    gp_serve::json::parse(response.trim()).map_err(|e| format!("stats response: {e}"))
}

fn stat_of(stats: &Json, key: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn cache_stat_of(stats: &Json, cache: &str, key: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(cache))
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Compares server counters with client-side observations, exactly. Only
/// meaningful for `--spawn`, where this process is the server's sole
/// client. Loadgen never sends a malformed line, so the server's `errors`
/// plane must stay at zero; every cached / coalesced response is flagged on
/// the wire, so those reconcile one-for-one too.
fn reconcile(stats: &Json, tally: &Tally) -> Result<(), String> {
    let pairs = [
        ("received", stat_of(stats, "received"), tally.get(&tally.sent)),
        ("served", stat_of(stats, "served"), tally.get(&tally.ok)),
        ("shed", stat_of(stats, "shed"), tally.get(&tally.shed)),
        (
            "timed_out",
            stat_of(stats, "timed_out"),
            tally.get(&tally.timed_out),
        ),
        (
            "rejected",
            stat_of(stats, "rejected"),
            tally.get(&tally.rejected),
        ),
        (
            "coalesced",
            stat_of(stats, "coalesced"),
            tally.get(&tally.coalesced),
        ),
        ("errors", stat_of(stats, "errors"), 0),
        (
            "result_cache.hits",
            cache_stat_of(stats, "result_cache", "hits"),
            tally.get(&tally.cached),
        ),
        // Streaming counters (all zero without --churn): served updates,
        // and the exact sums of applied mutations echoed on the wire.
        ("updates", stat_of(stats, "updates"), tally.get(&tally.updates)),
        (
            "edges_added",
            stat_of(stats, "edges_added"),
            tally.get(&tally.edges_added),
        ),
        (
            "edges_deleted",
            stat_of(stats, "edges_deleted"),
            tally.get(&tally.edges_deleted),
        ),
    ];
    let mut drift = Vec::new();
    for (key, server_side, client_side) in pairs {
        if server_side != client_side {
            drift.push(format!("{key}: server={server_side} client={client_side}"));
        }
    }
    if drift.is_empty() {
        Ok(())
    } else {
        Err(format!("stats drift — {}", drift.join(", ")))
    }
}

fn print_summary(hist: &HistogramSnapshot, tally: &Tally, stats: &Json) {
    println!(
        "latency ms: p50 {:.2}  p99 {:.2}  p999 {:.2}  mean {:.2}",
        hist.quantile_us(0.50) / 1000.0,
        hist.quantile_us(0.99) / 1000.0,
        hist.quantile_us(0.999) / 1000.0,
        hist.mean_us() / 1000.0
    );
    println!(
        "client counts: sent {} ok {} cached {} coalesced {} timed_out {} shed {} rejected {} \
         protocol_errors {}",
        tally.get(&tally.sent),
        tally.get(&tally.ok),
        tally.get(&tally.cached),
        tally.get(&tally.coalesced),
        tally.get(&tally.timed_out),
        tally.get(&tally.shed),
        tally.get(&tally.rejected),
        tally.get(&tally.protocol_errors),
    );
    println!(
        "server stats: received {} served {} shed {} timed_out {} coalesced {} graph_hits {} \
         result_hits {}",
        stat_of(stats, "received"),
        stat_of(stats, "served"),
        stat_of(stats, "shed"),
        stat_of(stats, "timed_out"),
        stat_of(stats, "coalesced"),
        cache_stat_of(stats, "graph_cache", "hits"),
        cache_stat_of(stats, "result_cache", "hits"),
    );
}

/// Checks shared by both modes: zero protocol errors, the client-side
/// accounting identity, the per-shard stats plane, and (for spawned
/// servers) exact reconciliation.
fn check_common(opts: &Options, stats: &Json, tally: &Tally, problems: &mut Vec<String>) {
    if tally.get(&tally.protocol_errors) > 0 {
        problems.push(format!(
            "{} protocol errors",
            tally.get(&tally.protocol_errors)
        ));
    }
    let responses = tally.get(&tally.ok)
        + tally.get(&tally.shed)
        + tally.get(&tally.rejected)
        + tally.get(&tally.protocol_errors);
    if tally.get(&tally.sent) != responses {
        problems.push(format!(
            "client identity broken: sent {} != ok+shed+rejected+errors {}",
            tally.get(&tally.sent),
            responses
        ));
    }
    if opts.spawn {
        if let Err(e) = reconcile(stats, tally) {
            problems.push(e);
        }
        match stats.get("shards") {
            Some(Json::Arr(shards)) if shards.len() == opts.shards => {}
            Some(Json::Arr(shards)) => problems.push(format!(
                "stats probe reports {} shard(s), expected {}",
                shards.len(),
                opts.shards
            )),
            _ => problems.push("stats probe has no per-shard breakdown".to_string()),
        }
    }
}

fn run() -> Result<(), String> {
    let opts = parse_args(std::env::args().skip(1))?;
    let server = if opts.spawn {
        Some(
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: opts.workers,
                shards: opts.shards,
                queue_depth: opts.queue_depth,
                ..Default::default()
            })
            .map_err(|e| format!("spawn server: {e}"))?,
        )
    } else {
        None
    };
    let addr = match (&server, &opts.addr) {
        (Some(s), _) => s.local_addr().to_string(),
        (None, Some(a)) => a.clone(),
        (None, None) => unreachable!("parse_args forces spawn without --addr"),
    };
    println!(
        "target {addr} ({}), {} clients, rmat scale {}, {} shard(s)",
        if opts.spawn { "spawned in-process" } else { "external" },
        opts.clients,
        opts.scale,
        opts.shards,
    );

    let tally = Arc::new(Tally::default());
    let mut problems = Vec::new();

    if let Some(rate_spec) = &opts.open_loop {
        // ---- open loop ----
        // `--workers` below the shard count is silently topped up by the
        // server (every shard gets at least one worker), so capacity
        // estimates use the effective count.
        let effective_workers = opts.workers.max(opts.shards);
        let (rate, factor) = match rate_spec {
            Rate::PerSec(r) => (*r, None),
            Rate::Multiple(f) => {
                let mean_secs = calibrate(&addr, opts.scale, &tally)?;
                let sustainable = effective_workers as f64 / mean_secs.max(1e-9);
                println!(
                    "calibrated: mean service {:.2} ms, sustainable ≈ {:.0} req/s, \
                     offering {:.1}x = {:.0} req/s",
                    mean_secs * 1000.0,
                    sustainable,
                    f,
                    f * sustainable
                );
                (f * sustainable, Some(*f))
            }
        };
        let (hist, offered, window_secs) = run_open(&addr, &opts, rate, &tally)?;
        let stats = fetch_stats(&addr)?;

        println!();
        println!(
            "open loop: offered {offered:.0} req/s (target {rate:.0}) for {:.1}s — achieved \
             {:.0} req/s, shed rate {:.1}%",
            opts.duration,
            tally.get(&tally.ok) as f64 / window_secs.max(1e-9),
            100.0 * tally.get(&tally.shed) as f64 / tally.get(&tally.sent).max(1) as f64,
        );
        print_summary(&hist, &tally, &stats);

        if factor.is_some_and(|f| f >= 2.0) && tally.get(&tally.shed) == 0 {
            problems.push("overload run produced no queue_full sheds".to_string());
        }
        check_common(&opts, &stats, &tally, &mut problems);
    } else {
        // ---- closed loop ----
        if opts.churn.is_some() {
            materialize_session(&addr, opts.scale, &tally)?;
        }
        let started = Instant::now();
        let (hist, update_hist) = run_mix(&addr, &opts, &tally)?;
        let mix_secs = started.elapsed().as_secs_f64();

        // Size the burst to overflow known capacity; skip entirely for
        // external servers unless the operator passed an explicit --burst.
        let burst = opts
            .burst
            .unwrap_or(if opts.spawn { opts.workers + opts.queue_depth + 6 } else { 0 });
        if burst > 0 {
            run_burst(&addr, burst, &tally)?;
        }

        let stats = fetch_stats(&addr)?;

        println!();
        println!(
            "mix: {} logical requests, {} wire attempts in {:.2}s — {:.0} ok/s",
            opts.requests,
            tally.get(&tally.sent),
            mix_secs,
            tally.get(&tally.ok) as f64 / mix_secs.max(1e-9)
        );
        if opts.churn.is_some() {
            println!(
                "latency ms (update): p50 {:.2}  p99 {:.2}  p999 {:.2}  mean {:.2}  \
                 ({} served, +{} -{} edges)",
                update_hist.quantile_us(0.50) / 1000.0,
                update_hist.quantile_us(0.99) / 1000.0,
                update_hist.quantile_us(0.999) / 1000.0,
                update_hist.mean_us() / 1000.0,
                tally.get(&tally.updates),
                tally.get(&tally.edges_added),
                tally.get(&tally.edges_deleted),
            );
        }
        print_summary(&hist, &tally, &stats);

        if opts.spawn {
            if tally.get(&tally.timed_out) == 0 {
                problems.push("no timed_out responses observed".to_string());
            }
            if burst > 0 && tally.get(&tally.shed) == 0 {
                problems.push("burst produced no queue_full sheds".to_string());
            }
            if opts.churn.is_some() && tally.get(&tally.updates) == 0 {
                problems.push("churn mix produced no served update frames".to_string());
            }
        }
        check_common(&opts, &stats, &tally, &mut problems);
    }

    if let Some(server) = server {
        server.shutdown();
    }
    if problems.is_empty() {
        println!("loadgen OK");
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gp-loadgen: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn removed_locality_flags_are_unknown_arguments() {
        for flag in ["--block", "--bucket"] {
            let err = parse(&[flag, "off"]).err().expect("flag must be refused");
            assert!(err.contains(&format!("unknown argument `{flag}`")), "{err}");
        }
        assert!(parse(&["--clients", "2"]).is_ok());
    }

    #[test]
    fn open_loop_lines_are_valid_v2_requests() {
        let line = open_line(3, 10);
        assert!(gp_serve::protocol::parse_line(&line).is_ok(), "{line}");
    }
}
