//! `serve-open`: open-loop traffic against an in-process `gp_serve::Server`
//! (2 workers, 2 shards).
//!
//! Arrivals follow a Poisson schedule at the fixed rate [`RATE_RPS`],
//! precomputed from the workload seed before the window opens and never
//! recalibrated, so a faster server is offered the same load. A run whose
//! generator fell more than [`LATE_LIMIT_MS`] behind at p99, or whose
//! admission queues kept growing, is invalid rather than slow. The load comes
//! from one thread per connection, `nproc` connections in all; each thread
//! writes its share of the schedule at the due times (requests pipeline on
//! the connection) and reads responses in between. Latency runs from a
//! request's due time to its response.
//!
//! Traffic: library-default specs (parallel, auto backend) on R-MAT graphs
//! of 4k vertices, no deadlines:
//! * warm (75%): a graph the setup put in a graph cache, with a unique
//!   kernel seed, so the result cache misses and the kernel runs;
//! * repeat (15%): one of a few fixed requests, so the result cache hits or
//!   the request coalesces;
//! * cold (10%): coloring on a never-seen R-MAT, built by the shard's
//!   builder.
//!
//! One graph family and the same slots in every block of the schedule (see
//! [`mix_block`]) give each kernel one latency mode, and the percentiles sit
//! inside modes, where the draw of the schedule cannot make them jump.
//!
//! Every response is checked, and the client's counts are reconciled with
//! the server's final stats probe.

use crate::check::Tally;
use crate::env::nproc;
use crate::inputs::{graph_spec, Rng};
use crate::{stats, Outcome, RunCfg};
use gp_serve::json::{parse, Json};
use gp_serve::poller::{Interest, Poller};
use gp_serve::{GraphSpec, Ring, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Offered load in requests per second. Fixed: a change to the program
/// never changes the load it is offered. On 2 CPUs of an AVX-512 Xeon the
/// seed commit sustained about 230 req/s of an earlier four-family mix on
/// a quiet host (at 200 req/s p99 reached 90 ms, at 250 req/s the shards
/// shed); while other tenants stole CPU, 140 req/s (60%) already shed, and
/// at 100 req/s the latency quartiles of ten seeds spread 30-40% when the
/// host slowed by a fifth, because queueing amplifies the host's speed.
/// 60 req/s (about 25% of quiet capacity) keeps the queues short in both
/// conditions.
pub const RATE_RPS: f64 = 60.0;
/// Latency limit for `items_per_s` (goodput): ok responses within it count.
const LIMIT_MS: f64 = 100.0;
/// A run whose generator sent its p99 request later than this after the
/// due time is invalid, not slow.
const LATE_LIMIT_MS: f64 = 50.0;
const WORKERS: usize = 2;
const SHARDS: usize = 2;
/// log2 of the vertex count of the warm graphs.
const SCALE: u32 = 12;
/// log2 of the vertex count of the cold graphs: small enough that building
/// one keeps a cold request below label propagation's latency (at
/// [`SCALE`] the build alone took twice a warm Louvain request and cold
/// requests held the 90th percentile on the edge of their mode).
const COLD_SCALE: u32 = 10;
const REPEATS: usize = 6;
/// Warm graphs on each shard.
const WARM_PER_SHARD: usize = 4;
/// Setup is repeated this many times; `setup_s` is the median.
const SETUPS: usize = 5;
/// How long the window may take to drain after the last due time.
const DRAIN: Duration = Duration::from_secs(30);
const KERNELS: [&str; 3] = ["color", "louvain", "labelprop"];
const CLASSES: [&str; 3] = ["warm", "repeat", "cold"];

/// A generator seed below 2^52 (it travels as a JSON number) derived from
/// the workload seed and `salt`.
fn small_seed(seed: u64, salt: u64) -> u64 {
    ((seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 12) ^ salt) & ((1 << 52) - 1)
}

/// The warm graphs: [`WARM_PER_SHARD`] R-MATs on each shard (the ring routes
/// by graph key), graph `i` on shard `i % SHARDS`, so every seed loads the
/// shards evenly.
fn warm_graphs(seed: u64) -> Vec<GraphSpec> {
    let ring = Ring::new(SHARDS);
    let mut out = Vec::new();
    for i in 0..WARM_PER_SHARD as u64 {
        for shard in 0..SHARDS {
            let spec = (0u64..)
                .map(|salt| graph_spec(0, small_seed(seed, i << 32 | salt), SCALE))
                .find(|g| ring.shard_of(&g.canonical_key()) == shard)
                .expect("some seed lands on every shard");
            out.push(spec);
        }
    }
    out
}

fn request_line(kernel: &str, graph: &GraphSpec, kernel_seed: u64, id: usize) -> String {
    format!(
        "{{\"v\":2,\"req\":{{\"kernel\":\"{kernel}\",\"graph\":\"{}\",\"seed\":{kernel_seed},\"id\":\"r{id}\"}}}}\n",
        graph.canonical_key()
    )
}

/// One scheduled request.
struct Arrival {
    due: Duration,
    class: usize,
    kernel: usize,
    line: String,
}

/// Warm requests per block of the mix, as `(kernel, count)`. Repeats,
/// coloring and cold builds are the fastest requests, then label
/// propagation, then Louvain; these shares put the median inside label
/// propagation's mode and the 90th percentile inside Louvain's.
const WARM: [(usize, usize); 3] = [(0, 3), (1, 4), (2, 8)];
/// Requests per block: 15 warm, 3 repeat, 2 cold.
const BLOCK: usize = 20;

/// One block of the mix, as `(class, kernel, graph)` slots, `graph`
/// indexing [`warm_graphs`]. Every block holds the same slots, each warm
/// kernel rotating over the warm graphs from block to block, shuffled on
/// its own: runs differ only in order, generator seeds and arrival times.
fn mix_block(rng: &mut Rng, block: usize) -> Vec<(usize, usize, usize)> {
    let graphs = SHARDS * WARM_PER_SHARD;
    let mut slots = Vec::with_capacity(BLOCK);
    for (kernel, n) in WARM {
        slots.extend((0..n).map(|c| (0, kernel, (block * n + c) % graphs)));
    }
    slots.extend((0..3).map(|j| {
        let r = (3 * block + j) % REPEATS;
        (1, r % 3, r)
    }));
    slots.extend([(2, 0, 0); 2]);
    for i in (1..slots.len()).rev() {
        slots.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    slots
}

/// The precomputed arrival schedule for one window: a Poisson process
/// conditioned on its count, i.e. `RATE_RPS × seconds` arrivals at sorted
/// uniform times, so every run offers exactly the same number of requests.
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
    let warm = warm_graphs(seed);
    let count = (RATE_RPS * seconds).round() as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let mut block = Vec::new();
    times
        .into_iter()
        .enumerate()
        .map(|(id, t)| {
            if block.is_empty() {
                block = mix_block(&mut rng, id / BLOCK);
            }
            let (class, kernel, graph) = block.pop().expect("refilled above");
            let line = match class {
                0 => request_line(KERNELS[kernel], &warm[graph], 1_000_000 + id as u64, id),
                1 => request_line(KERNELS[kernel], &warm[graph], 7, id),
                _ => {
                    let g = graph_spec(
                        0,
                        small_seed(seed, 0x00c0_1d00_0000 + id as u64),
                        COLD_SCALE,
                    );
                    request_line(KERNELS[kernel], &g, 3, id)
                }
            };
            Arrival {
                due: Duration::from_secs_f64(t),
                class,
                kernel,
                line,
            }
        })
        .collect()
}

/// The fields of one response the benchmark reads.
#[derive(Debug, Default, Clone)]
struct Response {
    ok: bool,
    error: Option<String>,
    kernel: String,
    graph: String,
    backend: String,
    exec_ms: f64,
    rounds: f64,
    cached: bool,
    coalesced: bool,
    timed_out: bool,
    modularity: Option<f64>,
    num_colors: Option<f64>,
    communities: Option<f64>,
}

fn parse_response(line: &str) -> Result<(usize, Response), String> {
    let v = parse(line).map_err(|e| format!("unparseable response `{line}`: {e}"))?;
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .and_then(|s| s.strip_prefix('r'))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("response without a request id: `{line}`"))?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64);
    let flag = |k: &str| v.get(k).and_then(Json::as_bool) == Some(true);
    let text = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    Ok((
        id,
        Response {
            ok: flag("ok"),
            error: v.get("error").and_then(Json::as_str).map(String::from),
            kernel: text("kernel"),
            graph: text("graph"),
            backend: text("backend"),
            exec_ms: num("exec_ms").unwrap_or(0.0),
            rounds: num("rounds").unwrap_or(0.0),
            cached: flag("cached"),
            coalesced: flag("coalesced"),
            timed_out: flag("timed_out"),
            modularity: num("modularity"),
            num_colors: num("num_colors"),
            communities: num("communities"),
        },
    ))
}

/// Checks one response against the request it answers.
fn check_response(r: &Response, kernel: &str) -> Result<(), String> {
    if !r.ok {
        return Err(format!(
            "request refused: {}",
            r.error.as_deref().unwrap_or("no error field")
        ));
    }
    if r.timed_out {
        return Err("request timed out without a deadline".to_string());
    }
    if r.kernel != kernel {
        return Err(format!("asked for {kernel}, response says {}", r.kernel));
    }
    let valid = match kernel {
        "color" => r.num_colors.is_some_and(|c| c >= 1.0),
        "louvain" => r
            .modularity
            .is_some_and(|q| q.is_finite() && (-0.5..=1.0).contains(&q)),
        _ => r.communities.is_some_and(|c| c >= 1.0),
    };
    if valid {
        Ok(())
    } else {
        Err(format!("{kernel} response carries no valid result"))
    }
}

/// One request as the client saw it.
#[derive(Default, Clone)]
struct Record {
    sent: Option<Instant>,
    recv: Option<Instant>,
    response: Option<Result<Response, String>>,
}

/// One connection's share of the schedule: write each request at its due
/// time, read responses in between, until everything is answered.
///
/// Waits use the service's own readiness poller (epoll timeouts are
/// high-resolution; socket read timeouts round up to scheduler ticks, which
/// made the generator several milliseconds late) and a short sleep for the
/// last millisecond before a due time.
fn drive(
    addr: SocketAddr,
    arrivals: &[Arrival],
    mine: &[usize],
    start: Instant,
) -> Result<Vec<(usize, Record)>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    poller
        .register(stream.as_raw_fd(), 0, Interest::READ)
        .map_err(|e| format!("poller: {e}"))?;
    let mut events = Vec::new();
    let mut records: HashMap<usize, Record> = HashMap::new();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut next = 0;
    let mut answered = 0;
    let last_due = start + mine.last().map_or(Duration::ZERO, |&i| arrivals[i].due);
    while answered < mine.len() {
        let now = Instant::now();
        let wait = match mine.get(next) {
            Some(&i) if start + arrivals[i].due <= now => {
                write_line(&mut stream, arrivals[i].line.as_bytes())?;
                records.entry(i).or_default().sent = Some(Instant::now());
                next += 1;
                continue;
            }
            Some(&i) => start + arrivals[i].due - now,
            None if now > last_due + DRAIN => {
                return Err(format!("{} responses never arrived", mine.len() - answered))
            }
            None => Duration::from_millis(50),
        };
        if wait < Duration::from_millis(1) {
            std::thread::sleep(wait);
        } else {
            let ms = i32::try_from(wait.as_millis() - 1).unwrap_or(i32::MAX);
            poller
                .wait(&mut events, ms)
                .map_err(|e| format!("poll: {e}"))?;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let recv = Instant::now();
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let (id, response) = parse_response(String::from_utf8_lossy(&line).trim())?;
            let rec = records.entry(id).or_default();
            if rec.sent.is_none() || rec.response.is_some() {
                return Err(format!("unexpected response for request {id}"));
            }
            rec.recv = Some(recv);
            rec.response = Some(Ok(response));
            answered += 1;
        }
    }
    Ok(records.into_iter().collect())
}

/// Writes a whole line on a nonblocking socket.
fn write_line(stream: &mut TcpStream, mut line: &[u8]) -> Result<(), String> {
    while !line.is_empty() {
        match stream.write(line) {
            Ok(n) => line = &line[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::yield_now()
            }
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

/// One request/response on a fresh blocking connection.
fn roundtrip(addr: SocketAddr, line: &str) -> Result<Json, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.write_all(line.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while s.read(&mut byte).map_err(|e| format!("read: {e}"))? == 1 && byte[0] != b'\n' {
        buf.push(byte[0]);
    }
    parse(String::from_utf8_lossy(&buf).trim()).map_err(|e| format!("bad response: {e}"))
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats.get("stats");
    for k in path {
        v = v.and_then(|x| x.get(k));
    }
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Starts a server and loads every warm graph into its graph cache.
/// Returns the server and the number of warm-up requests it served.
fn start_server(seed: u64) -> Result<(Server, u64), String> {
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        shards: SHARDS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let warm = warm_graphs(seed);
    for (j, g) in warm.iter().enumerate() {
        let v = roundtrip(addr, &request_line("color", g, 5, 9_000_000 + j))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("warm-up request failed: {v}"));
        }
    }
    Ok((server, warm.len() as u64))
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.settings
        .push(("serve_open.rate_rps", RATE_RPS.to_string()));
    out.settings
        .push(("serve_open.limit_ms", LIMIT_MS.to_string()));

    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (server, warmups) = start_server(cfg.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            server.shutdown();
        } else {
            kept = Some((server, warmups));
        }
    }
    let (server, warmups) = kept.expect("SETUPS > 0");
    out.e2e.put("setup_s", stats::median(&setups), "s");
    let addr = server.local_addr();

    let arrivals = schedule(cfg.seed, cfg.seconds);
    let conns = nproc().max(1);
    let shares: Vec<Vec<usize>> = (0..conns)
        .map(|c| (c..arrivals.len()).step_by(conns).collect())
        .collect();
    let done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let (results, depths) = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .iter()
            .map(|mine| {
                let arrivals = &arrivals;
                s.spawn(move || drive(addr, arrivals, mine, start))
            })
            .collect();
        // The monitor: queue depth through the window.
        let done = &done;
        let monitor = s.spawn(move || {
            let mut depths = Vec::new();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(250));
                if let Ok(v) = roundtrip(addr, "{\"stats\":true}\n") {
                    depths.push(stat(&v, &["queue_depth"]));
                }
            }
            depths
        });
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect();
        done.store(true, Ordering::SeqCst);
        (results, monitor.join().unwrap_or_default())
    });
    let mut records = vec![Record::default(); arrivals.len()];
    for r in results {
        match r {
            Ok(rs) => rs.into_iter().for_each(|(i, rec)| records[i] = rec),
            Err(e) => out.invalid.push(e),
        }
    }
    let probe = roundtrip(addr, "{\"stats\":true}\n")?;
    server.shutdown();

    let mut tally = Tally::default();
    evaluate(&mut out, &mut tally, &arrivals, &records, start, cfg);
    reconcile(&mut tally, &probe, &records, warmups);
    let depth_max = depths.iter().copied().fold(0.0, f64::max);
    let quarter = (depths.len() / 4).max(1);
    let early = stats::mean(&depths[..quarter.min(depths.len())]);
    let late = stats::mean(&depths[depths.len().saturating_sub(quarter)..]);
    // Growing: the last quarter of the window holds a quarter of the
    // admission capacity and twice what the first quarter held.
    let capacity = (SHARDS * ServeConfig::default().queue_depth) as f64;
    if late > capacity / 4.0 && late > 2.0 * early {
        out.invalid.push(format!(
            "queue depth grew from {early:.1} to {late:.1}: the server is overloaded"
        ));
    }
    if cfg.trace {
        let d = &mut out.detail;
        d.put("serve.queue_depth.max", depth_max, "count");
        d.put(
            "serve.graph_hit_frac",
            ratio(
                stat(&probe, &["graph_cache", "hits"]),
                stat(&probe, &["graph_cache", "misses"]),
            ),
            "ratio",
        );
        d.put(
            "serve.result_hit_frac",
            ratio(
                stat(&probe, &["result_cache", "hits"]),
                stat(&probe, &["result_cache", "misses"]),
            ),
            "ratio",
        );
        d.put("serve.coalesced", stat(&probe, &["coalesced"]), "count");
        d.put("serve.shed", stat(&probe, &["shed"]), "count");
    }
    out.tally = tally;
    Ok(out)
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Checks every response and computes the metrics.
fn evaluate(
    out: &mut Outcome,
    tally: &mut Tally,
    arrivals: &[Arrival],
    records: &[Record],
    start: Instant,
    cfg: &RunCfg,
) {
    let mut latency = Vec::new();
    let mut late = Vec::new();
    let mut good = 0usize;
    let mut solve: [Vec<f64>; 3] = Default::default();
    let (mut rounds, mut exec) = (Vec::new(), Vec::new());
    // Warm-class quality per graph, so each warm graph weighs the same
    // whatever the draw of the schedule.
    let mut quality: HashMap<String, (Vec<f64>, Vec<f64>)> = HashMap::new();
    let mut by_class: [(Vec<f64>, Vec<f64>); 3] = Default::default();
    let (mut sum_latency, mut sum_exec, mut sum_late) = (0.0, 0.0, 0.0);
    for (a, rec) in arrivals.iter().zip(records) {
        let kernel = KERNELS[a.kernel];
        let verdict = match (&rec.response, rec.sent, rec.recv) {
            (Some(Ok(r)), Some(sent), Some(recv)) => {
                check_response(r, kernel).map(|()| (r, sent, recv))
            }
            (Some(Err(e)), _, _) => Err(e.clone()),
            _ => Err(format!("request {kernel} got no response")),
        };
        let Some((r, sent, recv)) = tally.record(verdict) else {
            // A failed request misses every latency limit.
            latency.push(10.0 * LIMIT_MS);
            continue;
        };
        out.backends
            .push((format!("serve.{kernel}"), r.backend.clone()));
        let due = start + a.due;
        let ms = recv.saturating_duration_since(due).as_secs_f64() * 1e3;
        let late_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
        latency.push(ms);
        late.push(late_ms);
        good += usize::from(ms <= LIMIT_MS);
        let fresh = !r.cached && !r.coalesced;
        let exec_ms = if fresh { r.exec_ms } else { 0.0 };
        sum_latency += ms;
        sum_exec += exec_ms;
        sum_late += late_ms;
        by_class[a.class].0.push(exec_ms);
        by_class[a.class].1.push(ms - late_ms - exec_ms);
        if fresh {
            exec.push(r.exec_ms);
            rounds.push(r.rounds);
            if a.class == 0 {
                solve[a.kernel].push(r.exec_ms);
                let q = quality.entry(r.graph.clone()).or_default();
                q.0.extend(r.modularity);
                q.1.extend(r.num_colors);
            }
        }
    }
    let e = &mut out.e2e;
    // Per second of the window, which lasts until the last response.
    let last = records.iter().filter_map(|r| r.recv).max().unwrap_or(start);
    let window = last
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(cfg.seconds);
    e.put("items_per_s", good as f64 / window, "items/s");
    e.put("p50_ms", stats::median(&latency), "ms");
    e.put("p90_ms", stats::quantile(&latency, 0.90), "ms");
    // Few samples lie beyond p99 in one window; in the report line only.
    e.put("p99_ms", stats::quantile(&latency, 0.99), "ms");
    for (k, name) in ["solve_ms.color", "solve_ms.louvain", "solve_ms.labelprop"]
        .iter()
        .enumerate()
    {
        e.put(*name, stats::median(&solve[k]), "ms");
    }
    let mean_of_means = |values: Vec<&Vec<f64>>| -> f64 {
        let means: Vec<f64> = values
            .into_iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::mean(v))
            .collect();
        stats::mean(&means)
    };
    e.put(
        "modularity",
        mean_of_means(quality.values().map(|q| &q.0).collect()),
        "Q",
    );
    e.put(
        "colors",
        mean_of_means(quality.values().map(|q| &q.1).collect()),
        "count",
    );

    let late_p99 = stats::quantile(&late, 0.99);
    out.detail.put("loadgen.late_ms.p99", late_p99, "ms");
    if late_p99 > LATE_LIMIT_MS {
        out.invalid.push(format!(
            "generator ran {late_p99:.1} ms behind schedule at p99 (limit {LATE_LIMIT_MS} ms)"
        ));
    }
    if cfg.trace {
        let l = &mut out.layers;
        let total = sum_latency.max(f64::MIN_POSITIVE);
        l.put("graph.self_frac", 0.0, "ratio");
        l.put("graph.delta.self_frac", 0.0, "ratio");
        l.put("pipeline.wait_frac", 0.0, "ratio");
        l.put("core.self_frac", sum_exec / total, "ratio");
        l.put("core.ms", stats::median(&exec), "ms");
        l.put("core.rounds", stats::mean(&rounds), "count");
        // What neither the kernel nor the server accounts for: the
        // generator's own lateness.
        l.put("trace.residual_frac", sum_late / total, "ratio");
        let d = &mut out.detail;
        d.put(
            "serve.residual_frac",
            (sum_latency - sum_exec - sum_late) / total,
            "ratio",
        );
        d.put(
            "loadgen.offered_rps",
            arrivals.len() as f64 / cfg.seconds,
            "1/s",
        );
        for (c, (exec, residual)) in by_class.iter().enumerate() {
            let class = CLASSES[c];
            d.put(
                format!("serve.exec_ms.p50.{class}"),
                stats::median(exec),
                "ms",
            );
            d.put(
                format!("serve.exec_ms.p99.{class}"),
                stats::quantile(exec, 0.99),
                "ms",
            );
            d.put(
                format!("serve.residual_ms.p50.{class}"),
                stats::median(residual),
                "ms",
            );
            d.put(
                format!("serve.residual_ms.p99.{class}"),
                stats::quantile(residual, 0.99),
                "ms",
            );
        }
    }
}

/// Client counts must match the server's final stats probe exactly, and
/// the server's own identity must hold.
fn reconcile(tally: &mut Tally, probe: &Json, records: &[Record], warmups: u64) {
    let sent = records.iter().filter(|r| r.sent.is_some()).count() as f64 + warmups as f64;
    let ok = records
        .iter()
        .filter(|r| matches!(&r.response, Some(Ok(x)) if x.ok))
        .count() as f64
        + warmups as f64;
    let shed = records
        .iter()
        .filter(|r| matches!(&r.response, Some(Ok(x)) if x.error.as_deref() == Some("queue_full")))
        .count() as f64;
    let [received, served, s_shed, rejected, errors] =
        ["received", "served", "shed", "rejected", "errors"].map(|k| stat(probe, &[k]));
    let mut problems = Vec::new();
    if received != served + s_shed + rejected + errors {
        problems.push(format!(
            "server identity broken: received {received} != served {served} + shed {s_shed} + rejected {rejected} + errors {errors}"
        ));
    }
    for (what, server, client) in [
        ("received", received, sent),
        ("served", served, ok),
        ("shed", s_shed, shed),
    ] {
        if server != client {
            problems.push(format!("{what}: server {server}, client {client}"));
        }
    }
    tally.attempted += 1;
    if !problems.is_empty() {
        tally.fail(format!("stats reconciliation: {}", problems.join("; ")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_mixes_the_classes() {
        let a = schedule(3, 10.0);
        let b = schedule(3, 10.0);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.line == y.line && x.due == y.due));
        assert_eq!(a.len(), (RATE_RPS * 10.0) as usize);
        assert_eq!(mix_block(&mut Rng(1), 0).len(), BLOCK);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let share = |c| a.iter().filter(|x| x.class == c).count() as f64 / a.len() as f64;
        assert!((share(0) - 0.75).abs() < 0.05);
        assert!((share(1) - 0.15).abs() < 0.05);
        assert!((share(2) - 0.10).abs() < 0.05);
        assert_ne!(schedule(4, 10.0)[0].line, a[0].line);
    }

    #[test]
    fn corrupted_responses_are_counted_as_failures() {
        let good = r#"{"v":2,"ok":true,"kernel":"color","backend":"avx512","rounds":3,"num_colors":7,"exec_ms":1.5,"cached":false,"id":"r4"}"#;
        let (id, r) = parse_response(good).unwrap();
        assert_eq!(id, 4);
        assert!(check_response(&r, "color").is_ok());
        assert!(check_response(&r, "louvain").is_err());
        let refused = r#"{"v":2,"ok":false,"error":"queue_full","code":503,"id":"r5"}"#;
        let (_, r) = parse_response(refused).unwrap();
        assert!(check_response(&r, "color").is_err());
        let no_result = good.replace(r#""num_colors":7,"#, "");
        let (_, r) = parse_response(&no_result).unwrap();
        assert!(check_response(&r, "color").is_err());
        assert!(parse_response("{\"ok\":true").is_err());
        assert!(parse_response(r#"{"ok":true}"#).is_err());
    }

    #[test]
    fn reconciliation_catches_a_missing_served_count() {
        let probe =
            parse(r#"{"stats":{"received":3,"served":2,"shed":0,"rejected":0,"errors":0}}"#)
                .unwrap();
        let ok = Record {
            sent: Some(Instant::now()),
            recv: Some(Instant::now()),
            response: Some(Ok(Response {
                ok: true,
                ..Response::default()
            })),
        };
        let mut t = Tally::default();
        reconcile(&mut t, &probe, &[ok.clone(), ok.clone()], 1);
        assert_eq!(t.failed, 1, "{:?}", t.messages);
        let mut t = Tally::default();
        reconcile(&mut t, &probe, std::slice::from_ref(&ok), 1);
        assert_eq!(t.failed, 1);
        let probe =
            parse(r#"{"stats":{"received":3,"served":3,"shed":0,"rejected":0,"errors":0}}"#)
                .unwrap();
        let mut t = Tally::default();
        reconcile(&mut t, &probe, &[ok.clone(), ok], 1);
        assert_eq!(t.failed, 0, "{:?}", t.messages);
    }
}
