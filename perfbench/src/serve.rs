//! serve-nobench: the daemon with a journal, driven in a closed loop by
//! two clients; a cold pass executes and journals every request, then
//! the daemon is drained, restarted on the same journal, and replay
//! passes re-send the same ids.

use crate::gate;
use crate::trace::{self, span};
use crate::{Args, Outcome};
use betze::engines::{BreakerPolicy, CancelToken};
use betze::serve::protocol::{read_message, write_message};
use betze::serve::server::ENGINE_NAMES;
use betze::serve::{
    run_loadgen, LoadgenConfig, LoadgenReport, Request, RequestKind, Response, ServeConfig, Server,
    ServerHandle, SessionResult,
};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const DOCS: usize = 5_000;
/// Daemon workers and client threads, sized for a 2-core machine.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// JODA scan threads inside each request.
const JODA_THREADS: usize = 2;
/// The cold pass runs at least this many requests; the fingerprint of
/// these first requests is the recorded expectation.
pub const FIRST_ROUND: usize = 16;
/// Daemon starts and restarts per run; `setup_s` uses their medians.
const SETUP_REPEATS: usize = 3;
/// Wall time one cold-pass request is budgeted on a 2-core machine; a
/// run sends a fixed number of requests derived from `--seconds`.
const REQUEST_BUDGET: Duration = Duration::from_millis(150);
/// Replay passes per run.
pub const REPLAY_PASSES: usize = 16;
/// A request that keeps being rejected gives up after this many attempts.
const MAX_ATTEMPTS: u32 = 64;

/// Cold-pass requests a run of `seconds` sends (80% of the time).
pub fn requests_per_run(seconds: u64) -> usize {
    let n = Duration::from_secs(seconds).as_secs_f64() * 0.8 / REQUEST_BUDGET.as_secs_f64();
    (n.round() as usize).max(FIRST_ROUND)
}

fn serve_config(journal: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        journal: Some(journal.to_path_buf()),
        breaker: Some(BreakerPolicy::default()),
        joda_threads: JODA_THREADS,
        ..ServeConfig::default()
    }
}

/// The loadgen seed, which derives every request's id, kind, engine and
/// session seed. The run seed picks the corpus; the request sequence is
/// the same in every run (common random numbers), so runs on different
/// corpora send alike traffic and their timings differ less.
const LOADGEN_SEED: u64 = 7;

fn loadgen_config(data_seed: u64, addr: SocketAddr, sessions: usize) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        sessions,
        concurrency: CLIENTS,
        seed: LOADGEN_SEED,
        corpus: "nobench".to_owned(),
        docs: DOCS,
        data_seed,
        engine: "mix".to_owned(),
        mixed_kinds: true,
        ..LoadgenConfig::default()
    }
}

/// Loadgen's request `index`, with the bench requests cycling through
/// all four engines. Loadgen's `mix` picks the engine by `index % 4`,
/// and with mixed kinds only indices 2 and 3 (mod 4) are bench requests,
/// so loadgen alone would bench only pg and jq. The replay passes send
/// loadgen's own requests: the daemon replays by id.
fn cold_request(config: &LoadgenConfig, index: usize) -> Request {
    let mut request = config.request(index);
    if request.kind == RequestKind::Bench {
        let bench = index / 4 * 2 + index % 4 - 2;
        request.engine = ENGINE_NAMES[bench % ENGINE_NAMES.len()].to_owned();
    }
    request
}

/// Starts a daemon and sends one `generate` request (outside the
/// measured ids) so the corpus is generated and analyzed before the
/// cold pass: the start-up cost every fresh daemon pays once.
fn start_warm(data_seed: u64, journal: &Path) -> (Duration, ServerHandle) {
    let started = Instant::now();
    let handle = span("serve.start", || {
        Server::start(serve_config(journal), CancelToken::new())
    })
    .expect("daemon starts");
    let mut warm = loadgen_config(data_seed, handle.addr(), 1).request(0);
    warm.id = "warm-up".to_owned();
    warm.kind = RequestKind::Generate;
    let outcome = span("serve.warm", || drive(handle.addr(), &warm));
    assert!(outcome.result.is_some(), "warm-up request completes");
    (started.elapsed(), handle)
}

fn stop(handle: ServerHandle) -> betze::serve::ServeReport {
    handle.drain();
    handle.join()
}

/// One request's client-side outcome.
struct Driven {
    result: Option<SessionResult>,
    latency: Duration,
    /// Time between consecutive progress frames: one per executed query
    /// after the first.
    query_gaps: Vec<Duration>,
    retries: u64,
}

/// Sends `request` until a terminal result arrives, backing off on
/// transient rejections, timing the successful call and the gaps
/// between its progress frames.
fn drive(addr: SocketAddr, request: &Request) -> Driven {
    let mut driven = Driven {
        result: None,
        latency: Duration::ZERO,
        query_gaps: Vec::new(),
        retries: 0,
    };
    for attempt in 1..=MAX_ATTEMPTS {
        let started = Instant::now();
        let mut gaps = Vec::new();
        match call(addr, request, &mut gaps) {
            Ok(Response::Result {
                result, replayed, ..
            }) => {
                driven.latency = started.elapsed();
                driven.query_gaps = gaps;
                driven.result = Some(SessionResult {
                    id: request.id.clone(),
                    result_json: result.to_json(),
                    replayed,
                    attempts: attempt,
                });
                return driven;
            }
            Ok(Response::Error { code, message, .. }) if !code.is_transient() => {
                driven.result = Some(SessionResult {
                    id: request.id.clone(),
                    result_json: format!("error:{}:{message}", code.name()),
                    replayed: false,
                    attempts: attempt,
                });
                return driven;
            }
            _ => {}
        }
        driven.retries += 1;
        std::thread::sleep(Duration::from_millis(5 << attempt.min(5)));
    }
    driven
}

/// One request/response exchange; records the gaps between progress
/// frames and returns the terminal frame.
fn call(
    addr: SocketAddr,
    request: &Request,
    gaps: &mut Vec<Duration>,
) -> std::io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    write_message(&mut writer, &request.to_value())?;
    drop(writer);
    let mut reader = BufReader::new(stream);
    let mut last_progress: Option<Instant> = None;
    loop {
        let value = read_message(&mut reader)?
            .ok_or_else(|| std::io::Error::other("server closed before a terminal frame"))?;
        let response = Response::from_value(&value).map_err(std::io::Error::other)?;
        if let Response::Progress { .. } = response {
            let now = Instant::now();
            if let Some(last) = last_progress {
                gaps.push(now - last);
            }
            last_progress = Some(now);
            continue;
        }
        return Ok(response);
    }
}

fn report_of(mut results: Vec<SessionResult>) -> LoadgenReport {
    results.sort_by(|a, b| a.id.cmp(&b.id));
    LoadgenReport {
        results,
        exhausted: 0,
        retries: 0,
        replays: 0,
        overloaded: 0,
        circuit_open: 0,
        transport_errors: 0,
        elapsed: Duration::ZERO,
        latency: None,
    }
}

/// The cold pass: `CLIENTS` closed-loop clients claim the request
/// indices `from..to`. With `traced`, each request runs in a span on
/// its client thread; the spans are adopted by the caller's recorder.
#[derive(Default)]
struct ColdPass {
    results: Vec<SessionResult>,
    latencies: Vec<Duration>,
    query_gaps: Vec<Duration>,
    exhausted: u64,
    retries: u64,
    elapsed: Duration,
}

impl ColdPass {
    fn sent(&self) -> usize {
        self.results.len() + self.exhausted as usize
    }

    fn rate(&self) -> f64 {
        self.results.len() as f64 / self.elapsed.as_secs_f64()
    }

    fn merge(mut self, other: ColdPass) -> ColdPass {
        self.results.extend(other.results);
        self.latencies.extend(other.latencies);
        self.query_gaps.extend(other.query_gaps);
        self.exhausted += other.exhausted;
        self.retries += other.retries;
        self.elapsed += other.elapsed;
        self
    }
}

fn cold_pass(config: &LoadgenConfig, from: usize, to: usize, traced: bool) -> ColdPass {
    let started = Instant::now();
    let cursor = AtomicUsize::new(from);
    let pass = Mutex::new(ColdPass::default());
    let spans = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                trace::set_enabled(traced);
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= to {
                        break;
                    }
                    let driven = span("serve.request", || {
                        drive(config.addr, &cold_request(config, index))
                    });
                    let mut p = pass.lock().expect("cold-pass results lock");
                    p.retries += driven.retries;
                    match driven.result {
                        Some(result) => {
                            p.results.push(result);
                            p.latencies.push(driven.latency);
                            p.query_gaps.extend(driven.query_gaps);
                        }
                        None => p.exhausted += 1,
                    }
                }
                spans.lock().expect("span list lock").push(trace::take());
                trace::set_enabled(false);
            });
        }
    });
    for thread_spans in spans.into_inner().expect("span list lock") {
        trace::adopt(thread_spans);
    }
    let mut pass = pass.into_inner().expect("cold-pass results lock");
    pass.elapsed = started.elapsed();
    pass
}

/// Per-layer figures of one serve run.
#[derive(Debug, Default)]
pub struct ServeLayers {
    pub start: Vec<Duration>,
    pub recover: Vec<Duration>,
    pub executed: u64,
    pub replayed: u64,
    pub shed: u64,
    pub failed: u64,
    pub client_retries: u64,
    pub journal_bytes_per_result: f64,
    /// Median over the replay passes of each pass's p95 latency. Not an
    /// end-to-end metric: replay latency is the accept loop's 5 ms poll
    /// sleep, and its p95 mostly shows how often the host oversleeps.
    pub replay_p95: Duration,
}

/// Runs serve-nobench: a cold pass of `requests` requests, then
/// `replay_passes` replay passes over the same ids.
pub fn run(
    args: &Args,
    dir: &Path,
    requests: usize,
    replay_passes: usize,
    out: &mut Outcome,
) -> ServeLayers {
    let mut layers = ServeLayers::default();
    let journal = dir.join("serve.journal");
    // Set-up: fresh daemon starts (each on a fresh journal).
    let mut handle = None;
    for k in 0..SETUP_REPEATS {
        let _ = std::fs::remove_file(&journal);
        let (elapsed, h) = start_warm(args.seed, &journal);
        layers.start.push(elapsed);
        if k + 1 < SETUP_REPEATS {
            stop(h);
        } else {
            handle = Some(h);
        }
    }
    let handle = handle.expect("a started daemon");
    let config = loadgen_config(args.seed, handle.addr(), 0);

    // Cold pass; when tracing, its first half runs untraced and its
    // second half traced, and the two rates give the tracing overhead.
    let cold = if args.trace {
        let half = requests / 2;
        let untraced = cold_pass(&config, 0, half, false);
        let traced = cold_pass(&config, half, requests, true);
        out.overhead = Some((untraced.rate(), traced.rate()));
        untraced.merge(traced)
    } else {
        cold_pass(&config, 0, requests, false)
    };
    let first_round = report_of(
        cold.results
            .iter()
            .filter(|r| request_index(&r.id) < FIRST_ROUND)
            .cloned()
            .collect(),
    )
    .fingerprint();
    let sessions = cold.sent();
    let cold_fingerprint = report_of(cold.results.clone()).fingerprint();
    out.sessions_per_s = Some(cold.rate());
    out.session_lat.extend(&cold.latencies);
    out.query_lat.extend(&cold.query_gaps);
    out.attempted += cold.sent() as u64;
    out.failed += cold.exhausted
        + cold
            .results
            .iter()
            .filter(|r| r.result_json.starts_with("error:"))
            .count() as u64;
    layers.client_retries = cold.retries;
    if cold.exhausted > 0 {
        out.errors.push(format!(
            "serve-nobench: seed {}: leg serve: {} cold requests exhausted",
            args.seed, cold.exhausted
        ));
    }
    let report = stop(handle);
    layers.executed = report.stats.executed;
    layers.shed = report.stats.shed;
    layers.failed = report.stats.failed;
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    layers.journal_bytes_per_result = journal_bytes as f64 / report.stats.executed.max(1) as f64;

    // Restarts on the same journal: each recovers every result.
    let mut handle = None;
    for k in 0..SETUP_REPEATS {
        let started = Instant::now();
        let h = span("serve.recover", || {
            Server::start(serve_config(&journal), CancelToken::new())
        })
        .expect("daemon restarts on its journal");
        layers.recover.push(started.elapsed());
        if k + 1 < SETUP_REPEATS {
            stop(h);
        } else {
            handle = Some(h);
        }
    }
    let handle = handle.expect("a restarted daemon");

    // Replay passes re-send the cold pass's ids.
    let replay_config = loadgen_config(args.seed, handle.addr(), sessions);
    let mut replay_fingerprint = cold_fingerprint;
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p95s = Vec::new();
    for _ in 0..replay_passes {
        let replay = span("serve.replay_pass", || run_loadgen(&replay_config));
        if replay.fingerprint() != cold_fingerprint {
            replay_fingerprint = replay.fingerprint();
        }
        if replay.exhausted > 0 || replay.replays != sessions as u64 {
            out.errors.push(format!(
                "serve-nobench: seed {}: leg serve: replay pass replayed {} of {sessions}, {} exhausted",
                args.seed, replay.replays, replay.exhausted
            ));
        }
        out.replays += replay.replays;
        rates.push(replay.throughput());
        if let Some(latency) = replay.latency {
            p50s.push(latency.p50);
            p95s.push(latency.p95);
        }
    }
    out.replay_per_s = crate::median_f64(&rates);
    out.replay_p50 = crate::median_duration(&p50s);
    layers.replay_p95 = crate::median_duration(&p95s).unwrap_or_default();
    let report = stop(handle);
    layers.replayed = report.stats.replayed;
    gate::check_serve(
        gate::expected(),
        args.seed,
        &format!("{first_round:016x}"),
        cold_fingerprint,
        replay_fingerprint,
        &mut out.errors,
    );
    out.first_round = Some(format!("{first_round:016x}"));
    out.setup.push(
        crate::median_duration(&layers.start).unwrap_or_default()
            + crate::median_duration(&layers.recover).unwrap_or_default(),
    );
    layers
}

/// The request index encoded in a loadgen id (`lg-<seed>-<index>`).
fn request_index(id: &str) -> usize {
    id.rsplit('-')
        .next()
        .and_then(|i| i.parse().ok())
        .unwrap_or(usize::MAX)
}
