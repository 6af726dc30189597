//! BETZE-rs benchmark: two workloads, each run from one process and
//! checked against the program's own deterministic outputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-twitter --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics (from a separate
//! traced run, whose span dump goes to `.bench_out/`) with `--trace 1`.
//! `--record <first>..<last>` instead prints the output-gate
//! expectations of those seeds for `expected.json`. See README.md.

mod explore;
mod gate;
mod serve;
mod trace;
mod wrap;

#[cfg(test)]
mod tests;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreTwitter,
    ServeNobench,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::ExploreTwitter, Workload::ServeNobench];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreTwitter => "explore-twitter",
            Workload::ServeNobench => "serve-nobench",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub record: Option<(u64, u64)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(number(value)?),
            "--seconds" => seconds = Some(number(value)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                };
            }
            "--record" => {
                let (a, b) = value
                    .split_once("..")
                    .ok_or("--record takes <first>..<last>")?;
                record = Some((number(a)?, number(b)?));
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(50).max(1),
        trace,
        record,
    })
}

/// Everything one run measures.
#[derive(Default)]
pub struct Outcome {
    pub setup: Vec<Duration>,
    pub session_lat: Vec<Duration>,
    pub query_lat: Vec<Duration>,
    pub replay_lat: Vec<Duration>,
    /// Serve reports its rates and replay p50 directly; explore derives
    /// them from the latencies above.
    pub sessions_per_s: Option<f64>,
    pub replay_per_s: Option<f64>,
    pub replay_p50: Option<Duration>,
    pub attempted: u64,
    pub failed: u64,
    pub backend_calls: u64,
    pub queries_generated: u64,
    /// Explore sessions the lint pre-flight refused (not run, not failed).
    pub lint_rejected: u64,
    /// Sessions or requests replayed.
    pub replays: u64,
    /// (untraced, traced) sessions per second of the traced run.
    pub overhead: Option<(f64, f64)>,
    /// Serve's first-round fingerprint (what `--record` stores).
    pub first_round: Option<String>,
    /// Output-gate violations: any one fails the run.
    pub errors: Vec<String>,
    /// One line per failed or skipped query, reported on stderr.
    pub failures: Vec<String>,
}

pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn median_duration(values: &[Duration]) -> Option<Duration> {
    median_f64(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
        .map(Duration::from_secs_f64)
}

/// The `p`-th percentile in milliseconds, interpolated linearly between
/// the two nearest order statistics. An explore run measures only a
/// handful of sessions, and interpolation keeps a percentile from
/// jumping between neighbouring sessions from run to run.
fn percentile_ms(values: &[Duration], p: f64) -> Option<f64> {
    let mut ms: Vec<f64> = values.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let last = ms.len().checked_sub(1)?;
    let rank = p / 100.0 * last as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(ms[lo] + (ms[hi] - ms[lo]) * (rank - lo as f64))
}

/// The smallest nonzero step `Instant` shows on this host.
fn timer_resolution() -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..10_000 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        best = best.min(b - a);
    }
    best
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric. `exercised` is false for a layer the workload
/// does not run, which is reported as exactly 0.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    exercised: bool,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        exercised: true,
    }
}

fn is_timing(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// Refuses a timing of an exercised layer that is zero or below the
/// timer's resolution.
fn check_resolution(metrics: &[Metric], resolution: Duration) -> Result<(), String> {
    for m in metrics.iter().filter(|m| m.exercised && is_timing(m.unit)) {
        let scale = match m.unit {
            "s" => 1.0,
            "ms" => 1e-3,
            _ => 1e-6,
        };
        let secs = m.value * scale;
        if secs.is_nan() || secs <= resolution.as_secs_f64() {
            return Err(format!(
                "{} = {} {} is at or below the timer resolution ({resolution:?})",
                m.name, m.value, m.unit
            ));
        }
    }
    Ok(())
}

fn end_to_end(out: &Outcome) -> Result<Vec<Metric>, String> {
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
    let mean_rate = |lat: &[Duration]| {
        let total: f64 = lat.iter().map(Duration::as_secs_f64).sum();
        (!lat.is_empty()).then(|| lat.len() as f64 / total)
    };
    let sessions_per_s = out.sessions_per_s.or_else(|| mean_rate(&out.session_lat));
    let replay_per_s = out.replay_per_s.or_else(|| mean_rate(&out.replay_lat));
    let ms = |d: Option<Duration>| d.map(|d| d.as_secs_f64() * 1e3);
    let replay_p50 = ms(out.replay_p50).or_else(|| percentile_ms(&out.replay_lat, 50.0));
    Ok(vec![
        metric(
            "setup_s",
            need(
                median_duration(&out.setup).map(|d| d.as_secs_f64()),
                "setup_s",
            )?,
            "s",
        ),
        metric(
            "sessions_per_s",
            need(sessions_per_s, "sessions_per_s")?,
            "1/s",
        ),
        metric(
            "session_p50_ms",
            need(percentile_ms(&out.session_lat, 50.0), "session_p50_ms")?,
            "ms",
        ),
        metric(
            "session_p95_ms",
            need(percentile_ms(&out.session_lat, 95.0), "session_p95_ms")?,
            "ms",
        ),
        metric(
            "query_p50_ms",
            need(percentile_ms(&out.query_lat, 50.0), "query_p50_ms")?,
            "ms",
        ),
        metric(
            "query_p95_ms",
            need(percentile_ms(&out.query_lat, 95.0), "query_p95_ms")?,
            "ms",
        ),
        metric("replay_per_s", need(replay_per_s, "replay_per_s")?, "1/s"),
        metric("replay_p50_ms", need(replay_p50, "replay_p50_ms")?, "ms"),
        metric("peak_rss_mb", need(peak_rss_mb(), "peak_rss_mb")?, "MB"),
    ])
}

/// The per-layer metrics of a traced run. `sessions` is the number of
/// traced sessions; session-level layers are reported per session
/// (summed over the run, then divided), set-up layers per set-up.
fn per_layer(
    workload: Workload,
    spans: &[trace::Span],
    sessions: u64,
    out: &Outcome,
    extra: &Extra,
) -> Vec<Metric> {
    let totals = trace::totals(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_session = |name: &str| get(name).total.as_secs_f64() * 1e3 / sessions.max(1) as f64;
    let per_call = |name: &str| {
        let t = get(name);
        t.total.as_secs_f64() * 1e3 / t.calls.max(1) as f64
    };
    let explore = workload == Workload::ExploreTwitter;
    let serve = workload == Workload::ServeNobench;
    let on = |exercised: bool, mut m: Metric| {
        m.exercised = exercised;
        if !exercised {
            m.value = 0.0;
        }
        m
    };
    let mut metrics = vec![
        on(
            explore,
            metric("json.parse_ms", per_call("json.parse"), "ms"),
        ),
        on(
            explore,
            metric("stats.analyze_ms", per_call("stats.analyze"), "ms"),
        ),
        on(
            explore,
            metric(
                "generator.session_ms",
                per_session("generator.session"),
                "ms",
            ),
        ),
        on(
            explore,
            metric(
                "generator.reanalyze_ms",
                per_session("generator.reanalyze"),
                "ms",
            ),
        ),
        on(
            explore,
            metric("generator.derive_ms", per_session("generator.derive"), "ms"),
        ),
        on(
            explore,
            metric("generator.count_ms", per_session("generator.count"), "ms"),
        ),
        on(
            explore,
            metric(
                "generator.count_calls",
                out.backend_calls as f64 / sessions.max(1) as f64,
                "count",
            ),
        ),
        on(
            explore,
            metric(
                "generator.accept_ratio",
                out.queries_generated as f64 / out.backend_calls.max(1) as f64,
                "ratio",
            ),
        ),
        on(
            explore,
            metric("langs.translate_ms", per_session("langs.translate"), "ms"),
        ),
        on(
            explore,
            metric("lint.preflight_ms", per_session("lint.preflight"), "ms"),
        ),
        on(
            explore,
            metric(
                "harness.self_ms",
                get("harness.run").self_time.as_secs_f64() * 1e3 / sessions.max(1) as f64,
                "ms",
            ),
        ),
    ];
    for (leg, import, execute) in [
        ("joda", "engines.joda.import_ms", "engines.joda.execute_ms"),
        ("vm", "engines.vm.import_ms", "engines.vm.execute_ms"),
        (
            "mongodb",
            "engines.mongodb.import_ms",
            "engines.mongodb.execute_ms",
        ),
        ("psql", "engines.psql.import_ms", "engines.psql.execute_ms"),
    ] {
        let span_import = format!("engines.{leg}.import");
        let span_execute = format!("engines.{leg}.execute");
        metrics.push(on(explore, metric(import, per_session(&span_import), "ms")));
        metrics.push(on(
            explore,
            metric(execute, per_session(&span_execute), "ms"),
        ));
    }
    let leg_total = |leg: &str| {
        (get(&format!("engines.{leg}.import")).total + get(&format!("engines.{leg}.execute")).total)
            .as_secs_f64()
    };
    metrics.push(on(
        explore,
        metric(
            "engines.vm_joda_ratio",
            leg_total("vm") / leg_total("joda"),
            "ratio",
        ),
    ));
    metrics.push(on(
        explore,
        metric(
            "store.write_ms",
            get("store.write").total.as_secs_f64() * 1e3 / get("store.open").calls.max(1) as f64,
            "ms",
        ),
    ));
    metrics.push(on(
        explore,
        metric("store.open_ms", per_call("store.open"), "ms"),
    ));
    metrics.push(on(
        explore,
        metric(
            "store.read_page_us",
            extra.read_page.map_or(0.0, |d| d.as_secs_f64() * 1e6),
            "us",
        ),
    ));
    let s = &extra.serve;
    metrics.push(on(
        serve,
        metric("serve.start_ms", per_call("serve.start"), "ms"),
    ));
    metrics.push(on(
        serve,
        metric("serve.recover_ms", per_call("serve.recover"), "ms"),
    ));
    metrics.push(on(
        serve,
        metric("serve.executed", s.executed as f64, "count"),
    ));
    metrics.push(on(
        serve,
        metric("serve.replayed", s.replayed as f64, "count"),
    ));
    metrics.push(on(serve, metric("serve.shed", s.shed as f64, "count")));
    metrics.push(on(serve, metric("serve.failed", s.failed as f64, "count")));
    metrics.push(on(
        serve,
        metric("serve.client_retries", s.client_retries as f64, "count"),
    ));
    metrics.push(on(
        serve,
        metric(
            "serve.replay_p95_ms",
            s.replay_p95.as_secs_f64() * 1e3,
            "ms",
        ),
    ));
    metrics.push(on(
        serve,
        metric(
            "serve.journal_bytes_per_result",
            s.journal_bytes_per_result,
            "bytes",
        ),
    ));
    let overhead = out
        .overhead
        .map_or(0.0, |(untraced, traced)| (untraced - traced) / untraced);
    metrics.push(metric("trace.overhead_frac", overhead, "ratio"));
    metrics
}

/// Per-layer figures measured outside spans.
#[derive(Default)]
struct Extra {
    read_page: Option<Duration>,
    serve: serve::ServeLayers,
}

fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

/// Runs one workload; returns the number of traced sessions and the
/// per-layer figures measured outside spans.
fn run_workload(args: &Args, dir: &Path, out: &mut Outcome) -> (u64, Extra) {
    let mut extra = Extra::default();
    trace::set_enabled(args.trace);
    if args.workload == Workload::ServeNobench {
        let requests = serve::requests_per_run(args.seconds);
        extra.serve = serve::run(args, dir, requests, serve::REPLAY_PASSES, out);
        return (0, extra);
    }
    let prepared = explore::prepare(args.seed, dir, out);
    let sessions = explore::sessions_per_run(args.seconds);
    if !args.trace {
        explore::run_loop(&prepared, args, 0..sessions, out);
        return (0, extra);
    }
    // Traced run: each of the first half of the sessions runs both
    // untraced and traced, in alternating order, so both sides see the
    // same work and the same drift. The generator counters keep the
    // traced side only.
    let n = sessions.div_ceil(2);
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    for index in 0..n {
        for tracing in [index % 2 == 1, index % 2 == 0] {
            let counters = (out.queries_generated, out.backend_calls);
            let started = Instant::now();
            if tracing {
                explore::run_loop(&prepared, args, index..index + 1, out);
                traced += started.elapsed();
            } else {
                trace::paused(|| explore::run_loop(&prepared, args, index..index + 1, out));
                untraced += started.elapsed();
                (out.queries_generated, out.backend_calls) = counters;
            }
        }
    }
    out.overhead = Some((
        n as f64 / untraced.as_secs_f64(),
        n as f64 / traced.as_secs_f64(),
    ));
    extra.read_page = Some(explore::read_page_pass(&prepared));
    (n, extra)
}

/// `--record`: the output-gate expectations of a seed range, as the
/// `expected.json` entry of the workload.
fn record(args: &Args, dir: &Path) -> betze::json::Value {
    let (first, last) = args.record.expect("record range");
    let mut entries = betze::json::Object::new();
    for seed in first..=last {
        let seeded = Args {
            seed,
            record: None,
            ..*args
        };
        let mut out = Outcome::default();
        let entry = if args.workload == Workload::ServeNobench {
            serve::run(&seeded, dir, serve::FIRST_ROUND, 1, &mut out);
            betze::json::json!({ "fingerprint": (out.first_round.clone().unwrap_or_default()) })
        } else {
            let prepared = explore::prepare(seed, dir, &mut out);
            let mut calls = 0;
            let session = explore::run_session(&prepared, explore::session_seed(0), &mut calls)
                .expect("first session passes lint");
            gate::record_session(&session)
        };
        eprintln!("recorded {} seed {seed}", args.workload.name());
        entries.insert(seed.to_string(), entry);
    }
    betze::json::Value::Object(entries)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_out").join(format!(
        "tmp-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    if args.record.is_some() {
        let recorded = record(&args, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        println!("{}", recorded.to_json());
        return ExitCode::SUCCESS;
    }
    let resolution = timer_resolution();
    let mut out = Outcome::default();
    let (traced_sessions, extra) = run_workload(&args, &dir, &mut out);
    let spans = trace::take();
    let _ = std::fs::remove_dir_all(&dir);
    for failure in &out.failures {
        eprintln!("perfbench: {failure}");
    }
    if !out.errors.is_empty() {
        for e in &out.errors {
            eprintln!("perfbench: output gate: {e}");
        }
        return ExitCode::FAILURE;
    }
    let metrics = if args.trace {
        let dump = PathBuf::from(".bench_out").join(format!(
            "spans-{}-{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::write(&dump, trace::dump(&spans).to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", dump.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            dump.display()
        );
        per_layer(args.workload, &spans, traced_sessions, &out, &extra)
    } else {
        match end_to_end(&out) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Err(e) = check_resolution(&metrics, resolution) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "perfbench: {} seed {}: {} sessions ({} refused by lint), {} queries timed, {} replays; timer resolution {resolution:?}",
        args.workload.name(),
        args.seed,
        out.session_lat.len(),
        out.lint_rejected,
        out.query_lat.len(),
        out.replays,
    );
    for m in &metrics {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&out, &metrics));
    ExitCode::SUCCESS
}
