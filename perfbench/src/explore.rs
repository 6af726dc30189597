//! explore-twitter: sessions generated, translated, linted and run on
//! every engine leg in a sequential closed loop, then replayed from
//! their session files.

use crate::gate::{self, LegDigest};
use crate::trace::{self, span};
use crate::wrap::{CountingBackend, TimedEngine};
use crate::{Args, Outcome, Workload};
use betze::datagen::{DocGenerator, TwitterLike};
use betze::engines::{Engine, JodaSim, MongoSim, PgSim, VmEngine};
use betze::generator::{generate_session, GeneratorConfig, InMemoryBackend};
use betze::harness::{run_session_from_source, CorpusSource, RunOptions};
use betze::lint::{Linter, Severity};
use betze::model::{DatasetId, Session};
use betze::stats::DatasetAnalysis;
use betze::store::{CorpusWriter, PagedCorpus};
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scan threads of the joda and vm legs. One thread, not two: on a
/// 2-core machine, two scan threads made the sessions slower, not
/// faster, and raised peak RSS by about 100 MB (see README.md).
const THREADS: usize = 1;
/// 1,250 rather than 5,000 docs, so that a 50 s run measures 33
/// sessions. Over the 13 sessions of a 2,500-doc run, `session_p50_ms`
/// spread 0.24 across seeds against a bound of 0.25 (see README.md).
const TWITTER_DOCS: usize = 1_250;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The workload's corpus, resident in RAM, and the same corpus written
/// to a paged `.bcorp` in set-up (the store layer).
pub struct Prepared {
    dataset: betze::datagen::Dataset,
    store: PagedCorpus,
    analysis: DatasetAnalysis,
}

impl Prepared {
    /// The backend session generation is verified against.
    fn backend(&self) -> InMemoryBackend {
        let mut backend = InMemoryBackend::new();
        backend.register_base(DatasetId(0), Arc::clone(&self.dataset.docs));
        backend
    }
}

/// The engine legs every session runs on.
pub const LEGS: [&str; 4] = ["joda", "vm", "mongodb", "psql"];

pub(crate) fn engine(leg: &str) -> Box<dyn Engine> {
    match leg {
        "joda" => Box::new(JodaSim::new(THREADS)),
        "vm" => Box::new(VmEngine::new(THREADS)),
        "mongodb" => Box::new(MongoSim::new()),
        "psql" => Box::new(PgSim::new()),
        other => unreachable!("unknown leg {other}"),
    }
}

/// The seed of the `index`-th session of a run. The run seed picks the
/// corpus; the session seeds are the same sequence in every run (common
/// random numbers), so runs on different corpora explore alike and
/// their timings differ less. Kept below 2^63: session files store the
/// seed as a JSON integer, and `Session::parse` refuses larger ones.
pub fn session_seed(index: u64) -> u64 {
    0x5EED_0000 + index
}

/// Set-up: parse and analyze the Twitter corpus, then write it to a
/// `.bcorp` and open that. Runs [`SETUP_REPEATS`] times and records
/// each time in `out.setup`.
pub fn prepare(seed: u64, dir: &Path, out: &mut Outcome) -> Prepared {
    let text = betze::json::to_json_lines(&TwitterLike::default().generate(seed, TWITTER_DOCS));
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let (elapsed, p) = setup(&text, seed, dir);
        out.setup.push(elapsed);
        prepared = Some(p);
    }
    prepared.expect("at least one set-up")
}

fn setup(text: &str, seed: u64, dir: &Path) -> (Duration, Prepared) {
    let started = Instant::now();
    let docs =
        span("json.parse", || betze::json::parse_many(text)).expect("generated corpus text parses");
    let analysis = span("stats.analyze", || betze::stats::analyze("twitter", &docs));
    let mut elapsed = started.elapsed();
    // The writer takes documents by value; the copy is not store work.
    let copies = docs.clone();
    let path = dir.join("twitter.bcorp");
    let started = Instant::now();
    span("store.write", || {
        let mut writer = CorpusWriter::create(&path, "twitter", betze::store::DEFAULT_PAGE_SIZE)?
            .with_provenance("twitter", seed);
        for doc in copies {
            writer.append(doc)?;
        }
        writer.seal()
    })
    .expect("write .bcorp");
    let store = span("store.open", || PagedCorpus::open(&path)).expect("open .bcorp");
    elapsed += started.elapsed();
    let prepared = Prepared {
        dataset: betze::datagen::Dataset::new("twitter", docs),
        store,
        analysis,
    };
    (elapsed, prepared)
}

/// One session's outputs on every leg, plus its wall times.
pub struct SessionResult {
    pub session: Session,
    pub legs: Vec<LegDigest>,
    pub query_walls: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed or skipped query.
    pub failures: Vec<String>,
}

/// Generates session `seed`, verified against an in-memory backend,
/// translates it to the four languages, lints it and runs every leg.
/// `None` when the lint pre-flight rejects the session.
pub fn run_session(p: &Prepared, seed: u64, backend_calls: &mut u64) -> Option<SessionResult> {
    let config = GeneratorConfig::default();
    let generation = span("generator.session", || {
        let mut backend = CountingBackend::new(p.backend());
        let generation = generate_session(&p.analysis, &config, seed, Some(&mut backend));
        *backend_calls += backend.count_calls;
        generation
    })
    .expect("session generation succeeds");
    let session = generation.session;
    span("langs.translate", || {
        for language in betze::langs::all_languages() {
            black_box(betze::langs::translate_session(language.as_ref(), &session));
        }
    });
    run_legs(p, session)
}

/// Lints `session` and runs it on every leg.
pub fn run_legs(p: &Prepared, session: Session) -> Option<SessionResult> {
    let report = span("lint.preflight", || {
        Linter::new().with_analysis(&p.analysis).lint(&session)
    });
    if report.count_at_least(Severity::Error) > 0 {
        return None;
    }
    let options = RunOptions::reference().lint(Some(Severity::Error));
    let source = CorpusSource::Ram(&p.dataset);
    let mut result = SessionResult {
        session,
        legs: Vec::new(),
        query_walls: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for leg in LEGS {
        let mut engine = TimedEngine::new(engine(leg));
        let outcome = span("harness.run", || {
            run_session_from_source(&mut engine, &source, &result.session, &options)
        });
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(error) => {
                result.attempted += result.session.queries.len() as u64;
                result.failed += result.session.queries.len() as u64;
                result.failures.push(format!("leg {leg}: {error}"));
                result.legs.push(LegDigest::failed(leg, &error.to_string()));
                continue;
            }
        };
        let run = outcome.run();
        result.attempted += run.statuses.len() as u64;
        result.failed += (run.statuses.len() - run.ok_queries()) as u64;
        for (i, status) in run.statuses.iter().enumerate().filter(|(_, s)| !s.is_ok()) {
            result
                .failures
                .push(format!("leg {leg}: query {i}: {status:?}"));
        }
        result
            .query_walls
            .extend(run.queries.iter().map(|q| q.wall));
        result.legs.push(LegDigest::of(leg, run));
    }
    Some(result)
}

/// Wall time one session (cold run plus replay) is budgeted on a
/// 2-core machine. A run measures a fixed number of sessions derived
/// from `--seconds`, so every run measures the same session seeds.
const SESSION_BUDGET: Duration = Duration::from_millis(1_500);

/// Sessions a run of `seconds` measures.
pub fn sessions_per_run(seconds: u64) -> u64 {
    (Duration::from_secs(seconds).as_secs_f64() / SESSION_BUDGET.as_secs_f64())
        .round()
        .max(1.0) as u64
}

/// Runs sessions `indices` of the workload's closed loop: each session
/// runs cold (generate → translate → lint → legs) and is then replayed
/// from its session file (parse → lint → legs).
pub fn run_loop(p: &Prepared, args: &Args, indices: Range<u64>, out: &mut Outcome) {
    let workload = Workload::ExploreTwitter;
    for index in indices {
        trace::set_session(index);
        let seed = session_seed(index);
        let mut backend_calls = 0;
        let cold_started = Instant::now();
        let cold = run_session(p, seed, &mut backend_calls);
        let cold_elapsed = cold_started.elapsed();
        out.backend_calls += backend_calls;
        let Some(cold) = cold else {
            out.lint_rejected += 1;
            continue;
        };
        out.session_lat.push(cold_elapsed);
        out.query_lat.extend(&cold.query_walls);
        out.attempted += cold.attempted;
        out.failed += cold.failed;
        out.queries_generated += cold.session.queries.len() as u64;
        for failure in &cold.failures {
            out.failures.push(format!("session seed {seed}: {failure}"));
        }
        gate::check_joda_vm(workload, args.seed, seed, &cold, &mut out.errors);
        if index == 0 {
            let expected = gate::expected();
            gate::check_expected(expected, workload, args.seed, &cold, &mut out.errors);
        }

        let text = cold.session.to_json();
        let replay_started = Instant::now();
        let replayed = trace::paused(|| {
            let session = Session::parse(&text).expect("session file round-trips");
            run_legs(p, session)
        });
        out.replay_lat.push(replay_started.elapsed());
        out.replays += 1;
        match replayed {
            Some(replayed) => gate::check_replay(workload, seed, &cold, &replayed, &mut out.errors),
            None => out.errors.push(format!(
                "{}: seed {seed}: replay was rejected by lint",
                workload.name()
            )),
        }
    }
}

/// One full `read_page` pass over the `.bcorp` written in set-up:
/// per-page time.
pub fn read_page_pass(p: &Prepared) -> Duration {
    let started = Instant::now();
    for index in 0..p.store.page_count() {
        black_box(p.store.read_page(index).expect("page reads and verifies"));
    }
    started.elapsed() / p.store.page_count().max(1) as u32
}

/// The same session as [`run_session`] with no wrapper and no span: a
/// plain backend and plain engines (the reference the tests compare
/// the wrapped path against).
#[cfg(test)]
pub fn run_session_unwrapped(p: &Prepared, seed: u64) -> (Session, Vec<LegDigest>) {
    let config = GeneratorConfig::default();
    let generation = generate_session(&p.analysis, &config, seed, Some(&mut p.backend()))
        .expect("session generation succeeds");
    let options = RunOptions::reference().lint(Some(Severity::Error));
    let source = CorpusSource::Ram(&p.dataset);
    let legs = LEGS
        .iter()
        .map(|&leg| {
            let mut engine = engine(leg);
            let outcome =
                run_session_from_source(engine.as_mut(), &source, &generation.session, &options)
                    .expect("unwrapped run succeeds");
            LegDigest::of(leg, outcome.run())
        })
        .collect();
    (generation.session, legs)
}
