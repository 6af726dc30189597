//! Output gate: the program's deterministic outputs (modeled times,
//! work counters, query statuses, generated sessions, serve result
//! fingerprints) are checked against each other and against the
//! expectations recorded in `expected.json`. Wall-clock numbers are
//! never part of a digest.

use crate::explore::SessionResult;
use crate::Workload;
use betze::harness::{QueryStatus, SessionRun};
use betze::json::frame::fnv1a;
use betze::json::Value;
use std::sync::OnceLock;

/// Recorded expectations: for each workload and run seed, the first
/// session's digest per leg (explore-twitter) or the first round's
/// result fingerprint (serve-nobench).
const EXPECTED: &str = include_str!("../expected.json");

pub fn expected() -> &'static Value {
    static PARSED: OnceLock<Value> = OnceLock::new();
    PARSED.get_or_init(|| betze::json::parse(EXPECTED).expect("expected.json is valid JSON"))
}

/// The digest of one leg's run: position 0 digests the import, then
/// one per query, each over (modeled ns, work counters, status).
#[derive(Debug, Clone, PartialEq)]
pub struct LegDigest {
    pub leg: &'static str,
    pub digests: Vec<String>,
}

fn hex(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

fn status_label(status: &QueryStatus) -> String {
    match status {
        QueryStatus::Ok => "ok".to_owned(),
        QueryStatus::Retried(n) => format!("retried:{n}"),
        QueryStatus::Failed { .. } => "failed".to_owned(),
        QueryStatus::SkippedDependencyLost { dataset } => format!("skipped:{dataset}"),
    }
}

impl LegDigest {
    pub fn of(leg: &'static str, run: &SessionRun) -> Self {
        let report = |r: &betze::engines::ExecutionReport, status: &str| {
            hex(&format!(
                "{}|{:?}|{status}",
                r.modeled.as_nanos(),
                r.counters
            ))
        };
        let mut digests = vec![report(&run.import, "import")];
        digests.extend(
            run.queries
                .iter()
                .zip(&run.statuses)
                .map(|(q, s)| report(q, &status_label(s))),
        );
        LegDigest { leg, digests }
    }

    pub fn failed(leg: &'static str, error: &str) -> Self {
        LegDigest {
            leg,
            digests: vec![hex(&format!("error|{error}"))],
        }
    }

    fn queries(&self) -> &[String] {
        &self.digests[1..]
    }
}

/// Digest of a generated session (its file form).
pub fn session_digest(session: &betze::model::Session) -> String {
    hex(&session.to_json())
}

/// The first position at which two digest lists differ.
fn first_difference(actual: &[String], expected: &[String]) -> Option<usize> {
    (0..actual.len().max(expected.len())).find(|&i| actual.get(i) != expected.get(i))
}

/// Names a position of a [`LegDigest`] list.
fn position(i: usize) -> String {
    match i {
        0 => "import".to_owned(),
        i => format!("query {}", i - 1),
    }
}

/// Checks one cold session: vm equals joda on every query.
pub fn check_joda_vm(
    workload: Workload,
    run_seed: u64,
    session_seed: u64,
    result: &SessionResult,
    errors: &mut Vec<String>,
) {
    let name = workload.name();
    let leg = |n: &str| result.legs.iter().find(|d| d.leg == n);
    if let (Some(joda), Some(vm)) = (leg("joda"), leg("vm")) {
        if let Some(i) = first_difference(vm.queries(), joda.queries()) {
            errors.push(format!(
                "{name}: seed {run_seed}: session seed {session_seed}: leg vm: query {i} differs from joda"
            ));
        }
    }
}

/// Checks a run seed's first session against `expected`. A seed without
/// a recorded entry is checked by the in-run invariants alone.
pub fn check_expected(
    expected: &Value,
    workload: Workload,
    run_seed: u64,
    result: &SessionResult,
    errors: &mut Vec<String>,
) {
    let name = workload.name();
    let Some(entry) = expected
        .get(name)
        .and_then(|w| w.get(&run_seed.to_string()))
    else {
        return;
    };
    let session = session_digest(&result.session);
    if entry.get("session").and_then(Value::as_str) != Some(session.as_str()) {
        errors.push(format!(
            "{name}: seed {run_seed}: leg generator: generated session differs from expected.json"
        ));
    }
    for digest in &result.legs {
        let recorded: Vec<String> = entry
            .get(digest.leg)
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default();
        if let Some(i) = first_difference(&digest.digests, &recorded) {
            errors.push(format!(
                "{name}: seed {run_seed}: leg {}: {} differs from expected.json",
                digest.leg,
                position(i)
            ));
        }
    }
}

/// A replayed session must reproduce its cold run on every leg.
pub fn check_replay(
    workload: Workload,
    session_seed: u64,
    cold: &SessionResult,
    replay: &SessionResult,
    errors: &mut Vec<String>,
) {
    for (c, r) in cold.legs.iter().zip(&replay.legs) {
        if let Some(i) = first_difference(&r.digests, &c.digests) {
            errors.push(format!(
                "{}: session seed {session_seed}: leg {}: replay differs from cold run at {}",
                workload.name(),
                c.leg,
                position(i)
            ));
        }
    }
}

/// The recorded entry of one explore session.
pub fn record_session(result: &SessionResult) -> Value {
    let mut entry = betze::json::Object::new();
    entry.insert("session", session_digest(&result.session));
    for digest in &result.legs {
        let digests = digest.digests.iter().map(|d| Value::from(d.as_str()));
        entry.insert(digest.leg, Value::Array(digests.collect()));
    }
    Value::Object(entry)
}

/// Checks serve-nobench's fingerprints: cold equals replay, and the
/// first round equals its recorded value.
pub fn check_serve(
    expected: &Value,
    run_seed: u64,
    first_round: &str,
    cold: u64,
    replay: u64,
    errors: &mut Vec<String>,
) {
    let name = Workload::ServeNobench.name();
    if cold != replay {
        errors.push(format!(
            "{name}: seed {run_seed}: leg serve: cold fingerprint {cold:016x} != replay {replay:016x}"
        ));
    }
    let recorded = expected
        .get(name)
        .and_then(|w| w.get(&run_seed.to_string()))
        .and_then(|e| e.get("fingerprint"))
        .and_then(Value::as_str);
    if let Some(recorded) = recorded {
        if recorded != first_round {
            errors.push(format!(
                "{name}: seed {run_seed}: leg serve: first-round fingerprint {first_round} != recorded {recorded}"
            ));
        }
    }
}
