//! The benchmark's own checks: the observation wrappers change nothing,
//! and the output gate catches a wrong expectation.

use crate::explore::{self, session_seed};
use crate::gate;
use crate::wrap::TimedEngine;
use crate::{trace, Outcome, Workload};
use betze::engines::{CancelToken, Engine, EngineError, ExecutionReport, QueryOutcome};
use betze::json::Value;
use betze::model::Query;
use betze::store::{CorpusWriter, PagedCorpus};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_out").join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

#[test]
fn wrappers_change_nothing() {
    let dir = scratch("wrap");
    let prepared = explore::prepare(3, &dir, &mut Outcome::default());
    let seed = session_seed(0);
    trace::set_enabled(true);
    let wrapped = explore::run_session(&prepared, seed, &mut 0).expect("session passes lint");
    assert!(!trace::take().is_empty(), "the wrapped run recorded spans");
    trace::set_enabled(false);
    let (session, legs) = explore::run_session_unwrapped(&prepared, seed);
    assert_eq!(
        gate::session_digest(&wrapped.session),
        gate::session_digest(&session)
    );
    assert_eq!(wrapped.legs, legs);
    std::fs::remove_dir_all(&dir).expect("remove test directory");
}

/// Records which trait methods reached it.
#[derive(Default)]
struct Probe {
    calls: Vec<&'static str>,
}

impl Engine for Probe {
    fn name(&self) -> &'static str {
        "Probe"
    }
    fn short_name(&self) -> &'static str {
        "probe"
    }
    fn import(&mut self, _: &str, _: &[Value]) -> Result<ExecutionReport, EngineError> {
        self.calls.push("import");
        Ok(ExecutionReport::empty())
    }
    fn import_paged(&mut self, _: &Arc<PagedCorpus>) -> Result<ExecutionReport, EngineError> {
        self.calls.push("import_paged");
        Ok(ExecutionReport::empty())
    }
    fn execute(&mut self, _: &Query) -> Result<QueryOutcome, EngineError> {
        self.calls.push("execute");
        Err(EngineError::Internal {
            message: "probe".to_owned(),
        })
    }
    fn forget(&mut self, _: &str) -> bool {
        self.calls.push("forget");
        true
    }
    fn reset(&mut self) {
        self.calls.push("reset");
    }
    fn threads(&self) -> usize {
        7
    }
    fn set_threads(&mut self, _: usize) {
        self.calls.push("set_threads");
    }
    fn set_cancel(&mut self, _: Option<CancelToken>) {
        self.calls.push("set_cancel");
    }
    fn set_output_enabled(&mut self, _: bool) {
        self.calls.push("set_output_enabled");
    }
}

#[test]
fn timed_engine_forwards_every_method() {
    let dir = scratch("forward");
    let path = dir.join("tiny.bcorp");
    let mut writer = CorpusWriter::create(&path, "tiny", betze::store::DEFAULT_PAGE_SIZE)
        .expect("create corpus");
    for doc in betze::datagen::DocGenerator::generate(&betze::datagen::NoBench::default(), 1, 10) {
        writer.append(doc).expect("append");
    }
    writer.seal().expect("seal");
    let corpus = Arc::new(PagedCorpus::open(&path).expect("open corpus"));
    let mut engine = TimedEngine::new(Probe::default());
    engine.import_paged(&corpus).expect("paged import");
    engine.import("tiny", &[]).expect("import");
    engine.forget("tiny");
    engine.reset();
    engine.set_threads(2);
    engine.set_cancel(None);
    engine.set_output_enabled(true);
    assert_eq!(engine.threads(), 7);
    assert_eq!(engine.short_name(), "probe");
    let probe = engine.into_inner();
    assert_eq!(
        probe.calls,
        [
            "import_paged",
            "import",
            "forget",
            "reset",
            "set_threads",
            "set_cancel",
            "set_output_enabled"
        ]
    );
    std::fs::remove_dir_all(&dir).expect("remove test directory");
}

/// Replaces the digest at `position` of one leg's recorded list.
fn perturb(expected: &Value, workload: &str, seed: &str, leg: &str, position: usize) -> Value {
    let mut expected = expected.clone();
    let list = expected
        .as_object_mut()
        .and_then(|w| w.get_mut(workload))
        .and_then(Value::as_object_mut)
        .and_then(|s| s.get_mut(seed))
        .and_then(Value::as_object_mut)
        .and_then(|l| l.get_mut(leg))
        .expect("recorded leg");
    if let Value::Array(items) = list {
        items[position] = Value::from("0000000000000000");
    }
    expected
}

#[test]
fn gate_passes_recorded_and_fails_perturbed_expectation() {
    let dir = scratch("gate");
    let prepared = explore::prepare(1, &dir, &mut Outcome::default());
    let result =
        explore::run_session(&prepared, session_seed(0), &mut 0).expect("session passes lint");
    let mut errors = Vec::new();
    gate::check_expected(
        gate::expected(),
        Workload::ExploreTwitter,
        1,
        &result,
        &mut errors,
    );
    assert!(errors.is_empty(), "{errors:?}");
    // Position 0 is the import; position 3 is query 2.
    let perturbed = perturb(gate::expected(), "explore-twitter", "1", "vm", 3);
    gate::check_expected(
        &perturbed,
        Workload::ExploreTwitter,
        1,
        &result,
        &mut errors,
    );
    assert_eq!(
        errors,
        ["explore-twitter: seed 1: leg vm: query 2 differs from expected.json"]
    );
    std::fs::remove_dir_all(&dir).expect("remove test directory");
}

#[test]
fn serve_gate_names_fingerprint_mismatches() {
    let recorded = gate::expected()
        .get("serve-nobench")
        .and_then(|w| w.get("1"))
        .and_then(|e| e.get("fingerprint"))
        .and_then(Value::as_str)
        .expect("recorded serve fingerprint")
        .to_owned();
    let mut errors = Vec::new();
    gate::check_serve(gate::expected(), 1, &recorded, 5, 5, &mut errors);
    assert!(errors.is_empty(), "{errors:?}");
    gate::check_serve(gate::expected(), 1, "0000000000000000", 5, 6, &mut errors);
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors
        .iter()
        .all(|e| e.starts_with("serve-nobench: seed 1: leg serve:")));
}
