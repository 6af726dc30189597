//! Acceptance tests for the durable paged corpus store (DESIGN.md §16).
//!
//! The **differential oracle**: a seed × preset sweep in which every
//! session runs twice — once with the corpus resident in RAM, once
//! streamed page-at-a-time from a sealed `.bcorp` file — on JodaSim and
//! on the bytecode VM with the optimizer on and off. Results, work
//! counters, and modeled time must be **bit-identical**: out-of-core
//! execution is a residency change, not a semantics change.
//!
//! The **crash-safety proof**: under seed-deterministic disk-fault
//! injection every injected fault is accounted for — a short read is
//! transient and absorbed by retries, a bit flip or torn page surfaces
//! as a typed `Storage` failure that degrades the query (never a wrong
//! answer, never a panic), and a file whose seal is missing is refused
//! at open with a typed error.

use betze::engines::{Engine, EngineError, JodaSim, VmEngine, WorkCounters};
use betze::explorer::Preset;
use betze::generator::GeneratorConfig;
use betze::harness::workload::{Corpus, SharedCorpus};
use betze::harness::{run_session_from_source, CorpusSource, QueryStatus, RetryPolicy, RunOptions};
use betze::json::DocSet;
use betze::model::Session;
use betze::store::{CorpusWriter, DiskChaos, DiskFaultPlan, PagedCorpus, StoreError};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Session seeds per preset in the differential sweep.
const SWEEP_SEEDS: u64 = 100;

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("betze-store-accept-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.bcorp"))
}

/// Emits the dataset into a sealed `.bcorp` and opens it.
fn emit(corpus: &SharedCorpus, tag: &str) -> (PathBuf, Arc<PagedCorpus>) {
    let path = temp_path(tag);
    let mut writer = CorpusWriter::create(&path, &corpus.dataset.name, 16 * 1024).unwrap();
    for doc in corpus.dataset.docs.iter() {
        writer.append(doc.clone()).unwrap();
    }
    writer.seal().unwrap();
    let paged = Arc::new(PagedCorpus::open(&path).unwrap());
    assert!(paged.page_count() > 1, "sweep must actually span pages");
    (path, paged)
}

/// Imports the corpus (from RAM or from disk) and executes the whole
/// session, returning everything an engine's answer consists of.
#[allow(clippy::type_complexity)]
fn observe(
    engine: &mut dyn Engine,
    corpus: &SharedCorpus,
    paged: Option<&Arc<PagedCorpus>>,
    session: &Session,
) -> (WorkCounters, Vec<(DocSet, WorkCounters, Duration)>) {
    engine.reset();
    let import = match paged {
        Some(corpus) => engine.import_paged(corpus).unwrap(),
        None => engine
            .import(&corpus.dataset.name, &corpus.dataset.docs)
            .unwrap(),
    };
    let mut queries = Vec::with_capacity(session.queries.len());
    for query in &session.queries {
        let outcome = engine.execute(query).unwrap();
        queries.push((
            outcome.docs,
            outcome.report.counters,
            outcome.report.modeled,
        ));
    }
    (import.counters, queries)
}

/// The differential oracle: `SWEEP_SEEDS` seeds × 2 presets × 3 engine
/// configurations, disk-backed vs in-RAM, bit-identical throughout.
#[test]
fn paged_execution_is_bit_identical_to_ram_across_the_sweep() {
    let corpus = SharedCorpus::prepare(Corpus::NoBench, 250, 1, 1);
    let (_path, paged) = emit(&corpus, "sweep");
    for preset in [Preset::Novice, Preset::Expert] {
        let config = GeneratorConfig::with_explorer(preset.config());
        for seed in 0..SWEEP_SEEDS {
            let session = corpus.generate_session(&config, seed).unwrap().session;
            let engines: [(&str, Box<dyn Engine>); 3] = [
                ("joda", Box::new(JodaSim::new(1))),
                ("vm-opt", Box::new(VmEngine::new(1))),
                ("vm-noopt", {
                    let mut vm = VmEngine::new(1);
                    vm.set_optimize(false);
                    Box::new(vm)
                }),
            ];
            for (label, mut engine) in engines {
                let ram = observe(engine.as_mut(), &corpus, None, &session);
                let disk = observe(engine.as_mut(), &corpus, Some(&paged), &session);
                let tag = format!("{label} preset={preset:?} seed={seed}");
                assert_eq!(ram.0, disk.0, "import counters diverged: {tag}");
                for (i, (r, d)) in ram.1.iter().zip(&disk.1).enumerate() {
                    assert_eq!(r.0, d.0, "query {i} results diverged: {tag}");
                    assert_eq!(r.1, d.1, "query {i} counters diverged: {tag}");
                    assert_eq!(r.2, d.2, "query {i} modeled time diverged: {tag}");
                }
            }
        }
    }
}

/// Crash-safety: under page-level fault injection every chaotic run
/// either completes or degrades with **typed** per-query failures —
/// permanent damage (bit flips, torn pages) is `Storage`, short reads
/// are transient and absorbed by the retry budget. Never a panic, never
/// an untyped error, and the fault schedule is seed-deterministic.
#[test]
fn injected_disk_faults_degrade_with_typed_errors() {
    let corpus = SharedCorpus::prepare(Corpus::NoBench, 250, 1, 1);
    let (path, _clean) = emit(&corpus, "chaos");
    let config = GeneratorConfig::with_explorer(Preset::Novice.config());
    let session = corpus.generate_session(&config, 11).unwrap().session;
    let options = RunOptions {
        retry: RetryPolicy::attempts(4),
        ..RunOptions::reference()
    };
    for chaos_seed in 0..20u64 {
        let plan = DiskFaultPlan::none(chaos_seed)
            .short_reads(0.2)
            .torn_pages(0.1)
            .bit_flips(0.1);
        // A run either completes (possibly degraded, per-query statuses)
        // or aborts during import; both arms must carry typed errors.
        let run_once = || {
            let paged = Arc::new(
                PagedCorpus::open(&path)
                    .unwrap()
                    .with_chaos(DiskChaos::new(plan.clone())),
            );
            let mut engine = JodaSim::new(1);
            let result = run_session_from_source(
                &mut engine,
                &CorpusSource::Paged(Arc::clone(&paged)),
                &session,
                &options,
            );
            let statuses = match result {
                Ok(outcome) => Ok(outcome.run().statuses.clone()),
                Err(e @ (EngineError::Storage { .. } | EngineError::Transient { .. })) => {
                    Err(format!("{e:?}"))
                }
                Err(other) => {
                    panic!("chaos seed {chaos_seed}: untyped abort: {other:?}")
                }
            };
            (statuses, paged.fault_log())
        };
        let (statuses, faults) = run_once();
        let permanent = faults.iter().any(|f| {
            matches!(
                f.kind,
                betze::store::DiskFaultKind::BitFlip { .. }
                    | betze::store::DiskFaultKind::TornPage { .. }
            )
        });
        if let Ok(statuses) = &statuses {
            let mut storage_failures = 0usize;
            for status in statuses {
                match status {
                    QueryStatus::Ok | QueryStatus::Retried(_) => {}
                    QueryStatus::Failed { error } => match error {
                        EngineError::Storage { .. } => storage_failures += 1,
                        // A short-read streak can exhaust the retry
                        // budget; that is still a *typed* degradation.
                        EngineError::Transient { .. } => {}
                        other => panic!(
                            "chaos seed {chaos_seed}: degraded query must carry a \
                             typed Storage/Transient error, got {other:?}"
                        ),
                    },
                    QueryStatus::SkippedDependencyLost { .. } => {}
                }
            }
            // Accounting both ways: a Storage failure is only ever the
            // echo of injected permanent damage, and injected permanent
            // damage never passes silently (its read cannot succeed).
            if storage_failures > 0 {
                assert!(
                    permanent,
                    "chaos seed {chaos_seed}: Storage failure without any injected \
                     permanent fault"
                );
            }
            if permanent {
                assert!(
                    statuses
                        .iter()
                        .any(|s| matches!(s, QueryStatus::Failed { .. })),
                    "chaos seed {chaos_seed}: permanent page damage was injected but \
                     every query succeeded — corruption went undetected"
                );
            }
        }
        // Determinism: the same plan reproduces the same outcome and
        // the same fault schedule.
        let (again, faults_again) = run_once();
        assert_eq!(statuses, again, "chaos seed {chaos_seed}");
        assert_eq!(faults.len(), faults_again.len(), "chaos seed {chaos_seed}");
    }
}

/// A file that lost its seal (the crash footprint of SIGKILL mid-emit)
/// is refused at open with the typed `TornSeal` error — a torn corpus
/// can never be half-read.
#[test]
fn torn_seal_is_detected_at_open() {
    let corpus = SharedCorpus::prepare(Corpus::NoBench, 100, 1, 1);
    let (path, paged) = emit(&corpus, "torn");
    drop(paged);
    let sealed_len = std::fs::metadata(&path).unwrap().len();
    // Chop the trailer (and a bit of the footer): the seal is gone.
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(sealed_len - 24).unwrap();
    drop(file);
    match PagedCorpus::open(&path) {
        Err(StoreError::TornSeal { .. }) => {}
        Err(other) => panic!("expected TornSeal, got {other:?}"),
        Ok(_) => panic!("torn file opened cleanly"),
    }
}
