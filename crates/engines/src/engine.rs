//! The engine abstraction: import datasets, execute IR queries, report
//! work.

use crate::{CostModel, WorkCounters};
use betze_json::{DocSet, Value};
use betze_model::Query;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// An error raised by an engine.
///
/// The taxonomy distinguishes **transient** faults (worth retrying; the
/// resilient runner backs off on the modeled clock and re-executes) from
/// **permanent** ones (retrying cannot help). `UnknownDataset` is
/// permanent for the engine but recoverable at the session level: the
/// runner can re-materialize a lost intermediate by replaying its
/// producing lineage.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The query referenced a dataset the engine has not imported (or
    /// that was dropped/evicted since). Permanent for the engine;
    /// recoverable by lineage replay in the harness.
    UnknownDataset { name: String },
    /// The engine's storage layer failed permanently (e.g. corrupt
    /// input the jq engine cannot parse).
    Storage { message: String },
    /// A transient fault (I/O hiccup, injected chaos, contention):
    /// retrying the same operation may succeed. `attempt_hint` is the
    /// fault source's suggestion for how many retries are worthwhile
    /// (0 = no opinion); retry policies may take the maximum of their
    /// own budget and this hint.
    Transient { message: String, attempt_hint: u32 },
    /// Importing a dataset failed permanently.
    ImportFailed { name: String, message: String },
    /// An internal invariant was violated (harness/engine plumbing bug).
    Internal { message: String },
    /// The operation was abandoned because a [`CancelToken`]
    /// (deadline, SIGINT, or explicit cancel) tripped. Not transient —
    /// the whole run is unwinding, so retrying is pointless. The runner
    /// propagates it immediately instead of degrading.
    ///
    /// [`CancelToken`]: crate::CancelToken
    Canceled { message: String },
    /// The engine's circuit breaker is open: recent consecutive transient
    /// failures exceeded the threshold, so calls fail fast instead of
    /// burning full retry budgets. Not transient by design — the runner
    /// records the query as failed and degrades the session to
    /// `CompletedWithErrors` rather than retrying into the open breaker.
    CircuitOpen { engine: String, failures: u32 },
}

impl EngineError {
    /// True if retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::Transient { .. })
    }

    /// The fault source's retry suggestion (0 for permanent errors or
    /// when the source has no opinion).
    pub fn attempt_hint(&self) -> u32 {
        match self {
            EngineError::Transient { attempt_hint, .. } => *attempt_hint,
            _ => 0,
        }
    }

    /// The dataset whose absence caused this error, if the error is a
    /// dependency loss the harness can try to repair by lineage replay.
    pub fn lost_dataset(&self) -> Option<&str> {
        match self {
            EngineError::UnknownDataset { name } => Some(name),
            _ => None,
        }
    }

    /// Classifies an I/O error: scheduling/timing hiccups are transient,
    /// everything else is a permanent storage failure.
    pub fn from_io(e: &std::io::Error, what: &str) -> EngineError {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                EngineError::Transient {
                    message: format!("{what}: {e}"),
                    attempt_hint: 1,
                }
            }
            _ => EngineError::Storage {
                message: format!("{what}: {e}"),
            },
        }
    }

    /// Classifies a paged-store error under the same taxonomy as
    /// [`from_io`](Self::from_io): transient disk faults (short reads and
    /// injected hiccups) are worth one retry, everything else — torn
    /// pages, checksum mismatches, ENOSPC — is a permanent storage
    /// failure that degrades the query instead of the whole run.
    pub fn from_store(e: &betze_store::StoreError, what: &str) -> EngineError {
        if e.is_transient() {
            EngineError::Transient {
                message: format!("{what}: {e}"),
                attempt_hint: 1,
            }
        } else {
            EngineError::Storage {
                message: format!("{what}: {e}"),
            }
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDataset { name } => {
                write!(f, "unknown dataset '{name}' (not imported)")
            }
            EngineError::Storage { message } => write!(f, "storage error: {message}"),
            EngineError::Transient {
                message,
                attempt_hint,
            } => {
                write!(
                    f,
                    "transient fault: {message} (attempt hint {attempt_hint})"
                )
            }
            EngineError::ImportFailed { name, message } => {
                write!(f, "import of '{name}' failed: {message}")
            }
            EngineError::Internal { message } => write!(f, "internal error: {message}"),
            EngineError::Canceled { message } => write!(f, "canceled: {message}"),
            EngineError::CircuitOpen { engine, failures } => {
                write!(
                    f,
                    "circuit breaker open for {engine} after {failures} consecutive transient failures"
                )
            }
        }
    }
}

impl Error for EngineError {}

/// What one engine operation cost: measured wall time, the work counters,
/// and the deterministic modeled time derived from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionReport {
    /// Measured wall-clock time on this host.
    pub wall: Duration,
    /// The work performed.
    pub counters: WorkCounters,
    /// Modeled time under the engine's cost profile (query work plus any
    /// import work in `counters`).
    pub modeled: Duration,
}

impl ExecutionReport {
    /// Builds a report from counters via the engine's cost model.
    pub fn from_counters(wall: Duration, counters: WorkCounters, model: &CostModel) -> Self {
        ExecutionReport {
            wall,
            counters,
            modeled: model.query_time(&counters) + model.import_time(&counters),
        }
    }

    /// Report with everything zero.
    pub fn empty() -> Self {
        ExecutionReport {
            wall: Duration::ZERO,
            counters: WorkCounters::default(),
            modeled: Duration::ZERO,
        }
    }

    /// Merges another report into this one (summing counters and times).
    pub fn merge(&mut self, other: &ExecutionReport) {
        self.wall += other.wall;
        self.counters += other.counters;
        self.modeled += other.modeled;
    }
}

/// The result of executing one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The result documents (filtered documents, or aggregation results).
    /// In-memory engines return a row selection over the dataset they
    /// scanned; engines that decode their results wrap what they decoded.
    pub docs: DocSet,
    /// What it cost.
    pub report: ExecutionReport,
}

/// A system under test.
pub trait Engine {
    /// Display name ("PostgreSQL").
    fn name(&self) -> &'static str;

    /// Unique short name ("psql"), matching the language translators.
    fn short_name(&self) -> &'static str;

    /// Imports a dataset under a name, replacing any previous dataset with
    /// that name. Returns the import cost (Table II's wall-clock-vs-
    /// without-import distinction needs it separately).
    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError>;

    /// Imports a sealed on-disk corpus under its footer name. Engines
    /// with a streaming path ([`JodaSim`](crate::JodaSim),
    /// [`VmEngine`](crate::VmEngine)) keep the corpus on disk and scan
    /// it page-at-a-time with counters — and therefore modeled times —
    /// bit-identical to the in-RAM path. The default implementation
    /// materializes every page and delegates to [`import`](Self::import),
    /// so engines without a streaming path still accept disk corpora
    /// (at in-RAM memory cost).
    fn import_paged(
        &mut self,
        corpus: &std::sync::Arc<betze_store::PagedCorpus>,
    ) -> Result<ExecutionReport, EngineError> {
        let docs = corpus
            .materialize()
            .map_err(|e| EngineError::from_store(&e, "materialize corpus"))?;
        self.import(corpus.name(), &docs)
    }

    /// Executes one IR query. `query.base` must name an imported dataset
    /// or a stored intermediate; `query.store_as` stores the (pre-
    /// aggregation) filtered result as a new dataset.
    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError>;

    /// Drops one dataset; returns whether it existed.
    fn forget(&mut self, name: &str) -> bool;

    /// Clears all datasets and caches.
    fn reset(&mut self);

    /// Worker threads used for scans (1 for the single-threaded systems —
    /// the paper notes "all systems — except for JODA — use only one main
    /// thread to evaluate queries").
    fn threads(&self) -> usize {
        1
    }

    /// Reconfigures the thread count, where supported (JODA only).
    fn set_threads(&mut self, _threads: usize) {}

    /// Installs (or clears, with `None`) a cooperative cancellation
    /// token. Engines poll it at the top of `import`/`execute` and at
    /// deterministic points inside long scans, returning
    /// [`EngineError::Canceled`] once it trips. The default
    /// implementation ignores the token (an engine without long loops
    /// still cancels between queries via the runner's own polls).
    fn set_cancel(&mut self, _token: Option<crate::CancelToken>) {}

    /// Enables or disables result-output accounting. When disabled, a
    /// query's result stays a reference/cursor (paper §IV-C: JODA and
    /// MongoDB "may only return a reference or iterator to the evaluated
    /// result set") and no output work is charged — the mode of the
    /// Table II / Fig. 9 / Fig. 10 measurements. Enabled (the default),
    /// results are fully emitted, as Table III forces.
    fn set_output_enabled(&mut self, _on: bool) {}
}

/// Boxed engines are engines too, so wrappers like
/// [`ChaosEngine`](crate::ChaosEngine) compose with `Box<dyn Engine>`
/// collections such as [`all_engines`](crate::all_engines).
impl<E: Engine + ?Sized> Engine for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn short_name(&self) -> &'static str {
        (**self).short_name()
    }

    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError> {
        (**self).import(name, docs)
    }

    fn import_paged(
        &mut self,
        corpus: &std::sync::Arc<betze_store::PagedCorpus>,
    ) -> Result<ExecutionReport, EngineError> {
        (**self).import_paged(corpus)
    }

    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
        (**self).execute(query)
    }

    fn forget(&mut self, name: &str) -> bool {
        (**self).forget(name)
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn threads(&self) -> usize {
        (**self).threads()
    }

    fn set_threads(&mut self, threads: usize) {
        (**self).set_threads(threads);
    }

    fn set_cancel(&mut self, token: Option<crate::CancelToken>) {
        (**self).set_cancel(token);
    }

    fn set_output_enabled(&mut self, on: bool) {
        (**self).set_output_enabled(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostProfile;

    #[test]
    fn report_merge_sums() {
        let model = CostModel::new(CostProfile::joda(), 1);
        let c1 = WorkCounters {
            docs_scanned: 10,
            queries: 1,
            ..Default::default()
        };
        let mut a = ExecutionReport::from_counters(Duration::from_millis(5), c1, &model);
        let b = ExecutionReport::from_counters(Duration::from_millis(7), c1, &model);
        let modeled_one = a.modeled;
        a.merge(&b);
        assert_eq!(a.wall, Duration::from_millis(12));
        assert_eq!(a.counters.docs_scanned, 20);
        assert_eq!(a.modeled, modeled_one * 2);
    }

    #[test]
    fn error_display() {
        let e = EngineError::UnknownDataset { name: "tw".into() };
        assert!(e.to_string().contains("tw"));
        let t = EngineError::Transient {
            message: "disk hiccup".into(),
            attempt_hint: 2,
        };
        assert!(t.to_string().contains("disk hiccup"));
        let i = EngineError::ImportFailed {
            name: "tw".into(),
            message: "bad bytes".into(),
        };
        assert!(i.to_string().contains("tw") && i.to_string().contains("bad bytes"));
    }

    #[test]
    fn taxonomy_classifies_transience() {
        let t = EngineError::Transient {
            message: "x".into(),
            attempt_hint: 3,
        };
        assert!(t.is_transient());
        assert_eq!(t.attempt_hint(), 3);
        assert_eq!(t.lost_dataset(), None);
        let u = EngineError::UnknownDataset { name: "mid".into() };
        assert!(!u.is_transient());
        assert_eq!(u.lost_dataset(), Some("mid"));
        assert_eq!(u.attempt_hint(), 0);
        for e in [
            EngineError::Storage {
                message: "x".into(),
            },
            EngineError::ImportFailed {
                name: "a".into(),
                message: "x".into(),
            },
            EngineError::Internal {
                message: "x".into(),
            },
            EngineError::Canceled {
                message: "x".into(),
            },
            EngineError::CircuitOpen {
                engine: "jq".into(),
                failures: 5,
            },
        ] {
            assert!(!e.is_transient());
            assert_eq!(e.lost_dataset(), None);
            assert_eq!(e.attempt_hint(), 0);
        }
    }

    #[test]
    fn governance_errors_display_their_context() {
        let c = EngineError::Canceled {
            message: "scan of 'tw'".into(),
        };
        assert!(c.to_string().contains("canceled"));
        assert!(c.to_string().contains("tw"));
        let b = EngineError::CircuitOpen {
            engine: "MongoDB".into(),
            failures: 4,
        };
        assert!(b.to_string().contains("MongoDB"));
        assert!(b.to_string().contains('4'));
    }

    #[test]
    fn io_errors_classify_by_kind() {
        use std::io;
        let transient = io::Error::new(io::ErrorKind::Interrupted, "signal");
        assert!(EngineError::from_io(&transient, "reading").is_transient());
        let permanent = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e = EngineError::from_io(&permanent, "reading");
        assert!(!e.is_transient());
        assert!(matches!(e, EngineError::Storage { .. }));
    }
}
