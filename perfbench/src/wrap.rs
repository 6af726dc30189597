//! Observation-only wrappers: they time or count calls into a layer and
//! forward every call unchanged, so a wrapped run produces the same
//! sessions, modeled times, counters and statuses as an unwrapped one
//! (the tests below check this).

use crate::trace::span;
use betze::engines::{CancelToken, Engine, EngineError, ExecutionReport, QueryOutcome};
use betze::generator::SelectivityBackend;
use betze::json::Value;
use betze::model::{DatasetId, Predicate, Query, Transform};
use betze::stats::DatasetAnalysis;
use betze::store::PagedCorpus;
use std::sync::Arc;

/// Span names of one engine leg.
struct LegSpans {
    import: &'static str,
    execute: &'static str,
}

fn leg_spans(short_name: &str) -> LegSpans {
    match short_name {
        "joda" => LegSpans {
            import: "engines.joda.import",
            execute: "engines.joda.execute",
        },
        "vm" => LegSpans {
            import: "engines.vm.import",
            execute: "engines.vm.execute",
        },
        "mongodb" => LegSpans {
            import: "engines.mongodb.import",
            execute: "engines.mongodb.execute",
        },
        "psql" => LegSpans {
            import: "engines.psql.import",
            execute: "engines.psql.execute",
        },
        _ => LegSpans {
            import: "engines.other.import",
            execute: "engines.other.execute",
        },
    }
}

/// An [`Engine`] that records an import or execute span around each call
/// and forwards every trait method, `import_paged` included: the trait's
/// default `import_paged` materializes the corpus, which would turn a
/// paged run into a RAM import.
pub struct TimedEngine<E> {
    inner: E,
    spans: LegSpans,
}

impl<E: Engine> TimedEngine<E> {
    pub fn new(inner: E) -> Self {
        let spans = leg_spans(inner.short_name());
        TimedEngine { inner, spans }
    }

    #[cfg(test)]
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: Engine> Engine for TimedEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn short_name(&self) -> &'static str {
        self.inner.short_name()
    }

    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError> {
        span(self.spans.import, || self.inner.import(name, docs))
    }

    fn import_paged(&mut self, corpus: &Arc<PagedCorpus>) -> Result<ExecutionReport, EngineError> {
        span(self.spans.import, || self.inner.import_paged(corpus))
    }

    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
        span(self.spans.execute, || self.inner.execute(query))
    }

    fn forget(&mut self, name: &str) -> bool {
        self.inner.forget(name)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.inner.set_cancel(token);
    }

    fn set_output_enabled(&mut self, on: bool) {
        self.inner.set_output_enabled(on);
    }
}

/// A [`SelectivityBackend`] that counts `count_matching` calls and
/// records spans around the three calls that do work.
pub struct CountingBackend<B> {
    inner: B,
    pub count_calls: u64,
}

impl<B> CountingBackend<B> {
    pub fn new(inner: B) -> Self {
        CountingBackend {
            inner,
            count_calls: 0,
        }
    }
}

impl<B: SelectivityBackend> SelectivityBackend for CountingBackend<B> {
    fn dataset_size(&mut self, id: DatasetId) -> usize {
        self.inner.dataset_size(id)
    }

    fn count_matching(&mut self, id: DatasetId, predicate: &Predicate) -> usize {
        self.count_calls += 1;
        span("generator.count", || {
            self.inner.count_matching(id, predicate)
        })
    }

    fn register_derived(
        &mut self,
        parent: DatasetId,
        id: DatasetId,
        predicate: &Predicate,
        transforms: &[Transform],
    ) {
        span("generator.derive", || {
            self.inner
                .register_derived(parent, id, predicate, transforms);
        });
    }

    fn analyze(&mut self, id: DatasetId, name: &str) -> Option<DatasetAnalysis> {
        span("generator.reanalyze", || self.inner.analyze(id, name))
    }
}
