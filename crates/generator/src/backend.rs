//! Selectivity-verification backends (paper §IV-B/§IV-D).
//!
//! After instantiating a candidate predicate the generator *"will then
//! execute each generated query in the data processor and calculate the
//! actual selectivity"*. The backend abstraction makes that data processor
//! pluggable — the paper uses JODA; `betze-engines` plugs its simulated
//! engines in through this trait, and [`InMemoryBackend`] is the built-in
//! reference backend. Running without a backend is possible but
//! *"currently not recommended"*: the generator then scales statistics by
//! estimated selectivities.

use betze_json::{DocSet, Value};
use betze_model::{DatasetId, Predicate, Transform};
use betze_stats::DatasetAnalysis;
use std::sync::Arc;

/// A data processor that can measure real selectivities and re-analyze
/// derived datasets during generation.
pub trait SelectivityBackend {
    /// Number of documents in a dataset.
    fn dataset_size(&mut self, id: DatasetId) -> usize;

    /// Number of documents of `id` matching `predicate`.
    fn count_matching(&mut self, id: DatasetId, predicate: &Predicate) -> usize;

    /// Registers the dataset derived from `parent` by filtering with
    /// `predicate` and applying `transforms` (called once per accepted
    /// query; `transforms` is empty unless the §VII transformation
    /// extension is enabled).
    fn register_derived(
        &mut self,
        parent: DatasetId,
        id: DatasetId,
        predicate: &Predicate,
        transforms: &[Transform],
    );

    /// Computes accurate statistics for a dataset, or `None` if the backend
    /// cannot analyze (the generator then falls back to scaled statistics).
    fn analyze(&mut self, id: DatasetId, name: &str) -> Option<DatasetAnalysis>;
}

/// The reference backend: keeps every dataset as an in-memory document
/// vector and evaluates predicates with the IR's reference semantics.
///
/// Derived-dataset re-analysis works on a bounded prefix sample
/// ([`InMemoryBackend::with_analysis_sample`], default 2 000 documents):
/// the paper notes that generation time is dominated by dataset analysis
/// and that *"the queries could be generated with a smaller sample
/// dataset at a potential minor loss of query accuracy"* (§VI-A).
/// Selectivity **verification** always uses the full dataset, so accepted
/// queries still meet the target range exactly.
/// Base datasets are held behind [`Arc`] so many backends (one per
/// concurrent session under the harness `SessionPool`) can share one
/// corpus without cloning the documents, and a derived dataset without
/// transforms is a [`DocSet`] row selection over its parent's base —
/// no document is copied unless a transform changes it.
#[derive(Debug)]
pub struct InMemoryBackend {
    datasets: Vec<Option<DocSet>>,
    analysis_sample: usize,
}

impl Default for InMemoryBackend {
    fn default() -> Self {
        InMemoryBackend {
            datasets: Vec::new(),
            analysis_sample: 2_000,
        }
    }
}

impl InMemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        InMemoryBackend::default()
    }

    /// Sets the maximum number of documents re-analyzed per derived
    /// dataset (0 = unbounded).
    pub fn with_analysis_sample(mut self, sample: usize) -> Self {
        self.analysis_sample = sample;
        self
    }

    /// Registers a base dataset under the given id. Accepts an owned
    /// document vector or a shared `Arc<Vec<Value>>` — passing the `Arc`
    /// makes no document copy, so N concurrent backends over one corpus
    /// (one per session task under the harness pool) cost one corpus.
    pub fn register_base(&mut self, id: DatasetId, docs: impl Into<Arc<Vec<Value>>>) {
        self.slot(id.0);
        self.datasets[id.0] = Some(DocSet::new(docs.into()));
    }

    /// The documents of a dataset, if known.
    pub fn docs(&self, id: DatasetId) -> Option<&DocSet> {
        self.datasets.get(id.0).and_then(|d| d.as_ref())
    }

    fn slot(&mut self, idx: usize) {
        if self.datasets.len() <= idx {
            self.datasets.resize_with(idx + 1, || None);
        }
    }
}

impl SelectivityBackend for InMemoryBackend {
    fn dataset_size(&mut self, id: DatasetId) -> usize {
        self.docs(id).map_or(0, DocSet::len)
    }

    fn count_matching(&mut self, id: DatasetId, predicate: &Predicate) -> usize {
        self.docs(id).map_or(0, |docs| {
            docs.iter().filter(|d| predicate.matches(d)).count()
        })
    }

    fn register_derived(
        &mut self,
        parent: DatasetId,
        id: DatasetId,
        predicate: &Predicate,
        transforms: &[Transform],
    ) {
        let filtered = self.docs(parent).map(|docs| {
            let selected = docs.filter(|d| predicate.matches(d));
            if transforms.is_empty() {
                return selected;
            }
            let mut out = selected.to_vec();
            betze_model::apply_all(transforms, &mut out);
            DocSet::from(out)
        });
        self.slot(id.0);
        self.datasets[id.0] = filtered;
    }

    fn analyze(&mut self, id: DatasetId, name: &str) -> Option<DatasetAnalysis> {
        self.docs(id).map(|docs| {
            let sample = if self.analysis_sample == 0 {
                docs.clone()
            } else {
                docs.head(self.analysis_sample)
            };
            betze_stats::analyze_set(name, &sample, 1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze_json::{json, JsonPointer};
    use betze_model::FilterFn;

    fn pred(path: &str) -> Predicate {
        Predicate::leaf(FilterFn::Exists {
            path: JsonPointer::parse(path).unwrap(),
        })
    }

    #[test]
    fn base_registration_and_counting() {
        let mut backend = InMemoryBackend::new();
        let base = DatasetId(0);
        backend.register_base(
            base,
            vec![json!({ "a": 1 }), json!({ "a": 2 }), json!({ "b": 3 })],
        );
        assert_eq!(backend.dataset_size(base), 3);
        assert_eq!(backend.count_matching(base, &pred("/a")), 2);
        assert_eq!(backend.count_matching(base, &pred("/zz")), 0);
    }

    #[test]
    fn derived_datasets_filter_parents() {
        let mut backend = InMemoryBackend::new();
        let base = DatasetId(0);
        let child = DatasetId(1);
        backend.register_base(
            base,
            vec![
                json!({ "a": 1 }),
                json!({ "a": 2, "b": 1 }),
                json!({ "b": 3 }),
            ],
        );
        backend.register_derived(base, child, &pred("/a"), &[]);
        assert_eq!(backend.dataset_size(child), 2);
        assert_eq!(backend.count_matching(child, &pred("/b")), 1);
        // Grandchild derives from child.
        let grandchild = DatasetId(2);
        backend.register_derived(child, grandchild, &pred("/b"), &[]);
        assert_eq!(backend.dataset_size(grandchild), 1);
    }

    #[test]
    fn analyze_returns_real_statistics() {
        let mut backend = InMemoryBackend::new();
        let base = DatasetId(0);
        backend.register_base(base, vec![json!({ "a": 1 }), json!({ "a": "x" })]);
        let analysis = backend.analyze(base, "t").unwrap();
        assert_eq!(analysis.doc_count, 2);
        let stats = analysis.get(&JsonPointer::parse("/a").unwrap()).unwrap();
        assert_eq!(stats.int_count, 1);
        assert_eq!(stats.string_count, 1);
    }

    #[test]
    fn derived_datasets_are_row_views_of_the_base() {
        let base_docs: Arc<Vec<Value>> = Arc::new(
            (0..50)
                .map(|i| json!({ "a": (i as i64), "b": (i % 3 == 0) }))
                .collect(),
        );
        let mut backend = InMemoryBackend::new().with_analysis_sample(10);
        backend.register_base(DatasetId(0), Arc::clone(&base_docs));
        let flagged = Predicate::leaf(FilterFn::BoolEq {
            path: JsonPointer::parse("/b").unwrap(),
            value: true,
        });
        backend.register_derived(DatasetId(0), DatasetId(1), &flagged, &[]);
        backend.register_derived(DatasetId(1), DatasetId(2), &pred("/a"), &[]);
        let expected: Vec<Value> = base_docs
            .iter()
            .filter(|d| flagged.matches(d))
            .cloned()
            .collect();
        for id in [DatasetId(1), DatasetId(2)] {
            let view = backend.docs(id).unwrap();
            assert!(Arc::ptr_eq(view.base(), &base_docs), "no copy for {id:?}");
            assert_eq!(*view, expected);
            assert_eq!(
                backend.analyze(id, "d"),
                Some(betze_stats::analyze("d", &expected[..10]))
            );
        }
        assert_eq!(backend.count_matching(DatasetId(2), &flagged), 17);
    }

    #[test]
    fn unknown_dataset_is_empty() {
        let mut backend = InMemoryBackend::new();
        assert_eq!(backend.dataset_size(DatasetId(9)), 0);
        assert_eq!(backend.count_matching(DatasetId(9), &pred("/a")), 0);
        assert!(backend.analyze(DatasetId(9), "x").is_none());
    }
}
