//! The JODA-like engine: in-memory, multi-threaded, with Delta-Tree-style
//! reuse of intermediate results.
//!
//! Datasets, cached intermediates and query results are [`DocSet`]s: a
//! filter scan returns a row selection over the *same* base documents,
//! so storing an intermediate, hitting the cache or returning a result
//! copies no document. Only work that produces new documents allocates
//! them: transforms, eviction-mode re-parses and page reads of a
//! disk-resident base. The `docs_materialized` counter still charges
//! every filtered row, because it prices the intermediate JODA
//! materializes, not how this simulation represents it.

use crate::{
    CancelToken, CostModel, CostProfile, Engine, EngineError, ExecutionReport, QueryOutcome,
    WorkCounters,
};
use betze_json::{DocSet, Value};
use betze_model::{Predicate, Query};
use betze_store::PagedCorpus;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A simulation of JODA (Schäfer & Michel, ICDE 2020): a vertically
/// scalable, in-memory JSON processor.
///
/// Architecture-relevant behaviours reproduced here:
///
/// * **Parse once, keep in memory** — import parses documents into the
///   value model; queries never touch raw text again.
/// * **Multi-threaded scans** — filters run on a configurable number of
///   worker threads (the only engine in the paper that uses more than one
///   core, Fig. 9).
/// * **Intermediate-result reuse** — JODA's Delta Trees make iterative
///   exploratory queries cheap. Here every filtered result is cached by
///   `(base, predicate)`; a query whose predicate *extends* a cached one
///   (the composed-predicate export of §IV-C always has this shape) only
///   evaluates the extension on the cached subset. This is what produces
///   the declining per-query runtimes of Fig. 5.
/// * **Eviction mode** (`JodaSim::with_eviction`) — drops parsed data
///   after every query and re-parses from the stored raw text, modeling a
///   memory-constrained deployment (Table II's "JODA memory evicted").
/// * **Out-of-core bases** (`import_paged`) — a sealed `.bcorp` corpus
///   stays on disk and base scans stream it page-at-a-time, so memory is
///   bounded by pages-in-flight instead of corpus size. Every counter
///   charge is identical to the in-RAM path (the work is the same, only
///   its residence differs), so results, counters and modeled times are
///   bit-identical; a corrupt page surfaces as a typed
///   [`EngineError::Storage`] degrading that query, never a wrong answer.
#[derive(Debug)]
pub struct JodaSim {
    threads: usize,
    eviction: bool,
    output_enabled: bool,
    cancel: CancelToken,
    datasets: HashMap<String, DocSet>,
    /// Disk-resident base corpora, scanned page-at-a-time.
    paged: HashMap<String, Arc<PagedCorpus>>,
    /// Raw JSON-lines text kept for eviction-mode re-imports.
    raw: HashMap<String, String>,
    /// Delta-Tree-style cache: canonical `(base | predicate)` key → result.
    cache: HashMap<String, DocSet>,
}

impl JodaSim {
    /// An in-memory JODA with the given scan thread count.
    pub fn new(threads: usize) -> Self {
        JodaSim {
            threads: threads.max(1),
            eviction: false,
            output_enabled: true,
            cancel: CancelToken::new(),
            datasets: HashMap::new(),
            paged: HashMap::new(),
            raw: HashMap::new(),
            cache: HashMap::new(),
        }
    }

    /// JODA in memory-eviction mode: parsed data is dropped after each
    /// query and re-read from the raw text, "just as the other systems
    /// have to" (paper §VI-B).
    pub fn with_eviction(threads: usize) -> Self {
        JodaSim {
            eviction: true,
            ..JodaSim::new(threads)
        }
    }

    /// Whether eviction mode is enabled.
    pub fn eviction(&self) -> bool {
        self.eviction
    }

    fn model(&self) -> CostModel {
        CostModel::new(CostProfile::joda(), self.threads)
    }

    fn cache_key(base: &str, predicate: &Predicate) -> String {
        format!("{base}|{predicate}")
    }

    /// Multi-threaded filter scan over a document set, returning the
    /// matching rows as a selection over the same base. Polls the cancel
    /// token once per scan — composed predicates recurse through
    /// [`filtered`](Self::filtered), so a query polls at every level of
    /// its predicate chain.
    fn scan(
        &self,
        docs: &DocSet,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<DocSet, EngineError> {
        self.cancel.check("JODA scan")?;
        counters.docs_scanned += docs.len() as u64;
        let leaves = predicate.leaf_count() as u64;
        // Leaf count per doc is an upper bound (short-circuiting evaluates
        // fewer); the cost model treats it as the scan's predicate work.
        counters.predicate_evals += leaves * docs.len() as u64;
        let out = if self.threads <= 1 || docs.len() < 1024 {
            docs.filter(|d| predicate.matches(d))
        } else {
            let base = docs.base();
            docs.reselect(select_parallel(&docs.row_ids(), self.threads, |part| {
                part.iter()
                    .copied()
                    .filter(|&row| predicate.matches(&base[row as usize]))
                    .collect()
            }))
        };
        // The filtered set becomes an in-memory intermediate dataset
        // (JODA materializes result sets for reuse).
        counters.docs_materialized += out.len() as u64;
        Ok(out)
    }

    /// Resolves the filtered document set for `(base, predicate)`, reusing
    /// cached intermediate results where possible.
    fn filtered(
        &mut self,
        base: &str,
        base_docs: &DocSet,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<DocSet, EngineError> {
        if !self.eviction {
            let key = Self::cache_key(base, predicate);
            if let Some(hit) = self.cache.get(&key) {
                counters.cache_hits += 1;
                return Ok(hit.clone());
            }
            // Composed predicates have the shape And(parent_chain, local):
            // resolve the left side (recursively cacheable), then evaluate
            // only the extension on that subset.
            let result = if let Predicate::And(left, right) = predicate {
                let parent = self.filtered(base, base_docs, left, counters)?;
                self.scan(&parent, right, counters)?
            } else {
                self.scan(base_docs, predicate, counters)?
            };
            self.cache.insert(key, result.clone());
            Ok(result)
        } else {
            self.scan(base_docs, predicate, counters)
        }
    }

    /// Streaming filter scan over a disk-resident corpus: one page's
    /// documents in memory at a time. Per-page charges sum to exactly
    /// what [`scan`](Self::scan) charges for the whole corpus, so the
    /// modeled clock cannot tell the paths apart; only the residence of
    /// the data differs. The matching documents move out of the pages
    /// read into a new base. A damaged page aborts the scan with a typed
    /// storage error instead of returning a partial result.
    fn scan_paged(
        &self,
        corpus: &PagedCorpus,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<DocSet, EngineError> {
        let leaves = predicate.leaf_count() as u64;
        let mut out = Vec::new();
        for index in 0..corpus.page_count() {
            self.cancel.check("JODA scan")?;
            let page = corpus
                .read_page(index)
                .map_err(|e| EngineError::from_store(&e, "scan page"))?;
            counters.docs_scanned += page.docs.len() as u64;
            counters.predicate_evals += leaves * page.docs.len() as u64;
            out.extend(page.docs.into_iter().filter(|d| predicate.matches(d)));
        }
        counters.docs_materialized += out.len() as u64;
        Ok(DocSet::from(out))
    }

    /// [`filtered`](Self::filtered) for a disk-resident base: identical
    /// cache structure and `And`-left decomposition — only the innermost
    /// (whole-corpus) scan streams pages; every extension scan runs over
    /// the cached in-memory subset exactly as in the RAM path.
    fn filtered_paged(
        &mut self,
        base: &str,
        corpus: &Arc<PagedCorpus>,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<DocSet, EngineError> {
        if !self.eviction {
            let key = Self::cache_key(base, predicate);
            if let Some(hit) = self.cache.get(&key) {
                counters.cache_hits += 1;
                return Ok(hit.clone());
            }
            let result = if let Predicate::And(left, right) = predicate {
                let parent = self.filtered_paged(base, corpus, left, counters)?;
                self.scan(&parent, right, counters)?
            } else {
                self.scan_paged(corpus, predicate, counters)?
            };
            self.cache.insert(key, result.clone());
            Ok(result)
        } else {
            self.scan_paged(corpus, predicate, counters)
        }
    }
}

/// Splits the ascending `rows` into one contiguous chunk per worker, runs
/// `select` on each chunk on its own scoped thread and concatenates the
/// outputs in chunk order — so the result is exactly `select(rows)`.
pub(crate) fn select_parallel(
    rows: &[u32],
    threads: usize,
    select: impl Fn(&[u32]) -> Vec<u32> + Sync,
) -> Vec<u32> {
    let chunk = rows.len().div_ceil(threads).max(1);
    let select = &select;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk)
            .map(|part| scope.spawn(move || select(part)))
            .collect();
        let mut out = Vec::new();
        for handle in handles {
            out.extend(handle.join().expect("scan worker panicked"));
        }
        out
    })
}

impl Engine for JodaSim {
    fn name(&self) -> &'static str {
        "JODA"
    }

    fn short_name(&self) -> &'static str {
        "joda"
    }

    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError> {
        self.cancel.check("JODA import")?;
        let started = Instant::now();
        let mut counters = WorkCounters::default();
        let text = betze_json::to_json_lines(docs);
        counters.import_docs = docs.len() as u64;
        counters.import_bytes = text.len() as u64;
        // Import parses the raw text into memory — that is the work the
        // import phase consists of for an in-memory system.
        let parsed = betze_json::parse_many(&text).map_err(|e| EngineError::ImportFailed {
            name: name.to_owned(),
            message: format!("parse failed: {e}"),
        })?;
        self.paged.remove(name);
        self.datasets.insert(name.to_owned(), DocSet::from(parsed));
        if self.eviction {
            self.raw.insert(name.to_owned(), text);
        }
        Ok(ExecutionReport::from_counters(
            started.elapsed(),
            counters,
            &self.model(),
        ))
    }

    fn import_paged(&mut self, corpus: &Arc<PagedCorpus>) -> Result<ExecutionReport, EngineError> {
        self.cancel.check("JODA import")?;
        let started = Instant::now();
        // The footer records document and JSON-lines byte counts computed
        // with the same serializer the in-RAM import runs, so the import
        // charge — and hence its modeled time — is bit-identical.
        let counters = WorkCounters {
            import_docs: corpus.doc_count(),
            import_bytes: corpus.json_bytes(),
            ..Default::default()
        };
        let name = corpus.name().to_owned();
        self.datasets.remove(&name);
        self.raw.remove(&name);
        self.paged.insert(name, Arc::clone(corpus));
        Ok(ExecutionReport::from_counters(
            started.elapsed(),
            counters,
            &self.model(),
        ))
    }

    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
        self.cancel.check("JODA execute")?;
        let started = Instant::now();
        let mut counters = WorkCounters {
            queries: 1,
            ..Default::default()
        };
        // Eviction mode re-reads the raw data before every query. A
        // disk-resident base is re-read from its pages during the scan
        // itself; the re-parse work is byte-for-byte the same, so the
        // charge is the same.
        if self.eviction {
            if let Some(text) = self.raw.get(&query.base) {
                counters.bytes_parsed += text.len() as u64;
                let parsed = betze_json::parse_many(text).map_err(|e| EngineError::Storage {
                    message: format!("re-import parse failed: {e}"),
                })?;
                self.datasets
                    .insert(query.base.clone(), DocSet::from(parsed));
            } else if let Some(corpus) = self.paged.get(&query.base) {
                counters.bytes_parsed += corpus.json_bytes();
            }
        }

        let filtered = if let Some(base_docs) = self.datasets.get(&query.base).cloned() {
            match &query.filter {
                Some(predicate) => {
                    self.filtered(&query.base, &base_docs, predicate, &mut counters)?
                }
                None => {
                    counters.docs_scanned += base_docs.len() as u64;
                    base_docs
                }
            }
        } else if let Some(corpus) = self.paged.get(&query.base).cloned() {
            match &query.filter {
                Some(predicate) => {
                    self.filtered_paged(&query.base, &corpus, predicate, &mut counters)?
                }
                // An unfiltered query's result *is* the whole corpus —
                // materializing it is inherent to the query, not to the
                // storage path, and the charge matches the RAM path.
                None => {
                    counters.docs_scanned += corpus.doc_count();
                    DocSet::from(
                        corpus
                            .materialize()
                            .map_err(|e| EngineError::from_store(&e, "materialize corpus"))?,
                    )
                }
            }
        } else {
            return Err(EngineError::UnknownDataset {
                name: query.base.clone(),
            });
        };

        // Transformations (§VII) change the result documents — and hence
        // the stored intermediate dataset.
        let result = if query.transforms.is_empty() {
            filtered
        } else {
            let mut transformed = filtered.to_vec();
            counters.transform_ops += (transformed.len() * query.transforms.len()) as u64;
            betze_model::apply_all(&query.transforms, &mut transformed);
            DocSet::from(transformed)
        };

        if let Some(store) = &query.store_as {
            self.datasets.insert(store.clone(), result.clone());
        }

        let docs = match &query.aggregation {
            Some(agg) => DocSet::from(agg.eval(&result)),
            None => result,
        };
        if self.output_enabled {
            counters.docs_output += docs.len() as u64;
            counters.bytes_output += docs.iter().map(|d| d.approx_size() as u64).sum::<u64>();
        }

        // Eviction: drop the parsed base again.
        if self.eviction {
            if self.raw.contains_key(&query.base) {
                self.datasets.remove(&query.base);
            }
            self.cache.clear();
        }

        Ok(QueryOutcome {
            docs,
            report: ExecutionReport::from_counters(started.elapsed(), counters, &self.model()),
        })
    }

    fn forget(&mut self, name: &str) -> bool {
        self.raw.remove(name);
        self.cache
            .retain(|key, _| !key.starts_with(&format!("{name}|")));
        let paged = self.paged.remove(name).is_some();
        self.datasets.remove(name).is_some() || paged
    }

    fn reset(&mut self) {
        self.datasets.clear();
        self.paged.clear();
        self.raw.clear();
        self.cache.clear();
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token.unwrap_or_default();
    }

    fn set_output_enabled(&mut self, on: bool) {
        self.output_enabled = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze_json::{json, JsonPointer};
    use betze_model::FilterFn;

    fn ptr(s: &str) -> JsonPointer {
        JsonPointer::parse(s).unwrap()
    }

    fn docs() -> Vec<Value> {
        (0..100)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect()
    }

    fn even() -> Predicate {
        Predicate::leaf(FilterFn::BoolEq {
            path: ptr("/even"),
            value: true,
        })
    }

    fn small() -> Predicate {
        Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: betze_model::Comparison::Lt,
            value: 10.0,
        })
    }

    #[test]
    fn executes_filters_correctly() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even());
        let out = joda.execute(&q).unwrap();
        assert_eq!(out.docs.len(), 50);
        assert_eq!(out.docs, q.eval(&docs()));
        assert_eq!(out.report.counters.docs_scanned, 100);
    }

    #[test]
    fn unknown_dataset_errors() {
        let mut joda = JodaSim::new(1);
        assert!(matches!(
            joda.execute(&Query::scan("missing")),
            Err(EngineError::UnknownDataset { .. })
        ));
    }

    #[test]
    fn composed_predicates_reuse_cached_prefixes() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let q1 = Query::scan("t").with_filter(even());
        let r1 = joda.execute(&q1).unwrap();
        assert_eq!(r1.report.counters.docs_scanned, 100);
        // Extension: even AND n < 10 — must scan only the 50 cached docs.
        let q2 = Query::scan("t").with_filter(even().and(small()));
        let r2 = joda.execute(&q2).unwrap();
        assert_eq!(r2.docs.len(), 5);
        assert_eq!(
            r2.report.counters.docs_scanned, 50,
            "extension must scan the cached subset only"
        );
        assert_eq!(r2.report.counters.cache_hits, 1);
        // Re-running q2 is a pure cache hit.
        let r3 = joda.execute(&q2).unwrap();
        assert_eq!(r3.report.counters.docs_scanned, 0);
        assert!(r3.report.counters.cache_hits >= 1);
        assert_eq!(r3.docs, r2.docs);
    }

    #[test]
    fn multithreaded_scan_matches_single_threaded() {
        let many: Vec<Value> = (0..5000)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect();
        let mut joda1 = JodaSim::new(1);
        let mut joda4 = JodaSim::new(4);
        joda1.import("t", &many).unwrap();
        joda4.import("t", &many).unwrap();
        assert_eq!(joda4.threads(), 4);
        let q = Query::scan("t").with_filter(even());
        let a = joda1.execute(&q).unwrap();
        let b = joda4.execute(&q).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_eq!(
            a.report.counters.docs_scanned,
            b.report.counters.docs_scanned
        );
        // Modeled time shrinks with threads.
        assert!(b.report.modeled < a.report.modeled);
    }

    #[test]
    fn row_selection_is_identical_across_thread_counts() {
        let many: Vec<Value> = (0..5000)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect();
        let wide = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: betze_model::Comparison::Lt,
            value: 3000.0,
        });
        // The second query scans a 2,500-row selection of the base and the
        // third a 1,500-row one: both above the threading threshold.
        let queries = [
            Query::scan("t").with_filter(even()).store_as("evens"),
            Query::scan("evens").with_filter(wide.clone()),
            Query::scan("t").with_filter(even().and(wide)),
        ];
        let run = |threads: usize| {
            let mut joda = JodaSim::new(threads);
            joda.import("t", &many).unwrap();
            queries
                .iter()
                .map(|q| {
                    let out = joda.execute(q).unwrap();
                    (out.docs.rows().map(<[u32]>::to_vec), out.report.counters)
                })
                .collect::<Vec<_>>()
        };
        let single = run(1);
        assert_eq!(single[1].0.as_ref().map(Vec::len), Some(1500));
        for threads in [4, 16] {
            assert_eq!(run(threads), single, "threads={threads}");
        }
    }

    #[test]
    fn intermediates_and_outputs_share_the_imported_base() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let base = Arc::clone(joda.datasets["t"].base());
        let filtered = joda
            .execute(&Query::scan("t").with_filter(even()).store_as("evens"))
            .unwrap();
        assert!(Arc::ptr_eq(filtered.docs.base(), &base));
        assert!(Arc::ptr_eq(joda.datasets["evens"].base(), &base));
        let unfiltered = joda.execute(&Query::scan("t")).unwrap();
        assert!(Arc::ptr_eq(unfiltered.docs.base(), &base));
        assert!(unfiltered.docs.rows().is_none());
        let nested = joda
            .execute(&Query::scan("evens").with_filter(small()))
            .unwrap();
        assert!(Arc::ptr_eq(nested.docs.base(), &base));
        assert_eq!(nested.docs.rows(), Some(&[0, 2, 4, 6, 8][..]));
        // The output charge is unchanged by sharing: every row is counted.
        assert_eq!(unfiltered.report.counters.docs_output, 100);
    }

    #[test]
    fn eviction_mode_reparses_every_query() {
        let mut joda = JodaSim::with_eviction(1);
        assert!(joda.eviction());
        joda.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even());
        let r1 = joda.execute(&q).unwrap();
        assert!(
            r1.report.counters.bytes_parsed > 0,
            "must re-parse raw data"
        );
        let r2 = joda.execute(&q).unwrap();
        assert_eq!(
            r2.report.counters.cache_hits, 0,
            "eviction disables the cache"
        );
        assert!(r2.report.counters.bytes_parsed > 0);
        assert_eq!(r1.docs, r2.docs);
    }

    #[test]
    fn store_as_creates_named_dataset() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even()).store_as("evens");
        joda.execute(&q).unwrap();
        let q2 = Query::scan("evens").with_filter(small());
        let out = joda.execute(&q2).unwrap();
        assert_eq!(out.docs.len(), 5);
        assert!(joda.forget("evens"));
        assert!(!joda.forget("evens"));
    }

    #[test]
    fn aggregation_outputs_single_document() {
        use betze_model::{AggFunc, Aggregation};
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let q = Query::scan("t")
            .with_filter(even())
            .with_aggregation(Aggregation::new(
                AggFunc::Count {
                    path: JsonPointer::root(),
                },
                "count",
            ));
        let out = joda.execute(&q).unwrap();
        assert_eq!(out.docs, vec![json!({ "count": 50usize })]);
        assert_eq!(out.report.counters.docs_output, 1);
    }

    #[test]
    fn import_counts_bytes_and_docs() {
        let mut joda = JodaSim::new(1);
        let report = joda.import("t", &docs()).unwrap();
        assert_eq!(report.counters.import_docs, 100);
        assert!(report.counters.import_bytes > 1000);
        assert!(report.modeled > std::time::Duration::ZERO);
    }

    #[test]
    fn reset_clears_everything() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        joda.execute(&Query::scan("t").with_filter(even())).unwrap();
        joda.reset();
        assert!(matches!(
            joda.execute(&Query::scan("t")),
            Err(EngineError::UnknownDataset { .. })
        ));
    }

    /// Emits `docs` as a sealed `.bcorp` named "t" and opens it.
    fn emit_corpus(tag: &str, docs: &[Value]) -> (std::path::PathBuf, Arc<PagedCorpus>) {
        let dir = std::env::temp_dir().join(format!("betze-joda-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.bcorp"));
        let mut writer = betze_store::CorpusWriter::create(&path, "t", 4096).unwrap();
        for doc in docs {
            writer.append(doc.clone()).unwrap();
        }
        writer.seal().unwrap();
        let corpus = Arc::new(PagedCorpus::open(&path).unwrap());
        (path, corpus)
    }

    #[test]
    fn paged_base_is_bit_identical_to_ram() {
        use betze_model::{AggFunc, Aggregation};
        let data = docs();
        let (path, corpus) = emit_corpus("identical", &data);
        assert!(corpus.page_count() > 1, "corpus must actually be paged");
        let mut ram = JodaSim::new(1);
        let mut disk = JodaSim::new(1);
        let ri = ram.import("t", &data).unwrap();
        let di = disk.import_paged(&corpus).unwrap();
        assert_eq!(ri.counters, di.counters);
        assert_eq!(ri.modeled, di.modeled);
        let queries = vec![
            Query::scan("t").with_filter(even()),
            Query::scan("t")
                .with_filter(even().and(small()))
                .store_as("es"),
            Query::scan("es").with_aggregation(Aggregation::new(
                AggFunc::Count {
                    path: JsonPointer::root(),
                },
                "count",
            )),
            Query::scan("t"),
        ];
        for q in &queries {
            let a = ram.execute(q).unwrap();
            let b = disk.execute(q).unwrap();
            assert_eq!(a.docs, b.docs, "docs for {q:?}");
            assert_eq!(a.report.counters, b.report.counters, "counters for {q:?}");
            assert_eq!(a.report.modeled, b.report.modeled, "modeled for {q:?}");
        }
        assert!(disk.forget("t"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn paged_eviction_mode_charges_the_same_reparse() {
        let data = docs();
        let (path, corpus) = emit_corpus("evict", &data);
        let mut ram = JodaSim::with_eviction(1);
        let mut disk = JodaSim::with_eviction(1);
        ram.import("t", &data).unwrap();
        disk.import_paged(&corpus).unwrap();
        let q = Query::scan("t").with_filter(even());
        for _ in 0..2 {
            let a = ram.execute(&q).unwrap();
            let b = disk.execute(&q).unwrap();
            assert!(b.report.counters.bytes_parsed > 0, "must charge re-read");
            assert_eq!(a.docs, b.docs);
            assert_eq!(a.report.counters, b.report.counters);
            assert_eq!(a.report.modeled, b.report.modeled);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_page_degrades_the_query_to_typed_storage() {
        use betze_store::{DiskChaos, DiskFaultPlan};
        let (path, _) = emit_corpus("flip", &docs());
        let corpus = PagedCorpus::open(&path)
            .unwrap()
            .with_chaos(DiskChaos::new(DiskFaultPlan::none(7).bit_flips(1.0)));
        let mut joda = JodaSim::new(1);
        joda.import_paged(&Arc::new(corpus)).unwrap();
        let err = joda
            .execute(&Query::scan("t").with_filter(even()))
            .unwrap_err();
        assert!(matches!(err, EngineError::Storage { .. }), "got {err:?}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn short_read_is_transient_and_worth_a_retry() {
        use betze_store::{DiskChaos, DiskFaultPlan};
        let (path, _) = emit_corpus("short", &docs());
        // Every read hiccups: the query fails with a retryable fault.
        let corpus = PagedCorpus::open(&path)
            .unwrap()
            .with_chaos(DiskChaos::new(DiskFaultPlan::none(3).short_reads(1.0)));
        let mut joda = JodaSim::new(1);
        joda.import_paged(&Arc::new(corpus)).unwrap();
        let q = Query::scan("t").with_filter(even());
        let err = joda.execute(&q).unwrap_err();
        assert!(err.is_transient(), "got {err:?}");
        assert!(err.attempt_hint() >= 1);
        // The disk recovers (chaos-free reopen): the retried query
        // succeeds — transient really did mean "worth retrying".
        let healthy = Arc::new(PagedCorpus::open(&path).unwrap());
        joda.import_paged(&healthy).unwrap();
        assert_eq!(joda.execute(&q).unwrap().docs.len(), 50);
        let _ = std::fs::remove_file(path);
    }
}
