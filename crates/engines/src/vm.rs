//! The bytecode-VM engine: JODA's architecture with vectorized predicate
//! execution.
//!
//! [`VmEngine`] is a drop-in replacement for [`JodaSim`](crate::JodaSim)
//! whose scans run compiled betze-vm programs over document batches
//! instead of tree-walking the predicate per document. Like `JodaSim`,
//! it keeps every dataset, cached intermediate and result as a
//! [`DocSet`]: a filter scan seeds the program's selection with the
//! scanned set's rows and returns the matching rows over the *same*
//! base, so no document is copied. A base that gets scanned repeatedly
//! — directly or through any selection derived from it — is shredded
//! into a columnar [`Projection`] on its second scan; from then on every
//! derived selection is evaluated on that one base projection,
//! restricted to its rows, and predicate evaluation never touches the
//! document trees at all. Everything that
//! determines *results* — the Delta-Tree-style `(base, predicate)`
//! cache, the `And`-left prefix decomposition, every [`WorkCounters`]
//! charge (including the leaf-count × docs upper bound for
//! `predicate_evals`, and `docs_materialized` as the modeled JODA
//! materialization charge), the JODA cost profile, the ≥1024-docs
//! threading threshold, cancel polling — is kept structurally
//! identical, so cardinalities, stored datasets, report cells, modeled
//! times, and chaos fault schedules are bit-identical to the
//! tree-walker. The differential oracle in `tests/tests/vm.rs` proves it
//! across the 100-seed × 3-preset sweep.
//!
//! Programs are built by the verified optimizer (DESIGN.md §15) by
//! default: each import is analyzed once (`betze_stats::analyze`), the
//! analysis is bridged to per-arm selectivity facts
//! (`betze_lint::vm_arm_facts`) and propagated through untransformed
//! `store_as` chains (a stored filter result is a *subset* of its base
//! corpus, so matches-none/matches-all facts remain sound; any
//! transform drops the analysis and optimization falls back to
//! structural rewrites only). Whether the columnar fast path applies
//! (`is_projectable`) is decided on the *optimized* program — dead-arm
//! elimination can remove the one non-canonical-token leaf that
//! disqualified the query. [`VmEngine::set_optimize`] (CLI
//! `--no-vm-opt`) restores plain compilation.
//!
//! Predicates whose register pressure exceeds
//! [`betze_vm::REGISTER_BUDGET`] even after optimization cannot be
//! compiled; the engine falls back to tree-walking those scans (lint
//! rule L049 warns up front, and L052 reports the rescued ones).
//! Compiled programs are cached per `(base, predicate)` with the
//! analysis they were optimized under; aggregations by display form.

use crate::joda::select_parallel;
use crate::{
    CancelToken, CostModel, CostProfile, Engine, EngineError, ExecutionReport, QueryOutcome,
    WorkCounters,
};
use betze_json::{DocSet, Value};
use betze_lint::vm_arm_facts;
use betze_model::{Predicate, Query};
use betze_stats::DatasetAnalysis;
use betze_store::PagedCorpus;
use betze_vm::{ArmFacts, CompiledAggregation, Program, Projection, VmScratch};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Documents per executor batch: large enough to amortize the dispatch
/// loop, small enough that register columns stay cache-resident.
const BATCH: usize = 4096;

/// Corpora smaller than this are never worth shredding: the projection
/// build is itself about one scan's worth of work.
const MIN_PROJECTED_DOCS: usize = 64;

/// Upper bound on total shredded cells (16 bytes each) cached across all
/// corpora; past it, projections are built, used once, and dropped.
const MAX_PROJECTED_CELLS: usize = 32 << 20;

/// A cached program entry: the analysis it was optimized under (for the
/// `Arc::ptr_eq` staleness check) and the program itself — `None` marks
/// a register-budget fallback.
type CachedProgram = (Option<Arc<DatasetAnalysis>>, Arc<Option<Program>>);

/// JODA's architecture with predicate scans compiled to register
/// bytecode and executed vectorized (DESIGN.md §14).
#[derive(Debug)]
pub struct VmEngine {
    threads: usize,
    output_enabled: bool,
    /// Run predicates through the verified optimizer (default); plain
    /// compilation when off.
    optimize: bool,
    cancel: CancelToken,
    datasets: HashMap<String, DocSet>,
    /// Disk-resident base corpora, scanned page-at-a-time (one page's
    /// documents per VM batch, reusing the engine's scratch).
    paged: HashMap<String, Arc<PagedCorpus>>,
    /// Base-corpus analyses by dataset name: computed at import,
    /// propagated through untransformed `store_as`, dropped on
    /// transforms (facts would no longer be sound).
    analyses: HashMap<String, Arc<DatasetAnalysis>>,
    /// Delta-Tree-style cache: canonical `(base | predicate)` key → result.
    cache: HashMap<String, DocSet>,
    /// Compiled programs per `(base | predicate)` key, tagged with the
    /// analysis they were optimized under (`Arc::ptr_eq` staleness
    /// check — re-importing a dataset invalidates its entries). `None`
    /// programs mark trees that exceeded the register budget even after
    /// optimization (tree-walk fallback).
    programs: HashMap<String, CachedProgram>,
    /// Compiled aggregations by display form.
    aggs: HashMap<String, Arc<CompiledAggregation>>,
    /// Reused single-thread execution state (allocation-free steady state).
    scratch: VmScratch,
    matched: Vec<u32>,
    /// Shredded-corpus cache keyed by the address of a [`DocSet`]'s base
    /// vector. The entry holds the `Arc`, so an address cannot be
    /// recycled while its projection is cached.
    projections: HashMap<usize, (Arc<Vec<Value>>, Arc<Projection>)>,
    /// Scans observed per base address — a scan of any selection of the
    /// base counts; a projection is built on the second scan (a corpus
    /// scanned once gains nothing from shredding).
    scan_seen: HashMap<usize, u32>,
    /// Cells currently held by `projections`, bounded by
    /// [`MAX_PROJECTED_CELLS`].
    projected_cells: usize,
}

impl VmEngine {
    /// A VM engine with the given scan thread count.
    pub fn new(threads: usize) -> Self {
        VmEngine {
            threads: threads.max(1),
            output_enabled: true,
            optimize: true,
            cancel: CancelToken::new(),
            datasets: HashMap::new(),
            paged: HashMap::new(),
            analyses: HashMap::new(),
            cache: HashMap::new(),
            programs: HashMap::new(),
            aggs: HashMap::new(),
            scratch: VmScratch::new(),
            matched: Vec::new(),
            projections: HashMap::new(),
            scan_seen: HashMap::new(),
            projected_cells: 0,
        }
    }

    fn model(&self) -> CostModel {
        // Same profile and thread count as JodaSim — identical counters
        // therefore yield identical modeled times.
        CostModel::new(CostProfile::joda(), self.threads)
    }

    fn cache_key(base: &str, predicate: &Predicate) -> String {
        format!("{base}|{predicate}")
    }

    /// Enables or disables the verified optimizer (CLI `--no-vm-opt`).
    /// Clears the program cache: cached entries were built under the
    /// other setting.
    pub fn set_optimize(&mut self, on: bool) {
        if self.optimize != on {
            self.optimize = on;
            self.programs.clear();
        }
    }

    /// Whether the optimizer is enabled.
    pub fn optimize_enabled(&self) -> bool {
        self.optimize
    }

    /// Builds (or recalls) the program for a predicate scanned over
    /// `base`'s corpus. `None` means the register budget was exceeded —
    /// even after optimization, when enabled — and scans tree-walk
    /// instead. Optimization errors degrade to plain compilation, never
    /// to a miscompiled program (every optimizer output is verified).
    fn program_for(&mut self, base: &str, predicate: &Predicate) -> Arc<Option<Program>> {
        let key = Self::cache_key(base, predicate);
        let analysis = self.analyses.get(base).cloned();
        if let Some((under, hit)) = self.programs.get(&key) {
            let fresh = match (under, &analysis) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            if fresh {
                return Arc::clone(hit);
            }
        }
        let program = if self.optimize {
            let facts = analysis
                .as_deref()
                .map(|a| vm_arm_facts(predicate, a))
                .unwrap_or_else(ArmFacts::none);
            match betze_vm::optimize(predicate, &facts) {
                Ok(optimized) => Some(optimized.program),
                Err(_) => betze_vm::compile(predicate).ok(),
            }
        } else {
            betze_vm::compile(predicate).ok()
        };
        let program = Arc::new(program);
        self.programs.insert(key, (analysis, Arc::clone(&program)));
        program
    }

    fn agg_for(&mut self, agg: &betze_model::Aggregation) -> Arc<CompiledAggregation> {
        let key = agg.to_string();
        if let Some(hit) = self.aggs.get(&key) {
            return Arc::clone(hit);
        }
        let compiled = Arc::new(CompiledAggregation::compile(agg));
        self.aggs.insert(key, Arc::clone(&compiled));
        compiled
    }

    /// Returns a projection of a base corpus if it has earned one: the
    /// build costs about one tree-walk scan, so it happens on the
    /// *second* scan of the same base `Arc` — counting scans of every
    /// selection derived from it, which is exactly the repeated-scan
    /// shape of session workloads. The cache keys on the `Arc` address
    /// and keeps the `Arc` alive, so a key can never dangle or be
    /// recycled while cached. Purely an execution strategy: results and
    /// counters are unchanged.
    fn projection_for(&mut self, docs: &Arc<Vec<Value>>) -> Option<Arc<Projection>> {
        if docs.len() < MIN_PROJECTED_DOCS {
            return None;
        }
        let key = Arc::as_ptr(docs) as usize;
        if let Some((_, proj)) = self.projections.get(&key) {
            return Some(Arc::clone(proj));
        }
        let seen = self.scan_seen.entry(key).or_insert(0);
        *seen += 1;
        if *seen < 2 {
            return None;
        }
        // `build` is None for corpora too structurally diverse to shred
        // densely; those keep tree-order execution forever.
        let proj = Arc::new(Projection::build(docs)?);
        self.scan_seen.remove(&key);
        let (nodes, lanes, _) = proj.stats();
        let cells = nodes * lanes;
        if self.projected_cells + cells <= MAX_PROJECTED_CELLS {
            self.projected_cells += cells;
            self.projections
                .insert(key, (Arc::clone(docs), Arc::clone(&proj)));
        }
        Some(proj)
    }

    /// Batched filter scan over a document set, returning the matching
    /// rows as a selection over the same base. Counter charges mirror
    /// `JodaSim::scan` exactly: `predicate_evals` stays the leaf-count ×
    /// docs upper bound, not the (smaller) number of lanes the VM
    /// actually touched, because the cost model prices the scan, not the
    /// execution strategy.
    fn scan(
        &mut self,
        base: &str,
        docs: &DocSet,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<DocSet, EngineError> {
        self.cancel.check("VM scan")?;
        counters.docs_scanned += docs.len() as u64;
        // Charged from the ORIGINAL predicate, not the optimized program:
        // the cost model prices the workload's stated work, and dropping
        // a provably-dead arm must not perturb modeled times.
        let leaves = predicate.leaf_count() as u64;
        counters.predicate_evals += leaves * docs.len() as u64;
        let compiled = self.program_for(base, predicate);
        let program = (*compiled).as_ref();
        let corpus = docs.base();
        let rows = docs.row_ids();
        let projection = match program {
            Some(prog) if prog.is_projectable() => self.projection_for(corpus),
            _ => None,
        };
        let out = match (program, projection) {
            // The base's projection serves every selection of it: seed
            // the program with the selection's rows.
            (Some(prog), Some(proj)) => {
                let mut out = Vec::new();
                prog.run_projected_rows(&proj, &rows, &mut self.scratch, &mut out);
                out
            }
            _ if self.threads <= 1 || docs.len() < 1024 => select_rows(
                program,
                predicate,
                corpus,
                &rows,
                &mut self.scratch,
                &mut self.matched,
            ),
            _ => select_parallel(&rows, self.threads, |part| {
                select_rows(
                    program,
                    predicate,
                    corpus,
                    part,
                    &mut VmScratch::new(),
                    &mut Vec::new(),
                )
            }),
        };
        counters.docs_materialized += out.len() as u64;
        Ok(docs.reselect(out))
    }

    /// Resolves the filtered document set for `(base, predicate)` with
    /// the same cache structure and `And`-left decomposition as
    /// `JodaSim::filtered`.
    fn filtered(
        &mut self,
        base: &str,
        base_docs: &DocSet,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<DocSet, EngineError> {
        let key = Self::cache_key(base, predicate);
        if let Some(hit) = self.cache.get(&key) {
            counters.cache_hits += 1;
            return Ok(hit.clone());
        }
        // The right-arm scan runs over a cached *subset* of `base`'s
        // corpus, so optimizing it under `base`'s analysis stays sound
        // (matches-none/matches-all facts survive taking subsets).
        let result = if let Predicate::And(left, right) = predicate {
            let parent = self.filtered(base, base_docs, left, counters)?;
            self.scan(base, &parent, right, counters)?
        } else {
            self.scan(base, base_docs, predicate, counters)?
        };
        self.cache.insert(key, result.clone());
        Ok(result)
    }

    /// Streaming batched scan over a disk-resident corpus: the VM
    /// executor consumes one page's documents per batch, reusing the
    /// engine's scratch, so memory stays O(pages-in-flight). Charges sum
    /// to exactly what [`scan`](Self::scan) charges for the whole corpus.
    /// The matching documents move out of the pages read into a new
    /// base. Pages never earn a projection (each page lives for one
    /// batch — there is no repeated scan of the same allocation to
    /// amortize a shred against), which is purely an execution strategy
    /// and moves no counter.
    fn scan_paged(
        &mut self,
        base: &str,
        corpus: &PagedCorpus,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<DocSet, EngineError> {
        let leaves = predicate.leaf_count() as u64;
        let compiled = self.program_for(base, predicate);
        let mut out = Vec::new();
        for index in 0..corpus.page_count() {
            self.cancel.check("VM scan")?;
            let page = corpus
                .read_page(index)
                .map_err(|e| EngineError::from_store(&e, "scan page"))?;
            counters.docs_scanned += page.docs.len() as u64;
            counters.predicate_evals += leaves * page.docs.len() as u64;
            let all: Vec<u32> = (0..page.docs.len() as u32).collect();
            let hits = select_rows(
                (*compiled).as_ref(),
                predicate,
                &page.docs,
                &all,
                &mut self.scratch,
                &mut self.matched,
            );
            let mut hits = hits.into_iter().peekable();
            out.extend(
                (0u32..)
                    .zip(page.docs)
                    .filter_map(|(row, doc)| hits.next_if_eq(&row).map(|_| doc)),
            );
        }
        counters.docs_materialized += out.len() as u64;
        Ok(DocSet::from(out))
    }

    /// [`filtered`](Self::filtered) for a disk-resident base: identical
    /// cache structure and `And`-left decomposition — only the innermost
    /// (whole-corpus) scan streams pages; extension scans run over the
    /// cached in-memory subset and keep the projection fast path.
    fn filtered_paged(
        &mut self,
        base: &str,
        corpus: &Arc<PagedCorpus>,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<DocSet, EngineError> {
        let key = Self::cache_key(base, predicate);
        if let Some(hit) = self.cache.get(&key) {
            counters.cache_hits += 1;
            return Ok(hit.clone());
        }
        let result = if let Predicate::And(left, right) = predicate {
            let parent = self.filtered_paged(base, corpus, left, counters)?;
            self.scan(base, &parent, right, counters)?
        } else {
            self.scan_paged(base, corpus, predicate, counters)?
        };
        self.cache.insert(key, result.clone());
        Ok(result)
    }
}

/// Evaluates `predicate` over the ascending `rows` of `corpus` — with the
/// compiled program in [`BATCH`]-row batches, or by tree-walking when the
/// register budget left no program — and returns the matching rows.
fn select_rows(
    program: Option<&Program>,
    predicate: &Predicate,
    corpus: &[Value],
    rows: &[u32],
    scratch: &mut VmScratch,
    matched: &mut Vec<u32>,
) -> Vec<u32> {
    match program {
        Some(prog) => {
            let mut out = Vec::new();
            for batch in rows.chunks(BATCH) {
                prog.run_rows(corpus, batch, scratch, matched);
                out.extend_from_slice(matched);
            }
            out
        }
        None => rows
            .iter()
            .copied()
            .filter(|&row| predicate.matches(&corpus[row as usize]))
            .collect(),
    }
}

impl Engine for VmEngine {
    fn name(&self) -> &'static str {
        "JODA-VM"
    }

    fn short_name(&self) -> &'static str {
        "vm"
    }

    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError> {
        self.cancel.check("VM import")?;
        let started = Instant::now();
        let mut counters = WorkCounters::default();
        let text = betze_json::to_json_lines(docs);
        counters.import_docs = docs.len() as u64;
        counters.import_bytes = text.len() as u64;
        let parsed = betze_json::parse_many(&text).map_err(|e| EngineError::ImportFailed {
            name: name.to_owned(),
            message: format!("parse failed: {e}"),
        })?;
        // Analyze once per import; the optimizer derives selectivity
        // facts from this. A re-import mints a fresh `Arc`, which the
        // `ptr_eq` check in `program_for` treats as invalidation.
        self.analyses.insert(
            name.to_owned(),
            Arc::new(betze_stats::analyze(name, &parsed)),
        );
        self.paged.remove(name);
        self.datasets.insert(name.to_owned(), DocSet::from(parsed));
        Ok(ExecutionReport::from_counters(
            started.elapsed(),
            counters,
            &self.model(),
        ))
    }

    fn import_paged(&mut self, corpus: &Arc<PagedCorpus>) -> Result<ExecutionReport, EngineError> {
        self.cancel.check("VM import")?;
        let started = Instant::now();
        // Footer doc/byte counts use the in-RAM serializer's exact
        // semantics, so the import charge is bit-identical; the footer's
        // embedded analysis is proven bit-identical to analyzing the
        // materialized documents (it was built incrementally at emit time
        // and verified against the written pages), so the optimizer sees
        // the same facts it would have derived in RAM.
        let counters = WorkCounters {
            import_docs: corpus.doc_count(),
            import_bytes: corpus.json_bytes(),
            ..Default::default()
        };
        let name = corpus.name().to_owned();
        self.analyses
            .insert(name.clone(), Arc::new(corpus.analysis().clone()));
        self.datasets.remove(&name);
        self.paged.insert(name, Arc::clone(corpus));
        Ok(ExecutionReport::from_counters(
            started.elapsed(),
            counters,
            &self.model(),
        ))
    }

    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
        self.cancel.check("VM execute")?;
        let started = Instant::now();
        let mut counters = WorkCounters {
            queries: 1,
            ..Default::default()
        };
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

        let result = if query.transforms.is_empty() {
            filtered
        } else {
            let mut transformed = filtered.to_vec();
            counters.transform_ops += (transformed.len() * query.transforms.len()) as u64;
            betze_model::apply_all(&query.transforms, &mut transformed);
            DocSet::from(transformed)
        };

        if let Some(store) = &query.store_as {
            // An untransformed store is a subset of its base corpus, so
            // the base analysis stays sound for it; any transform could
            // move values outside the proven bounds, so drop it.
            if query.transforms.is_empty() {
                if let Some(analysis) = self.analyses.get(&query.base).cloned() {
                    self.analyses.insert(store.clone(), analysis);
                } else {
                    self.analyses.remove(store.as_str());
                }
            } else {
                self.analyses.remove(store.as_str());
            }
            self.datasets.insert(store.clone(), result.clone());
        }

        let docs = match &query.aggregation {
            Some(agg) => DocSet::from(self.agg_for(agg).eval(&result)),
            None => result,
        };
        if self.output_enabled {
            counters.docs_output += docs.len() as u64;
            counters.bytes_output += docs.iter().map(|d| d.approx_size() as u64).sum::<u64>();
        }

        Ok(QueryOutcome {
            docs,
            report: ExecutionReport::from_counters(started.elapsed(), counters, &self.model()),
        })
    }

    fn forget(&mut self, name: &str) -> bool {
        let prefix = format!("{name}|");
        self.cache.retain(|key, _| !key.starts_with(&prefix));
        self.programs.retain(|key, _| !key.starts_with(&prefix));
        self.analyses.remove(name);
        // Conservative: dropped corpora would otherwise be pinned by
        // their cached projections. Survivors re-shred on their next
        // repeat scan.
        self.projections.clear();
        self.scan_seen.clear();
        self.projected_cells = 0;
        let paged = self.paged.remove(name).is_some();
        self.datasets.remove(name).is_some() || paged
    }

    fn reset(&mut self) {
        self.datasets.clear();
        self.paged.clear();
        self.cache.clear();
        self.projections.clear();
        self.scan_seen.clear();
        self.projected_cells = 0;
        self.analyses.clear();
        // Program/aggregation caches survive resets: aggregations are
        // pure functions of the IR, and program entries carry the
        // analysis they were built under, so a post-reset re-import
        // (fresh `Arc`) makes stale entries fail the `ptr_eq` check and
        // rebuild. They never influence results or counters.
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
    use crate::JodaSim;
    use betze_json::{json, JsonPointer};
    use betze_model::{Comparison, FilterFn};

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
            op: Comparison::Lt,
            value: 10.0,
        })
    }

    /// Runs the same query sequence on both engines and asserts equal
    /// docs, counters, and modeled times (wall time necessarily differs).
    fn assert_identical(queries: &[Query], docs: &[Value]) {
        let mut joda = JodaSim::new(1);
        let mut vm = VmEngine::new(1);
        let ji = joda.import("t", docs).unwrap();
        let vi = vm.import("t", docs).unwrap();
        assert_eq!(ji.counters, vi.counters);
        assert_eq!(ji.modeled, vi.modeled);
        for q in queries {
            let a = joda.execute(q).unwrap();
            let b = vm.execute(q).unwrap();
            assert_eq!(a.docs, b.docs, "docs for {q:?}");
            assert_eq!(a.report.counters, b.report.counters, "counters for {q:?}");
            assert_eq!(a.report.modeled, b.report.modeled, "modeled for {q:?}");
        }
    }

    #[test]
    fn executes_filters_correctly() {
        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even());
        let out = vm.execute(&q).unwrap();
        assert_eq!(out.docs.len(), 50);
        assert_eq!(out.docs, q.eval(&docs()));
        assert_eq!(out.report.counters.docs_scanned, 100);
    }

    #[test]
    fn composed_predicates_reuse_cached_prefixes_like_joda() {
        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let q1 = Query::scan("t").with_filter(even());
        let r1 = vm.execute(&q1).unwrap();
        assert_eq!(r1.report.counters.docs_scanned, 100);
        let q2 = Query::scan("t").with_filter(even().and(small()));
        let r2 = vm.execute(&q2).unwrap();
        assert_eq!(r2.docs.len(), 5);
        assert_eq!(
            r2.report.counters.docs_scanned, 50,
            "extension must scan the cached subset only"
        );
        assert_eq!(r2.report.counters.cache_hits, 1);
        let r3 = vm.execute(&q2).unwrap();
        assert_eq!(r3.report.counters.docs_scanned, 0);
        assert_eq!(r3.docs, r2.docs);
    }

    #[test]
    fn query_sequence_is_bit_identical_to_joda() {
        use betze_model::{AggFunc, Aggregation};
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
            Query::scan("t")
                .with_filter(even().or(small()))
                .with_aggregation(Aggregation::grouped(
                    AggFunc::Sum { path: ptr("/n") },
                    ptr("/even"),
                    "total",
                )),
        ];
        assert_identical(&queries, &docs());
    }

    #[test]
    fn multithreaded_scan_is_bit_identical_to_joda() {
        let many: Vec<Value> = (0..5000)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect();
        let mut joda = JodaSim::new(4);
        let mut vm = VmEngine::new(4);
        joda.import("t", &many).unwrap();
        vm.import("t", &many).unwrap();
        let q = Query::scan("t").with_filter(even());
        let a = joda.execute(&q).unwrap();
        let b = vm.execute(&q).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.report.counters, b.report.counters);
        assert_eq!(a.report.modeled, b.report.modeled);
    }

    #[test]
    fn repeat_scans_cross_the_projection_threshold_bit_identically() {
        // Scans 1–2 of the base corpus run unprojected, the second scan
        // triggers the shred, and every later scan serves from the
        // cached projection — all three regimes must match JodaSim.
        let preds = [
            even(),
            small(),
            Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/n"),
                op: Comparison::Ge,
                value: 50.0,
            }),
            Predicate::leaf(FilterFn::BoolEq {
                path: ptr("/even"),
                value: false,
            }),
            Predicate::leaf(FilterFn::IntEq {
                path: ptr("/n"),
                value: 7,
            }),
        ];
        let queries: Vec<Query> = preds
            .iter()
            .map(|p| Query::scan("t").with_filter(p.clone()))
            .collect();
        assert_identical(&queries, &docs());
    }

    #[test]
    fn derived_views_run_on_the_base_projection_like_the_tree_walker() {
        // Every scan of a selection of "t" counts as a scan of its base:
        // the second one shreds the base, and every derived scan after it
        // is evaluated on that projection, seeded with the view's rows.
        let queries = vec![
            Query::scan("t").with_filter(even()).store_as("evens"),
            Query::scan("evens").with_filter(small()),
            Query::scan("t").with_filter(even().and(small())),
            Query::scan("evens").with_filter(Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/n"),
                op: Comparison::Ge,
                value: 90.0,
            })),
            Query::scan("t").with_filter(even().and(small()).and(Predicate::leaf(
                FilterFn::IntEq {
                    path: ptr("/n"),
                    value: 4,
                },
            ))),
        ];
        assert_identical(&queries, &docs());

        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let base = Arc::clone(vm.datasets["t"].base());
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let out = vm.execute(q).unwrap();
            assert_eq!(out.docs, joda.execute(q).unwrap().docs, "query {i}");
            assert!(Arc::ptr_eq(out.docs.base(), &base), "query {i}");
            if i >= 1 {
                let key = Arc::as_ptr(&base) as usize;
                assert!(vm.projections.contains_key(&key), "query {i}");
            }
        }
        // Only the base was shredded; no view got a projection of its own.
        assert_eq!(vm.projections.len(), 1);
        assert!(Arc::ptr_eq(vm.datasets["evens"].base(), &base));
        let unfiltered = vm.execute(&Query::scan("t")).unwrap();
        assert!(Arc::ptr_eq(unfiltered.docs.base(), &base));
    }

    #[test]
    fn row_selection_is_identical_across_thread_counts() {
        let many: Vec<Value> = (0..5000)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect();
        let wide = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Lt,
            value: 3000.0,
        });
        let queries = [
            Query::scan("t").with_filter(even()).store_as("evens"),
            Query::scan("evens").with_filter(wide.clone()),
            Query::scan("t").with_filter(even().and(wide)),
        ];
        // Unoptimized plain compilation and the optimizer both go through
        // the batched row path; the projection takes over from the
        // second scan on.
        for optimize in [true, false] {
            let run = |threads: usize| {
                let mut vm = VmEngine::new(threads);
                vm.set_optimize(optimize);
                vm.import("t", &many).unwrap();
                queries
                    .iter()
                    .map(|q| {
                        let out = vm.execute(q).unwrap();
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
    }

    #[test]
    fn projection_cache_is_keyed_by_corpus_identity() {
        // Two datasets with different contents must not share shredded
        // columns, and forgetting one must not corrupt the other.
        let a: Vec<Value> = (0..100).map(|i| json!({ "n": (i as i64) })).collect();
        let b: Vec<Value> = (0..100).map(|i| json!({ "n": (i as i64 + 50) })).collect();
        let mut vm = VmEngine::new(1);
        vm.import("a", &a).unwrap();
        vm.import("b", &b).unwrap();
        let q = |base: &str, lt: f64| {
            Query::scan(base).with_filter(Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/n"),
                op: Comparison::Lt,
                value: lt,
            }))
        };
        for lt in [10.0, 20.0, 30.0] {
            assert_eq!(vm.execute(&q("a", lt)).unwrap().docs.len(), lt as usize);
            assert_eq!(
                vm.execute(&q("b", lt)).unwrap().docs.len(),
                (lt as usize).saturating_sub(50)
            );
        }
        assert!(vm.forget("a"));
        assert_eq!(vm.execute(&q("b", 60.0)).unwrap().docs.len(), 10);
    }

    #[test]
    fn register_budget_fallback_still_executes_correctly() {
        // A right-deep 17-leaf chain exceeds the budget as written. With
        // the optimizer on (the default), reassociation rebuilds it
        // left-deep and the engine compiles it; with the optimizer off,
        // the engine falls back to tree-walking. Both regimes must be
        // bit-identical to JodaSim.
        let mut deep = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Ge,
            value: 0.0,
        });
        for i in 0..16 {
            deep = Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/n"),
                op: Comparison::Lt,
                value: (100 - i) as f64,
            })
            .and(deep);
        }
        assert!(betze_vm::register_pressure(&deep) > betze_vm::REGISTER_BUDGET);
        let q = Query::scan("t").with_filter(deep);
        assert_identical(std::slice::from_ref(&q), &docs());

        let mut joda = JodaSim::new(1);
        let mut vm = VmEngine::new(1);
        vm.set_optimize(false);
        joda.import("t", &docs()).unwrap();
        vm.import("t", &docs()).unwrap();
        let a = joda.execute(&q).unwrap();
        let b = vm.execute(&q).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.report.counters, b.report.counters);
        assert_eq!(a.report.modeled, b.report.modeled);
    }

    #[test]
    fn dead_arm_elimination_preserves_results_and_counters() {
        // /n ∈ [0, 99] on the imported corpus, so `n > 1000` is provably
        // false: the optimizer drops that OR arm. Results, counters
        // (charged from the original predicate), and modeled times must
        // not move — and the propagated analysis must stay sound on an
        // untransformed store.
        let impossible = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Gt,
            value: 1000.0,
        });
        let queries = vec![
            Query::scan("t")
                .with_filter(small().or(impossible.clone()))
                .store_as("sub"),
            Query::scan("sub").with_filter(even().or(impossible)),
        ];
        assert_identical(&queries, &docs());
    }

    #[test]
    fn optimizer_toggle_invalidates_cached_programs() {
        // The same predicate executed under both settings from one
        // engine instance: toggling must rebuild, not serve the cached
        // program from the other regime, and results must not change.
        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even().or(Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Gt,
            value: 1000.0,
        })));
        let on = vm.execute(&q).unwrap();
        vm.set_optimize(false);
        assert!(!vm.optimize_enabled());
        let off = vm.execute(&q).unwrap();
        assert_eq!(on.docs, off.docs);
        assert_eq!(on.report.counters.docs_scanned, 100);
        // The second run hits the result cache, not the scan path.
        assert_eq!(off.report.counters.cache_hits, 1);
    }

    #[test]
    fn forget_and_reset_mirror_joda() {
        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even()).store_as("evens");
        vm.execute(&q).unwrap();
        assert!(vm.forget("evens"));
        assert!(!vm.forget("evens"));
        vm.reset();
        assert!(matches!(
            vm.execute(&Query::scan("t")),
            Err(EngineError::UnknownDataset { .. })
        ));
    }

    /// Emits `docs` as a sealed `.bcorp` named "t" and opens it.
    fn emit_corpus(tag: &str, docs: &[Value]) -> (std::path::PathBuf, Arc<PagedCorpus>) {
        let dir = std::env::temp_dir().join(format!("betze-vm-paged-{}", std::process::id()));
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
    fn paged_base_is_bit_identical_to_ram_in_both_optimizer_regimes() {
        use betze_model::{AggFunc, Aggregation};
        let data = docs();
        let (path, corpus) = emit_corpus("identical", &data);
        assert!(corpus.page_count() > 1, "corpus must actually be paged");
        // The impossible arm exercises the footer analysis: dead-arm
        // elimination must fire from the deserialized facts exactly as it
        // does from a fresh in-RAM `analyze`.
        let impossible = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Gt,
            value: 1000.0,
        });
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
            Query::scan("t").with_filter(small().or(impossible)),
            Query::scan("t"),
        ];
        for optimize in [true, false] {
            let mut ram = VmEngine::new(1);
            let mut disk = VmEngine::new(1);
            ram.set_optimize(optimize);
            disk.set_optimize(optimize);
            let ri = ram.import("t", &data).unwrap();
            let di = disk.import_paged(&corpus).unwrap();
            assert_eq!(ri.counters, di.counters);
            assert_eq!(ri.modeled, di.modeled);
            for q in &queries {
                let a = ram.execute(q).unwrap();
                let b = disk.execute(q).unwrap();
                assert_eq!(a.docs, b.docs, "docs for {q:?} (optimize={optimize})");
                assert_eq!(
                    a.report.counters, b.report.counters,
                    "counters for {q:?} (optimize={optimize})"
                );
                assert_eq!(
                    a.report.modeled, b.report.modeled,
                    "modeled for {q:?} (optimize={optimize})"
                );
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn paged_base_matches_joda_paged() {
        let data = docs();
        let (path, corpus) = emit_corpus("joda", &data);
        let mut joda = JodaSim::new(1);
        let mut vm = VmEngine::new(1);
        let ji = joda.import_paged(&corpus).unwrap();
        let vi = vm.import_paged(&corpus).unwrap();
        assert_eq!(ji.counters, vi.counters);
        assert_eq!(ji.modeled, vi.modeled);
        for q in [
            Query::scan("t").with_filter(even()),
            Query::scan("t").with_filter(even().and(small())),
            Query::scan("t"),
        ] {
            let a = joda.execute(&q).unwrap();
            let b = vm.execute(&q).unwrap();
            assert_eq!(a.docs, b.docs, "docs for {q:?}");
            assert_eq!(a.report.counters, b.report.counters, "counters for {q:?}");
            assert_eq!(a.report.modeled, b.report.modeled, "modeled for {q:?}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_page_degrades_the_query_to_typed_storage() {
        use betze_store::{DiskChaos, DiskFaultPlan};
        let (path, _) = emit_corpus("flip", &docs());
        let corpus = PagedCorpus::open(&path)
            .unwrap()
            .with_chaos(DiskChaos::new(DiskFaultPlan::none(11).bit_flips(1.0)));
        let mut vm = VmEngine::new(1);
        vm.import_paged(&Arc::new(corpus)).unwrap();
        let err = vm
            .execute(&Query::scan("t").with_filter(even()))
            .unwrap_err();
        assert!(matches!(err, EngineError::Storage { .. }), "got {err:?}");
        let _ = std::fs::remove_file(path);
    }
}
