//! Shared implementation for the two binary-storage engines (MongoDB-like
//! and PostgreSQL-like): import encodes documents into the engine's binary
//! format; queries scan the encoded documents, matching predicates via
//! binary navigation and materializing only the documents the output
//! needs. Single-threaded, as the paper observes for both systems.

use crate::storage::{matches, BinaryFormat, NavStats};
use crate::{CancelToken, CostModel, EngineError, ExecutionReport, QueryOutcome, WorkCounters};
use betze_json::{DocSet, Value};
use betze_model::Query;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::time::Instant;

/// A named store of binary-encoded documents plus the scan/aggregate
/// execution loop.
#[derive(Debug)]
pub(crate) struct BinaryStore<F: BinaryFormat> {
    datasets: HashMap<String, Vec<Vec<u8>>>,
    pub(crate) output_enabled: bool,
    pub(crate) cancel: CancelToken,
    _format: PhantomData<F>,
}

/// How many documents the scan loop processes between cancel polls: a
/// compromise between poll overhead and cancellation latency.
const CANCEL_POLL_DOCS: usize = 4096;

impl<F: BinaryFormat> BinaryStore<F> {
    pub(crate) fn new() -> Self {
        BinaryStore {
            datasets: HashMap::new(),
            output_enabled: true,
            cancel: CancelToken::new(),
            _format: PhantomData,
        }
    }

    pub(crate) fn import(
        &mut self,
        name: &str,
        docs: &[Value],
        model: &CostModel,
    ) -> Result<ExecutionReport, EngineError> {
        self.cancel.check(&format!("{} import", F::NAME))?;
        let started = Instant::now();
        let mut counters = WorkCounters::default();
        let encoded: Vec<Vec<u8>> = docs.iter().map(|d| F::encode(d)).collect();
        counters.import_docs = docs.len() as u64;
        counters.import_bytes = encoded.iter().map(|e| e.len() as u64).sum();
        self.datasets.insert(name.to_owned(), encoded);
        Ok(ExecutionReport::from_counters(
            started.elapsed(),
            counters,
            model,
        ))
    }

    pub(crate) fn execute(
        &mut self,
        query: &Query,
        model: &CostModel,
    ) -> Result<QueryOutcome, EngineError> {
        self.cancel.check(&format!("{} execute", F::NAME))?;
        let started = Instant::now();
        let mut counters = WorkCounters {
            queries: 1,
            ..Default::default()
        };
        let dataset =
            self.datasets
                .get(&query.base)
                .ok_or_else(|| EngineError::UnknownDataset {
                    name: query.base.clone(),
                })?;

        // Scan: match each encoded document without materializing it.
        let mut nav = NavStats::default();
        let mut matching_idx: Vec<usize> = Vec::new();
        for (i, doc) in dataset.iter().enumerate() {
            // Long scans poll the cancel token periodically so a deadline
            // or Ctrl-C aborts mid-scan instead of after the dataset.
            if i % CANCEL_POLL_DOCS == CANCEL_POLL_DOCS - 1 {
                self.cancel.check(&format!("{} scan", F::NAME))?;
            }
            counters.docs_scanned += 1;
            counters.bytes_scanned += doc.len() as u64;
            let keep = match &query.filter {
                Some(predicate) => matches::<F>(doc, predicate, &mut nav),
                None => true,
            };
            if keep {
                matching_idx.push(i);
            }
        }
        counters.key_comparisons += nav.key_comparisons;
        counters.values_decoded += nav.values_decoded;
        counters.predicate_evals += nav.predicate_evals;

        // Materialize only what the output needs. A document that fails
        // to decode is corrupt storage — a permanent fault, surfaced via
        // the error taxonomy instead of being silently dropped.
        let mut materialized: Vec<Value> = Vec::with_capacity(matching_idx.len());
        for &i in &matching_idx {
            materialized.push(F::decode(&dataset[i]).ok_or_else(|| EngineError::Storage {
                message: format!("corrupt {} document #{i} in '{}'", F::NAME, query.base),
            })?);
        }

        // Transformations (§VII) force full materialization plus a
        // re-encode of any stored intermediate — "the base dataset cannot
        // simply be used unchanged".
        if !query.transforms.is_empty() {
            counters.transform_ops += (materialized.len() * query.transforms.len()) as u64;
            betze_model::apply_all(&query.transforms, &mut materialized);
        }

        // Store intermediate dataset if requested ($out / CREATE TABLE AS).
        if let Some(store) = &query.store_as {
            let copy: Vec<Vec<u8>> = if query.transforms.is_empty() {
                matching_idx.iter().map(|&i| dataset[i].clone()).collect()
            } else {
                let encoded: Vec<Vec<u8>> = materialized.iter().map(|d| F::encode(d)).collect();
                counters.bytes_scanned += encoded.iter().map(|e| e.len() as u64).sum::<u64>();
                encoded
            };
            self.datasets.insert(store.clone(), copy);
        }
        counters.docs_materialized += materialized.len() as u64;
        let docs = DocSet::from(match &query.aggregation {
            Some(agg) => agg.eval(&materialized),
            None => materialized,
        });
        if self.output_enabled {
            counters.docs_output += docs.len() as u64;
            counters.bytes_output += docs.iter().map(|d| d.approx_size() as u64).sum::<u64>();
        }

        Ok(QueryOutcome {
            docs,
            report: ExecutionReport::from_counters(started.elapsed(), counters, model),
        })
    }

    pub(crate) fn forget(&mut self, name: &str) -> bool {
        self.datasets.remove(name).is_some()
    }

    pub(crate) fn reset(&mut self) {
        self.datasets.clear();
    }
}
