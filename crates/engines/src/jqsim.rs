//! The jq-like engine.

use crate::{
    CancelToken, CostModel, CostProfile, Engine, EngineError, ExecutionReport, QueryOutcome,
    WorkCounters,
};
use betze_json::{DocSet, Value};
use betze_model::Query;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static INSTANCE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A simulation of `jq` driven by the generated shell scripts: there is no
/// import — datasets live as JSON-lines files on the file system, and
/// **every query re-reads and re-parses the whole file** ("jq does not
/// import the files into an optimized format but re-reads the input dataset
/// from the filesystem for each query, which causes a substantial I/O
/// overhead", §VI-B). Results are fully serialized (jq always writes the
/// whole content to stdout); `store_as` writes a new file.
///
/// The engine performs *real* file I/O and parsing against a per-instance
/// temporary directory, removed on drop.
///
/// The read and serialization buffers persist across queries: the
/// re-read-everything access pattern means every query fills a
/// same-order-of-magnitude buffer, so reusing one allocation removes the
/// per-query malloc/free churn without changing any byte of the I/O.
#[derive(Debug)]
pub struct JqSim {
    dir: PathBuf,
    files: HashMap<String, PathBuf>,
    output_enabled: bool,
    cancel: CancelToken,
    /// Reused buffer for re-reading dataset files.
    read_buf: String,
    /// Reused buffer for serializing query output / store files.
    write_buf: String,
}

impl JqSim {
    /// A fresh jq-like engine with its own temp directory.
    pub fn new() -> Self {
        let id = INSTANCE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("betze-jq-{}-{}", std::process::id(), id));
        JqSim {
            dir,
            files: HashMap::new(),
            output_enabled: true,
            cancel: CancelToken::new(),
            read_buf: String::new(),
            write_buf: String::new(),
        }
    }

    fn model(&self) -> CostModel {
        CostModel::new(CostProfile::jq(), 1)
    }

    fn file_for(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.json"))
    }

    /// Classifies an I/O failure via the shared taxonomy: interrupted/
    /// timed-out reads are transient (retry may succeed), the rest are
    /// permanent storage errors.
    fn storage_err(e: std::io::Error, what: &str) -> EngineError {
        EngineError::from_io(&e, what)
    }
}

impl Default for JqSim {
    fn default() -> Self {
        JqSim::new()
    }
}

impl Drop for JqSim {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Engine for JqSim {
    fn name(&self) -> &'static str {
        "jq"
    }

    fn short_name(&self) -> &'static str {
        "jq"
    }

    /// "Import" only writes the raw JSON-lines file — jq has no load phase.
    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError> {
        self.cancel.check("jq import")?;
        let started = Instant::now();
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| Self::storage_err(e, "creating temp dir"))?;
        self.write_buf.clear();
        betze_json::write_json_lines(&mut self.write_buf, docs);
        let path = self.file_for(name);
        // Atomic (temp + fsync + rename): a crash or ENOSPC mid-import
        // leaves either the previous dataset file or the new one — never
        // a torn file a later query would half-parse.
        betze_store::atomic_write(&path, &self.write_buf)
            .map_err(|e| Self::storage_err(e, "writing dataset"))?;
        self.files.insert(name.to_owned(), path);
        let counters = WorkCounters {
            import_docs: docs.len() as u64,
            import_bytes: self.write_buf.len() as u64,
            ..Default::default()
        };
        Ok(ExecutionReport::from_counters(
            started.elapsed(),
            counters,
            &self.model(),
        ))
    }

    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
        self.cancel.check("jq execute")?;
        let started = Instant::now();
        let mut counters = WorkCounters {
            queries: 1,
            ..Default::default()
        };
        let path = self
            .files
            .get(&query.base)
            .ok_or_else(|| EngineError::UnknownDataset {
                name: query.base.clone(),
            })?;
        // Real file read + full re-parse on every query, into the reused
        // read buffer (same bytes hit the disk and the parser; only the
        // per-query String allocation is gone).
        self.read_buf.clear();
        let mut file =
            std::fs::File::open(path).map_err(|e| Self::storage_err(e, "reading dataset"))?;
        std::io::Read::read_to_string(&mut file, &mut self.read_buf)
            .map_err(|e| Self::storage_err(e, "reading dataset"))?;
        counters.bytes_scanned += self.read_buf.len() as u64;
        counters.bytes_parsed += self.read_buf.len() as u64;
        let parsed = betze_json::parse_many(&self.read_buf).map_err(|e| EngineError::Storage {
            message: format!("parsing dataset: {e}"),
        })?;
        counters.docs_scanned += parsed.len() as u64;

        let mut matching: Vec<Value> = match &query.filter {
            Some(predicate) => {
                counters.predicate_evals += predicate.leaf_count() as u64 * parsed.len() as u64;
                parsed
                    .into_iter()
                    .filter(|d| predicate.matches(d))
                    .collect()
            }
            None => parsed,
        };
        if !query.transforms.is_empty() {
            counters.transform_ops += (matching.len() * query.transforms.len()) as u64;
            betze_model::apply_all(&query.transforms, &mut matching);
        }

        // jq always streams its results out; stores go to a new file.
        let matching = DocSet::from(matching);
        let docs = match &query.aggregation {
            Some(agg) => DocSet::from(agg.eval(&matching)),
            None => matching.clone(),
        };
        if self.output_enabled {
            self.write_buf.clear();
            betze_json::write_json_lines(&mut self.write_buf, &docs);
            counters.docs_output += docs.len() as u64;
            counters.bytes_output += self.write_buf.len() as u64;
        }
        if let Some(store) = &query.store_as {
            let store_path = self.file_for(store);
            self.write_buf.clear();
            betze_json::write_json_lines(&mut self.write_buf, &matching);
            betze_store::atomic_write(&store_path, &self.write_buf)
                .map_err(|e| Self::storage_err(e, "writing store file"))?;
            self.files.insert(store.clone(), store_path);
        }

        Ok(QueryOutcome {
            docs,
            report: ExecutionReport::from_counters(started.elapsed(), counters, &self.model()),
        })
    }

    fn forget(&mut self, name: &str) -> bool {
        match self.files.remove(name) {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                true
            }
            None => false,
        }
    }

    fn reset(&mut self) {
        for (_, path) in self.files.drain() {
            let _ = std::fs::remove_file(path);
        }
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
    use betze_model::{FilterFn, Predicate};

    fn docs() -> Vec<Value> {
        (0..30).map(|i| json!({ "n": (i as i64) })).collect()
    }

    fn below(k: f64) -> Predicate {
        Predicate::leaf(FilterFn::FloatCmp {
            path: JsonPointer::parse("/n").unwrap(),
            op: betze_model::Comparison::Lt,
            value: k,
        })
    }

    #[test]
    fn executes_via_real_files() {
        let mut jq = JqSim::new();
        jq.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(below(10.0));
        let out = jq.execute(&q).unwrap();
        assert_eq!(out.docs, q.eval(&docs()));
        assert!(out.report.counters.bytes_parsed > 0);
    }

    #[test]
    fn reparses_full_file_every_query() {
        let mut jq = JqSim::new();
        jq.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(below(5.0));
        let r1 = jq.execute(&q).unwrap();
        let r2 = jq.execute(&q).unwrap();
        assert_eq!(
            r1.report.counters.bytes_parsed,
            r2.report.counters.bytes_parsed
        );
        assert_eq!(r1.report.counters.docs_scanned, 30);
        assert_eq!(r2.report.counters.docs_scanned, 30);
    }

    #[test]
    fn store_writes_new_file_usable_as_base() {
        let mut jq = JqSim::new();
        jq.import("t", &docs()).unwrap();
        jq.execute(&Query::scan("t").with_filter(below(10.0)).store_as("small"))
            .unwrap();
        let out = jq.execute(&Query::scan("small")).unwrap();
        assert_eq!(out.docs.len(), 10);
    }

    #[test]
    fn output_bytes_reflect_result_size() {
        let mut jq = JqSim::new();
        jq.import("t", &docs()).unwrap();
        let all = jq.execute(&Query::scan("t")).unwrap();
        let few = jq
            .execute(&Query::scan("t").with_filter(below(2.0)))
            .unwrap();
        assert!(all.report.counters.bytes_output > few.report.counters.bytes_output);
    }

    #[test]
    fn unknown_and_forgotten_datasets_error() {
        let mut jq = JqSim::new();
        assert!(jq.execute(&Query::scan("x")).is_err());
        jq.import("t", &docs()).unwrap();
        assert!(jq.forget("t"));
        assert!(jq.execute(&Query::scan("t")).is_err());
    }

    #[test]
    fn temp_dir_removed_on_drop() {
        let dir;
        {
            let mut jq = JqSim::new();
            jq.import("t", &docs()).unwrap();
            dir = jq.dir.clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }
}
