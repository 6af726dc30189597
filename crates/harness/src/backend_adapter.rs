//! Using a simulated engine as the generator's verification backend.
//!
//! Paper §IV-D: *"the JODA backend, during query generation, can also be
//! replaced with another system"* — the analyzer/verifier is pluggable.
//! [`EngineBackend`] adapts any [`betze_engines::Engine`] to the
//! generator's [`SelectivityBackend`] trait, so sessions can be generated
//! with their selectivities verified by the JODA-like engine (as in the
//! paper), or by the MongoDB-/PostgreSQL-/jq-like engines.

use betze_engines::Engine;
use betze_generator::SelectivityBackend;
use betze_json::Value;
use betze_model::{DatasetId, Predicate, Query, Transform};
use betze_stats::DatasetAnalysis;
use std::collections::HashMap;

/// Adapts an [`Engine`] into a [`SelectivityBackend`].
///
/// Dataset ids are mapped to engine-side dataset names
/// (`__betze_gen_<id>`); the base dataset must be registered with
/// [`EngineBackend::register_base`] before generation starts.
pub struct EngineBackend<'e> {
    engine: &'e mut dyn Engine,
    names: HashMap<DatasetId, String>,
    sizes: HashMap<DatasetId, usize>,
}

impl<'e> EngineBackend<'e> {
    /// Wraps an engine. The engine is reset to give the generator a clean
    /// namespace.
    pub fn new(engine: &'e mut dyn Engine) -> Self {
        engine.reset();
        // Verification scans should not be charged output work.
        engine.set_output_enabled(false);
        EngineBackend {
            engine,
            names: HashMap::new(),
            sizes: HashMap::new(),
        }
    }

    /// Imports the base documents under the given graph id.
    pub fn register_base(
        &mut self,
        id: DatasetId,
        docs: &[Value],
    ) -> Result<(), betze_engines::EngineError> {
        let name = Self::name_for(id);
        self.engine.import(&name, docs)?;
        self.names.insert(id, name);
        self.sizes.insert(id, docs.len());
        Ok(())
    }

    fn name_for(id: DatasetId) -> String {
        format!("__betze_gen_{}", id.0)
    }
}

impl SelectivityBackend for EngineBackend<'_> {
    fn dataset_size(&mut self, id: DatasetId) -> usize {
        self.sizes.get(&id).copied().unwrap_or(0)
    }

    fn count_matching(&mut self, id: DatasetId, predicate: &Predicate) -> usize {
        let Some(name) = self.names.get(&id) else {
            return 0;
        };
        // Execute a counting query on the engine — exactly what the paper
        // describes: "The generator will then execute each generated query
        // in the data processor and calculate the actual selectivity."
        let query = Query::scan(name.clone())
            .with_filter(predicate.clone())
            .with_aggregation(betze_model::Aggregation::new(
                betze_model::AggFunc::Count {
                    path: betze_json::JsonPointer::root(),
                },
                "count",
            ));
        match self.engine.execute(&query) {
            Ok(outcome) => outcome
                .docs
                .first()
                .and_then(|d| d.get("count"))
                .and_then(Value::as_i64)
                .unwrap_or(0) as usize,
            Err(_) => 0,
        }
    }

    fn register_derived(
        &mut self,
        parent: DatasetId,
        id: DatasetId,
        predicate: &Predicate,
        transforms: &[Transform],
    ) {
        let Some(parent_name) = self.names.get(&parent) else {
            return;
        };
        let name = Self::name_for(id);
        let mut query = Query::scan(parent_name.clone())
            .with_filter(predicate.clone())
            .store_as(name.clone());
        query.transforms = transforms.to_vec();
        if let Ok(outcome) = self.engine.execute(&query) {
            self.sizes.insert(id, outcome.docs.len());
            self.names.insert(id, name);
        }
    }

    fn analyze(&mut self, id: DatasetId, name: &str) -> Option<DatasetAnalysis> {
        let engine_name = self.names.get(&id)?;
        // Read the stored dataset back out of the engine and analyze it.
        let outcome = self
            .engine
            .execute(&Query::scan(engine_name.clone()))
            .ok()?;
        Some(betze_stats::analyze_set(name, &outcome.docs, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze_datagen::DocGenerator;
    use betze_engines::{JodaSim, MongoSim};
    use betze_generator::{generate_session, GeneratorConfig, InMemoryBackend};

    fn corpus() -> Vec<Value> {
        betze_datagen::TwitterLike::default().generate(6, 300)
    }

    #[test]
    fn joda_backend_matches_in_memory_backend() {
        let docs = corpus();
        let analysis = betze_stats::analyze("twitter", &docs);
        let config = GeneratorConfig::default();

        let mut reference = InMemoryBackend::new();
        reference.register_base(DatasetId(0), docs.clone());
        let expected =
            generate_session(&analysis, &config, 77, Some(&mut reference)).expect("reference");

        let mut joda = JodaSim::new(1);
        let mut backend = EngineBackend::new(&mut joda);
        backend.register_base(DatasetId(0), &docs).expect("import");
        let via_engine =
            generate_session(&analysis, &config, 77, Some(&mut backend)).expect("engine-backed");

        // Identical semantics → identical sessions.
        assert_eq!(expected.session.queries, via_engine.session.queries);
        for (a, b) in expected.records.iter().zip(&via_engine.records) {
            assert_eq!(a.verified_selectivity, b.verified_selectivity);
        }
    }

    #[test]
    fn mongo_backend_verifies_selectivities() {
        let docs = corpus();
        let analysis = betze_stats::analyze("twitter", &docs);
        let mut mongo = MongoSim::new();
        let mut backend = EngineBackend::new(&mut mongo);
        backend.register_base(DatasetId(0), &docs).expect("import");
        let outcome = generate_session(
            &analysis,
            &GeneratorConfig::default(),
            5,
            Some(&mut backend),
        )
        .expect("generation");
        assert!(outcome
            .records
            .iter()
            .all(|r| r.verified_selectivity.is_some()));
    }

    #[test]
    fn unknown_ids_degrade_gracefully() {
        let mut joda = JodaSim::new(1);
        let mut backend = EngineBackend::new(&mut joda);
        assert_eq!(backend.dataset_size(DatasetId(3)), 0);
        let pred = Predicate::leaf(betze_model::FilterFn::Exists {
            path: betze_json::JsonPointer::parse("/x").unwrap(),
        });
        assert_eq!(backend.count_matching(DatasetId(3), &pred), 0);
        assert!(backend.analyze(DatasetId(3), "x").is_none());
    }
}
