//! # betze-stats
//!
//! The BETZE **dataset analyzer** (paper §IV-A).
//!
//! Given a JSON dataset, the analyzer produces a statistical and structural
//! summary: for every distinct attribute path it records how many documents
//! contain the path, per-type occurrence counts, numeric min/max (integers
//! and reals tracked separately), boolean true counts, object/array
//! child-count ranges, and string prefixes with their occurrence counts —
//! exactly the statistics illustrated by Listing 2 of the paper.
//!
//! The summary is serializable to a JSON *analysis file* that "can be
//! stored and shared for future generator runs without the actual dataset"
//! (§IV-A), and it supports the selectivity-scaling fallback used when no
//! verification backend is available (§IV-D): `scaled(f)` multiplies all
//! counts by an achieved selectivity, at a documented loss of accuracy.
//!
//! In the paper this component runs on JODA; here it is a native pass over
//! [`betze_json::Value`] documents (the engines crate exposes the same
//! analysis through its JODA-like engine for the full pipeline).

//!
//! The crate also hosts the workspace's small shared statistics toolbox:
//! [`Histogram`] and the exact nearest-rank [`percentile`] helpers that
//! `betze loadgen` uses for its p50/p95/p99 latency report.

mod analysis;
mod analyzer;
mod cache;
mod counts;
mod file;
mod histogram;
mod percentile;
mod summary;

pub use analysis::{DatasetAnalysis, PathStats};
pub use analyzer::{
    analyze, analyze_jobs, analyze_set, analyze_with_config, analyze_with_config_jobs,
    AnalyzerConfig,
};
pub use cache::{fingerprint_docs, AnalysisCache};
pub use file::AnalysisFileError;
pub use histogram::Histogram;
pub use percentile::{percentile, percentile_duration, LatencySummary};
pub use summary::{summarize, AnalysisBuilder, HistogramPass, SummaryError};
