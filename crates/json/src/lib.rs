//! # betze-json
//!
//! A from-scratch JSON substrate for the BETZE benchmark generator.
//!
//! The BETZE paper (ICDE 2022) benchmarks *JSON* data-exploration tools, so
//! every layer of this reproduction — the dataset analyzer, the query
//! generator, and the simulated systems under test — operates on a common
//! JSON value model. Implementing it ourselves (instead of pulling in
//! `serde_json`) keeps the whole stack instrumentable: the engines charge
//! their cost models for bytes parsed and values decoded, which requires
//! owning the parser.
//!
//! The crate provides:
//!
//! * [`Value`] / [`Number`] — the document model. Objects preserve insertion
//!   order (JSON document stores are order-preserving, and deterministic
//!   iteration matters for reproducible benchmark generation).
//! * [`DocSet`] — a shared, read-only document set: a base vector plus an
//!   optional row selection, so filtered intermediates never copy
//!   documents.
//! * [`parse`] / [`parse_many`] — a byte-level recursive-descent parser with
//!   position-tracked errors and a configurable depth limit.
//! * Serialization via [`Value::to_json`] and [`Value::to_json_pretty`].
//! * [`JsonPointer`] — `/user/name`-style paths as used throughout the paper
//!   (Listing 1, Listing 2) to address nested attributes.
//! * The [`json!`] macro for terse literals in tests and examples.
//! * [`frame`] — the checksummed `[u32 len][u64 fnv][payload]` frame
//!   codec shared by the harness's crash-safe result journal and the
//!   `betze-serve` wire protocol.
//! * [`page`] — the fixed-size checksummed page codec underlying the
//!   `.bcorp` out-of-core corpus format (`betze-store`).

mod docset;
mod error;
pub mod frame;
mod number;
pub mod page;
mod parse;
mod pointer;
mod ser;
mod value;

pub use docset::{DocSet, DocSetIter};
pub use error::{ParseError, ParseErrorKind, PointerParseError};
pub use number::Number;
pub use parse::{parse, parse_many, parse_with_limits, ParseLimits};
pub use pointer::JsonPointer;
pub use ser::{escape_string, to_json_lines, write_json_lines};
pub use value::{JsonType, Object, Value};
