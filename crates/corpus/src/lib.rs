//! # lshe-corpus
//!
//! The corpus layer of the LSH Ensemble reproduction: domains, their
//! provenance, CSV ingestion, and exact (ground-truth) containment search.
//!
//! * [`domain::Domain`] — a set of distinct values held as sorted 64-bit
//!   universe hashes, with exact containment/Jaccard and MinHash sketching.
//! * [`csv::CsvDocument`] — a minimal RFC-4180 reader, the ingestion path
//!   for real Open-Data CSV files (§6.1 of the paper).
//! * [`catalog::Catalog`] — the searchable collection of domains with
//!   table/attribute provenance, addressed by dense [`catalog::DomainId`]s.
//! * [`exact::ExactIndex`] — inverted index computing the exact answer set
//!   `{X : t(Q,X) ≥ t*}` (Eq. 2), used as ground truth by every accuracy
//!   experiment.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod catalog;
pub mod csv;
pub mod domain;
pub mod exact;
pub mod json;

pub use catalog::{Catalog, DomainId, DomainMeta};
pub use csv::{CsvDocument, CsvError};
pub use domain::Domain;
pub use exact::ExactIndex;
pub use json::{Json, JsonError};
