//! # fv-golem — GOLEM: Gene Ontology Local Exploration Map
//!
//! GOLEM (Sealfon et al. 2006, paper reference \[10\]) combines two things
//! the paper's Section 3 calls out:
//!
//! 1. **Statistical enrichment** — "GOLEM provides a powerful framework for
//!    quantifying the statistical functional enrichment of lists of genes":
//!    the hypergeometric tail test over propagated GO annotations, with
//!    Bonferroni and Benjamini–Hochberg multiple-test correction
//!    ([`hypergeom`], [`enrich`](mod@enrich), [`correct`]).
//! 2. **Local exploration maps** — "to view how those results relate to
//!    each other in the larger context of the GO hierarchy": a
//!    radius-bounded neighbourhood of the hierarchy around a focus term,
//!    laid out in layers for display ([`map`], [`layout`]).
//!
//! The geometric output is renderer-agnostic (unit-square coordinates);
//! `forestview` draws it through `fv-render`.

#![forbid(unsafe_code)]

pub mod correct;
pub mod enrich;
pub mod hypergeom;
pub mod layout;
pub mod map;

pub use enrich::{enrich, EnrichmentConfig, EnrichmentResult};
pub use map::{build_local_map, LocalMap, MapNode};
