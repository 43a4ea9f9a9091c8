//! # fv-ontology — Gene Ontology substrate for GOLEM
//!
//! GOLEM (Gene Ontology Local Exploration Map, Sealfon et al. 2006 — paper
//! reference \[10\]) visualizes and analyzes the GO hierarchy: "GO organizes
//! known biological information into a hierarchical graph structure
//! appropriate for use in evaluating hypotheses, observing functional
//! relationships, and categorizing results" (paper, Section 3).
//!
//! This crate provides that structure:
//!
//! - [`term`] — GO terms (`GO:nnnnnnn` accessions, names, namespaces),
//! - [`dag`] — the directed acyclic graph of `is_a` / `part_of` relations,
//!   with cycle rejection and topological ordering,
//! - [`annotations`] — gene↔term annotation sets with ancestor propagation
//!   (the *true-path rule*: a gene annotated to a term is implicitly
//!   annotated to every ancestor),
//! - [`query`] — ancestors/descendants, lowest common ancestors, depth and
//!   radius-bounded neighbourhoods (the "local exploration map" substrate).

#![forbid(unsafe_code)]

pub mod annotations;
pub mod dag;
pub mod query;
pub mod term;

pub use annotations::AnnotationSet;
pub use dag::{DagError, OntologyDag, RelType};
pub use term::{Namespace, Term, TermId};
