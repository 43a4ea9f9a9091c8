//! # fv-spell — SPELL: Serial Patterns of Expression Levels Locator
//!
//! SPELL (Hibbs et al., paper reference \[8\]) is the search engine ForestView
//! integrates in Section 3: "take a small query of related genes from a
//! user, examine all of the available data to identify datasets where these
//! genes are most related, then within those datasets identify additional
//! genes that relate back to the query set. … The output of SPELL is both
//! an ordered list of genes and an ordered list of datasets."
//!
//! The pipeline:
//!
//! 1. [`prep`] — condition each dataset: z-score gene rows, zero-fill
//!    missing cells, unit-normalize rows, so Pearson correlation becomes a
//!    dot product of prepared vectors,
//! 2. [`balance`] — optional SVD signal balancing: a per-dataset factor,
//!    inverse to its dominant singular value, weights each dataset's
//!    contribution to the ranking (rows are not rescaled) so one huge
//!    experiment cannot dominate the compendium,
//! 3. [`weight`] — score each dataset by the **query coherence**: the mean
//!    pairwise correlation of the query genes within that dataset,
//! 4. [`rank`] — score every gene by its weighted mean correlation to the
//!    query across datasets, normalizing by the weight mass of the datasets
//!    that actually measure the gene,
//! 5. [`engine`] — the [`engine::SpellEngine`] compendium index tying it
//!    together,
//! 6. [`eval`] — retrieval metrics (precision@k, average precision) used by
//!    the reproduction benches to verify planted-module recovery.

#![forbid(unsafe_code)]

pub mod balance;
pub mod engine;
pub mod eval;
pub mod prep;
pub mod rank;
pub mod weight;

pub use engine::{SpellConfig, SpellEngine, SpellResult};
