//! # fv-synth — synthetic genomic workloads with planted structure
//!
//! The paper's evaluation runs on published yeast data: the Gasch
//! environmental-stress compendium [11], the Saldanha/Brauer nutrient
//! limitation chemostats [12] and the Hughes knockout compendium [13].
//! Those datasets are not redistributable here, so this crate generates
//! structurally equivalent synthetic ones (see DESIGN.md's substitution
//! table): yeast-like gene names, planted co-expression modules — most
//! importantly an **environmental stress response (ESR)** module that is
//! active across stress, nutrient-limitation *and* knockout conditions,
//! which is precisely the cross-dataset signal the Section-4 case study
//! discovers — plus per-dataset specific modules, gene-level noise, and
//! missing values.
//!
//! Everything is deterministic given a `u64` seed.
//!
//! - [`names`] — systematic ORF-style names (`YAL001C`) and common names,
//! - [`modules`] — module specifications and the planted ground truth,
//! - [`dataset`] — stress / nutrient-limitation / knockout generators,
//! - [`compendium`] — many-dataset compendia for SPELL-scale experiments,
//! - [`ontogen`] — a GO-like ontology whose terms align with the planted
//!   modules, so GOLEM enrichment has a discoverable signal,
//! - [`scenario`] — paper-scale presets used by examples, tests, benches,
//! - [`workload`] — [`workload::WorkloadRng`], the seeded random source of
//!   generated *traffic*; the traffic generator itself (taxonomy-derived
//!   query mixes, written as typed requests) is `fv_api::workload`.

#![forbid(unsafe_code)]

pub mod compendium;
pub mod dataset;
pub mod modules;
pub mod names;
pub mod ontogen;
pub mod scenario;
pub mod workload;

pub use compendium::{generate_compendium, CompendiumSpec};
pub use modules::{GroundTruth, ModuleKind, ModuleSpec};
pub use scenario::Scenario;
