//! Compendium generation: many datasets over a shared universe.
//!
//! SPELL-scale experiments need "very large compendia of gene expression
//! microarray data" (paper, Section 3). This module assembles one: the
//! three themed datasets (stress, nutrient limitation, knockouts) plus as
//! many generic experiments as requested, all over the same planted ground
//! truth. Every dataset has its own seed, so each generates independently
//! of the others — compendium construction is itself one of the scale
//! claims (E8).

use crate::dataset::{
    generic_dataset, knockout_dataset, nutrient_limitation_dataset, stress_dataset, GenConfig,
};
use crate::modules::{plant_modules, GroundTruth};
use fv_expr::Dataset;

/// Compendium shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct CompendiumSpec {
    /// Genes in the shared universe.
    pub n_genes: usize,
    /// Total datasets (≥ 3: the three themed ones come first).
    pub n_datasets: usize,
    /// Conditions per generic dataset.
    pub conds_per_dataset: usize,
    /// Number of specific planted modules.
    pub n_specific: usize,
    /// Genes per specific module.
    pub specific_size: usize,
    /// Additive noise σ.
    pub noise_sd: f32,
    /// Missing-cell fraction.
    pub missing_fraction: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for CompendiumSpec {
    fn default() -> Self {
        CompendiumSpec {
            n_genes: 1000,
            n_datasets: 10,
            conds_per_dataset: 20,
            n_specific: 4,
            specific_size: 40,
            noise_sd: 0.35,
            missing_fraction: 0.02,
            seed: 2007,
        }
    }
}

impl CompendiumSpec {
    /// Fewest datasets a compendium has: the three themed ones.
    pub const MIN_DATASETS: usize = 3;
}

/// Generate a compendium and its ground truth. Panics on fewer than
/// [`CompendiumSpec::MIN_DATASETS`] datasets.
pub fn generate_compendium(spec: &CompendiumSpec) -> (Vec<Dataset>, GroundTruth) {
    assert!(
        spec.n_datasets >= CompendiumSpec::MIN_DATASETS,
        "compendium needs at least {} datasets",
        CompendiumSpec::MIN_DATASETS
    );
    let truth = plant_modules(spec.n_genes, spec.n_specific, spec.specific_size, spec.seed);
    let cfg = |i: u64| GenConfig {
        noise_sd: spec.noise_sd,
        missing_fraction: spec.missing_fraction,
        seed: spec.seed.wrapping_mul(0x9E37).wrapping_add(i),
    };

    let mut datasets = vec![
        stress_dataset("gasch_stress", &truth, &cfg(0)),
        nutrient_limitation_dataset("brauer_nutrient", &truth, &cfg(1)),
        knockout_dataset(
            "hughes_knockout",
            &truth,
            spec.conds_per_dataset.max(24),
            0.3,
            &cfg(2),
        ),
    ];
    datasets.extend((3..spec.n_datasets).map(|i| {
        generic_dataset(
            &format!("experiment_{i:03}"),
            &truth,
            spec.conds_per_dataset,
            &cfg(i as u64),
        )
    }));
    (datasets, truth)
}

/// Total present measurements across a compendium (the paper's
/// "quarter billion measurements" axis).
pub fn total_measurements(datasets: &[Dataset]) -> usize {
    datasets.iter().map(|d| d.n_measurements()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_names() {
        let spec = CompendiumSpec {
            n_genes: 300,
            n_datasets: 6,
            conds_per_dataset: 12,
            n_specific: 3,
            specific_size: 20,
            ..CompendiumSpec::default()
        };
        let (ds, truth) = generate_compendium(&spec);
        assert_eq!(ds.len(), 6);
        assert_eq!(ds[0].name, "gasch_stress");
        assert_eq!(ds[1].name, "brauer_nutrient");
        assert_eq!(ds[2].name, "hughes_knockout");
        assert_eq!(ds[3].name, "experiment_003");
        assert_eq!(truth.n_genes, 300);
        for d in &ds {
            assert_eq!(d.n_genes(), 300);
        }
    }

    #[test]
    fn deterministic() {
        let spec = CompendiumSpec {
            n_genes: 200,
            n_datasets: 4,
            ..CompendiumSpec::default()
        };
        let (a, _) = generate_compendium(&spec);
        let (b, _) = generate_compendium(&spec);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matrix, y.matrix, "dataset {} differs", x.name);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let s1 = CompendiumSpec {
            n_genes: 200,
            n_datasets: 3,
            seed: 1,
            ..CompendiumSpec::default()
        };
        let s2 = CompendiumSpec { seed: 2, ..s1 };
        let (a, _) = generate_compendium(&s1);
        let (b, _) = generate_compendium(&s2);
        assert_ne!(a[0].matrix, b[0].matrix);
    }

    #[test]
    fn measurement_count_tracks_missingness() {
        let spec = CompendiumSpec {
            n_genes: 200,
            n_datasets: 3,
            missing_fraction: 0.0,
            ..CompendiumSpec::default()
        };
        let (ds, _) = generate_compendium(&spec);
        let cells: usize = ds.iter().map(|d| d.n_genes() * d.n_conditions()).sum();
        assert_eq!(total_measurements(&ds), cells);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_few_datasets_panics() {
        let spec = CompendiumSpec {
            n_datasets: 2,
            ..CompendiumSpec::default()
        };
        let _ = generate_compendium(&spec);
    }
}
