//! Paper-scale scenario presets.
//!
//! Examples, integration tests and benches all need the same workloads;
//! defining them once keeps every experiment comparable and EXPERIMENTS.md
//! honest about what was run.

use crate::compendium::{generate_compendium, CompendiumSpec};
use crate::dataset::{knockout_dataset, nutrient_limitation_dataset, stress_dataset, GenConfig};
use crate::modules::{layout_fits, plant_modules, GroundTruth};
use fv_expr::Dataset;

/// A named workload: datasets plus the planted truth.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario name (appears in EXPERIMENTS.md).
    pub name: String,
    /// The datasets.
    pub datasets: Vec<Dataset>,
    /// Planted ground truth.
    pub truth: GroundTruth,
}

/// Specific modules every preset plants beside the ESR.
const N_SPECIFIC: usize = 4;

/// Genes per specific module in a universe of `n_genes`.
fn specific_size(n_genes: usize) -> usize {
    (n_genes / 60).max(10)
}

impl Scenario {
    /// Fewest genes any preset can be generated over: the smallest universe
    /// the presets' module layout fits in (every larger one fits too).
    /// Smaller sizes panic in [`plant_modules`], so code that takes
    /// `n_genes` from a request checks it against this first.
    pub fn min_genes() -> usize {
        (1..)
            .find(|&n| layout_fits(n, N_SPECIFIC, specific_size(n)))
            .expect("the layout takes under a quarter of a large universe")
    }

    /// E2 / Figure 2: three datasets over a shared universe, sized for an
    /// interactive three-pane session. `n_genes` is typically 6 000 (the
    /// paper's lower dataset bound) but tests use smaller.
    pub fn three_datasets(n_genes: usize, seed: u64) -> Scenario {
        let truth = plant_modules(n_genes, N_SPECIFIC, specific_size(n_genes), seed);
        let cfg = |i: u64| GenConfig {
            noise_sd: 0.35,
            missing_fraction: 0.02,
            seed: seed.wrapping_add(i),
        };
        let datasets = vec![
            stress_dataset("gasch_stress", &truth, &cfg(0)),
            nutrient_limitation_dataset("brauer_nutrient", &truth, &cfg(1)),
            knockout_dataset("hughes_knockout", &truth, 48, 0.3, &cfg(2)),
        ];
        Scenario {
            name: format!("three_datasets_{n_genes}"),
            datasets,
            truth,
        }
    }

    /// §4 case study: the same three dataset families, with the knockout
    /// compendium's slow-grower fraction prominent so the "general stress
    /// response supersedes specific effects" signal is present to find.
    pub fn case_study(n_genes: usize, seed: u64) -> Scenario {
        let truth = plant_modules(n_genes, N_SPECIFIC, specific_size(n_genes), seed);
        let cfg = |i: u64| GenConfig {
            noise_sd: 0.3,
            missing_fraction: 0.02,
            seed: seed.wrapping_add(100 + i),
        };
        let datasets = vec![
            stress_dataset("gasch_stress", &truth, &cfg(0)),
            nutrient_limitation_dataset("brauer_nutrient", &truth, &cfg(1)),
            knockout_dataset("hughes_knockout", &truth, 60, 0.45, &cfg(2)),
        ];
        Scenario {
            name: format!("case_study_{n_genes}"),
            datasets,
            truth,
        }
    }

    /// E4 / Figure 4: a SPELL compendium of `n_datasets` datasets.
    pub fn spell_compendium(n_genes: usize, n_datasets: usize, seed: u64) -> Scenario {
        let spec = CompendiumSpec {
            n_genes,
            n_datasets,
            conds_per_dataset: 24,
            n_specific: N_SPECIFIC,
            specific_size: specific_size(n_genes),
            noise_sd: 0.35,
            missing_fraction: 0.02,
            seed,
        };
        let (datasets, truth) = generate_compendium(&spec);
        Scenario {
            name: format!("spell_{n_datasets}x{n_genes}"),
            datasets,
            truth,
        }
    }

    /// Total measurements across the scenario's datasets.
    pub fn total_measurements(&self) -> usize {
        self.datasets.iter().map(|d| d.n_measurements()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_genes_is_where_the_presets_start_to_fit() {
        let min = Scenario::min_genes();
        assert!(!layout_fits(min - 1, N_SPECIFIC, specific_size(min - 1)));
        assert!((min..5000).all(|n| layout_fits(n, N_SPECIFIC, specific_size(n))));
        assert_eq!(Scenario::three_datasets(min, 1).datasets[0].n_genes(), min);
        let smallest = Scenario::spell_compendium(min, CompendiumSpec::MIN_DATASETS, 1);
        assert_eq!(smallest.datasets.len(), CompendiumSpec::MIN_DATASETS);
    }

    #[test]
    fn three_datasets_preset() {
        let s = Scenario::three_datasets(300, 5);
        assert_eq!(s.datasets.len(), 3);
        assert!(s.datasets.iter().all(|d| d.n_genes() == 300));
        assert!(s.total_measurements() > 0);
    }

    #[test]
    fn case_study_preset_names() {
        let s = Scenario::case_study(300, 5);
        let names: Vec<&str> = s.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["gasch_stress", "brauer_nutrient", "hughes_knockout"]
        );
    }

    #[test]
    fn spell_compendium_preset() {
        let s = Scenario::spell_compendium(250, 5, 9);
        assert_eq!(s.datasets.len(), 5);
        assert_eq!(s.truth.n_genes, 250);
    }

    #[test]
    fn scenarios_deterministic() {
        let a = Scenario::three_datasets(200, 11);
        let b = Scenario::three_datasets(200, 11);
        assert_eq!(a.datasets[0].matrix, b.datasets[0].matrix);
        assert_eq!(a.datasets[2].matrix, b.datasets[2].matrix);
    }
}
