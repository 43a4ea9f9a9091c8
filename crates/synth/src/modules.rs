//! Planted co-expression modules and ground truth.
//!
//! A module is a set of genes that move together under some conditions.
//! The central one is the **ESR** (environmental stress response, after
//! Gasch et al. [11]): a large gene set induced (or repressed) by *any*
//! stress — the signal the Section-4 case study traces across dataset
//! types. Specific modules (heat, oxidative, nutrient, ribosome, …)
//! respond only to their own conditions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What kind of regulation a module's genes share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// Induced by general stress (ESR up-cluster).
    EsrInduced,
    /// Repressed by general stress (ESR down-cluster: ribosome biogenesis).
    EsrRepressed,
    /// Responds only to a specific condition family.
    Specific,
}

/// A planted module: a named gene set with an expression amplitude.
#[derive(Debug, Clone)]
pub struct ModuleSpec {
    /// Human-readable name, e.g. `heat shock response`.
    pub name: String,
    /// Member gene indices (into the shared gene universe).
    pub genes: Vec<usize>,
    /// Regulation kind.
    pub kind: ModuleKind,
    /// Expression amplitude in log₂ units at full activity.
    pub amplitude: f32,
}

/// The planted truth for a generated universe.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Number of genes in the universe.
    pub n_genes: usize,
    /// All planted modules. Index 0 is always ESR-induced, 1 ESR-repressed.
    pub modules: Vec<ModuleSpec>,
    /// For each gene: the module it belongs to (one module per gene here,
    /// which keeps recovery metrics unambiguous), or `None`.
    pub membership: Vec<Option<usize>>,
}

impl GroundTruth {
    /// Gene indices of the ESR-induced module.
    pub fn esr_induced(&self) -> &[usize] {
        &self.modules[0].genes
    }

    /// Gene indices of the ESR-repressed module.
    pub fn esr_repressed(&self) -> &[usize] {
        &self.modules[1].genes
    }

    /// Module of a gene, if any.
    pub fn module_of(&self, gene: usize) -> Option<&ModuleSpec> {
        self.membership[gene].map(|m| &self.modules[m])
    }

    /// Names (for annotation text) of a gene's module.
    pub fn module_name_of(&self, gene: usize) -> Option<&str> {
        self.module_of(gene).map(|m| m.name.as_str())
    }
}

/// Genes in the ESR-induced (~5%) and ESR-repressed (~10%) modules.
fn esr_sizes(n_genes: usize) -> (usize, usize) {
    ((n_genes / 20).max(5), (n_genes / 10).max(5))
}

/// Whether [`plant_modules`] can lay its modules out in `n_genes` genes:
/// a non-trivial universe with room for the ESR and every specific module.
pub fn layout_fits(n_genes: usize, n_specific: usize, specific_size: usize) -> bool {
    let (esr_up, esr_down) = esr_sizes(n_genes);
    n_genes >= 20 && esr_up + esr_down + n_specific * specific_size <= n_genes
}

/// Build a module layout over `n_genes` genes.
///
/// Fractions follow the Gasch-scale proportions: ~5% ESR-induced, ~10%
/// ESR-repressed, then `n_specific` specific modules of `specific_size`
/// genes each. Gene indices are assigned by a seeded shuffle so module
/// members are scattered through the universe (as in real data, where row
/// order is arbitrary).
///
/// Panics unless [`layout_fits`]; callers taking sizes from outside the
/// program check that first.
pub fn plant_modules(
    n_genes: usize,
    n_specific: usize,
    specific_size: usize,
    seed: u64,
) -> GroundTruth {
    assert!(
        layout_fits(n_genes, n_specific, specific_size),
        "{n_specific} modules of {specific_size} genes and the ESR do not fit in {n_genes} genes"
    );
    let (esr_up, esr_down) = esr_sizes(n_genes);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n_genes).collect();
    // Fisher-Yates shuffle.
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }

    let mut cursor = 0usize;
    let take = |k: usize, cursor: &mut usize| -> Vec<usize> {
        let mut v = idx[*cursor..*cursor + k].to_vec();
        *cursor += k;
        v.sort_unstable();
        v
    };

    const SPECIFIC_NAMES: [&str; 8] = [
        "heat shock response",
        "oxidative stress response",
        "osmotic stress response",
        "nitrogen metabolism",
        "phosphate metabolism",
        "galactose utilization",
        "amino acid biosynthesis",
        "cell wall organization",
    ];

    let mut modules = vec![
        ModuleSpec {
            name: "general stress response (induced)".to_string(),
            genes: take(esr_up, &mut cursor),
            kind: ModuleKind::EsrInduced,
            amplitude: 2.5,
        },
        ModuleSpec {
            name: "ribosome biogenesis (stress repressed)".to_string(),
            genes: take(esr_down, &mut cursor),
            kind: ModuleKind::EsrRepressed,
            amplitude: 2.0,
        },
    ];
    for s in 0..n_specific {
        modules.push(ModuleSpec {
            name: SPECIFIC_NAMES[s % SPECIFIC_NAMES.len()].to_string(),
            genes: take(specific_size, &mut cursor),
            kind: ModuleKind::Specific,
            amplitude: 2.2,
        });
    }

    let mut membership = vec![None; n_genes];
    for (mi, m) in modules.iter().enumerate() {
        for &g in &m.genes {
            membership[g] = Some(mi);
        }
    }
    GroundTruth {
        n_genes,
        modules,
        membership,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_roughly_gasch() {
        let t = plant_modules(6000, 4, 50, 7);
        assert_eq!(t.esr_induced().len(), 300);
        assert_eq!(t.esr_repressed().len(), 600);
        assert_eq!(t.modules.len(), 6);
        assert_eq!(t.modules[2].genes.len(), 50);
    }

    #[test]
    fn membership_consistent() {
        let t = plant_modules(1000, 3, 30, 11);
        for (mi, m) in t.modules.iter().enumerate() {
            for &g in &m.genes {
                assert_eq!(t.membership[g], Some(mi));
            }
        }
        let member_count = t.membership.iter().filter(|m| m.is_some()).count();
        let expected: usize = t.modules.iter().map(|m| m.genes.len()).sum();
        assert_eq!(member_count, expected, "no overlaps between modules");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = plant_modules(500, 2, 20, 42);
        let b = plant_modules(500, 2, 20, 42);
        assert_eq!(a.esr_induced(), b.esr_induced());
        let c = plant_modules(500, 2, 20, 43);
        assert_ne!(a.esr_induced(), c.esr_induced());
    }

    #[test]
    fn genes_scattered_not_contiguous() {
        let t = plant_modules(2000, 2, 40, 5);
        let g = t.esr_induced();
        // A contiguous block would span exactly len; a shuffled draw spans
        // nearly the whole universe.
        let span = g.last().unwrap() - g.first().unwrap();
        assert!(span > t.n_genes / 2, "span {span} too tight");
    }

    #[test]
    fn module_name_lookup() {
        let t = plant_modules(200, 1, 20, 3);
        let g = t.modules[2].genes[0];
        assert_eq!(t.module_name_of(g), Some("heat shock response"));
        let free = (0..200).find(|&i| t.membership[i].is_none()).unwrap();
        assert_eq!(t.module_name_of(free), None);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn overfull_universe_panics() {
        let _ = plant_modules(100, 10, 50, 1);
    }
}
