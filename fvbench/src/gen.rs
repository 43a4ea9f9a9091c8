//! Seeded inputs. Everything the server receives is generated here from
//! `--seed`: the same seed gives byte-identical lines and files.
//!
//! Each cycle keeps a *fixed skeleton* (which request kind sits where)
//! and draws only the parameters from the seed, so every seed produces
//! ops of the same shape and reply sizes that differ by a few bytes at
//! most. Each cycle ends in `clear_selection`, which resets the only view
//! state the requests touch (selection and scroll): the session is in the
//! same state after every cycle, so the replies of cycle `k` equal those
//! of cycle 0 and the oracle can check every op against one local replay.

use fv_synth::dataset::{generic_dataset, GenConfig};
use fv_synth::modules::plant_modules;
use fv_synth::names::orf_name;
use fv_synth::workload::WorkloadRng;

/// Input sizes. The benchmark always runs [`Sizes::FULL`]; `selftest`
/// runs the same code on [`Sizes::TINY`] so it finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Genes per dataset in the `interactive` session.
    pub interactive_genes: usize,
    /// Genes per dataset in `recluster` ops and the `wallstream` session.
    pub cluster_genes: usize,
    /// Genes of the `restore` PCL.
    pub restore_genes: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        interactive_genes: 2000,
        cluster_genes: 1000,
        restore_genes: 1500,
    };
    pub const TINY: Sizes = Sizes {
        interactive_genes: 200,
        cluster_genes: 150,
        restore_genes: 200,
    };
}

/// Filler terms of the `interactive` ontology.
pub const INTERACTIVE_ONTOLOGY: usize = 40;
/// Conditions of the `restore` PCL.
pub const RESTORE_CONDITIONS: usize = 60;
/// Sessions the `restore` workload recovers and migrates.
pub const RESTORE_SESSIONS: usize = 4;
/// The viewer's tile grid in `wallstream`.
pub const WALL_GRID: (usize, usize) = (4, 2);

fn rng_for(seed: u64, stream: u64) -> WorkloadRng {
    // Distinct streams per workload so adding one never shifts another.
    WorkloadRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// `n` distinct genes drawn from `pool` (gene indices), as a wire list.
fn gene_list(rng: &mut WorkloadRng, n: usize, pool: &[usize]) -> String {
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n.min(pool.len()) {
        let g = pool[rng.below(pool.len() as u64) as usize];
        if !picked.contains(&g) {
            picked.push(g);
        }
    }
    picked
        .into_iter()
        .map(orf_name)
        .collect::<Vec<_>>()
        .join(",")
}

/// `select_region` over a fixed 2 % window of one of the first `panes`
/// panes, so every seed selects the same number of rows.
fn select_region(rng: &mut WorkloadRng, panes: u64) -> String {
    let dataset = rng.below(panes);
    let start = rng.below(960);
    format!(
        "select_region {dataset} {:?} {:?}",
        start as f32 / 1000.0,
        (start + 20) as f32 / 1000.0
    )
}

/// Annotation search whose hit count does not depend on the seed: gene
/// annotations end in `ORF index <i>`, so `index 1x` hits `1x`, `1x0`–`1x9`
/// and, from 1000 genes up, `1x00`–`1x99`, while `index 2x`…`9x` hit
/// eleven genes.
fn search_term(rng: &mut WorkloadRng, wide: bool) -> String {
    if wide {
        format!("index {}", 10 + rng.below(10))
    } else {
        format!("index {}", 20 + rng.below(80))
    }
}

/// Set-up lines of the `interactive` session (before the warm-up cycle).
pub fn interactive_setup(seed: u64, sizes: &Sizes) -> Vec<String> {
    vec![
        format!("scenario {} {seed}", sizes.interactive_genes),
        format!("ontology {INTERACTIVE_ONTOLOGY} {seed}"),
        "cluster_all".to_string(),
    ]
}

/// The 16-request `interactive` cycle: 4 `scroll`, 3 `select_region`,
/// 1 `select_genes`, 1 `clear_selection`, 2 `session_info`,
/// 1 `list_datasets`, 2 `search`, 1 `spell` (5 genes),
/// 1 `export_selection gene_list`. No renders.
pub fn interactive_cycle(seed: u64, sizes: &Sizes) -> Vec<String> {
    let mut rng = rng_for(seed, 0x1A7E);
    let n = sizes.interactive_genes;
    let universe: Vec<usize> = (0..n).collect();
    // A SPELL query is a set of related genes: five members of the
    // scenario's first planted module (the same `plant_modules` call
    // `scenario <n> <seed>` makes), so every seed gets a full ranking.
    // Five unrelated genes rank nothing for some seeds and ten for others.
    let truth = plant_modules(n, 4, (n / 60).max(10), seed);
    let module: &[usize] = truth.modules.first().map_or(&universe, |m| &m.genes);
    vec![
        select_region(&mut rng, 3),
        format!("scroll {}", 1 + rng.below(8)),
        "session_info".to_string(),
        format!("scroll {}", 1 + rng.below(8)),
        format!("search {}", search_term(&mut rng, true)),
        format!("select_genes {}", gene_list(&mut rng, 8, &universe)),
        format!("scroll {}", 1 + rng.below(4)),
        select_region(&mut rng, 3),
        "export_selection gene_list".to_string(),
        format!("spell 10 {}", gene_list(&mut rng, 5, module)),
        "list_datasets".to_string(),
        format!("scroll -{}", 1 + rng.below(8)),
        format!("search {}", search_term(&mut rng, false)),
        select_region(&mut rng, 3),
        "session_info".to_string(),
        "clear_selection".to_string(),
    ]
}

/// Session name of `recluster` ops.
pub const RECLUSTER_SESSION: &str = "rc";

/// One `recluster` op: the script `fvtool script --remote` would carry.
/// Op `i` clusters scenario `seed + i`, content no earlier op has seen,
/// so a content-keyed cache cannot help here by construction.
pub fn recluster_script(seed: u64, i: u64, sizes: &Sizes) -> String {
    format!(
        "use {s}\nscenario {} {}\nset_metric pearson\nset_linkage average\n\
         cluster_all\nrender 1280 960\nclose {s}\n",
        sizes.cluster_genes,
        seed.wrapping_add(i),
        s = RECLUSTER_SESSION
    )
}

/// Session the `wallstream` viewer watches.
pub const WALL_SESSION: &str = "wall";

/// Set-up lines of the `wallstream` session.
pub fn wallstream_setup(seed: u64, sizes: &Sizes) -> Vec<String> {
    vec![
        format!("scenario {} {seed}", sizes.cluster_genes),
        "cluster_all".to_string(),
    ]
}

/// The 8-mutation `wallstream` cycle: 4 `scroll ±k`, 2 `select_region`,
/// 1 `search_select`, 1 `clear_selection`. Every one damages tiles.
pub fn wallstream_cycle(seed: u64) -> Vec<String> {
    let mut rng = rng_for(seed, 0x3A11);
    vec![
        select_region(&mut rng, 3),
        format!("scroll {}", 1 + rng.below(8)),
        format!("scroll {}", 1 + rng.below(8)),
        format!("search_select {}", search_term(&mut rng, true)),
        format!("scroll {}", 1 + rng.below(8)),
        select_region(&mut rng, 3),
        format!("scroll -{}", 1 + rng.below(8)),
        "clear_selection".to_string(),
    ]
}

/// The PCL every `restore` session loads: planted modules over
/// `sizes.restore_genes` genes, [`RESTORE_CONDITIONS`] generic conditions.
pub fn restore_dataset(seed: u64, sizes: &Sizes) -> fv_expr::Dataset {
    let n = sizes.restore_genes;
    let truth = plant_modules(n, 4, (n / 60).max(10), seed);
    let cfg = GenConfig {
        seed,
        ..GenConfig::default()
    };
    generic_dataset("restore", &truth, RESTORE_CONDITIONS, &cfg)
}

pub fn restore_session_name(i: usize) -> String {
    format!("rs{i}")
}

/// What each `restore` session runs after `load <pcl>`: clustering plus
/// two view mutations, distinct per session.
pub fn restore_session_setup(seed: u64, i: usize) -> Vec<String> {
    let mut rng = rng_for(seed, 0x4E57 + i as u64);
    vec![
        "cluster_all".to_string(),
        select_region(&mut rng, 1),
        format!("scroll {}", 1 + rng.below(8)),
    ]
}

/// The mutation of `restore` op `i`. Consecutive `set_contrast` writes to
/// one target collapse in the session log, so the log (and with it the
/// replay cost of each migration) stays constant while every op still
/// dirties the session for the checkpoint cadence (dirtiness is the
/// attempted-request counter, not the value).
pub fn restore_mutation(seed: u64, i: u64) -> String {
    let mut rng = rng_for(seed, 0x5C07 ^ i.wrapping_mul(0x1_0001));
    // 1.01 ..= 2.99 in odd hundredths: always two decimals on the wire
    let v = 101 + 2 * rng.below(100);
    format!("set_contrast 0 {:?}", v as f32 / 100.0)
}

/// Read-only probe whose reply must survive recovery and migration.
pub const RESTORE_PROBE: &str = "session_info";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        let full = &Sizes::FULL;
        assert_eq!(interactive_cycle(7, full), interactive_cycle(7, full));
        assert_ne!(interactive_cycle(7, full), interactive_cycle(8, full));
        assert_eq!(wallstream_cycle(7), wallstream_cycle(7));
        assert_ne!(wallstream_cycle(7), wallstream_cycle(8));
        assert_eq!(recluster_script(7, 3, full), recluster_script(7, 3, full));
        assert_ne!(recluster_script(7, 3, full), recluster_script(7, 4, full));
        assert_eq!(restore_mutation(7, 5), restore_mutation(7, 5));
        assert_eq!(
            fv_formats::pcl::write_pcl(&restore_dataset(7, &Sizes::TINY)),
            fv_formats::pcl::write_pcl(&restore_dataset(7, &Sizes::TINY))
        );
    }

    #[test]
    fn interactive_cycle_has_the_documented_mix() {
        let cycle = interactive_cycle(11, &Sizes::FULL);
        assert_eq!(cycle.len(), 16);
        let count = |kw: &str| {
            cycle
                .iter()
                .filter(|l| l.split(' ').next() == Some(kw))
                .count()
        };
        assert_eq!(count("scroll"), 4);
        assert_eq!(count("select_region"), 3);
        assert_eq!(count("select_genes"), 1);
        assert_eq!(count("clear_selection"), 1);
        assert_eq!(count("session_info"), 2);
        assert_eq!(count("list_datasets"), 1);
        assert_eq!(count("search"), 2);
        assert_eq!(count("spell"), 1);
        assert_eq!(count("export_selection"), 1);
        assert_eq!(cycle.last().map(String::as_str), Some("clear_selection"));
    }

    #[test]
    fn wallstream_cycle_has_the_documented_mix() {
        let cycle = wallstream_cycle(11);
        assert_eq!(cycle.len(), 8);
        let count = |kw: &str| {
            cycle
                .iter()
                .filter(|l| l.split(' ').next() == Some(kw))
                .count()
        };
        assert_eq!(count("scroll"), 4);
        assert_eq!(count("select_region"), 2);
        assert_eq!(count("search_select"), 1);
        assert_eq!(count("clear_selection"), 1);
    }

    #[test]
    fn every_generated_line_parses_as_a_script() {
        for seed in [1, 2, 99] {
            let mut text = String::new();
            let sizes = &Sizes::TINY;
            for line in interactive_setup(seed, sizes)
                .into_iter()
                .chain(interactive_cycle(seed, sizes))
                .chain(wallstream_setup(seed, sizes))
                .chain(wallstream_cycle(seed))
                .chain(restore_session_setup(seed, 2))
                .chain([restore_mutation(seed, 9)])
            {
                text.push_str(&line);
                text.push('\n');
            }
            text.push_str(&recluster_script(seed, 4, &Sizes::TINY));
            fv_api::parse_script(&text).expect("generated lines are valid wire grammar");
        }
    }

    #[test]
    fn recluster_ops_never_repeat_content() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            assert!(seen.insert(recluster_script(42, i, &Sizes::FULL)));
        }
    }
}
