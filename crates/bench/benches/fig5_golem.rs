//! E5 / Figure 5: GOLEM enrichment and local-map layout.
//!
//! Series: annotation propagation over the DAG, hypergeometric enrichment
//! of a cluster against all candidate terms, and local
//! exploration map construction + layered layout at radius 1–3.

use criterion::{criterion_group, criterion_main, Criterion};
use fv_golem::layout::layout_map;
use fv_golem::map::build_local_map;
use fv_golem::{enrich, EnrichmentConfig};
use fv_synth::modules::plant_modules;
use fv_synth::names::orf_name;
use fv_synth::ontogen::generate_ontology;
use std::hint::black_box;

fn bench_golem(c: &mut Criterion) {
    let truth = plant_modules(6000, 4, 80, 7);
    let onto = generate_ontology(&truth, 5000, 7);
    let prop = onto.annotations.propagate(&onto.dag);
    eprintln!(
        "[fig5] ontology: {} terms, {} edges, population {}",
        onto.dag.n_terms(),
        onto.dag.n_edges(),
        prop.n_genes()
    );

    let mut group = c.benchmark_group("fig5_golem");
    group.sample_size(10);

    group.bench_function("propagate_annotations_5k_terms", |b| {
        b.iter(|| black_box(onto.annotations.propagate(&onto.dag)))
    });

    let cluster: Vec<String> = truth.modules[2]
        .genes
        .iter()
        .take(60)
        .map(|&g| orf_name(g))
        .collect();
    let refs: Vec<&str> = cluster.iter().map(|s| s.as_str()).collect();
    group.bench_function("enrich_200gene_cluster_5k_terms", |b| {
        b.iter(|| {
            black_box(enrich(
                &onto.dag,
                &prop,
                &refs,
                &EnrichmentConfig::default(),
            ))
        })
    });

    let results = enrich(&onto.dag, &prop, &refs, &EnrichmentConfig::default());
    let focus = results[0].term;
    for radius in [1u32, 2, 3] {
        group.bench_function(format!("local_map_radius_{radius}"), |b| {
            b.iter(|| {
                let map = build_local_map(&onto.dag, focus, radius, &results);
                black_box(layout_map(&map, 2))
            })
        });
    }
    let map3 = build_local_map(&onto.dag, focus, 3, &results);
    eprintln!(
        "[fig5] radius-3 map: {} nodes, {} edges, crossings base {} -> barycenter {}",
        map3.n_nodes(),
        map3.edges.len(),
        layout_map(&map3, 0).crossings(),
        layout_map(&map3, 4).crossings(),
    );
    group.finish();
}

criterion_group!(benches, bench_golem);
criterion_main!(benches);
