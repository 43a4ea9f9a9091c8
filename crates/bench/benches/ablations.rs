//! Ablation benches A1–A3 and A5: the design choices the reproduction makes.
//!
//! - A1 sync on/off: cost of building synchronized vs unsynchronized views.
//! - A2 damage tracking: repaint cost of interaction with dirty-rect
//!   repaints vs full-frame redraws (the "dynamic" axis at wall scale).
//! - A3 SPELL weighting: ranking with coherence weights vs uniform weights
//!   (quality is asserted in tests; here we show the cost is identical).
//! - A5 imputation: KNN vs the row-mean baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use forestview::command::{apply, Command};
use forestview::pane::build_all;
use forestview::renderer::paint_scene;
use forestview::selection::SelectionOrigin;
use forestview::Session;
use fv_cluster::distance::Metric;
use fv_spell::rank::combine_rankings;
use fv_synth::scenario::Scenario;
use fv_wall::{TileGrid, WallRenderer};
use std::hint::black_box;

fn session_with(n_genes: usize, n_datasets: usize) -> Session {
    let scenario = Scenario::spell_compendium(n_genes, n_datasets.max(3), 7);
    let mut s = Session::new();
    for ds in scenario.datasets.into_iter().take(n_datasets) {
        s.load_dataset(ds).unwrap();
    }
    let names: Vec<String> = (0..200).map(fv_synth::names::orf_name).collect();
    let refs: Vec<&str> = names.iter().map(|x| x.as_str()).collect();
    s.select_genes(&refs, SelectionOrigin::List);
    s
}

fn a1_sync_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_a1_sync");
    group.sample_size(10);
    for n_panes in [3usize, 12, 24] {
        let mut s = session_with(1000, n_panes);
        s.set_sync(true);
        group.bench_function(format!("sync_on_{n_panes}_panes"), |b| {
            b.iter(|| {
                for d in 0..s.n_datasets() {
                    black_box(forestview::sync::zoom_rows(&s, d));
                }
            })
        });
        s.set_sync(false);
        group.bench_function(format!("sync_off_{n_panes}_panes"), |b| {
            b.iter(|| {
                for d in 0..s.n_datasets() {
                    black_box(forestview::sync::zoom_rows(&s, d));
                }
            })
        });
    }
    group.finish();
}

fn a2_damage_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_a2_damage");
    group.sample_size(10);
    let mut s = session_with(1500, 3);
    let grid = TileGrid::new(6, 4, 512, 384);
    let w = grid.wall_width();
    let h = grid.wall_height();

    // A scroll command invalidates only zoom+label strips.
    let scroll_damage = apply(&mut s, &Command::Scroll(1), w, h).damage;
    eprintln!(
        "[a2] scroll damages {} rects covering {} px of {} px total",
        scroll_damage.len(),
        scroll_damage.iter().map(|r| r.area()).sum::<usize>(),
        w * h
    );
    let panes = build_all(&s);
    let paint = |fb: &mut fv_render::Framebuffer, vp: fv_wall::tile::Viewport| {
        paint_scene(fb, &s, &panes, w, h, vp.x as i64, vp.y as i64)
    };

    group.bench_function("full_redraw_24_tiles", |b| {
        let mut renderer = WallRenderer::new(grid);
        b.iter(|| black_box(renderer.render_frame(paint)))
    });
    group.bench_function("damage_redraw_scroll", |b| {
        let mut renderer = WallRenderer::new(grid);
        renderer.render_frame(paint);
        b.iter(|| black_box(renderer.render_damage(&scroll_damage, paint)))
    });
    group.finish();
}

fn a3_weighting_ablation(c: &mut Criterion) {
    // Weighted vs uniform combination over identical per-dataset scores:
    // the quality difference is asserted in tests/spell_quality.rs; the
    // bench records that weighting adds no measurable ranking cost.
    let mut group = c.benchmark_group("ablation_a3_spell_weighting");
    group.sample_size(10);
    let n_genes = 5000usize;
    let n_datasets = 20usize;
    let per_dataset: Vec<Vec<Option<f32>>> = (0..n_datasets)
        .map(|d| {
            (0..n_genes)
                .map(|g| Some((((g * 31 + d * 17) % 200) as f32 - 100.0) / 100.0))
                .collect()
        })
        .collect();
    let names: Vec<String> = (0..n_genes).map(fv_synth::names::orf_name).collect();
    let query_set = vec![false; n_genes];
    let coherence: Vec<f32> = (0..n_datasets)
        .map(|d| (d as f32 + 1.0) / n_datasets as f32)
        .collect();
    let uniform = vec![1.0f32; n_datasets];
    group.bench_function("weighted_combine_20x5000", |b| {
        b.iter(|| {
            black_box(combine_rankings(
                &per_dataset,
                &coherence,
                &names,
                &query_set,
            ))
        })
    });
    group.bench_function("uniform_combine_20x5000", |b| {
        b.iter(|| black_box(combine_rankings(&per_dataset, &uniform, &names, &query_set)))
    });
    group.finish();
}

fn a5_impute_ablation(c: &mut Criterion) {
    // KNN imputation vs row-mean baseline: cost here, quality in
    // fv-cluster's impute tests (KNN error < mean error / 4 on
    // module-structured data).
    use fv_cluster::impute::{knn_impute, row_mean_impute};
    let mut group = c.benchmark_group("ablation_a5_impute");
    group.sample_size(10);
    let scenario = Scenario::three_datasets(500, 3);
    let mut base = scenario.datasets[0].matrix.clone();
    // knock out 5% of cells deterministically
    let n_cols = base.n_cols();
    for i in (0..base.n_cells()).step_by(20) {
        base.set_missing(i / n_cols, i % n_cols);
    }
    group.bench_function("knn_impute_k10_500x15", |b| {
        b.iter(|| {
            let mut m = base.clone();
            black_box(knn_impute(&mut m, 10, Metric::Euclidean))
        })
    });
    group.bench_function("row_mean_impute_500x15", |b| {
        b.iter(|| {
            let mut m = base.clone();
            black_box(row_mean_impute(&mut m))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    a1_sync_ablation,
    a2_damage_ablation,
    a3_weighting_ablation,
    a5_impute_ablation
);
criterion_main!(benches);
