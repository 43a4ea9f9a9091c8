//! E3 / Figure 3: display-wall rendering and its scaling.
//!
//! One series reproduces the figure's claim: desktop vs wall frame time
//! (the "two orders of magnitude more pixels" axis — capacity ratios are
//! printed alongside), through `render_wall` and the tile scheduler it
//! drives. The scaling axis is the tile grid, which is the paper's axis;
//! the worker count follows the machine (printed, since every number here
//! depends on it).

use criterion::{criterion_group, criterion_main, Criterion};
use forestview::renderer::render_wall;
use forestview::Session;
use fv_synth::scenario::Scenario;
use fv_wall::{TileGrid, WallRenderer};
use std::hint::black_box;

fn session() -> Session {
    let scenario = Scenario::three_datasets(2000, 2007);
    let mut s = Session::new();
    for ds in scenario.datasets {
        s.load_dataset(ds).unwrap();
    }
    s.select_region(0, 0, 60);
    s
}

fn bench_surfaces(c: &mut Criterion) {
    let s = session();
    let mut group = c.benchmark_group("fig3_surface_size");
    group.sample_size(10);
    let desktop = TileGrid::desktop();
    let wall = TileGrid::princeton_wall();
    eprintln!(
        "[fig3] desktop {} px; princeton wall {} px (ratio {:.1}x); 6x4 HD wall ratio {:.1}x; {} core(s)",
        desktop.total_pixels(),
        wall.total_pixels(),
        wall.capacity_ratio(&desktop),
        TileGrid::new(6, 4, 1920, 1080).capacity_ratio(&desktop),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (name, grid) in [
        ("desktop_2mp", desktop),
        // The 12-tile frame the scheduler measurements in CHANGES.md quote.
        ("grid_4x3_512x384", TileGrid::new(4, 3, 512, 384)),
        ("princeton_wall_19mp", wall),
    ] {
        group.bench_function(name, |b| {
            let mut renderer = WallRenderer::new(grid);
            b.iter(|| black_box(render_wall(&s, &mut renderer)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_surfaces);
criterion_main!(benches);
