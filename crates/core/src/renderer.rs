//! Session rendering: panes → pixels, on desktop surfaces or tiled walls.
//!
//! The same `paint_scene` draws at any scale: the desktop path calls it
//! once with a zero origin; the wall path calls it once per tile with the
//! tile's origin, so tiles rasterize in parallel and each pays only for the
//! scene portion it shows ("scalable for use in both a desktop/laptop
//! setting and for use on very large-format display devices", Section 2).

use crate::layout::{layout_panes, PaneLayout};
use crate::pane::{build_all, PaneContent};
use crate::session::Session;
use fv_golem::layout::MapLayout;
use fv_golem::map::LocalMap;
use fv_ontology::dag::OntologyDag;
use fv_render::color::Rgb;
use fv_render::dendro::{paint_dendrogram_at, Orientation};
use fv_render::draw;
use fv_render::font;
use fv_render::heatmap::{mark_rows_at, paint_global_at, paint_zoom_at, ColourGrid};
use fv_render::{ExpressionColorMap, Framebuffer};
use fv_spell::SpellResult;
use fv_wall::stats::FrameStats;
use fv_wall::WallRenderer;
use std::sync::{Arc, Mutex, PoisonError};

/// Highlight color for selection marks and borders.
const MARK: Rgb = Rgb::new(255, 255, 255);
/// Pane border color.
const BORDER: Rgb = Rgb::new(90, 90, 90);
/// Title text color.
const TITLE: Rgb = Rgb::new(220, 220, 220);
/// Label text color.
const LABEL: Rgb = Rgb::new(180, 180, 180);

/// Pane layouts of the session's scene at `scene_w × scene_h`. The tree
/// column, label strip and array-tree strip are reserved only when some
/// pane shows one; the painter and damage resolution both lay out here, so
/// a reported rectangle is the one that was painted.
pub(crate) fn scene_layouts(session: &Session, scene_w: usize, scene_h: usize) -> Vec<PaneLayout> {
    let order = session.dataset_order();
    let prefs = |d: usize| session.prefs.for_dataset(d);
    let show_tree = order
        .iter()
        .any(|&d| session.gene_tree(d).is_some() && prefs(d).show_gene_tree);
    let show_labels = order.iter().any(|&d| prefs(d).show_annotations);
    let show_atree = order.iter().any(|&d| session.array_tree(d).is_some());
    layout_panes(
        scene_w,
        scene_h,
        order.len(),
        show_tree,
        show_labels,
        show_atree,
    )
}

/// Each dataset's global-view [`ColourGrid`] at the layout last painted,
/// kept in its [`Session`]: a frame that changed no cell, order, pane size
/// or colour map fills the grid it has instead of averaging every cell
/// again. The session forgets a dataset's grid on every `&mut` path that
/// changes its matrix or orders; [`ColourGrid::fits`] checks pane size and
/// colour map. Its `Debug` shows no grid, so a render changes nothing a
/// session prints.
#[derive(Default)]
pub(crate) struct GlobalGrids(Mutex<Vec<Option<Arc<ColourGrid>>>>);

impl std::fmt::Debug for GlobalGrids {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalGrids").finish_non_exhaustive()
    }
}

impl GlobalGrids {
    /// Dataset `d`'s grid for a `w × h` pane under `map`, built on a miss.
    /// The lock is held while building, so racing tiles build it once.
    fn get(
        &self,
        d: usize,
        w: usize,
        h: usize,
        map: &ExpressionColorMap,
        build: impl FnOnce() -> ColourGrid,
    ) -> Arc<ColourGrid> {
        // A build that panicked poisoned the lock: drop every grid and
        // carry on as a miss.
        let mut slots = self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            let mut slots = poisoned.into_inner();
            slots.clear();
            slots
        });
        if slots.len() <= d {
            slots.resize(d + 1, None);
        }
        match &slots[d] {
            Some(grid) if grid.fits(w, h, map) => Arc::clone(grid),
            _ => {
                let grid = Arc::new(build());
                slots[d] = Some(Arc::clone(&grid));
                grid
            }
        }
    }

    /// Drop dataset `d`'s grid: its cells or orders are about to change.
    pub(crate) fn forget(&mut self, d: usize) {
        let slots = self.0.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.get_mut(d) {
            *slot = None;
        }
    }
}

/// Where a painter takes global-view grids from.
#[derive(Clone, Copy)]
enum Grids {
    /// The session's [`GlobalGrids`], building what is missing.
    Kept,
    /// Averaged afresh from the cells ([`paint_global_at`]), touching no
    /// kept grid: the oracle a kept grid is checked against.
    Fresh,
}

/// Paint the whole session scene, laid out for a `scene_w × scene_h`
/// surface, translated by `(-origin_x, -origin_y)` into `fb`.
///
/// `panes` must come from [`crate::pane::build_all`] on the same session.
pub fn paint_scene(
    fb: &mut Framebuffer,
    session: &Session,
    panes: &[PaneContent],
    scene_w: usize,
    scene_h: usize,
    origin_x: i64,
    origin_y: i64,
) {
    paint_scene_with(
        fb,
        session,
        panes,
        (scene_w, scene_h),
        (origin_x, origin_y),
        Grids::Kept,
    );
}

fn paint_scene_with(
    fb: &mut Framebuffer,
    session: &Session,
    panes: &[PaneContent],
    (scene_w, scene_h): (usize, usize),
    origin: (i64, i64),
    grids: Grids,
) {
    let layouts = scene_layouts(session, scene_w, scene_h);
    for (content, lay) in panes.iter().zip(&layouts) {
        paint_pane(fb, session, content, lay, origin, grids);
    }
}

/// The session's grid for pane `c`'s global view laid out as `lay`.
fn kept_grid(session: &Session, c: &PaneContent, lay: &PaneLayout) -> Arc<ColourGrid> {
    let (w, h, map) = (lay.global.w, lay.global.h, &c.prefs.colormap);
    let matrix = &session.dataset(c.dataset).matrix;
    session.global_grids.get(c.dataset, w, h, map, || {
        let src = |r: usize, col: usize| matrix.get(c.display_order[r], c.col_order[col]);
        ColourGrid::new(w, h, c.n_rows, c.n_cols, src, map)
    })
}

fn paint_pane(
    fb: &mut Framebuffer,
    session: &Session,
    c: &PaneContent,
    lay: &PaneLayout,
    (ox, oy): (i64, i64),
    grids: Grids,
) {
    let tx = |x: usize| x as i64 - ox;
    let ty = |y: usize| y as i64 - oy;

    // Pane border and title.
    draw::rect_outline(
        fb,
        tx(lay.pane.x),
        ty(lay.pane.y),
        lay.pane.w,
        lay.pane.h,
        BORDER,
    );
    let title = font::fit_text(&c.title, lay.title.w.saturating_sub(4), 1);
    font::draw_text(
        fb,
        tx(lay.title.x + 2),
        ty(lay.title.y + 2),
        &title,
        TITLE,
        1,
    );

    // Global view: whole dataset in display order, downsampled with
    // averaging.
    if !lay.global.is_empty() && c.n_rows > 0 {
        let (x, y) = (tx(lay.global.x), ty(lay.global.y));
        match grids {
            Grids::Kept => kept_grid(session, c, lay).fill_at(fb, x, y),
            Grids::Fresh => {
                let matrix = &session.dataset(c.dataset).matrix;
                paint_global_at(
                    fb,
                    x,
                    y,
                    lay.global.w,
                    lay.global.h,
                    c.n_rows,
                    c.n_cols,
                    |r, col| matrix.get(c.display_order[r], c.col_order[col]),
                    &c.prefs.colormap,
                );
            }
        }
        // Selection highlight lines.
        mark_rows_at(
            fb,
            tx(lay.global.x),
            ty(lay.global.y),
            lay.global.w,
            lay.global.h,
            c.n_rows,
            &c.marks,
            MARK,
        );
    }

    // Gene dendrogram beside the global view.
    if c.prefs.show_gene_tree && !lay.global_tree.is_empty() {
        if let Some(tree) = &c.tree {
            if !tree.is_empty() {
                paint_dendrogram_at(
                    fb,
                    tx(lay.global_tree.x),
                    ty(lay.global_tree.y),
                    lay.global_tree.w,
                    lay.global_tree.h,
                    tree,
                    &c.leaf_pos,
                    Orientation::Horizontal,
                    BORDER,
                );
            }
        }
    }

    // Array dendrogram above the global view.
    if !lay.array_tree.is_empty() {
        if let Some(tree) = &c.array_tree {
            if !tree.is_empty() {
                paint_dendrogram_at(
                    fb,
                    tx(lay.array_tree.x),
                    ty(lay.array_tree.y),
                    lay.array_tree.w,
                    lay.array_tree.h,
                    tree,
                    &c.col_pos,
                    Orientation::Vertical,
                    BORDER,
                );
            }
        }
    }

    // Zoom view: the synchronized selection window.
    if !lay.zoom.is_empty() && !c.zoom_rows.is_empty() {
        let cell_h = c.prefs.zoom_cell_h.max(1);
        let visible = (lay.zoom.h / cell_h).max(1);
        let start = session.scroll().min(c.zoom_rows.len().saturating_sub(1));
        let window: Vec<Option<u32>> = c
            .zoom_rows
            .iter()
            .skip(start)
            .take(visible)
            .copied()
            .collect();
        let shown = window.len();
        let zoom_h = (shown * cell_h).min(lay.zoom.h);
        let map = c.prefs.colormap;
        paint_zoom_at(
            fb,
            tx(lay.zoom.x),
            ty(lay.zoom.y),
            lay.zoom.w,
            zoom_h,
            shown,
            c.n_cols,
            |r, col| match window[r] {
                Some(row) => session
                    .dataset(c.dataset)
                    .matrix
                    .get(row as usize, c.col_order[col]),
                None => None,
            },
            &map,
        );
        // Labels beside the zoom rows.
        if c.prefs.show_annotations && !lay.labels.is_empty() {
            for (i, _) in window.iter().enumerate() {
                let label = &c.zoom_labels[start + i];
                if label.is_empty() {
                    continue;
                }
                let text = font::fit_text(label, lay.labels.w.saturating_sub(2), 1);
                let y = lay.labels.y + i * cell_h + (cell_h.saturating_sub(font::GLYPH_H)) / 2;
                font::draw_text(fb, tx(lay.labels.x + 2), ty(y), &text, LABEL, 1);
            }
        }
    }
}

/// Render the session to a desktop-sized framebuffer, filling the global
/// views from the session's kept grids (averaged on the first frame of a
/// layout).
pub fn render_desktop(session: &Session, width: usize, height: usize) -> Framebuffer {
    render_desktop_with(session, width, height, Grids::Kept)
}

/// [`render_desktop`] with every global view averaged afresh from the
/// cells and no kept grid read or stored: the same bytes when the kept
/// grids are right, so tests and the server simulation render their
/// oracle here.
pub fn render_desktop_uncached(session: &Session, width: usize, height: usize) -> Framebuffer {
    render_desktop_with(session, width, height, Grids::Fresh)
}

fn render_desktop_with(
    session: &Session,
    width: usize,
    height: usize,
    grids: Grids,
) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    let panes = build_all(session);
    paint_scene_with(&mut fb, session, &panes, (width, height), (0, 0), grids);
    fb
}

/// Average every missing grid of the scene before a tile thread starts;
/// each tile then only fills.
fn keep_grids(session: &Session, panes: &[PaneContent], scene_w: usize, scene_h: usize) {
    for (c, lay) in panes.iter().zip(&scene_layouts(session, scene_w, scene_h)) {
        if !lay.global.is_empty() && c.n_rows > 0 {
            kept_grid(session, c, lay);
        }
    }
}

/// Render the session across a display wall (tiles in parallel). Returns
/// the per-frame stats; read tiles or composite from the renderer.
pub fn render_wall(session: &Session, wall: &mut WallRenderer) -> FrameStats {
    let w = wall.grid().wall_width();
    let h = wall.grid().wall_height();
    let panes = build_all(session);
    keep_grids(session, &panes, w, h);
    wall.render_frame(|fb, vp| paint_scene(fb, session, &panes, w, h, vp.x as i64, vp.y as i64))
}

/// Render a GOLEM local exploration map (Figure 5): layered DAG with nodes
/// colored by enrichment significance and labeled with term names.
pub fn render_golem_map(
    map: &LocalMap,
    layout: &MapLayout,
    dag: &OntologyDag,
    width: usize,
    height: usize,
) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    let margin = 10usize;
    let iw = width.saturating_sub(2 * margin).max(1) as f32;
    let ih = height.saturating_sub(2 * margin).max(1) as f32;
    let pos = |x: f32, y: f32| -> (i64, i64) {
        (
            (margin as f32 + x * iw) as i64,
            (margin as f32 + y * ih) as i64,
        )
    };
    // Edges first.
    for &(ci, pi) in &layout.edges {
        let (x0, y0) = pos(layout.nodes[ci].x, layout.nodes[ci].y);
        let (x1, y1) = pos(layout.nodes[pi].x, layout.nodes[pi].y);
        draw::line(&mut fb, x0, y0, x1, y1, BORDER);
    }
    // Nodes: box colored by significance (−log₁₀ p, saturating at 10).
    for (i, ln) in layout.nodes.iter().enumerate() {
        let (x, y) = pos(ln.x, ln.y);
        let node = &map.nodes[i];
        let color = match node.p_value {
            Some(p) => {
                let t = ((-p.max(1e-300).log10()) / 10.0).clamp(0.0, 1.0) as f32;
                Rgb::new(60, 60, 60).lerp(Rgb::new(255, 40, 40), t)
            }
            None => Rgb::new(60, 60, 60),
        };
        let is_focus = node.term == map.focus;
        let half = if is_focus { 5 } else { 3 };
        fb.fill_rect(
            x - half,
            y - half,
            (half * 2) as usize,
            (half * 2) as usize,
            color,
        );
        if is_focus {
            draw::rect_outline(
                &mut fb,
                x - half - 1,
                y - half - 1,
                (half * 2 + 2) as usize,
                (half * 2 + 2) as usize,
                MARK,
            );
        }
        let name = font::fit_text(&dag.term(node.term).name, 90, 1);
        font::draw_text(&mut fb, x + half + 2, y - 3, &name, LABEL, 1);
    }
    fb
}

/// Render a SPELL result panel (Figure 4): dataset-relevance bars and the
/// top gene list.
pub fn render_spell_panel(result: &SpellResult, width: usize, height: usize) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    font::draw_text(&mut fb, 4, 2, "SPELL SEARCH RESULTS", TITLE, 1);
    let bar_x = 4i64;
    let bar_max_w = (width / 2).saturating_sub(8);
    let mut y = 14i64;
    let wmax = result
        .datasets
        .iter()
        .map(|d| d.weight)
        .fold(0.0f32, f32::max)
        .max(f32::MIN_POSITIVE);
    for d in result
        .datasets
        .iter()
        .take((height.saturating_sub(20)) / 10 / 2)
    {
        let w = ((d.weight / wmax) * bar_max_w as f32) as usize;
        fb.fill_rect(bar_x, y, w.max(1), 6, Rgb::new(80, 160, 255));
        let label = font::fit_text(&d.name, width / 2 - 8, 1);
        font::draw_text(
            &mut fb,
            bar_x + bar_max_w as i64 + 6,
            y - 1,
            &label,
            LABEL,
            1,
        );
        y += 10;
    }
    // Top genes on the right half... below the bars.
    let mut gy = y + 6;
    font::draw_text(&mut fb, 4, gy, "TOP GENES:", TITLE, 1);
    gy += 10;
    for g in result.top_new_genes(((height as i64 - gy) / 9).max(0) as usize) {
        let line = format!("{} {:.3}", g.gene, g.score);
        font::draw_text(
            &mut fb,
            8,
            gy,
            &font::fit_text(&line, width - 12, 1),
            LABEL,
            1,
        );
        gy += 9;
    }
    fb
}

/// Compose the Figure-6 style tri-panel: ForestView left, GOLEM upper
/// right, SPELL lower right.
pub fn compose_figure6(
    forestview: &Framebuffer,
    golem: &Framebuffer,
    spell: &Framebuffer,
) -> Framebuffer {
    let right_w = golem.width().max(spell.width());
    let w = forestview.width() + right_w;
    let h = forestview.height().max(golem.height() + spell.height());
    let mut out = Framebuffer::new(w, h);
    out.blit(forestview, 0, 0);
    out.blit(golem, forestview.width() as i64, 0);
    out.blit(spell, forestview.width() as i64, golem.height() as i64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SelectionOrigin;
    use fv_expr::{Dataset, ExprMatrix};
    use fv_wall::TileGrid;

    fn session() -> Session {
        let mut s = Session::new();
        let vals: Vec<f32> = (0..40 * 6)
            .map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.4)
            .collect();
        let m = ExprMatrix::from_rows(40, 6, &vals).unwrap();
        s.load_dataset(Dataset::with_default_meta("alpha", m.clone()))
            .unwrap();
        s.load_dataset(Dataset::with_default_meta("beta", m))
            .unwrap();
        s.cluster_all();
        s.select_region(0, 5, 15);
        s
    }

    #[test]
    fn desktop_render_not_blank() {
        let s = session();
        let fb = render_desktop(&s, 400, 300);
        assert_eq!(fb.width(), 400);
        // Not all black: heatmap + borders drew something.
        let blank = fb.count_pixels(Rgb::BLACK);
        assert!(blank < 400 * 300, "nothing was drawn");
    }

    #[test]
    fn wall_render_matches_desktop_at_same_size() {
        let s = session();
        let grid = TileGrid::new(2, 2, 100, 75);
        let mut wall = WallRenderer::new(grid);
        render_wall(&s, &mut wall);
        let from_tiles = wall.composite();
        let direct = render_desktop(&s, 200, 150);
        assert_eq!(from_tiles, direct, "tiled render must equal direct render");
    }

    #[test]
    fn wall_render_reports_stats() {
        let s = session();
        let mut wall = WallRenderer::new(TileGrid::new(3, 2, 64, 64));
        let stats = render_wall(&s, &mut wall);
        assert_eq!(stats.tiles_rendered, 6);
        assert_eq!(stats.pixels_rendered, 6 * 64 * 64);
    }

    #[test]
    fn selection_marks_visible_in_global() {
        let mut s = session();
        s.clear_selection();
        let before = render_desktop(&s, 300, 200);
        s.select_region(0, 0, 10);
        let after = render_desktop(&s, 300, 200);
        assert_ne!(before, after, "selection must change the rendering");
        assert!(after.count_pixels(MARK) > before.count_pixels(MARK));
    }

    #[test]
    fn sync_toggle_changes_render() {
        let mut s = session();
        // Pick three genes and select them in REVERSE display order, so
        // the unsynchronized view (dataset display order) provably differs
        // from the synchronized view (selection order).
        let picks = [3usize, 9, 27];
        let mut ordered: Vec<usize> = picks.to_vec();
        ordered.sort_by_key(|&r| std::cmp::Reverse(s.display_pos_of_row(0, r)));
        let names: Vec<String> = ordered.iter().map(|r| format!("G{r}")).collect();
        let refs: Vec<&str> = names.iter().map(|x| x.as_str()).collect();
        s.select_genes(&refs, SelectionOrigin::List);

        let rows_sync = crate::sync::zoom_rows(&s, 0);
        s.set_sync(false);
        let rows_unsync = crate::sync::zoom_rows(&s, 0);
        assert_ne!(rows_sync, rows_unsync, "row orders must differ");

        s.set_sync(true);
        let sync_on = render_desktop(&s, 300, 200);
        s.set_sync(false);
        let sync_off = render_desktop(&s, 300, 200);
        assert_ne!(sync_on, sync_off);
    }

    #[test]
    fn array_clustering_changes_render() {
        let mut s = session();
        let before = render_desktop(&s, 300, 200);
        s.cluster_arrays(
            0,
            fv_cluster::Metric::Euclidean,
            fv_cluster::Linkage::Average,
        );
        s.cluster_arrays(
            1,
            fv_cluster::Metric::Euclidean,
            fv_cluster::Linkage::Average,
        );
        let after = render_desktop(&s, 300, 200);
        // The array-tree strip appears and (usually) columns permute.
        assert_ne!(before, after);
        // Wall rendering stays consistent with the array-clustered scene.
        let grid = TileGrid::new(2, 2, 75, 50);
        let mut wall = WallRenderer::new(grid);
        render_wall(&s, &mut wall);
        assert_eq!(wall.composite(), render_desktop(&s, 150, 100));
    }

    /// Without a gene tree the painter reserves no tree column, and damage
    /// must be resolved for that same layout (found by fv-net's simulation:
    /// stream deltas left a 48-px gutter of every pane stale).
    #[test]
    fn damage_covers_what_changed_without_a_gene_tree() {
        use crate::command::{apply, Command};
        let mut s = Session::new();
        let vals: Vec<f32> = (0..40 * 6)
            .map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.4)
            .collect();
        let m = ExprMatrix::from_rows(40, 6, &vals).unwrap();
        for name in ["alpha", "beta", "gamma"] {
            s.load_dataset(Dataset::with_default_meta(name, m.clone()))
                .unwrap();
        }
        let (w, h) = (800, 600);
        // 40-px tiles: narrower than the tree column damage used to be
        // shifted by, so a stale gutter would have a tile of its own.
        let mut wall = WallRenderer::new(TileGrid::new(20, 15, 40, 40));
        render_wall(&s, &mut wall);
        let select = Command::SelectRegion {
            dataset: 0,
            start_frac: 0.1,
            end_frac: 0.9,
        };
        for cmd in [select, Command::Scroll(1)] {
            let before = render_desktop(&s, w, h);
            let damage = apply(&mut s, &cmd, w, h).damage;
            let after = render_desktop(&s, w, h);
            assert_ne!(before, after, "{cmd:?} must change the scene");
            for y in 0..h {
                for x in 0..w {
                    assert!(
                        before.get(x as i64, y as i64) == after.get(x as i64, y as i64)
                            || damage.iter().any(|d| d.contains(x, y)),
                        "{cmd:?} changed ({x},{y}) outside its damage {damage:?}"
                    );
                }
            }
            let panes = build_all(&s);
            wall.render_damage(&damage, |fb, vp| {
                paint_scene(fb, &s, &panes, w, h, vp.x as i64, vp.y as i64)
            });
            assert_eq!(wall.composite(), after, "wall patched after {cmd:?}");
        }
    }

    /// The benchmark's scene (`wallstream`, and the `render 1280 960` that
    /// ends every `recluster` op) against the definition of the global
    /// view: every pixel the mean of the cells it covers. Release only:
    /// `cargo test -p forestview --release -- --ignored`.
    #[test]
    #[ignore = "benchmark size; run in release"]
    fn benchmark_size_scene_equals_per_pixel_reference() {
        let (w, h) = (1280, 960);
        let mut s = Session::new();
        for ds in fv_synth::scenario::Scenario::three_datasets(1000, 1).datasets {
            s.load_dataset(ds).unwrap();
        }
        s.cluster_all();
        s.select_region(1, 200, 420);
        s.scroll_by(7);
        let direct = render_desktop(&s, w, h);

        // Repaint every global view one pixel at a time over the render.
        let mut reference = direct.clone();
        for (c, lay) in build_all(&s).iter().zip(scene_layouts(&s, w, h)) {
            let g = lay.global;
            for py in 0..g.h {
                let r0 = py * c.n_rows / g.h;
                let r1 = ((py + 1) * c.n_rows).div_ceil(g.h).max(r0 + 1);
                for px in 0..g.w {
                    let c0 = px * c.n_cols / g.w;
                    let c1 = ((px + 1) * c.n_cols).div_ceil(g.w).max(c0 + 1);
                    let (mut sum, mut n) = (0.0f64, 0usize);
                    for r in r0..r1 {
                        for col in c0..c1 {
                            if let Some(v) = c.global_value(&s, r, col) {
                                sum += v as f64;
                                n += 1;
                            }
                        }
                    }
                    let color = match n {
                        0 => c.prefs.colormap.missing,
                        _ => c.prefs.colormap.map((sum / n as f64) as f32),
                    };
                    reference.put((g.x + px) as i64, (g.y + py) as i64, color);
                }
            }
            mark_rows_at(
                &mut reference,
                g.x as i64,
                g.y as i64,
                g.w,
                g.h,
                c.n_rows,
                &c.marks,
                MARK,
            );
        }
        assert_eq!(direct, reference, "run-sharing painter vs per-pixel mean");

        let mut wall = WallRenderer::new(TileGrid::new(4, 2, w / 4, h / 2));
        render_wall(&s, &mut wall);
        assert_eq!(wall.composite(), direct, "4x2 wall vs desktop");
    }

    /// The benchmark's `wallstream` session played through two cycles of
    /// its seed-1 mutations: every frame filled from kept grids equals one
    /// averaged afresh, and every damage rect a mutation reports repaints
    /// to that rect of the frame. Release only: `cargo test -p forestview
    /// --release -- --ignored`.
    #[test]
    #[ignore = "benchmark size; run in release"]
    fn benchmark_size_wallstream_frames_fill_what_they_average() {
        use crate::command::{apply, Command};
        let (w, h) = (1280, 960);
        let mut s = Session::new();
        for ds in fv_synth::scenario::Scenario::three_datasets(1000, 1).datasets {
            s.load_dataset(ds).unwrap();
        }
        s.cluster_all();
        let region = |dataset, start_frac, end_frac| Command::SelectRegion {
            dataset,
            start_frac,
            end_frac,
        };
        let cycle = [
            region(1, 0.427, 0.447),
            Command::Scroll(2),
            Command::Scroll(4),
            Command::Search("index 18".into()),
            Command::Scroll(7),
            region(0, 0.837, 0.857),
            Command::Scroll(-7),
            Command::ClearSelection,
        ];
        assert!(render_desktop(&s, w, h) == render_desktop_uncached(&s, w, h));
        for (i, cmd) in cycle.iter().chain(&cycle).enumerate() {
            let damage = apply(&mut s, cmd, w, h).damage;
            let frame = render_desktop(&s, w, h);
            assert!(frame == render_desktop_uncached(&s, w, h), "frame {i}");
            let panes = build_all(&s);
            for d in &damage {
                let mut clip = Framebuffer::new(d.w, d.h);
                paint_scene(&mut clip, &s, &panes, w, h, d.x as i64, d.y as i64);
                assert!(clip == frame.crop(d.x, d.y, d.w, d.h), "frame {i}, {d:?}");
            }
        }
    }

    /// The paper's wall: the three-dataset desktop on Princeton's 6×4
    /// projectors (18.9 Mpix) packs into one keyframe burst that unpacks
    /// to the same bytes, and the burst is a fraction of the raw RGB.
    /// Release only: `cargo test -p forestview --release -- --ignored`.
    #[test]
    #[ignore = "paper size; run in release"]
    fn princeton_wall_keyframe_unpacks_byte_identically() {
        use fv_wall::stream::{decode, TileAssembler, TileStreamEncoder};
        let grid = TileGrid::princeton_wall();
        let (w, h) = (grid.wall_width(), grid.wall_height());
        let mut s = Session::new();
        for ds in fv_synth::scenario::Scenario::three_datasets(1000, 1).datasets {
            s.load_dataset(ds).unwrap();
        }
        s.cluster_all();
        s.select_region(1, 200, 420);
        let direct = render_desktop(&s, w, h);
        let frames = TileStreamEncoder::new(grid).keyframe(&direct);
        let mut viewer = TileAssembler::new(grid);
        let mut wire = 0;
        for frame in &frames {
            let bytes = frame.encode();
            let (back, used) = decode(&bytes).unwrap().expect("a whole frame");
            assert_eq!(used, bytes.len());
            viewer.apply(&back).unwrap();
            wire += used;
        }
        assert!(
            viewer.framebuffer() == &direct,
            "the viewer's wall is the render"
        );
        let raw = w * h * 3;
        println!(
            "princeton wall {w}x{h}: keyframe {wire} B of {raw} B raw RGB ({:.1}x smaller)",
            raw as f64 / wire as f64
        );
        assert!(wire * 4 < raw, "{wire} B packed of {raw} B raw");
    }

    /// `n_rows × n_cols` values from an xorshift stream, one cell in
    /// seven missing, genes named `G0`, `G1`, ….
    fn random_dataset(name: &str, n_rows: usize, n_cols: usize, seed: u64) -> Dataset {
        let mut x = seed | 1;
        let mut m = ExprMatrix::missing(n_rows, n_cols);
        for r in 0..n_rows {
            for c in 0..n_cols {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if !x.is_multiple_of(7) {
                    m.set(r, c, (x >> 40) as f32 / (1u64 << 22) as f32 - 2.0);
                }
            }
        }
        Dataset::with_default_meta(name, m)
    }

    /// One random edit of `s`: any [`Command`], or one of the `&mut`
    /// paths that change cells, orders or colour maps outside them
    /// (scheme, impute, normalize, load, array and gene clustering, pane
    /// reorder).
    fn random_edit(s: &mut Session, rng: &mut impl FnMut() -> u64) {
        use crate::command::{perform, Command};
        use fv_cluster::{Linkage, Metric};
        let metrics = [
            Metric::Pearson,
            Metric::AbsPearson,
            Metric::Uncentered,
            Metric::Spearman,
            Metric::Euclidean,
        ];
        let linkages = [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ];
        let n = s.n_datasets();
        let d = (rng() % n as u64) as usize;
        let frac = |x: u64| (x % 101) as f32 / 100.0;
        let command = match rng() % 20 {
            0 => Command::SelectRegion {
                dataset: d,
                start_frac: frac(rng()),
                end_frac: frac(rng()),
            },
            1 => Command::SelectGenes(vec![format!("G{}", rng() % 40), format!("G{}", rng() % 9)]),
            2 => Command::Search(format!("G{}", rng() % 12)),
            3 => Command::ClearSelection,
            4 => Command::ToggleSync,
            5 => Command::Scroll((rng() % 9) as i64 - 4),
            6 => Command::OrderByName,
            7 => Command::OrderByRelevance((0..n).map(|_| frac(rng())).collect()),
            8 => Command::ClusterAll,
            9 => Command::SetContrast {
                dataset: rng().is_multiple_of(2).then_some(d),
                contrast: 0.25 + 3.0 * frac(rng()),
            },
            10 => Command::SetLinkage(linkages[(rng() % 4) as usize]),
            11 => Command::SetMetric(metrics[(rng() % 5) as usize]),
            12 => {
                return s
                    .prefs
                    .set_scheme(d, fv_render::ColorScheme::all()[(rng() % 4) as usize])
            }
            13 => {
                let k = 1 + (rng() % 3) as usize;
                fv_cluster::impute::knn_impute(s.dataset_matrix_mut(d), k, Metric::Euclidean);
                return;
            }
            14 => {
                let m = s.dataset_matrix_mut(d);
                match rng() % 3 {
                    0 => fv_expr::normalize::mean_center_rows(m),
                    1 => fv_expr::normalize::median_center_rows(m),
                    _ => fv_expr::normalize::zscore_rows(m),
                }
                return;
            }
            15 if n < 4 => {
                let ds = random_dataset(&format!("d{n}"), 10 + (rng() % 30) as usize, 4, rng());
                s.load_dataset(ds).unwrap();
                return;
            }
            16 => {
                let (metric, linkage) = (
                    metrics[(rng() % 5) as usize],
                    linkages[(rng() % 4) as usize],
                );
                return s.cluster_arrays(d, metric, linkage);
            }
            17 => {
                let (metric, linkage) = (
                    metrics[(rng() % 5) as usize],
                    linkages[(rng() % 4) as usize],
                );
                return s.cluster_dataset(d, metric, linkage);
            }
            18 => {
                let mut order = s.dataset_order().to_vec();
                order.rotate_left(1);
                return s.set_dataset_order(order);
            }
            _ => Command::Scroll(1),
        };
        perform(s, &command);
    }

    fn random_session(seed: u64) -> Session {
        let mut s = Session::new();
        s.load_dataset(random_dataset("alpha", 40, 6, seed))
            .unwrap();
        s.load_dataset(random_dataset("beta", 23, 5, seed ^ 0xbeef))
            .unwrap();
        s
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// After every edit, the frame painted from the session's kept
        /// grids equals one averaged afresh from the cells: no edit leaves
        /// a stale grid behind. The pane size mostly stays (so grids are
        /// reused) and sometimes changes (so a grid of another layout is
        /// refused), and a wall render sometimes fills from the grids too.
        #[test]
        fn kept_grids_render_what_a_fresh_average_renders(
            seed in proptest::prelude::any::<u64>(),
            steps in 1usize..20,
        ) {
            let mut rng = xorshift(seed);
            let mut s = random_session(rng());
            let sizes = [(400, 300), (300, 200), (257, 191)];
            for step in 0..steps {
                random_edit(&mut s, &mut rng);
                let (w, h) = sizes[(rng() % 8).saturating_sub(5) as usize];
                let fresh = render_desktop_uncached(&s, w, h);
                proptest::prop_assert!(render_desktop(&s, w, h) == fresh, "step {}", step);
                if rng().is_multiple_of(4) {
                    let mut wall = WallRenderer::new(TileGrid::new(2, 2, w / 2, h / 2));
                    render_wall(&s, &mut wall);
                    let fresh = render_desktop_uncached(&s, w / 2 * 2, h / 2 * 2);
                    proptest::prop_assert!(wall.composite() == fresh, "wall, step {}", step);
                }
            }
        }

        /// Painting the scene into a rect-sized framebuffer at the rect's
        /// origin gives exactly that rect of the desktop render, for any
        /// rect — what per-tile and per-damage repaints rely on.
        #[test]
        fn a_clipped_paint_is_that_rect_of_the_desktop(
            seed in proptest::prelude::any::<u64>(),
            steps in 0usize..8,
        ) {
            let mut rng = xorshift(seed);
            let mut s = random_session(rng());
            let (w, h) = (400, 300);
            for _ in 0..steps {
                random_edit(&mut s, &mut rng);
            }
            let desktop = render_desktop(&s, w, h);
            let panes = build_all(&s);
            for _ in 0..4 {
                let (x, y) = ((rng() % w as u64) as usize, (rng() % h as u64) as usize);
                let rw = 1 + (rng() % (w - x) as u64) as usize;
                let rh = 1 + (rng() % (h - y) as u64) as usize;
                let mut clip = Framebuffer::new(rw, rh);
                paint_scene(&mut clip, &s, &panes, w, h, x as i64, y as i64);
                proptest::prop_assert!(clip == desktop.crop(x, y, rw, rh), "{:?}", (x, y, rw, rh));
            }
        }
    }

    #[test]
    fn a_poisoned_grid_lock_is_a_miss() {
        let s = session();
        let before = render_desktop(&s, 300, 200);
        let map = fv_render::ExpressionColorMap::default();
        let build = || -> ColourGrid { panic!("a build that fails") };
        let failed = std::panic::catch_unwind(|| s.global_grids.get(0, 8, 8, &map, build));
        assert!(failed.is_err());
        assert!(render_desktop(&s, 300, 200) == before);
        assert!(render_desktop(&s, 300, 200) == render_desktop_uncached(&s, 300, 200));
    }

    #[test]
    fn a_render_changes_nothing_a_session_prints() {
        let s = session();
        let cold = format!("{s:?}");
        render_desktop(&s, 300, 200);
        assert_eq!(format!("{s:?}"), cold);
        assert!(cold.contains("GlobalGrids { .. }"));
    }

    #[test]
    fn golem_map_renders() {
        use fv_golem::layout::layout_map;
        use fv_golem::map::build_local_map;
        use fv_ontology::dag::{DagBuilder, RelType};
        use fv_ontology::term::{Namespace, Term};
        let mut b = DagBuilder::new();
        let root = b
            .add_term(Term::new("GO:1", "root", Namespace::BiologicalProcess))
            .unwrap();
        let child = b
            .add_term(Term::new("GO:2", "stress", Namespace::BiologicalProcess))
            .unwrap();
        b.add_edge(child, root, RelType::IsA);
        let dag = b.build().unwrap();
        let map = build_local_map(&dag, child, 2, &[]);
        let layout = layout_map(&map, 2);
        let fb = render_golem_map(&map, &layout, &dag, 200, 150);
        assert!(fb.count_pixels(Rgb::BLACK) < 200 * 150);
    }

    #[test]
    fn compose_figure6_dimensions() {
        let a = Framebuffer::new(100, 80);
        let b = Framebuffer::new(50, 40);
        let c = Framebuffer::new(60, 30);
        let out = compose_figure6(&a, &b, &c);
        assert_eq!(out.width(), 160);
        assert_eq!(out.height(), 80);
    }

    #[test]
    fn empty_session_renders_blank() {
        let s = Session::new();
        let fb = render_desktop(&s, 100, 100);
        assert_eq!(fb.count_pixels(Rgb::BLACK), 100 * 100);
    }
}
