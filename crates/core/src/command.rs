//! Deterministic interaction commands.
//!
//! The paper's ForestView is mouse-driven; for a reproducible system the
//! interactions become a replayable command stream ("selecting clusters of
//! genes or tree nodes, panning and zooming views, and adjusting color and
//! display settings", Section 2). Each command reports the **damage** it
//! causes in scene coordinates so the wall renderer can repaint only what
//! changed — that is the measurable meaning of "dynamic" at wall scale
//! (ablation A2).

use crate::layout::PaneLayout;
use crate::ordering::{apply_order, OrderPolicy};
use crate::renderer::scene_layouts;
use crate::selection::SelectionOrigin;
use crate::session::Session;
use fv_cluster::distance::Metric;
use fv_cluster::linkage::Linkage;
use fv_wall::tile::Viewport;

/// A user interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Highlight a fraction range of one dataset's global view
    /// (`0.0..=1.0` of its displayed genes) — the mouse-region path.
    SelectRegion {
        /// Source dataset.
        dataset: usize,
        /// Start fraction of the displayed gene list.
        start_frac: f32,
        /// End fraction.
        end_frac: f32,
    },
    /// Select named genes (an imported list).
    SelectGenes(Vec<String>),
    /// Search annotations and select the hits.
    Search(String),
    /// Clear the selection.
    ClearSelection,
    /// Toggle synchronized viewing.
    ToggleSync,
    /// Scroll the zoom views by rows.
    Scroll(i64),
    /// Reorder panes alphabetically.
    OrderByName,
    /// Reorder panes by external relevance scores.
    OrderByRelevance(Vec<f32>),
    /// Hierarchically cluster every dataset.
    ClusterAll,
    /// Adjust color contrast for one dataset (`None` = all datasets).
    SetContrast {
        /// Target dataset, or all.
        dataset: Option<usize>,
        /// New contrast.
        contrast: f32,
    },
    /// Set the linkage criterion used by subsequent clustering, so the
    /// cluster parameters are part of the replayable stream rather than
    /// hardcoded at call sites. Takes effect at the next `ClusterAll`.
    SetLinkage(Linkage),
    /// Set the distance metric used by subsequent clustering; companion
    /// to [`Command::SetLinkage`].
    SetMetric(Metric),
}

/// What a command changed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Selection size after the command, if a selection exists.
    pub selection_len: Option<usize>,
    /// Scene-coordinate rectangles invalidated by the command, for a scene
    /// laid out at the dimensions passed to [`apply`].
    pub damage: Vec<Viewport>,
}

fn rect_to_vp(r: crate::layout::Rect) -> Viewport {
    Viewport {
        x: r.x,
        y: r.y,
        w: r.w,
        h: r.h,
    }
}

fn zoom_and_marks_damage(layouts: &[PaneLayout]) -> Vec<Viewport> {
    let mut v = Vec::with_capacity(layouts.len() * 2);
    for l in layouts {
        v.push(rect_to_vp(l.zoom));
        v.push(rect_to_vp(l.labels));
        v.push(rect_to_vp(l.global));
    }
    v
}

fn zoom_only_damage(layouts: &[PaneLayout]) -> Vec<Viewport> {
    let mut v = Vec::with_capacity(layouts.len() * 2);
    for l in layouts {
        v.push(rect_to_vp(l.zoom));
        v.push(rect_to_vp(l.labels));
    }
    v
}

fn full_damage(scene_w: usize, scene_h: usize) -> Vec<Viewport> {
    vec![Viewport {
        x: 0,
        y: 0,
        w: scene_w,
        h: scene_h,
    }]
}

/// Which scene regions a command invalidates, independent of scene
/// dimensions. Resolved to concrete rectangles by [`resolve_damage`] in a
/// single layout pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamageClass {
    /// Zoom views, label gutters, and global-view marks of every pane.
    ZoomAndMarks,
    /// Zoom views and label gutters only (scrolling, sync toggles).
    ZoomOnly,
    /// The whole scene.
    Full,
    /// A single dataset's pane (by dataset index, not pane position).
    SinglePane(usize),
    /// Nothing repaints (settings that take effect on a later command).
    None,
}

/// Mutate the session according to `cmd` and report the damage class —
/// the layout-free half of [`apply`].
pub fn perform(session: &mut Session, cmd: &Command) -> DamageClass {
    match cmd {
        Command::SelectRegion {
            dataset,
            start_frac,
            end_frac,
        } => {
            let rows = session.display_order(*dataset).len();
            let a = ((start_frac.clamp(0.0, 1.0)) * rows as f32) as usize;
            let b = ((end_frac.clamp(0.0, 1.0)) * rows as f32) as usize;
            session.select_region(*dataset, a.min(b), a.max(b));
            DamageClass::ZoomAndMarks
        }
        Command::SelectGenes(names) => {
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            session.select_genes(&refs, SelectionOrigin::List);
            DamageClass::ZoomAndMarks
        }
        Command::Search(q) => {
            session.search_and_select(q);
            DamageClass::ZoomAndMarks
        }
        Command::ClearSelection => {
            session.clear_selection();
            DamageClass::ZoomAndMarks
        }
        Command::ToggleSync => {
            session.toggle_sync();
            DamageClass::ZoomOnly
        }
        Command::Scroll(delta) => {
            session.scroll_by(*delta);
            DamageClass::ZoomOnly
        }
        Command::OrderByName => {
            apply_order(session, &OrderPolicy::ByName);
            DamageClass::Full
        }
        Command::OrderByRelevance(scores) => {
            apply_order(session, &OrderPolicy::ByRelevance(scores.clone()));
            DamageClass::Full
        }
        Command::ClusterAll => {
            session.cluster_all();
            DamageClass::Full
        }
        Command::SetContrast { dataset, contrast } => match dataset {
            Some(d) => {
                session.prefs.set_contrast(*d, *contrast);
                DamageClass::SinglePane(*d)
            }
            None => {
                let mut prefs = session.prefs.for_dataset(0);
                prefs.colormap.contrast = *contrast;
                session.prefs.set_for_all(prefs);
                DamageClass::Full
            }
        },
        Command::SetLinkage(linkage) => {
            session.set_linkage(*linkage);
            DamageClass::None
        }
        Command::SetMetric(metric) => {
            session.set_metric(*metric);
            DamageClass::None
        }
    }
}

fn class_damage(
    session: &Session,
    layouts: &[PaneLayout],
    class: DamageClass,
    scene_w: usize,
    scene_h: usize,
) -> Vec<Viewport> {
    match class {
        DamageClass::ZoomAndMarks => zoom_and_marks_damage(layouts),
        DamageClass::ZoomOnly => zoom_only_damage(layouts),
        DamageClass::Full => full_damage(scene_w, scene_h),
        DamageClass::SinglePane(d) => {
            let pos = session.dataset_order().iter().position(|&x| x == d);
            match pos {
                Some(p) => vec![rect_to_vp(layouts[p].pane)],
                None => Vec::new(),
            }
        }
        DamageClass::None => Vec::new(),
    }
}

/// Resolve one damage class to scene rectangles, running layout once.
pub fn resolve_damage(
    session: &Session,
    class: DamageClass,
    scene_w: usize,
    scene_h: usize,
) -> Vec<Viewport> {
    let layouts = scene_layouts(session, scene_w, scene_h);
    class_damage(session, &layouts, class, scene_w, scene_h)
}

/// Apply a command to the session, reporting damage for a scene laid out
/// at `scene_w × scene_h`.
pub fn apply(session: &mut Session, cmd: &Command, scene_w: usize, scene_h: usize) -> Outcome {
    let class = perform(session, cmd);
    Outcome {
        selection_len: session.selection().map(|s| s.len()),
        damage: resolve_damage(session, class, scene_w, scene_h),
    }
}

/// Apply a whole command script, returning per-command outcomes.
pub fn run_script(
    session: &mut Session,
    script: &[Command],
    scene_w: usize,
    scene_h: usize,
) -> Vec<Outcome> {
    script
        .iter()
        .map(|c| apply(session, c, scene_w, scene_h))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_expr::{Dataset, ExprMatrix};

    fn session() -> Session {
        let mut s = Session::new();
        let vals: Vec<f32> = (0..20 * 4).map(|i| (i % 7) as f32 - 3.0).collect();
        let m = ExprMatrix::from_rows(20, 4, &vals).unwrap();
        s.load_dataset(Dataset::with_default_meta("a", m.clone()))
            .unwrap();
        s.load_dataset(Dataset::with_default_meta("b", m)).unwrap();
        s
    }

    #[test]
    fn select_region_fractions() {
        let mut s = session();
        let out = apply(
            &mut s,
            &Command::SelectRegion {
                dataset: 0,
                start_frac: 0.25,
                end_frac: 0.5,
            },
            800,
            600,
        );
        assert_eq!(out.selection_len, Some(5)); // rows 5..10
        assert!(!out.damage.is_empty());
    }

    #[test]
    fn select_region_swapped_fracs_ok() {
        let mut s = session();
        let out = apply(
            &mut s,
            &Command::SelectRegion {
                dataset: 0,
                start_frac: 0.5,
                end_frac: 0.25,
            },
            800,
            600,
        );
        assert_eq!(out.selection_len, Some(5));
    }

    #[test]
    fn scroll_damage_excludes_global() {
        let mut s = session();
        apply(
            &mut s,
            &Command::SelectGenes(vec!["G1".into(), "G2".into(), "G3".into()]),
            800,
            600,
        );
        let out = apply(&mut s, &Command::Scroll(1), 800, 600);
        // zoom+labels per pane = 4 rects for 2 panes; none should be the
        // global region
        let layouts = scene_layouts(&s, 800, 600);
        for d in &out.damage {
            for l in &layouts {
                assert_ne!(
                    (d.x, d.y, d.w, d.h),
                    (l.global.x, l.global.y, l.global.w, l.global.h)
                );
            }
        }
    }

    #[test]
    fn cluster_all_full_damage() {
        let mut s = session();
        let out = apply(&mut s, &Command::ClusterAll, 640, 480);
        assert_eq!(
            out.damage,
            vec![Viewport {
                x: 0,
                y: 0,
                w: 640,
                h: 480
            }]
        );
        assert!(s.gene_tree(0).is_some());
    }

    #[test]
    fn contrast_single_pane_damage() {
        let mut s = session();
        let out = apply(
            &mut s,
            &Command::SetContrast {
                dataset: Some(1),
                contrast: 1.5,
            },
            800,
            600,
        );
        assert_eq!(out.damage.len(), 1);
        assert_eq!(s.prefs.for_dataset(1).colormap.contrast, 1.5);
        assert_eq!(s.prefs.for_dataset(0).colormap.contrast, 3.0);
    }

    #[test]
    fn contrast_all_full_damage() {
        let mut s = session();
        let out = apply(
            &mut s,
            &Command::SetContrast {
                dataset: None,
                contrast: 2.0,
            },
            800,
            600,
        );
        assert_eq!(out.damage.len(), 1);
        assert_eq!(out.damage[0].w, 800);
        assert_eq!(s.prefs.for_dataset(1).colormap.contrast, 2.0);
    }

    #[test]
    fn script_runs_in_order() {
        let mut s = session();
        let outcomes = run_script(
            &mut s,
            &[
                Command::ClusterAll,
                Command::SelectRegion {
                    dataset: 0,
                    start_frac: 0.0,
                    end_frac: 0.3,
                },
                Command::ToggleSync,
                Command::Scroll(2),
            ],
            640,
            480,
        );
        assert_eq!(outcomes.len(), 4);
        assert!(!s.sync_enabled());
        assert_eq!(s.scroll(), 2);
    }

    #[test]
    fn search_command_selects() {
        let mut s = session();
        let out = apply(&mut s, &Command::Search("G5".into()), 640, 480);
        assert_eq!(out.selection_len, Some(1));
    }

    #[test]
    fn cluster_settings_commands_update_session() {
        let mut s = session();
        let out = apply(&mut s, &Command::SetLinkage(Linkage::Ward), 640, 480);
        assert!(out.damage.is_empty(), "settings change repaints nothing");
        apply(&mut s, &Command::SetMetric(Metric::Euclidean), 640, 480);
        assert_eq!(s.cluster_settings(), (Metric::Euclidean, Linkage::Ward));
        // the settings drive the next ClusterAll
        apply(&mut s, &Command::ClusterAll, 640, 480);
        assert!(s.gene_tree(0).is_some());
    }
}
