//! Dendrogram (cluster tree) painter.
//!
//! ForestView panes show "the gene and array hierarchies ... along with
//! annotation information" (paper, Section 2). This module draws the
//! bracket-style dendrograms TreeView users expect, either horizontally
//! (gene tree beside the heatmap rows) or vertically (array tree above the
//! heatmap columns).
//!
//! The painter is decoupled from the clustering crate: it accepts a plain
//! merge list (`n-1` merges over `n` leaves, each merging two prior nodes at
//! a height), which `fv-cluster`'s tree type converts into.

use crate::color::Rgb;
use crate::draw;
use crate::framebuffer::Framebuffer;
use crate::heatmap::Region;

/// A node reference inside a merge list: either an original leaf or the
/// result of an earlier merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DendroChild {
    /// Original observation `i` (0-based).
    Leaf(usize),
    /// Result of merge `i` (0-based into the merge list).
    Internal(usize),
}

/// One agglomerative merge at a given height.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DendroMerge {
    /// First child.
    pub left: DendroChild,
    /// Second child.
    pub right: DendroChild,
    /// Merge height (≥ 0; typically a distance).
    pub height: f32,
}

/// Which side of the heatmap the tree grows from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Leaves at the region's right edge, root at its left — the gene tree.
    Horizontal,
    /// Leaves at the region's bottom edge, root at its top — the array tree.
    Vertical,
}

/// Draw a dendrogram into `region`.
///
/// `leaf_pos[i]` gives the display slot (0-based) of leaf `i` along the
/// leaf axis; slots are assumed evenly spaced (matching the zoom painter's
/// cell layout for the same count).
pub fn paint_dendrogram(
    fb: &mut Framebuffer,
    region: Region,
    merges: &[DendroMerge],
    leaf_pos: &[usize],
    orientation: Orientation,
    color: Rgb,
) {
    paint_dendrogram_at(
        fb,
        region.x as i64,
        region.y as i64,
        region.w,
        region.h,
        merges,
        leaf_pos,
        orientation,
        color,
    );
}

/// [`paint_dendrogram`] with a signed origin (clipped by the line
/// primitives) — used by the tiled wall renderer.
pub fn paint_dendrogram_at(
    fb: &mut Framebuffer,
    rx: i64,
    ry: i64,
    rw: usize,
    rh: usize,
    merges: &[DendroMerge],
    leaf_pos: &[usize],
    orientation: Orientation,
    color: Rgb,
) {
    let n_leaves = leaf_pos.len();
    if n_leaves == 0 || rw == 0 || rh == 0 {
        return;
    }
    if merges.is_empty() {
        return;
    }
    assert_eq!(
        merges.len(),
        n_leaves - 1,
        "a tree over {n_leaves} leaves must have {} merges",
        n_leaves - 1
    );
    let max_h = merges
        .iter()
        .map(|m| m.height)
        .fold(0.0f32, f32::max)
        .max(f32::MIN_POSITIVE);

    // Leaf-axis pixel center of a display slot.
    let slot_center = |slot: usize| -> i64 {
        match orientation {
            Orientation::Horizontal => ry + (slot * rh / n_leaves + rh / (2 * n_leaves)) as i64,
            Orientation::Vertical => rx + (slot * rw / n_leaves + rw / (2 * n_leaves)) as i64,
        }
    };
    // Height-axis pixel for a merge height (leaves at height 0).
    let depth_px = |h: f32| -> i64 {
        let t = (h / max_h).clamp(0.0, 1.0);
        match orientation {
            Orientation::Horizontal => rx + (rw - 1) as i64 - (t * (rw - 1) as f32) as i64,
            Orientation::Vertical => ry + (rh - 1) as i64 - (t * (rh - 1) as f32) as i64,
        }
    };

    // Resolve each node's (leaf-axis position, height-axis pixel).
    let mut node_axis: Vec<i64> = Vec::with_capacity(merges.len());
    let mut node_depth: Vec<i64> = Vec::with_capacity(merges.len());
    let resolve = |child: DendroChild, node_axis: &[i64], node_depth: &[i64]| -> (i64, i64) {
        match child {
            DendroChild::Leaf(i) => (slot_center(leaf_pos[i]), depth_px(0.0)),
            DendroChild::Internal(i) => (node_axis[i], node_depth[i]),
        }
    };

    for m in merges {
        let (a_axis, a_depth) = resolve(m.left, &node_axis, &node_depth);
        let (b_axis, b_depth) = resolve(m.right, &node_axis, &node_depth);
        let d = depth_px(m.height);
        match orientation {
            Orientation::Horizontal => {
                // connector stems from each child to the merge depth
                draw::hline(fb, a_depth, d, a_axis, color);
                draw::hline(fb, b_depth, d, b_axis, color);
                // bracket joining the two children at the merge depth
                draw::vline(fb, d, a_axis, b_axis, color);
            }
            Orientation::Vertical => {
                draw::vline(fb, a_axis, a_depth, d, color);
                draw::vline(fb, b_axis, b_depth, d, color);
                draw::hline(fb, a_axis, b_axis, d, color);
            }
        }
        // Floor division keeps the midpoint translation-invariant: with
        // truncating division, negative (tile-translated) coordinates
        // would round in the opposite direction and shift stems by 1px
        // across tile boundaries.
        node_axis.push((a_axis + b_axis).div_euclid(2));
        node_depth.push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_leaf_tree() -> Vec<DendroMerge> {
        vec![DendroMerge {
            left: DendroChild::Leaf(0),
            right: DendroChild::Leaf(1),
            height: 1.0,
        }]
    }

    #[test]
    fn two_leaves_horizontal_draws_bracket() {
        let mut fb = Framebuffer::new(10, 8);
        paint_dendrogram(
            &mut fb,
            Region::new(0, 0, 10, 8),
            &two_leaf_tree(),
            &[0, 1],
            Orientation::Horizontal,
            Rgb::WHITE,
        );
        assert!(
            fb.count_pixels(Rgb::WHITE) > 10,
            "bracket should span region"
        );
        // Leaves at right edge: stems start at x=9
        assert_eq!(fb.get(9, 2), Some(Rgb::WHITE));
        assert_eq!(fb.get(9, 6), Some(Rgb::WHITE));
        // Root bracket at left edge (height 1.0 = max)
        assert_eq!(fb.get(0, 2), Some(Rgb::WHITE));
    }

    #[test]
    fn two_leaves_vertical_draws_bracket() {
        let mut fb = Framebuffer::new(8, 10);
        paint_dendrogram(
            &mut fb,
            Region::new(0, 0, 8, 10),
            &two_leaf_tree(),
            &[0, 1],
            Orientation::Vertical,
            Rgb::WHITE,
        );
        assert!(fb.count_pixels(Rgb::WHITE) > 10);
        assert_eq!(fb.get(2, 9), Some(Rgb::WHITE)); // leaf stem at bottom
    }

    #[test]
    fn three_leaf_tree_nested() {
        // merge 0: leaves 0,1 at h=1; merge 1: node0 + leaf2 at h=2
        let merges = vec![
            DendroMerge {
                left: DendroChild::Leaf(0),
                right: DendroChild::Leaf(1),
                height: 1.0,
            },
            DendroMerge {
                left: DendroChild::Internal(0),
                right: DendroChild::Leaf(2),
                height: 2.0,
            },
        ];
        let mut fb = Framebuffer::new(20, 12);
        paint_dendrogram(
            &mut fb,
            Region::new(0, 0, 20, 12),
            &merges,
            &[0, 1, 2],
            Orientation::Horizontal,
            Rgb::WHITE,
        );
        // root at the far left (max height)
        assert!(fb.get(0, 4).is_some());
        assert!(fb.count_pixels(Rgb::WHITE) > 20);
    }

    #[test]
    fn leaf_reordering_moves_stems() {
        let mut a = Framebuffer::new(10, 8);
        let mut b = Framebuffer::new(10, 8);
        let m = two_leaf_tree();
        paint_dendrogram(
            &mut a,
            Region::new(0, 0, 10, 8),
            &m,
            &[0, 1],
            Orientation::Horizontal,
            Rgb::WHITE,
        );
        paint_dendrogram(
            &mut b,
            Region::new(0, 0, 10, 8),
            &m,
            &[1, 0],
            Orientation::Horizontal,
            Rgb::WHITE,
        );
        // Same pixel count (symmetric tree) — but same image too since
        // swapping two symmetric leaves mirrors onto itself.
        assert_eq!(a.count_pixels(Rgb::WHITE), b.count_pixels(Rgb::WHITE));
    }

    #[test]
    fn empty_inputs_noop() {
        let mut fb = Framebuffer::new(4, 4);
        paint_dendrogram(
            &mut fb,
            Region::new(0, 0, 4, 4),
            &[],
            &[],
            Orientation::Horizontal,
            Rgb::WHITE,
        );
        paint_dendrogram(
            &mut fb,
            Region::new(0, 0, 4, 4),
            &[],
            &[0],
            Orientation::Horizontal,
            Rgb::WHITE,
        );
        assert_eq!(fb.count_pixels(Rgb::WHITE), 0);
    }

    #[test]
    #[should_panic(expected = "must have")]
    fn wrong_merge_count_panics() {
        let mut fb = Framebuffer::new(4, 4);
        paint_dendrogram(
            &mut fb,
            Region::new(0, 0, 4, 4),
            &two_leaf_tree(),
            &[0, 1, 2], // 3 leaves need 2 merges
            Orientation::Horizontal,
            Rgb::WHITE,
        );
    }

    #[test]
    fn painter_is_translation_invariant() {
        // Regression test: painting at a negative origin (as a wall tile
        // does) must produce exactly the pixels of the corresponding crop
        // of a full-scene paint. A truncating midpoint division used to
        // shift stems by 1px across tile boundaries.
        let merges = vec![
            DendroMerge {
                left: DendroChild::Leaf(0),
                right: DendroChild::Leaf(3),
                height: 0.4,
            },
            DendroMerge {
                left: DendroChild::Leaf(1),
                right: DendroChild::Internal(0),
                height: 0.7,
            },
            DendroMerge {
                left: DendroChild::Leaf(2),
                right: DendroChild::Internal(1),
                height: 1.3,
            },
        ];
        let leaf_pos = [2usize, 0, 3, 1];
        let (rx, ry, rw, rh) = (5i64, 7i64, 33usize, 57usize);
        let mut full = Framebuffer::new(64, 80);
        paint_dendrogram_at(
            &mut full,
            rx,
            ry,
            rw,
            rh,
            &merges,
            &leaf_pos,
            Orientation::Horizontal,
            Rgb::WHITE,
        );
        for (ox, oy) in [(10i64, 20i64), (3, 50), (30, 7)] {
            let mut tile = Framebuffer::new(20, 20);
            paint_dendrogram_at(
                &mut tile,
                rx - ox,
                ry - oy,
                rw,
                rh,
                &merges,
                &leaf_pos,
                Orientation::Horizontal,
                Rgb::WHITE,
            );
            for y in 0..20i64 {
                for x in 0..20i64 {
                    assert_eq!(
                        tile.get(x, y),
                        full.get(x + ox, y + oy),
                        "mismatch at tile ({x},{y}) origin ({ox},{oy})"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_height_tree_draws_at_leaf_edge() {
        let merges = vec![DendroMerge {
            left: DendroChild::Leaf(0),
            right: DendroChild::Leaf(1),
            height: 0.0,
        }];
        let mut fb = Framebuffer::new(10, 8);
        paint_dendrogram(
            &mut fb,
            Region::new(0, 0, 10, 8),
            &merges,
            &[0, 1],
            Orientation::Horizontal,
            Rgb::WHITE,
        );
        // Everything collapses to the right edge column.
        for x in 0..9 {
            for y in 0..8 {
                assert_ne!(
                    fb.get(x, y),
                    Some(Rgb::WHITE),
                    "unexpected pixel at {x},{y}"
                );
            }
        }
        assert!(fb.count_pixels(Rgb::WHITE) > 0);
    }
}
