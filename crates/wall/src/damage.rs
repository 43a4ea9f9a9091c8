//! Dirty-rectangle tracking.
//!
//! The "dynamic" in the paper's title is interactivity: panning, zooming
//! and selection must repaint at interactive rates even at wall resolution.
//! The damage tracker accumulates the rectangles interaction invalidates
//! and merges overlapping ones so the renderer repaints a near-minimal
//! region (ablation A2 measures exactly this against full redraws).

use crate::tile::Viewport;

/// Accumulates dirty rectangles between frames.
#[derive(Debug, Clone, Default)]
pub struct DamageTracker {
    rects: Vec<Viewport>,
}

impl DamageTracker {
    /// Maximum rectangles tracked before the tracker collapses everything
    /// into one bounding box. Each `add` re-scans the list until no merge
    /// fires, so an interaction storm of disjoint rects would otherwise
    /// cost O(n²) per frame at wall scale; past the cap, one conservative
    /// box (never under-reporting damage) keeps every `add` O(cap).
    pub const MAX_RECTS: usize = 64;

    /// Empty tracker.
    pub fn new() -> Self {
        DamageTracker::default()
    }

    /// Mark a rectangle dirty. Rectangles that touch or overlap an existing
    /// entry are merged into its bounding box (cheap, slightly
    /// conservative — never under-reports damage). Once more than
    /// [`DamageTracker::MAX_RECTS`] disjoint rects accumulate, the whole
    /// set collapses to its bounding box.
    pub fn add(&mut self, rect: Viewport) {
        if rect.w == 0 || rect.h == 0 {
            return;
        }
        let mut merged = rect;
        loop {
            let mut merged_any = false;
            self.rects.retain(|r| {
                if overlaps_or_touches(r, &merged) {
                    merged = merged.union(r);
                    merged_any = true;
                    false
                } else {
                    true
                }
            });
            if !merged_any {
                break;
            }
        }
        self.rects.push(merged);
        if self.rects.len() > Self::MAX_RECTS {
            let all = self
                .rects
                .iter()
                .skip(1)
                .fold(self.rects[0], |acc, r| acc.union(r));
            self.rects.clear();
            self.rects.push(all);
        }
    }

    /// The current dirty rectangles.
    pub fn rects(&self) -> &[Viewport] {
        &self.rects
    }

    /// Whether anything is dirty.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Total dirty area (upper bound; merged boxes may include clean
    /// pixels).
    pub fn area(&self) -> usize {
        self.rects.iter().map(|r| r.area()).sum()
    }

    /// Clear after a frame has repainted.
    pub fn clear(&mut self) {
        self.rects.clear();
    }

    /// Take the rectangles, leaving the tracker empty — the per-frame
    /// hand-off to the renderer.
    pub fn take(&mut self) -> Vec<Viewport> {
        std::mem::take(&mut self.rects)
    }
}

fn overlaps_or_touches(a: &Viewport, b: &Viewport) -> bool {
    a.x <= b.x + b.w && b.x <= a.x + a.w && a.y <= b.y + b.h && b.y <= a.y + a.h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(x: usize, y: usize, w: usize, h: usize) -> Viewport {
        Viewport { x, y, w, h }
    }

    #[test]
    fn add_disjoint_keeps_separate() {
        let mut t = DamageTracker::new();
        t.add(vp(0, 0, 5, 5));
        t.add(vp(20, 20, 5, 5));
        assert_eq!(t.rects().len(), 2);
        assert_eq!(t.area(), 50);
    }

    #[test]
    fn add_overlapping_merges() {
        let mut t = DamageTracker::new();
        t.add(vp(0, 0, 10, 10));
        t.add(vp(5, 5, 10, 10));
        assert_eq!(t.rects().len(), 1);
        assert_eq!(t.rects()[0], vp(0, 0, 15, 15));
    }

    #[test]
    fn chained_merge_collapses_transitively() {
        let mut t = DamageTracker::new();
        t.add(vp(0, 0, 4, 4));
        t.add(vp(20, 0, 4, 4));
        // bridge connects both
        t.add(vp(3, 0, 18, 4));
        assert_eq!(t.rects().len(), 1);
        assert_eq!(t.rects()[0], vp(0, 0, 24, 4));
    }

    #[test]
    fn union_covers_all_inputs() {
        let inputs = [vp(2, 3, 7, 4), vp(8, 1, 3, 9), vp(30, 30, 2, 2)];
        let mut t = DamageTracker::new();
        for r in inputs {
            t.add(r);
        }
        // every input pixel falls inside some tracked rect
        for r in inputs {
            for y in r.y..r.y + r.h {
                for x in r.x..r.x + r.w {
                    assert!(
                        t.rects().iter().any(|d| d.contains(x, y)),
                        "pixel ({x},{y}) not covered"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_size_ignored() {
        let mut t = DamageTracker::new();
        t.add(vp(1, 1, 0, 5));
        t.add(vp(1, 1, 5, 0));
        assert!(t.is_empty());
    }

    #[test]
    fn clear_and_take() {
        let mut t = DamageTracker::new();
        t.add(vp(0, 0, 2, 2));
        let taken = t.take();
        assert_eq!(taken.len(), 1);
        assert!(t.is_empty());
        t.add(vp(0, 0, 2, 2));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn rect_count_stays_capped_under_interaction_storm() {
        // Thousands of pairwise-disjoint rects (stride 3, size 1) — the
        // pre-cap worst case, where every `add` re-scanned the whole list.
        let mut t = DamageTracker::new();
        for i in 0..5_000usize {
            t.add(vp((i % 500) * 3, (i / 500) * 3, 1, 1));
        }
        assert!(
            t.rects().len() <= DamageTracker::MAX_RECTS,
            "tracked {} rects",
            t.rects().len()
        );
        // Coverage is never lost: the final single box spans all inputs.
        for &(x, y) in &[(0, 0), (499 * 3, 9 * 3), (250 * 3, 5 * 3)] {
            assert!(
                t.rects().iter().any(|d| d.contains(x, y)),
                "pixel ({x},{y}) not covered after collapse"
            );
        }
    }

    #[test]
    fn collapse_past_cap_is_single_bounding_box() {
        let mut t = DamageTracker::new();
        for i in 0..=DamageTracker::MAX_RECTS {
            t.add(vp(i * 10, 0, 2, 2));
        }
        assert_eq!(t.rects().len(), 1);
        assert_eq!(t.rects()[0], vp(0, 0, DamageTracker::MAX_RECTS * 10 + 2, 2));
    }

    #[test]
    fn touching_rects_merge() {
        let mut t = DamageTracker::new();
        t.add(vp(0, 0, 5, 5));
        t.add(vp(5, 0, 5, 5)); // shares an edge
        assert_eq!(t.rects().len(), 1);
        assert_eq!(t.rects()[0], vp(0, 0, 10, 5));
    }
}
