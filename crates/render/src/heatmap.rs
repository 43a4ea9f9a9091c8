//! Expression heatmap painters: exact zoom view and averaging global view.
//!
//! ForestView shows each dataset pane twice (paper, Section 2): a **global
//! view** of the whole genome — thousands of gene rows compressed into a few
//! hundred pixel rows — and a **zoom view** rendering a selected gene subset
//! at one-or-more pixels per cell. The global painter averages all data
//! cells covered by each pixel (in value space, before color mapping), so
//! dense induced/repressed blocks stay visible after 10–100× downsampling.
//!
//! Painters are generic over a `Fn(row, col) -> Option<f32>` source so any
//! data structure (matrix, submatrix view, merged interface) can be painted
//! without copies.
//!
//! # How the global view is painted
//!
//! Pixel `(px, py)` of a `w × h` region covers the data block
//! `rows(py) × cols(px)`, and its colour depends on nothing else. Two
//! pixels with the same block get the same colour, so a block is averaged
//! and colour-mapped **once** and written as a span:
//!
//! * **Runs.** After clipping, the visible pixel columns are cut once per
//!   call into maximal runs of adjacent columns with equal `cols(px)`. With
//!   at least as many pixels as conditions (`w ≥ n_cols`, every pane the
//!   renderer lays out) a run is one data column and about `w / n_cols`
//!   pixels wide; with fewer, every run is one pixel and nothing is lost.
//!   A clip that cuts a run in the middle only shortens it.
//! * **Row reuse.** A visible pixel row whose `rows(py)` equals that of the
//!   visible row above it is a copy of that row's span (`h > n_rows`: few
//!   genes in a tall pane). Otherwise each run costs one sum, one
//!   [`ExpressionColorMap::map`] and one span fill.
//! * **Summation order.** A block is summed in `f64`, data rows outer and
//!   data columns inner, skipping missing cells, then divided by the count
//!   and narrowed to `f32` — the order the per-pixel loop this replaces
//!   used (kept under `#[cfg(test)]` as `paint_global_reference`). That is
//!   the contract that keeps every figure checksum, golden transcript and
//!   streamed tile byte-identical; a change that reassociates the sum
//!   (per-column partial sums, a prefix table) breaks it.

use crate::color::Rgb;
use crate::colormap::ExpressionColorMap;
use crate::framebuffer::Framebuffer;

/// A target rectangle within a framebuffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Left edge (pixels).
    pub x: usize,
    /// Top edge (pixels).
    pub y: usize,
    /// Width (pixels).
    pub w: usize,
    /// Height (pixels).
    pub h: usize,
}

impl Region {
    /// Construct a region.
    pub fn new(x: usize, y: usize, w: usize, h: usize) -> Self {
        Region { x, y, w, h }
    }
}

/// Paint a zoom view: every data cell covers an equal sub-rectangle of the
/// region (cells get ≥1 px only if the region is large enough; with more
/// cells than pixels this degrades gracefully into nearest sampling).
pub fn paint_zoom<F>(
    fb: &mut Framebuffer,
    region: Region,
    n_rows: usize,
    n_cols: usize,
    src: F,
    map: &ExpressionColorMap,
) where
    F: Fn(usize, usize) -> Option<f32>,
{
    paint_zoom_at(
        fb,
        region.x as i64,
        region.y as i64,
        region.w,
        region.h,
        n_rows,
        n_cols,
        src,
        map,
    );
}

/// [`paint_zoom`] with a signed origin: the region may extend beyond the
/// framebuffer in any direction and is clipped. This is the primitive the
/// tiled wall renderer uses (tiles see a translated scene).
pub fn paint_zoom_at<F>(
    fb: &mut Framebuffer,
    x: i64,
    y: i64,
    w: usize,
    h: usize,
    n_rows: usize,
    n_cols: usize,
    src: F,
    map: &ExpressionColorMap,
) where
    F: Fn(usize, usize) -> Option<f32>,
{
    if n_rows == 0 || n_cols == 0 || w == 0 || h == 0 {
        return;
    }
    // Skip entirely-offscreen regions early.
    if x + w as i64 <= 0 || y + h as i64 <= 0 || x >= fb.width() as i64 || y >= fb.height() as i64 {
        return;
    }
    for r in 0..n_rows {
        let y0 = y + (r * h / n_rows) as i64;
        let y1 = y + ((r + 1) * h / n_rows) as i64;
        if y1 < 0 || y0 >= fb.height() as i64 {
            continue;
        }
        for c in 0..n_cols {
            let x0 = x + (c * w / n_cols) as i64;
            let x1 = x + ((c + 1) * w / n_cols) as i64;
            let color = map.map_option(src(r, c));
            fb.fill_rect(
                x0,
                y0,
                (x1 - x0).max(1) as usize,
                (y1 - y0).max(1) as usize,
                color,
            );
        }
    }
}

/// Paint a global (downsampled) view: each pixel of the region averages all
/// data cells it covers, in value space. Missing cells are excluded from the
/// average; a pixel covering only missing cells renders in the map's missing
/// color.
pub fn paint_global<F>(
    fb: &mut Framebuffer,
    region: Region,
    n_rows: usize,
    n_cols: usize,
    src: F,
    map: &ExpressionColorMap,
) where
    F: Fn(usize, usize) -> Option<f32>,
{
    paint_global_at(
        fb,
        region.x as i64,
        region.y as i64,
        region.w,
        region.h,
        n_rows,
        n_cols,
        src,
        map,
    );
}

/// The data indices `[i0, i1)` that pixel `p` of a `len`-pixel axis covers
/// when `n` data cells are spread over it (always at least one).
fn covered(p: usize, n: usize, len: usize) -> (usize, usize) {
    let i0 = p * n / len;
    (i0, ((p + 1) * n).div_ceil(len).min(n).max(i0 + 1))
}

/// [`paint_global`] with a signed origin, clipped to the framebuffer.
/// Only the visible pixel rows/columns are computed, so a tile covering a
/// fraction of a pane pays only for that fraction — the property that makes
/// tile-parallel wall rendering scale. Each covered data block is averaged
/// once (see the module doc for runs, row reuse and the summation order).
pub fn paint_global_at<F>(
    fb: &mut Framebuffer,
    x: i64,
    y: i64,
    w: usize,
    h: usize,
    n_rows: usize,
    n_cols: usize,
    src: F,
    map: &ExpressionColorMap,
) where
    F: Fn(usize, usize) -> Option<f32>,
{
    if n_rows == 0 || n_cols == 0 || w == 0 || h == 0 {
        return;
    }
    let py0 = (-y).max(0) as usize;
    let py1 = ((fb.height() as i64 - y).min(h as i64)).max(0) as usize;
    let px0 = (-x).max(0) as usize;
    let px1 = ((fb.width() as i64 - x).min(w as i64)).max(0) as usize;
    if py0 >= py1 || px0 >= px1 {
        return;
    }
    // Framebuffer coordinates of the first visible pixel, `(px0, py0)`.
    let (fx0, fy0) = (x.max(0) as usize, y.max(0) as usize);

    // (first framebuffer column, pixel count, data columns) of each run.
    let mut runs: Vec<(usize, usize, (usize, usize))> = Vec::new();
    for px in px0..px1 {
        let cols = covered(px, n_cols, w);
        match runs.last_mut() {
            Some((_, len, last)) if *last == cols => *len += 1,
            _ => runs.push((fx0 + px - px0, 1, cols)),
        }
    }

    let mut above = None;
    for py in py0..py1 {
        let fy = fy0 + py - py0;
        let rows = covered(py, n_rows, h);
        if above == Some(rows) {
            fb.copy_span(fx0, fy - 1, fy, px1 - px0);
            continue;
        }
        above = Some(rows);
        for &(fx, len, (c0, c1)) in &runs {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for r in rows.0..rows.1 {
                for c in c0..c1 {
                    if let Some(v) = src(r, c) {
                        sum += v as f64;
                        n += 1;
                    }
                }
            }
            let color = if n == 0 {
                map.missing
            } else {
                map.map((sum / n as f64) as f32)
            };
            fb.fill_span(fx, fy, len, color);
        }
    }
}

/// The per-pixel loop [`paint_global_at`] replaced, kept as the reference
/// its output must equal byte for byte.
#[cfg(test)]
pub(crate) fn paint_global_reference<F>(
    fb: &mut Framebuffer,
    x: i64,
    y: i64,
    w: usize,
    h: usize,
    n_rows: usize,
    n_cols: usize,
    src: F,
    map: &ExpressionColorMap,
) where
    F: Fn(usize, usize) -> Option<f32>,
{
    if n_rows == 0 || n_cols == 0 || w == 0 || h == 0 {
        return;
    }
    let py0 = (-y).max(0) as usize;
    let py1 = ((fb.height() as i64 - y).min(h as i64)).max(0) as usize;
    let px0 = (-x).max(0) as usize;
    let px1 = ((fb.width() as i64 - x).min(w as i64)).max(0) as usize;
    for py in py0..py1 {
        let r0 = py * n_rows / h;
        let r1 = (((py + 1) * n_rows).div_ceil(h)).min(n_rows).max(r0 + 1);
        for px in px0..px1 {
            let c0 = px * n_cols / w;
            let c1 = (((px + 1) * n_cols).div_ceil(w)).min(n_cols).max(c0 + 1);
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for r in r0..r1 {
                for c in c0..c1 {
                    if let Some(v) = src(r, c) {
                        sum += v as f64;
                        n += 1;
                    }
                }
            }
            let color = if n == 0 {
                map.missing
            } else {
                map.map((sum / n as f64) as f32)
            };
            fb.put(x + px as i64, y + py as i64, color);
        }
    }
}

/// Overlay horizontal marker lines on a global view at the given data rows
/// — ForestView highlights the selected genes' positions in every dataset's
/// global view this way ("highlight their position in the global view with
/// a line", Section 2).
pub fn mark_rows(fb: &mut Framebuffer, region: Region, n_rows: usize, rows: &[usize], color: Rgb) {
    if n_rows == 0 || region.h == 0 {
        return;
    }
    for &r in rows {
        if r >= n_rows {
            continue;
        }
        let y = region.y + r * region.h / n_rows;
        crate::draw::hline(
            fb,
            region.x as i64,
            (region.x + region.w) as i64 - 1,
            y as i64,
            color,
        );
    }
}

/// [`mark_rows`] with a signed origin (clipped by the line primitive).
pub fn mark_rows_at(
    fb: &mut Framebuffer,
    x: i64,
    y: i64,
    w: usize,
    h: usize,
    n_rows: usize,
    rows: &[usize],
    color: Rgb,
) {
    if n_rows == 0 || h == 0 || w == 0 {
        return;
    }
    for &r in rows {
        if r >= n_rows {
            continue;
        }
        let line_y = y + (r * h / n_rows) as i64;
        crate::draw::hline(fb, x, x + w as i64 - 1, line_y, color);
    }
}

/// Map a pixel y within a global view region back to the data row it
/// covers — the inverse transform behind mouse region selection.
pub fn pixel_to_row(region: Region, n_rows: usize, py: usize) -> Option<usize> {
    if py < region.y || py >= region.y + region.h || region.h == 0 {
        return None;
    }
    let rel = py - region.y;
    Some((rel * n_rows / region.h).min(n_rows.saturating_sub(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colormap::ColorScheme;

    fn map() -> ExpressionColorMap {
        ExpressionColorMap::new(ColorScheme::RedGreen, 1.0)
    }

    #[test]
    fn zoom_one_px_per_cell() {
        let mut fb = Framebuffer::new(2, 2);
        let vals = [[1.0f32, -1.0], [-1.0, 1.0]];
        paint_zoom(
            &mut fb,
            Region::new(0, 0, 2, 2),
            2,
            2,
            |r, c| Some(vals[r][c]),
            &map(),
        );
        assert_eq!(fb.get(0, 0), Some(Rgb::RED));
        assert_eq!(fb.get(1, 0), Some(Rgb::GREEN));
        assert_eq!(fb.get(0, 1), Some(Rgb::GREEN));
        assert_eq!(fb.get(1, 1), Some(Rgb::RED));
    }

    #[test]
    fn zoom_scales_cells_up() {
        let mut fb = Framebuffer::new(8, 4);
        paint_zoom(
            &mut fb,
            Region::new(0, 0, 8, 4),
            1,
            2,
            |_, c| Some(if c == 0 { 1.0 } else { -1.0 }),
            &map(),
        );
        assert_eq!(fb.count_pixels(Rgb::RED), 16);
        assert_eq!(fb.count_pixels(Rgb::GREEN), 16);
        assert_eq!(fb.get(3, 0), Some(Rgb::RED));
        assert_eq!(fb.get(4, 0), Some(Rgb::GREEN));
    }

    #[test]
    fn zoom_missing_cells_gray() {
        let mut fb = Framebuffer::new(2, 1);
        paint_zoom(
            &mut fb,
            Region::new(0, 0, 2, 1),
            1,
            2,
            |_, c| if c == 0 { None } else { Some(0.0) },
            &map(),
        );
        assert_eq!(fb.get(0, 0), Some(Rgb::MISSING_GRAY));
        assert_eq!(fb.get(1, 0), Some(Rgb::BLACK));
    }

    #[test]
    fn zoom_empty_inputs_noop() {
        let mut fb = Framebuffer::new(4, 4);
        paint_zoom(
            &mut fb,
            Region::new(0, 0, 4, 4),
            0,
            3,
            |_, _| Some(1.0),
            &map(),
        );
        paint_zoom(
            &mut fb,
            Region::new(0, 0, 0, 0),
            3,
            3,
            |_, _| Some(1.0),
            &map(),
        );
        assert_eq!(fb.count_pixels(Rgb::BLACK), 16);
    }

    #[test]
    fn global_averages_covered_cells() {
        // 4 data rows → 1 pixel row; +1 and -1 average to 0 (black).
        let mut fb = Framebuffer::new(1, 1);
        paint_global(
            &mut fb,
            Region::new(0, 0, 1, 1),
            4,
            1,
            |r, _| Some(if r % 2 == 0 { 1.0 } else { -1.0 }),
            &map(),
        );
        assert_eq!(fb.get(0, 0), Some(Rgb::BLACK));
    }

    #[test]
    fn global_excludes_missing_from_average() {
        // one present cell (+1) among three missing → pure red, not diluted.
        let mut fb = Framebuffer::new(1, 1);
        paint_global(
            &mut fb,
            Region::new(0, 0, 1, 1),
            4,
            1,
            |r, _| if r == 0 { Some(1.0) } else { None },
            &map(),
        );
        assert_eq!(fb.get(0, 0), Some(Rgb::RED));
    }

    #[test]
    fn global_all_missing_pixel_gray() {
        let mut fb = Framebuffer::new(2, 2);
        paint_global(&mut fb, Region::new(0, 0, 2, 2), 4, 4, |_, _| None, &map());
        assert_eq!(fb.count_pixels(Rgb::MISSING_GRAY), 4);
    }

    #[test]
    fn global_respects_region_offset() {
        let mut fb = Framebuffer::new(6, 6);
        paint_global(
            &mut fb,
            Region::new(2, 3, 2, 2),
            2,
            2,
            |_, _| Some(1.0),
            &map(),
        );
        assert_eq!(fb.count_pixels(Rgb::RED), 4);
        assert_eq!(fb.get(2, 3), Some(Rgb::RED));
        assert_eq!(fb.get(0, 0), Some(Rgb::BLACK));
    }

    #[test]
    fn global_upsampling_replicates() {
        // fewer data rows than pixels: each data row covers several pixel rows
        let mut fb = Framebuffer::new(1, 4);
        paint_global(
            &mut fb,
            Region::new(0, 0, 1, 4),
            2,
            1,
            |r, _| Some(if r == 0 { 1.0 } else { -1.0 }),
            &map(),
        );
        assert_eq!(fb.get(0, 0), Some(Rgb::RED));
        assert_eq!(fb.get(0, 1), Some(Rgb::RED));
        assert_eq!(fb.get(0, 2), Some(Rgb::GREEN));
        assert_eq!(fb.get(0, 3), Some(Rgb::GREEN));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The run-sharing painter against the per-pixel loop it replaced:
        /// more and fewer pixels than cells on either axis, missing cells,
        /// origins off any edge, framebuffers smaller than the region.
        #[test]
        fn global_equals_per_pixel_reference(
            (n_rows, n_cols) in (1usize..48, 1usize..48),
            (w, h) in (1usize..48, 1usize..48),
            (x, y) in (-40i64..40, -40i64..40),
            (fb_w, fb_h) in (1usize..32, 1usize..32),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut s = seed | 1;
            let cells: Vec<Option<f32>> = (0..n_rows * n_cols)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (!s.is_multiple_of(5)).then(|| (s >> 40) as f32 / (1u64 << 22) as f32 - 2.0)
                })
                .collect();
            let src = |r: usize, c: usize| cells[r * n_cols + c];
            let mut fast = Framebuffer::filled(fb_w, fb_h, Rgb::BLUE);
            let mut slow = fast.clone();
            paint_global_at(&mut fast, x, y, w, h, n_rows, n_cols, src, &map());
            paint_global_reference(&mut slow, x, y, w, h, n_rows, n_cols, src, &map());
            proptest::prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn mark_rows_draws_lines() {
        let mut fb = Framebuffer::new(4, 10);
        let region = Region::new(0, 0, 4, 10);
        mark_rows(&mut fb, region, 10, &[0, 5], Rgb::WHITE);
        assert_eq!(fb.count_pixels(Rgb::WHITE), 8);
        assert_eq!(fb.get(0, 0), Some(Rgb::WHITE));
        assert_eq!(fb.get(0, 5), Some(Rgb::WHITE));
    }

    #[test]
    fn mark_rows_ignores_oob_rows() {
        let mut fb = Framebuffer::new(4, 4);
        mark_rows(&mut fb, Region::new(0, 0, 4, 4), 4, &[17], Rgb::WHITE);
        assert_eq!(fb.count_pixels(Rgb::WHITE), 0);
    }

    #[test]
    fn pixel_to_row_inverse_of_mark() {
        let region = Region::new(0, 10, 4, 100);
        // 1000 genes in 100 px: pixel 10 px into the view covers row 100.
        assert_eq!(pixel_to_row(region, 1000, 20), Some(100));
        assert_eq!(pixel_to_row(region, 1000, 9), None); // above region
        assert_eq!(pixel_to_row(region, 1000, 110), None); // below region
                                                           // last pixel clamps to last row
        assert_eq!(pixel_to_row(region, 50, 109), Some(49));
    }

    #[test]
    fn global_matches_zoom_at_equal_resolution() {
        // When region size == data size the global and zoom painters agree.
        let vals = [[0.5f32, -0.5], [1.0, -1.0]];
        let src = |r: usize, c: usize| Some(vals[r][c]);
        let mut a = Framebuffer::new(2, 2);
        let mut b = Framebuffer::new(2, 2);
        paint_zoom(&mut a, Region::new(0, 0, 2, 2), 2, 2, src, &map());
        paint_global(&mut b, Region::new(0, 0, 2, 2), 2, 2, src, &map());
        assert_eq!(a, b);
    }
}
