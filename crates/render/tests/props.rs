//! Property-based tests of the rasterizer: colormap monotonicity, clipping
//! safety, blit/crop duality, image round-trips, painter translation
//! invariance.

use fv_render::color::Rgb;
use fv_render::colormap::{ColorScheme, ExpressionColorMap};
use fv_render::draw;
use fv_render::heatmap::{paint_global_at, paint_zoom_at, Region};
use fv_render::image::{decode_ppm, encode_ppm};
use fv_render::Framebuffer;
use proptest::prelude::*;

prop_compose! {
    fn arb_image()(
        w in 1usize..24,
        h in 1usize..24,
        seed in any::<u64>(),
    ) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        let mut s = seed | 1;
        for y in 0..h {
            for x in 0..w {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                fb.put(x as i64, y as i64, Rgb::from_u32((s & 0xFFFFFF) as u32));
            }
        }
        fb
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn colormap_positive_monotone(contrast in 0.1f32..10.0, a in -20f32..20.0, b in -20f32..20.0) {
        let m = ExpressionColorMap::new(ColorScheme::RedGreen, contrast);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (cl, ch) = (m.map(lo), m.map(hi));
        if lo >= 0.0 {
            prop_assert!(ch.r >= cl.r, "red channel must be monotone above zero");
        }
        if hi <= 0.0 {
            prop_assert!(cl.g >= ch.g, "green channel must be monotone below zero");
        }
    }

    #[test]
    fn colormap_antisymmetric(contrast in 0.1f32..10.0, v in -20f32..20.0) {
        let m = ExpressionColorMap::new(ColorScheme::RedGreen, contrast);
        let pos = m.map(v.abs());
        let neg = m.map(-v.abs());
        prop_assert_eq!(pos.r, neg.g, "red(+v) == green(-v) for the symmetric scheme");
        prop_assert_eq!(pos.g, neg.r);
    }

    #[test]
    fn put_get_clipping_never_panics(ops in prop::collection::vec((any::<i64>(), any::<i64>()), 0..50)) {
        let mut fb = Framebuffer::new(8, 8);
        for (x, y) in ops {
            fb.put(x % 100, y % 100, Rgb::RED);
            let _ = fb.get(x % 100, y % 100);
        }
    }

    #[test]
    fn line_endpoints_drawn_when_inside(x0 in 0i64..16, y0 in 0i64..16, x1 in 0i64..16, y1 in 0i64..16) {
        let mut fb = Framebuffer::new(16, 16);
        draw::line(&mut fb, x0, y0, x1, y1, Rgb::WHITE);
        prop_assert_eq!(fb.get(x0, y0), Some(Rgb::WHITE));
        prop_assert_eq!(fb.get(x1, y1), Some(Rgb::WHITE));
    }

    #[test]
    fn blit_then_crop_roundtrip(img in arb_image(), ox in 0usize..10, oy in 0usize..10) {
        let mut canvas = Framebuffer::new(40, 40);
        canvas.blit(&img, ox as i64, oy as i64);
        let back = canvas.crop(ox, oy, img.width(), img.height());
        prop_assert_eq!(back, img);
    }

    #[test]
    fn ppm_roundtrip(img in arb_image()) {
        let bytes = encode_ppm(&img);
        prop_assert_eq!(decode_ppm(&bytes).unwrap(), img);
    }

    #[test]
    fn zoom_painter_matches_region_wrapper(
        w in 1usize..20, h in 1usize..20,
        rows in 1usize..6, cols in 1usize..6,
    ) {
        // the signed-origin painter at (0,0) equals the Region API
        let src = |r: usize, c: usize| Some((r as f32) - (c as f32));
        let map = ExpressionColorMap::default();
        let mut a = Framebuffer::new(24, 24);
        let mut b = Framebuffer::new(24, 24);
        fv_render::heatmap::paint_zoom(&mut a, Region::new(2, 3, w, h), rows, cols, src, &map);
        paint_zoom_at(&mut b, 2, 3, w, h, rows, cols, src, &map);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn global_painter_translation_invariant(
        rows in 1usize..30, cols in 1usize..8,
        (w, h) in (18usize..50, 22usize..50),
        ox in 0i64..20, oy in 0i64..20,
        pick in any::<usize>(),
    ) {
        let src = |r: usize, c: usize| {
            if (r + c).is_multiple_of(7) { None } else { Some(((r * 13 + c * 5) % 11) as f32 - 5.0) }
        };
        let map = ExpressionColorMap::default();
        let mut full = Framebuffer::new(64, 64);
        paint_global_at(&mut full, 4, 4, w, h, rows, cols, src, &map);
        // A pixel of a `len`-pixel axis over `n` cells that covers the same
        // cells as the pixel before it: a tile edge there cuts a run of
        // equal pixels in the middle (0 when every pixel differs).
        let inside_run = |n: usize, len: usize| {
            let cells = |p: usize| (p * n / len, ((p + 1) * n).div_ceil(len));
            let mid: Vec<usize> = (1..len).filter(|&p| cells(p) == cells(p - 1)).collect();
            if mid.is_empty() { 0 } else { mid[pick % mid.len()] as i64 }
        };
        // A free tile origin, and one whose left and top edges cut a run.
        for (ox, oy) in [(ox, oy), (4 + inside_run(cols, w), 4 + inside_run(rows, h))] {
            let mut tile = Framebuffer::new(16, 16);
            paint_global_at(&mut tile, 4 - ox, 4 - oy, w, h, rows, cols, src, &map);
            for y in 0..16i64 {
                for x in 0..16i64 {
                    let fx = x + ox;
                    let fy = y + oy;
                    if fx < 64 && fy < 64 {
                        prop_assert_eq!(tile.get(x, y), full.get(fx, fy),
                            "mismatch at tile ({}, {}) of origin ({}, {})", x, y, ox, oy);
                    }
                }
            }
        }
    }

    #[test]
    fn fill_rect_count_matches_clip(x in -10i64..20, y in -10i64..20, w in 0usize..15, h in 0usize..15) {
        let mut fb = Framebuffer::new(12, 12);
        fb.fill_rect(x, y, w, h, Rgb::BLUE);
        let x0 = x.clamp(0, 12) as usize;
        let y0 = y.clamp(0, 12) as usize;
        let x1 = (x + w as i64).clamp(0, 12) as usize;
        let y1 = (y + h as i64).clamp(0, 12) as usize;
        let expect = x1.saturating_sub(x0) * y1.saturating_sub(y0);
        prop_assert_eq!(fb.count_pixels(Rgb::BLUE), expect);
    }
}
