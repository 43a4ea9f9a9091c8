//! Property-based tests of the display-wall substrate: tiled rendering
//! must be pixel-identical to direct rendering for any grid shape, and
//! damage-limited repaints must converge to the full-frame result.

use forestview::renderer::{render_desktop, render_wall};
use forestview::Session;
use fv_expr::{Dataset, ExprMatrix};
use fv_render::color::Rgb;
use fv_render::Framebuffer;
use fv_wall::damage::DamageTracker;
use fv_wall::tile::Viewport;
use fv_wall::{TileGrid, WallRenderer};
use proptest::prelude::*;

fn scene_paint(fb: &mut Framebuffer, vp: Viewport, salt: u8) {
    for y in 0..vp.h {
        for x in 0..vp.w {
            let wx = (vp.x + x) as u32;
            let wy = (vp.y + y) as u32;
            let v = (wx.wrapping_mul(31) ^ wy.wrapping_mul(17)) as u8 ^ salt;
            fb.put(
                x as i64,
                y as i64,
                Rgb::new(v, v.wrapping_add(salt), wx as u8),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_grid_composites_to_direct_render(
        tiles_x in 1usize..5,
        tiles_y in 1usize..4,
        tile_w in 8usize..40,
        tile_h in 8usize..40,
        salt in any::<u8>(),
    ) {
        let grid = TileGrid::new(tiles_x, tiles_y, tile_w, tile_h);
        let mut wall = WallRenderer::new(grid);
        wall.render_frame(|fb, vp| scene_paint(fb, vp, salt));
        let composite = wall.composite();

        let one = TileGrid::new(1, 1, grid.wall_width(), grid.wall_height());
        let mut direct = WallRenderer::new(one);
        direct.render_frame(|fb, vp| scene_paint(fb, vp, salt));
        prop_assert_eq!(composite, direct.composite());
    }

    #[test]
    fn damage_union_covers_inputs(
        rects in prop::collection::vec((0usize..100, 0usize..100, 1usize..30, 1usize..30), 1..12),
    ) {
        let mut tracker = DamageTracker::new();
        for &(x, y, w, h) in &rects {
            tracker.add(Viewport { x, y, w, h });
        }
        for &(x, y, w, h) in &rects {
            for yy in (y..y + h).step_by(3) {
                for xx in (x..x + w).step_by(3) {
                    prop_assert!(
                        tracker.rects().iter().any(|r| r.contains(xx, yy)),
                        "({xx},{yy}) escaped the damage union"
                    );
                }
            }
        }
    }

    #[test]
    fn damaged_repaint_converges_to_full_frame(
        dirty in prop::collection::vec((0usize..64, 0usize..48, 1usize..30, 1usize..24), 1..6),
        salt_a in any::<u8>(),
        salt_b in any::<u8>(),
    ) {
        let grid = TileGrid::new(4, 3, 16, 16);
        // frame 1 with scene A everywhere
        let mut wall = WallRenderer::new(grid);
        wall.render_frame(|fb, vp| scene_paint(fb, vp, salt_a));
        // frame 2: scene B, but only damaged tiles repainted
        let dirty_vp: Vec<Viewport> = dirty
            .iter()
            .map(|&(x, y, w, h)| Viewport { x, y, w, h })
            .collect();
        wall.render_damage(&dirty_vp, |fb, vp| scene_paint(fb, vp, salt_b));

        // a full-frame reference of scene B
        let mut reference = WallRenderer::new(grid);
        reference.render_frame(|fb, vp| scene_paint(fb, vp, salt_b));

        // every tile that intersects damage must equal the scene-B tile
        for i in 0..grid.n_tiles() {
            let vp = grid.tile_viewport_linear(i);
            let touched = dirty_vp.iter().any(|d| vp.intersect(d).is_some());
            if touched {
                prop_assert_eq!(wall.tile(i), reference.tile(i), "tile {} stale", i);
            }
        }
    }
}

#[test]
fn session_wall_render_equals_desktop_multiple_grids() {
    let mut session = Session::new();
    let vals: Vec<f32> = (0..60 * 5).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
    session
        .load_dataset(Dataset::with_default_meta(
            "d",
            ExprMatrix::from_rows(60, 5, &vals).unwrap(),
        ))
        .unwrap();
    session.cluster_all();
    session.select_region(0, 10, 30);
    // 2×1: fewer tiles than most machines have cores — the scheduler must
    // not start a worker that has no tile to take.
    for (tx, ty, tw, th) in [
        (2, 2, 80, 60),
        (4, 1, 40, 120),
        (1, 3, 160, 40),
        (2, 1, 80, 120),
    ] {
        let grid = TileGrid::new(tx, ty, tw, th);
        let mut wall = WallRenderer::new(grid);
        render_wall(&session, &mut wall);
        let direct = render_desktop(&session, grid.wall_width(), grid.wall_height());
        assert_eq!(
            wall.composite(),
            direct,
            "grid {tx}x{ty} of {tw}x{th} disagrees with direct render"
        );
    }
}
