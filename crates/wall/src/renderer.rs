//! Per-tile wall rendering on scoped threads.
//!
//! The painter callback receives a tile framebuffer plus the tile's
//! viewport in wall coordinates and draws the portion of the scene that
//! falls inside it. Each tile owns its framebuffer, so tiles render fully
//! in parallel with no shared mutable state — the same decomposition the
//! real display wall used across its render nodes.

use crate::stats::FrameStats;
use crate::tile::{TileGrid, Viewport};
use fv_render::color::Rgb;
use fv_render::Framebuffer;
use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::time::Instant;

/// A wall renderer holding one framebuffer per tile.
#[derive(Debug)]
pub struct WallRenderer {
    grid: TileGrid,
    tiles: Vec<Framebuffer>,
}

impl WallRenderer {
    /// Allocate tile framebuffers for a grid.
    pub fn new(grid: TileGrid) -> Self {
        let tiles = (0..grid.n_tiles())
            .map(|_| Framebuffer::new(grid.tile_w, grid.tile_h))
            .collect();
        WallRenderer { grid, tiles }
    }

    /// The tile grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Read access to a tile's framebuffer.
    pub fn tile(&self, i: usize) -> &Framebuffer {
        &self.tiles[i]
    }

    /// Render every tile in parallel. `paint(fb, viewport)` must draw the
    /// scene region covered by `viewport` into `fb` (whose origin maps to
    /// `(viewport.x, viewport.y)` on the wall).
    pub fn render_frame<F>(&mut self, paint: F) -> FrameStats
    where
        F: Fn(&mut Framebuffer, Viewport) + Sync,
    {
        self.paint_tiles(|_| true, paint)
    }

    /// Render only the tiles intersecting any of `dirty` (wall-coordinate
    /// rectangles). Repainted tiles are repainted fully — the tile is the
    /// unit of distribution, as on the real wall — but untouched tiles cost
    /// nothing. Returns stats counting only repainted tiles.
    pub fn render_damage<F>(&mut self, dirty: &[Viewport], paint: F) -> FrameStats
    where
        F: Fn(&mut Framebuffer, Viewport) + Sync,
    {
        self.paint_tiles(|vp| dirty.iter().any(|d| vp.intersect(d).is_some()), paint)
    }

    /// The tile scheduler: paint every tile whose viewport `wanted`
    /// selects. Tiles cost unevenly (a global view, a zoom, an empty
    /// gutter), so workers pull the next tile from a shared queue when
    /// free instead of owning a fixed slice. There are as many workers as
    /// the machine has cores, never more than there are tiles to paint;
    /// the calling thread is one of them, so one worker spawns no thread.
    fn paint_tiles<F>(&mut self, wanted: impl Fn(&Viewport) -> bool, paint: F) -> FrameStats
    where
        F: Fn(&mut Framebuffer, Viewport) + Sync,
    {
        let start = Instant::now();
        let grid = self.grid;
        let tiles: Vec<(Viewport, &mut Framebuffer)> = self
            .tiles
            .iter_mut()
            .enumerate()
            .map(|(i, fb)| (grid.tile_viewport_linear(i), fb))
            .filter(|(vp, _)| wanted(vp))
            .collect();
        let rendered = tiles.len();
        let workers = std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(rendered);
        let queue = Mutex::new(tiles.into_iter());
        let drain = || loop {
            // The guard is a temporary of this statement: the queue is
            // unlocked again before the tile is painted.
            let next = queue
                .lock()
                .expect("no painter runs under the queue lock")
                .next();
            match next {
                // A repainted tile starts blank: scene painters draw on
                // black and leave the background alone, so what the tile
                // showed before (a label, a zoom row since scrolled away)
                // must not show through.
                Some((vp, fb)) => {
                    fb.clear(Rgb::BLACK);
                    paint(fb, vp)
                }
                None => break,
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(drain);
            }
            drain();
        });
        let pixels = rendered * grid.tile_w * grid.tile_h;
        FrameStats {
            tiles_rendered: rendered,
            pixels_rendered: pixels,
            bytes_shipped: pixels * 3,
            render_time: start.elapsed(),
        }
    }

    /// Composite all tiles into one full-wall framebuffer (what a bezel-free
    /// photograph of the wall would show — used for artifact output).
    pub fn composite(&self) -> Framebuffer {
        let mut out = Framebuffer::new(self.grid.wall_width(), self.grid.wall_height());
        for i in 0..self.grid.n_tiles() {
            let vp = self.grid.tile_viewport_linear(i);
            out.blit(&self.tiles[i], vp.x as i64, vp.y as i64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Paint each pixel with a color derived from wall coordinates so tile
    /// seams are verifiable after compositing.
    fn coordinate_paint(fb: &mut Framebuffer, vp: Viewport) {
        for y in 0..vp.h {
            for x in 0..vp.w {
                let wx = (vp.x + x) as u8;
                let wy = (vp.y + y) as u8;
                fb.put(x as i64, y as i64, Rgb::new(wx, wy, wx ^ wy));
            }
        }
    }

    #[test]
    fn full_frame_renders_all_tiles() {
        let mut r = WallRenderer::new(TileGrid::new(3, 2, 8, 8));
        let stats = r.render_frame(coordinate_paint);
        assert_eq!(stats.tiles_rendered, 6);
        assert_eq!(stats.pixels_rendered, 3 * 2 * 64);
        assert_eq!(stats.bytes_shipped, stats.pixels_rendered * 3);
    }

    #[test]
    fn composite_is_seamless() {
        let grid = TileGrid::new(3, 2, 8, 8);
        let mut r = WallRenderer::new(grid);
        r.render_frame(coordinate_paint);
        let wall = r.composite();
        assert_eq!(wall.width(), 24);
        assert_eq!(wall.height(), 16);
        // Every wall pixel matches the coordinate function — including
        // across tile boundaries.
        for y in 0..16u8 {
            for x in 0..24u8 {
                assert_eq!(
                    wall.get(x as i64, y as i64),
                    Some(Rgb::new(x, y, x ^ y)),
                    "seam mismatch at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_single_tile_reference() {
        // Render the same scene on a 1×1 "wall" of equal resolution.
        let big = TileGrid::new(4, 4, 6, 6);
        let one = TileGrid::new(1, 1, 24, 24);
        let mut a = WallRenderer::new(big);
        let mut b = WallRenderer::new(one);
        a.render_frame(coordinate_paint);
        b.render_frame(coordinate_paint);
        assert_eq!(a.composite(), b.composite());
    }

    #[test]
    fn tiles_paint_on_more_than_one_thread() {
        use std::collections::HashSet;
        use std::sync::Condvar;
        use std::time::Duration;

        // A 1×1 wall has one tile to paint: the calling thread paints it.
        let painters = Mutex::new(HashSet::new());
        let record = |_: &mut Framebuffer, _: Viewport| {
            painters.lock().unwrap().insert(thread::current().id());
        };
        WallRenderer::new(TileGrid::new(1, 1, 4, 4)).render_frame(record);
        assert_eq!(
            painters.into_inner().unwrap(),
            HashSet::from([thread::current().id()])
        );

        if thread::available_parallelism().map_or(1, NonZeroUsize::get) < 2 {
            return;
        }
        // Each painter holds its tile until a second thread has shown up,
        // so a sequential loop can only run into the (shared) deadline.
        let painters = (Mutex::new(HashSet::new()), Condvar::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        let rendezvous = |_: &mut Framebuffer, _: Viewport| {
            let (ids, arrived) = &painters;
            let mut ids = ids.lock().unwrap();
            ids.insert(thread::current().id());
            arrived.notify_all();
            let _ = arrived
                .wait_timeout_while(
                    ids,
                    deadline.saturating_duration_since(Instant::now()),
                    |ids| ids.len() < 2,
                )
                .unwrap();
        };
        let stats = WallRenderer::new(TileGrid::new(4, 4, 4, 4)).render_frame(rendezvous);
        assert_eq!(stats.tiles_rendered, 16);
        assert!(painters.0.into_inner().unwrap().len() >= 2);
    }

    #[test]
    fn damage_renders_only_touched_tiles() {
        let grid = TileGrid::new(4, 4, 10, 10);
        let mut r = WallRenderer::new(grid);
        r.render_frame(coordinate_paint);
        // Dirty rect inside tile (1,1) only.
        let dirty = vec![Viewport {
            x: 12,
            y: 12,
            w: 3,
            h: 3,
        }];
        let stats = r.render_damage(&dirty, coordinate_paint);
        assert_eq!(stats.tiles_rendered, 1);
        assert_eq!(stats.pixels_rendered, 100);
    }

    #[test]
    fn damage_spanning_tiles_renders_each() {
        let grid = TileGrid::new(4, 4, 10, 10);
        let mut r = WallRenderer::new(grid);
        // Rect crossing the vertical boundary between tiles (0,0) and (1,0).
        let dirty = vec![Viewport {
            x: 8,
            y: 2,
            w: 4,
            h: 4,
        }];
        let stats = r.render_damage(&dirty, coordinate_paint);
        assert_eq!(stats.tiles_rendered, 2);
    }

    #[test]
    fn empty_damage_renders_nothing() {
        let mut r = WallRenderer::new(TileGrid::new(2, 2, 8, 8));
        let stats = r.render_damage(&[], coordinate_paint);
        assert_eq!(stats.tiles_rendered, 0);
        assert_eq!(stats.pixels_rendered, 0);
    }

    #[test]
    fn damage_repaint_updates_content() {
        let grid = TileGrid::new(2, 1, 8, 8);
        let mut r = WallRenderer::new(grid);
        r.render_frame(|fb, _| fb.clear(Rgb::BLACK));
        let dirty = vec![Viewport {
            x: 0,
            y: 0,
            w: 1,
            h: 1,
        }];
        r.render_damage(&dirty, |fb, _| fb.clear(Rgb::RED));
        // tile 0 repainted red, tile 1 untouched black
        assert_eq!(r.tile(0).get(0, 0), Some(Rgb::RED));
        assert_eq!(r.tile(1).get(0, 0), Some(Rgb::BLACK));
    }
}
