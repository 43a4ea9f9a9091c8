//! # fv-wall — display-wall simulator
//!
//! The paper runs ForestView on Princeton's scalable display wall (Figure 3)
//! to buy "about two orders of magnitude" more pixels than a desktop
//! (Section 1). We do not have a projector cluster; per the reproduction's
//! substitution rule this crate simulates one faithfully at the level that
//! matters for the paper's claims — pixels, partitioning, parallelism and
//! distribution cost:
//!
//! - [`tile`] — tile grids (a wall is `tiles_x × tiles_y` fixed-resolution
//!   tiles) with the Princeton-wall and desktop presets,
//! - [`renderer`] — the one tile scheduler: per-tile rendering against any
//!   painter callback on scoped `std::thread` workers that pull tiles
//!   from a shared queue (one worker per core, at most one per tile, the
//!   caller being the first), plus compositing into a single full-wall
//!   surface,
//! - [`damage`] — dirty-rectangle tracking so dynamic interaction (pan,
//!   zoom, selection) re-renders only what changed,
//! - [`net`] — a distribution cost model (per-message latency + bandwidth)
//!   for shipping rendered tiles to their display nodes,
//! - [`stream`] — the tile-frame codec the fv-stream pub/sub plane ships
//!   over TCP (key/delta frames, encoder, viewer-side assembler),
//! - [`stats`] — per-frame counters.

#![forbid(unsafe_code)]

pub mod damage;
pub mod net;
pub mod renderer;
pub mod stats;
pub mod stream;
pub mod tile;

pub use renderer::WallRenderer;
pub use tile::TileGrid;
