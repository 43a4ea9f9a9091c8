//! # fv-render — software rasterizer for ForestView
//!
//! The paper builds its visualization on Java TreeView's painter ("Java
//! TreeView forms a good starting point for the visualization component",
//! Section 2) and extends it to many synchronized panes on very large
//! displays. This crate is our TreeView-equivalent: a dependency-free
//! software rasterizer that turns expression data into pixels, so every
//! figure of the paper becomes a reproducible image artifact and a
//! benchable render path — no GUI toolkit, no display server.
//!
//! - [`color`] / [`colormap`] — RGB handling and the classic microarray
//!   color scales (red/green, red/blue, yellow/blue) with contrast control,
//! - [`framebuffer`] — an RGB8 pixel surface with fills, blits and
//!   rectangle copy-out/write-back,
//! - [`draw`] — lines, rectangles, polylines (Bresenham),
//! - [`font`] — an embedded 5×7 bitmap font for labels and annotations,
//! - [`heatmap`] — the expression-matrix painters: exact **zoom view** and
//!   downsampled, averaging **global view**,
//! - [`dendro`] — dendrogram (gene/array tree) painter,
//! - [`image`] — a PPM encoder plus a PPM decoder for tests.

#![forbid(unsafe_code)]

pub mod color;
pub mod colormap;
pub mod dendro;
pub mod draw;
pub mod font;
pub mod framebuffer;
pub mod heatmap;
pub mod image;

pub use color::Rgb;
pub use colormap::{ColorScheme, ExpressionColorMap};
pub use framebuffer::Framebuffer;
