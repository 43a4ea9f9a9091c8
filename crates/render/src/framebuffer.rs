//! RGB8 pixel surface.
//!
//! Pixels are stored as packed RGB bytes in one contiguous row-major `Vec`.
//! The wall simulator renders many framebuffers (one per tile, each owned
//! by one worker thread at a time) and composites them with
//! [`Framebuffer::blit`].

use crate::color::Rgb;

/// A width × height RGB8 image surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    /// Packed RGB, row-major: pixel (x, y) at `(y*width + x) * 3`.
    data: Vec<u8>,
}

impl Framebuffer {
    /// Black surface of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        Framebuffer {
            width,
            height,
            data: vec![0; width * height * 3],
        }
    }

    /// Surface filled with a color.
    pub fn filled(width: usize, height: usize, color: Rgb) -> Self {
        let mut fb = Framebuffer::new(width, height);
        fb.clear(color);
        fb
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw packed-RGB bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Raw packed-RGB bytes, writable in place (how the tile-stream
    /// assembler unpacks a frame straight into its wall).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Fill with a color.
    pub fn clear(&mut self, color: Rgb) {
        for px in self.data.chunks_exact_mut(3) {
            px[0] = color.r;
            px[1] = color.g;
            px[2] = color.b;
        }
    }

    /// Write one pixel; out-of-bounds writes are silently clipped.
    #[inline]
    pub fn put(&mut self, x: i64, y: i64, color: Rgb) {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return;
        }
        let i = (y as usize * self.width + x as usize) * 3;
        self.data[i] = color.r;
        self.data[i + 1] = color.g;
        self.data[i + 2] = color.b;
    }

    /// Read one pixel; `None` out of bounds.
    #[inline]
    pub fn get(&self, x: i64, y: i64) -> Option<Rgb> {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return None;
        }
        let i = (y as usize * self.width + x as usize) * 3;
        Some(Rgb::new(self.data[i], self.data[i + 1], self.data[i + 2]))
    }

    /// Fill the axis-aligned rectangle `[x, x+w) × [y, y+h)`, clipped to the
    /// surface.
    pub fn fill_rect(&mut self, x: i64, y: i64, w: usize, h: usize, color: Rgb) {
        let x0 = x.max(0) as usize;
        let y0 = y.max(0) as usize;
        let x1 = ((x + w as i64).max(0) as usize).min(self.width);
        let y1 = ((y + h as i64).max(0) as usize).min(self.height);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        for yy in y0..y1 {
            self.fill_span(x0, yy, x1 - x0, color);
        }
    }

    /// Byte range of the `len` pixels of row `y` starting at column `x`.
    /// The span must lie inside the surface.
    fn span(&self, x: usize, y: usize, len: usize) -> std::ops::Range<usize> {
        assert!(
            x + len <= self.width && y < self.height,
            "span out of bounds"
        );
        let i = (y * self.width + x) * 3;
        i..i + len * 3
    }

    /// Fill `len` pixels of row `y` from column `x` — the unclipped inner
    /// step of [`Framebuffer::fill_rect`] and of the global-view painter.
    pub(crate) fn fill_span(&mut self, x: usize, y: usize, len: usize, color: Rgb) {
        let span = self.span(x, y, len);
        for px in self.data[span].chunks_exact_mut(3) {
            px[0] = color.r;
            px[1] = color.g;
            px[2] = color.b;
        }
    }

    /// Copy `len` pixels from column `x` of row `src_y` to the same columns
    /// of row `dst_y`.
    pub(crate) fn copy_span(&mut self, x: usize, src_y: usize, dst_y: usize, len: usize) {
        let (src, dst) = (self.span(x, src_y, len), self.span(x, dst_y, len));
        self.data.copy_within(src, dst.start);
    }

    /// Copy `src` onto this surface with its top-left corner at `(x, y)`,
    /// clipping as needed. This is the wall compositor's primitive.
    pub fn blit(&mut self, src: &Framebuffer, x: i64, y: i64) {
        for sy in 0..src.height {
            let dy = y + sy as i64;
            if dy < 0 || dy as usize >= self.height {
                continue;
            }
            // Clip horizontal span.
            let dst_x0 = x.max(0);
            let src_x0 = (dst_x0 - x) as usize;
            let dst_x1 = (x + src.width as i64).min(self.width as i64);
            if dst_x0 >= dst_x1 || src_x0 >= src.width {
                continue;
            }
            let span = (dst_x1 - dst_x0) as usize;
            let src_i = (sy * src.width + src_x0) * 3;
            let dst_i = (dy as usize * self.width + dst_x0 as usize) * 3;
            self.data[dst_i..dst_i + span * 3].copy_from_slice(&src.data[src_i..src_i + span * 3]);
        }
    }

    /// Extract the rectangle `[x, x+w) × [y, y+h)` as a new framebuffer.
    /// The rectangle must lie fully inside the surface.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Framebuffer {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "crop out of bounds"
        );
        let mut out = Framebuffer::new(w, h);
        for yy in 0..h {
            let src_i = ((y + yy) * self.width + x) * 3;
            let dst_i = yy * w * 3;
            out.data[dst_i..dst_i + w * 3].copy_from_slice(&self.data[src_i..src_i + w * 3]);
        }
        out
    }

    /// Overwrite the rectangle `[x, x+w) × [y, y+h)` from packed-RGB bytes
    /// laid out row-major (`w * h * 3` bytes) — the inverse of
    /// [`Framebuffer::crop`]'s bytes.
    pub fn write_rect(&mut self, x: usize, y: usize, w: usize, h: usize, bytes: &[u8]) {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "write_rect out of bounds"
        );
        assert_eq!(bytes.len(), w * h * 3, "write_rect payload size mismatch");
        for yy in 0..h {
            let i = ((y + yy) * self.width + x) * 3;
            self.data[i..i + w * 3].copy_from_slice(&bytes[yy * w * 3..(yy + 1) * w * 3]);
        }
    }

    /// Count pixels equal to `color` (test/diagnostic helper).
    pub fn count_pixels(&self, color: Rgb) -> usize {
        self.data
            .chunks_exact(3)
            .filter(|px| px[0] == color.r && px[1] == color.g && px[2] == color.b)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let fb = Framebuffer::new(4, 3);
        assert_eq!(fb.width(), 4);
        assert_eq!(fb.height(), 3);
        assert_eq!(fb.get(0, 0), Some(Rgb::BLACK));
        assert_eq!(fb.count_pixels(Rgb::BLACK), 12);
    }

    #[test]
    fn put_get_roundtrip() {
        let mut fb = Framebuffer::new(4, 4);
        fb.put(2, 1, Rgb::RED);
        assert_eq!(fb.get(2, 1), Some(Rgb::RED));
        assert_eq!(fb.get(1, 2), Some(Rgb::BLACK));
    }

    #[test]
    fn out_of_bounds_clipped() {
        let mut fb = Framebuffer::new(2, 2);
        fb.put(-1, 0, Rgb::RED);
        fb.put(0, 5, Rgb::RED);
        assert_eq!(fb.count_pixels(Rgb::RED), 0);
        assert_eq!(fb.get(-1, 0), None);
        assert_eq!(fb.get(0, 5), None);
    }

    #[test]
    fn clear_fills() {
        let mut fb = Framebuffer::new(3, 3);
        fb.clear(Rgb::BLUE);
        assert_eq!(fb.count_pixels(Rgb::BLUE), 9);
    }

    #[test]
    fn fill_rect_exact() {
        let mut fb = Framebuffer::new(10, 10);
        fb.fill_rect(2, 3, 4, 2, Rgb::GREEN);
        assert_eq!(fb.count_pixels(Rgb::GREEN), 8);
        assert_eq!(fb.get(2, 3), Some(Rgb::GREEN));
        assert_eq!(fb.get(5, 4), Some(Rgb::GREEN));
        assert_eq!(fb.get(6, 3), Some(Rgb::BLACK));
        assert_eq!(fb.get(2, 5), Some(Rgb::BLACK));
    }

    #[test]
    fn fill_rect_clips_negative_origin() {
        let mut fb = Framebuffer::new(4, 4);
        fb.fill_rect(-2, -2, 4, 4, Rgb::WHITE);
        assert_eq!(fb.count_pixels(Rgb::WHITE), 4); // only the overlap
        assert_eq!(fb.get(0, 0), Some(Rgb::WHITE));
        assert_eq!(fb.get(1, 1), Some(Rgb::WHITE));
        assert_eq!(fb.get(2, 2), Some(Rgb::BLACK));
    }

    #[test]
    fn fill_rect_fully_outside_is_noop() {
        let mut fb = Framebuffer::new(4, 4);
        fb.fill_rect(10, 10, 3, 3, Rgb::WHITE);
        assert_eq!(fb.count_pixels(Rgb::WHITE), 0);
    }

    #[test]
    fn blit_places_tile() {
        let mut wall = Framebuffer::new(6, 4);
        let tile = Framebuffer::filled(2, 2, Rgb::RED);
        wall.blit(&tile, 3, 1);
        assert_eq!(wall.count_pixels(Rgb::RED), 4);
        assert_eq!(wall.get(3, 1), Some(Rgb::RED));
        assert_eq!(wall.get(4, 2), Some(Rgb::RED));
        assert_eq!(wall.get(2, 1), Some(Rgb::BLACK));
    }

    #[test]
    fn blit_clips_edges() {
        let mut wall = Framebuffer::new(4, 4);
        let tile = Framebuffer::filled(3, 3, Rgb::BLUE);
        wall.blit(&tile, 2, 2); // bottom-right overhang
        assert_eq!(wall.count_pixels(Rgb::BLUE), 4);
        wall.blit(&tile, -2, -2); // top-left overhang
        assert_eq!(wall.get(0, 0), Some(Rgb::BLUE));
    }

    #[test]
    fn crop_extracts_region() {
        let mut fb = Framebuffer::new(5, 5);
        fb.fill_rect(1, 1, 2, 2, Rgb::YELLOW);
        let c = fb.crop(1, 1, 2, 2);
        assert_eq!(c.width(), 2);
        assert_eq!(c.count_pixels(Rgb::YELLOW), 4);
    }

    #[test]
    #[should_panic(expected = "crop out of bounds")]
    fn crop_oob_panics() {
        let fb = Framebuffer::new(3, 3);
        let _ = fb.crop(2, 2, 2, 2);
    }

    #[test]
    fn blit_then_crop_roundtrip() {
        let tile = Framebuffer::filled(3, 2, Rgb::new(9, 8, 7));
        let mut wall = Framebuffer::new(8, 8);
        wall.blit(&tile, 4, 5);
        assert_eq!(wall.crop(4, 5, 3, 2), tile);
    }

    #[test]
    fn write_rect_inverts_crop() {
        let mut fb = Framebuffer::new(6, 5);
        fb.fill_rect(1, 2, 3, 2, Rgb::RED);
        let mut other = Framebuffer::new(6, 5);
        other.write_rect(1, 2, 3, 2, fb.crop(1, 2, 3, 2).bytes());
        assert_eq!(other, fb);
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn write_rect_bad_payload_panics() {
        let mut fb = Framebuffer::new(3, 3);
        fb.write_rect(0, 0, 2, 2, &[0u8; 5]);
    }
}
