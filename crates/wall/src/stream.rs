//! Tile-frame codec for fv-stream.
//!
//! The pub/sub streaming plane ships wall content as **tile frames**: each
//! frame is a text header line followed by a packed pixel payload,
//!
//! ```text
//! tile <seq> <key|delta> <tile_index> <x>:<y>:<w>:<h> <nbytes>\n<nbytes of payload>
//! ```
//!
//! where the rectangle is in wall pixel coordinates and always lies inside
//! the named tile's viewport. The payload is the rectangle's pixels,
//! row-major, as **PackBits over 3-byte RGB pixels**: a control byte
//! `c < 128` is followed by `c + 1` literal pixels, and a control byte
//! `c ≥ 128` by one pixel that repeats `c − 126` times (2 to 129). Runs
//! and literal blocks carry on across row ends. A payload unpacks to
//! exactly `w * h` pixels and is never longer than [`max_payload_len`]:
//! the raw `w * h * 3` bytes plus one control byte per 128 pixels, when
//! no two neighbours are equal. Heatmap cells and backgrounds are runs of
//! one colour, so a rendered desktop packs to about an eighth of its raw
//! size.
//!
//! A **key** frame carries a whole tile; a **delta** frame carries only a
//! damaged sub-rectangle. All frames of one published update share one
//! `seq`, and a subscriber that sees contiguous `seq` values has missed
//! nothing — the server re-syncs a lagging subscriber with a fresh
//! keyframe burst rather than ever skipping a `seq`.
//!
//! This module is transport-agnostic: [`TileStreamEncoder`] packs frames
//! straight from a wall [`Framebuffer`] plus damage, [`decode`] is the
//! incremental wire parser, and [`TileAssembler`] is the viewer-side
//! inverse that unpacks frames straight into its framebuffer.

use crate::damage::DamageTracker;
use crate::tile::{TileGrid, Viewport};
use fv_render::Framebuffer;

/// Keyword opening every tile-frame header line.
pub const FRAME_KEYWORD: &str = "tile";

/// Longest header line the decoder will buffer before giving up.
const MAX_HEADER: usize = 256;

/// Most pixels one literal block carries (control byte 127).
const MAX_LITERAL: u8 = 128;

/// Most pixels one repeat carries (control byte 255).
const MAX_REPEAT: usize = 129;

/// Longest payload `pixels` pixels pack to — every pixel differs from its
/// neighbour, so all are literals, 128 to a control byte — or `None` when
/// that is past `usize`. The decoder refuses a longer `nbytes` before it
/// buffers the payload.
pub const fn max_payload_len(pixels: usize) -> Option<usize> {
    match pixels.checked_mul(3) {
        Some(raw) => raw.checked_add(pixels.div_ceil(MAX_LITERAL as usize)),
        None => None,
    }
}

/// Whether a frame carries a whole tile or a damaged sub-rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Full tile contents; resets the viewer's tile unconditionally.
    Key,
    /// Damage-limited update to part of a tile.
    Delta,
}

impl FrameKind {
    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameKind::Key => "key",
            FrameKind::Delta => "delta",
        }
    }

    /// Parse a wire token.
    pub fn from_str_token(s: &str) -> Option<FrameKind> {
        match s {
            "key" => Some(FrameKind::Key),
            "delta" => Some(FrameKind::Delta),
            _ => None,
        }
    }
}

/// One streamed update to one tile.
#[derive(Debug, Clone, PartialEq)]
pub struct TileFrame {
    /// Publish sequence number; every frame of one update shares it.
    pub seq: u64,
    /// Key or delta.
    pub kind: FrameKind,
    /// Linear (row-major) tile index in the subscriber's grid.
    pub tile: usize,
    /// Updated rectangle in wall pixel coordinates.
    pub rect: Viewport,
    /// The rectangle's pixels, row-major, packed (see the module docs).
    pub payload: Vec<u8>,
}

impl TileFrame {
    /// Total encoded size (header line + payload): the bytes on the wire.
    /// Counted from the fields' digits; nothing is formatted.
    pub fn encoded_len(&self) -> usize {
        let Viewport { x, y, w, h } = self.rect;
        let numbers = [self.tile, x, y, w, h, self.payload.len()];
        // Five spaces, the rect's three colons and the newline.
        let separators = 5 + 3 + 1;
        FRAME_KEYWORD.len()
            + digits(self.seq)
            + self.kind.as_str().len()
            + numbers.iter().map(|&v| digits(v as u64)).sum::<usize>()
            + separators
            + self.payload.len()
    }

    /// Append the wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        let Viewport { x, y, w, h } = self.rect;
        out.reserve(self.encoded_len());
        writeln!(
            out,
            "{FRAME_KEYWORD} {} {} {} {x}:{y}:{w}:{h} {}",
            self.seq,
            self.kind.as_str(),
            self.tile,
            self.payload.len()
        )
        .expect("writing to a Vec cannot fail");
        out.extend_from_slice(&self.payload);
    }

    /// The wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// How many decimal digits `v` is written with.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// A malformed tile frame on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError(pub String);

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for StreamError {}

fn bad(msg: impl Into<String>) -> StreamError {
    StreamError(msg.into())
}

// ── the payload codec ───────────────────────────────────────────────────

/// Pack the pixels of `rect`, which lies inside `wall`, straight from the
/// framebuffer's rows.
fn pack(wall: &Framebuffer, rect: Viewport) -> Vec<u8> {
    debug_assert!(rect.x + rect.w <= wall.width() && rect.y + rect.h <= wall.height());
    let mut packer = Packer {
        out: Vec::with_capacity(max_payload_len(rect.area()).unwrap_or(0)),
        literal_at: 0,
        literals: 0,
        key: 0,
        run: 0,
    };
    let stride = wall.width() * 3;
    for y in rect.y..rect.y + rect.h {
        let at = y * stride + rect.x * 3;
        packer.row(&wall.bytes()[at..at + rect.w * 3]);
    }
    packer.end_run();
    packer.out
}

/// A pixel keyed as one `u32` (`0x00BBGGRR`).
fn key(px: &[u8]) -> u32 {
    u32::from(px[0]) | u32::from(px[1]) << 8 | u32::from(px[2]) << 16
}

/// The PackBits writer, fed row by row into space reserved for the worst
/// case. Lone pixels between runs are copied in one slice per stretch,
/// and a row's last run is held back, because it may carry on in the
/// next row.
struct Packer {
    out: Vec<u8>,
    /// The open literal block: its control byte's place in `out`, and its
    /// pixel count (0 when no block is open).
    literal_at: usize,
    literals: usize,
    /// The held-back run: `run` copies of the pixel `key`.
    key: u32,
    run: usize,
}

impl Packer {
    fn row(&mut self, row: &[u8]) {
        let mut at = 0;
        // The row's first run may continue the held-back one.
        if self.run > 0 && key(row) == self.key {
            let first = run_len(row, 0);
            self.run += first;
            at = 3 * first;
            if at == row.len() {
                return;
            }
        }
        self.end_run();
        // Bytes from `lone` to `at` are lone pixels not yet written.
        let mut lone = at;
        loop {
            let n = run_len(row, at);
            let end = at + 3 * n;
            if end == row.len() {
                self.literal(&row[lone..at]);
                (self.key, self.run) = (key(&row[at..]), n);
                return;
            }
            if n >= 2 {
                self.literal(&row[lone..at]);
                self.repeat(key(&row[at..]), n);
                lone = end;
            }
            at = end;
        }
    }

    /// Write the held-back run.
    fn end_run(&mut self) {
        match self.run {
            0 => {}
            1 => self.literal(&self.key.to_le_bytes()[..3]),
            n => self.repeat(self.key, n),
        }
        self.run = 0;
    }

    /// `n ≥ 2` copies of `key`: repeats of at most 129, and a lone pixel
    /// left over joins the literals.
    fn repeat(&mut self, key: u32, mut n: usize) {
        let [r, g, b, _] = key.to_le_bytes();
        self.literals = 0;
        if n <= MAX_REPEAT {
            self.out.extend_from_slice(&[n as u8 + 126, r, g, b]);
            return;
        }
        while n >= 2 {
            let take = n.min(MAX_REPEAT);
            self.out.extend_from_slice(&[take as u8 + 126, r, g, b]);
            n -= take;
        }
        if n == 1 {
            self.literal(&[r, g, b]);
        }
    }

    /// Append literal pixels, filling the open block before opening
    /// another.
    fn literal(&mut self, mut px: &[u8]) {
        while !px.is_empty() {
            if self.literals == 0 || self.literals == usize::from(MAX_LITERAL) {
                self.literal_at = self.out.len();
                self.out.push(0);
                self.literals = 0;
            }
            let take = (usize::from(MAX_LITERAL) - self.literals).min(px.len() / 3);
            self.out.extend_from_slice(&px[..3 * take]);
            self.literals += take;
            self.out[self.literal_at] = (self.literals - 1) as u8;
            px = &px[3 * take..];
        }
    }
}

/// How many pixels from byte `at` of `row` on equal the one there. The
/// run ends at the first byte that differs from the byte one pixel
/// ahead, so the scan compares eight bytes at a time.
fn run_len(row: &[u8], at: usize) -> usize {
    let (here, ahead) = (&row[at..], &row[at + 3..]);
    let word = |bytes: &[u8], i: usize| {
        let mut word = [0; 8];
        word.copy_from_slice(&bytes[i..i + 8]);
        u64::from_le_bytes(word)
    };
    let mut i = 0;
    while i + 8 <= ahead.len() {
        let diff = word(here, i) ^ word(ahead, i);
        if diff != 0 {
            return (i + diff.trailing_zeros() as usize / 8) / 3 + 1;
        }
        i += 8;
    }
    while i < ahead.len() && here[i] == ahead[i] {
        i += 1;
    }
    i / 3 + 1
}

/// The pixels one control byte stands for, and the payload bytes that
/// follow it.
fn run_of(control: u8) -> (usize, usize) {
    match control {
        c if c < MAX_LITERAL => (usize::from(c) + 1, 3 * (usize::from(c) + 1)),
        c => (usize::from(c) - 126, 3),
    }
}

/// Check that `payload` is whole runs that unpack to exactly `pixels`
/// pixels, walking only its control bytes.
fn check_payload(payload: &[u8], pixels: usize) -> Result<(), StreamError> {
    let (mut at, mut got) = (0, 0usize);
    while let Some(&control) = payload.get(at) {
        let (n, bytes) = run_of(control);
        at += 1 + bytes;
        got += n;
        if got > pixels {
            return Err(bad(format!(
                "tile frame payload overfills its {pixels}-pixel rect"
            )));
        }
    }
    if at > payload.len() {
        return Err(bad("tile frame payload ends inside a run"));
    }
    if got < pixels {
        return Err(bad(format!(
            "tile frame payload fills {got} of its rect's {pixels} pixels"
        )));
    }
    Ok(())
}

/// The pixel count of a frame rect whose far edges fit in `usize`, or why
/// it cannot be a frame rect.
fn rect_pixels(rect: &Viewport) -> Result<usize, StreamError> {
    let fits = rect.x.checked_add(rect.w).is_some() && rect.y.checked_add(rect.h).is_some();
    let pixels = rect.w.checked_mul(rect.h).filter(|_| fits);
    match pixels {
        Some(0) => Err(bad("tile frame rect is empty")),
        Some(pixels) => Ok(pixels),
        None => Err(bad(format!(
            "tile frame rect {}:{}:{}:{} overflows",
            rect.x, rect.y, rect.w, rect.h
        ))),
    }
}

/// Write a checked payload's pixels over `rect` of `fb`, row by row.
fn unpack(payload: &[u8], rect: Viewport, fb: &mut Framebuffer) {
    let stride = fb.width() * 3;
    let data = fb.bytes_mut();
    // The run being written: its bytes still owed, and its pixels (a
    // literal's remaining bytes, or a repeat's one pixel).
    let (mut owed, mut from, mut repeat) = (0, &payload[..0], [0; 3]);
    let mut at = 0;
    for y in rect.y..rect.y + rect.h {
        let start = y * stride + rect.x * 3;
        let mut row = &mut data[start..start + rect.w * 3];
        while !row.is_empty() {
            if owed == 0 {
                let control = payload[at];
                let (n, bytes) = run_of(control);
                owed = 3 * n;
                if control < MAX_LITERAL {
                    from = &payload[at + 1..at + 1 + bytes];
                } else {
                    repeat.copy_from_slice(&payload[at + 1..at + 4]);
                }
                at += 1 + bytes;
            }
            let k = owed.min(row.len());
            let (out, rest) = std::mem::take(&mut row).split_at_mut(k);
            if from.is_empty() {
                for px in out.chunks_exact_mut(3) {
                    px.copy_from_slice(&repeat);
                }
            } else {
                let (now, later) = from.split_at(out.len());
                out.copy_from_slice(now);
                from = later;
            }
            owed -= out.len();
            row = rest;
        }
    }
}

/// Incrementally decode one tile frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete frame
/// (read more bytes and retry), or `Ok(Some((frame, consumed)))` where
/// `consumed` bytes should be drained from the front of the buffer. A
/// header whose rect overflows or whose `nbytes` passes
/// [`max_payload_len`] is refused before any payload is buffered, and a
/// payload that does not unpack to exactly its rect is refused.
pub fn decode(buf: &[u8]) -> Result<Option<(TileFrame, usize)>, StreamError> {
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        if buf.len() > MAX_HEADER {
            return Err(bad("tile frame header too long"));
        }
        return Ok(None);
    };
    if nl > MAX_HEADER {
        return Err(bad("tile frame header too long"));
    }
    let header = std::str::from_utf8(&buf[..nl])
        .map_err(|_| bad("tile frame header is not utf-8"))?
        .trim_end_matches('\r');
    let mut it = header.split_ascii_whitespace();
    if it.next() != Some(FRAME_KEYWORD) {
        return Err(bad(format!("expected tile frame header, got {header:?}")));
    }
    let mut field = |what: &str| {
        it.next()
            .ok_or_else(|| bad(format!("tile frame header missing {what}")))
    };
    let seq: u64 = field("seq")?
        .parse()
        .map_err(|_| bad("tile frame seq is not a number"))?;
    let kind = FrameKind::from_str_token(field("kind")?)
        .ok_or_else(|| bad("tile frame kind must be key or delta"))?;
    let tile: usize = field("tile index")?
        .parse()
        .map_err(|_| bad("tile frame index is not a number"))?;
    let rect_tok = field("rect")?;
    let mut parts = rect_tok.split(':');
    let mut dim = |what: &str| -> Result<usize, StreamError> {
        parts
            .next()
            .ok_or_else(|| bad(format!("tile frame rect missing {what}")))?
            .parse()
            .map_err(|_| bad(format!("tile frame rect {what} is not a number")))
    };
    let rect = Viewport {
        x: dim("x")?,
        y: dim("y")?,
        w: dim("w")?,
        h: dim("h")?,
    };
    if parts.next().is_some() {
        return Err(bad("tile frame rect has trailing fields"));
    }
    let nbytes: usize = field("payload length")?
        .parse()
        .map_err(|_| bad("tile frame payload length is not a number"))?;
    if it.next().is_some() {
        return Err(bad("tile frame header has trailing fields"));
    }
    let pixels = rect_pixels(&rect)?;
    let most = max_payload_len(pixels)
        .ok_or_else(|| bad(format!("tile frame rect {}x{} overflows", rect.w, rect.h)))?;
    if nbytes > most {
        return Err(bad(format!(
            "tile frame payload length {nbytes} exceeds the {most} bytes a {}x{} rect packs to",
            rect.w, rect.h
        )));
    }
    let body = nl + 1;
    if buf.len() - body < nbytes {
        return Ok(None);
    }
    let payload = &buf[body..body + nbytes];
    check_payload(payload, pixels)?;
    let frame = TileFrame {
        seq,
        kind,
        tile,
        rect,
        payload: payload.to_vec(),
    };
    Ok(Some((frame, body + nbytes)))
}

/// Intersect damage rectangles with a grid's tiles.
///
/// Damage is first coalesced through a [`DamageTracker`] (overlapping or
/// touching rects merge, and the tracker's cap bounds the work), then each
/// coalesced rect is clipped against every tile viewport it crosses.
/// Returns `(linear tile index, clipped rect)` pairs in tile order.
pub fn tile_damage(grid: &TileGrid, damage: &[Viewport]) -> Vec<(usize, Viewport)> {
    let mut tracker = DamageTracker::new();
    let wall = Viewport {
        x: 0,
        y: 0,
        w: grid.wall_width(),
        h: grid.wall_height(),
    };
    for r in damage {
        if let Some(clipped) = r.intersect(&wall) {
            tracker.add(clipped);
        }
    }
    let mut out = Vec::new();
    for i in 0..grid.n_tiles() {
        let vp = grid.tile_viewport_linear(i);
        let mut tile_tracker = DamageTracker::new();
        for r in tracker.rects() {
            if let Some(hit) = vp.intersect(r) {
                tile_tracker.add(hit);
            }
        }
        out.extend(tile_tracker.take().into_iter().map(|r| (i, r)));
    }
    out
}

/// Per-subscriber frame producer: owns the subscriber's grid and the
/// monotonically increasing publish sequence.
#[derive(Debug, Clone)]
pub struct TileStreamEncoder {
    grid: TileGrid,
    seq: u64,
}

impl TileStreamEncoder {
    /// Encoder for a subscriber viewing through `grid`.
    pub fn new(grid: TileGrid) -> Self {
        TileStreamEncoder { grid, seq: 0 }
    }

    /// The subscriber's grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Sequence number the next emitted update will carry.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Emit a full keyframe burst: one `key` frame per tile, all sharing
    /// the next sequence number. `wall` must match the grid's dimensions.
    pub fn keyframe(&mut self, wall: &Framebuffer) -> Vec<TileFrame> {
        self.check_wall(wall);
        let seq = self.seq;
        self.seq += 1;
        (0..self.grid.n_tiles())
            .map(|i| {
                let rect = self.grid.tile_viewport_linear(i);
                TileFrame {
                    seq,
                    kind: FrameKind::Key,
                    tile: i,
                    rect,
                    payload: pack(wall, rect),
                }
            })
            .collect()
    }

    /// Emit `delta` frames for pre-clipped `(tile, rect)` damage pairs (see
    /// [`tile_damage`]), all sharing the next sequence number. Returns an
    /// empty vec — and burns no sequence number — when there is no damage.
    pub fn delta(&mut self, wall: &Framebuffer, tiles: &[(usize, Viewport)]) -> Vec<TileFrame> {
        self.check_wall(wall);
        if tiles.is_empty() {
            return Vec::new();
        }
        let seq = self.seq;
        self.seq += 1;
        tiles
            .iter()
            .map(|&(tile, rect)| {
                debug_assert_eq!(
                    self.grid.tile_viewport_linear(tile).intersect(&rect),
                    Some(rect),
                    "delta rect escapes its tile"
                );
                TileFrame {
                    seq,
                    kind: FrameKind::Delta,
                    tile,
                    rect,
                    payload: pack(wall, rect),
                }
            })
            .collect()
    }

    fn check_wall(&self, wall: &Framebuffer) {
        assert!(
            wall.width() == self.grid.wall_width() && wall.height() == self.grid.wall_height(),
            "framebuffer {}x{} does not match wall {}x{}",
            wall.width(),
            wall.height(),
            self.grid.wall_width(),
            self.grid.wall_height()
        );
    }
}

/// Viewer-side reassembly: applies tile frames onto a wall framebuffer.
#[derive(Debug, Clone)]
pub struct TileAssembler {
    grid: TileGrid,
    fb: Framebuffer,
    last_seq: Option<u64>,
    frames: u64,
    keyframes: u64,
}

impl TileAssembler {
    /// Blank wall for the given grid.
    pub fn new(grid: TileGrid) -> Self {
        TileAssembler {
            fb: Framebuffer::new(grid.wall_width(), grid.wall_height()),
            grid,
            last_seq: None,
            frames: 0,
            keyframes: 0,
        }
    }

    /// Validate one frame and unpack it into the wall. A frame that is
    /// refused leaves the wall as it was.
    pub fn apply(&mut self, frame: &TileFrame) -> Result<(), StreamError> {
        if frame.tile >= self.grid.n_tiles() {
            return Err(bad(format!(
                "tile index {} out of range for {} tiles",
                frame.tile,
                self.grid.n_tiles()
            )));
        }
        let pixels = rect_pixels(&frame.rect)?;
        let vp = self.grid.tile_viewport_linear(frame.tile);
        if vp.intersect(&frame.rect) != Some(frame.rect) {
            return Err(bad(format!(
                "frame rect {}:{}:{}:{} escapes tile {}",
                frame.rect.x, frame.rect.y, frame.rect.w, frame.rect.h, frame.tile
            )));
        }
        check_payload(&frame.payload, pixels)?;
        if let Some(last) = self.last_seq {
            if frame.seq < last {
                return Err(bad(format!(
                    "frame seq {} went backwards (last {})",
                    frame.seq, last
                )));
            }
        }
        unpack(&frame.payload, frame.rect, &mut self.fb);
        self.last_seq = Some(frame.seq);
        self.frames += 1;
        if frame.kind == FrameKind::Key {
            self.keyframes += 1;
        }
        Ok(())
    }

    /// The reassembled wall.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// The grid this assembler reassembles into.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Highest sequence number applied, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Frames applied so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Key frames applied so far (≥ `n_tiles` twice means the stream
    /// re-synced with a fresh keyframe at least once).
    pub fn keyframes(&self) -> u64 {
        self.keyframes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_render::Rgb;

    fn vp(x: usize, y: usize, w: usize, h: usize) -> Viewport {
        Viewport { x, y, w, h }
    }

    fn gradient(w: usize, h: usize) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
                fb.put(x as i64, y as i64, Rgb::new(x as u8, y as u8, 7));
            }
        }
        fb
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = TileFrame {
            seq: 42,
            kind: FrameKind::Delta,
            tile: 3,
            rect: vp(10, 20, 4, 2),
            // four literal pixels, then one pixel four times
            payload: vec![3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 130, 1, 2, 3],
        };
        let wire = f.encode();
        let (back, used) = decode(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(back, f);
    }

    #[test]
    fn decode_incomplete_returns_none() {
        let f = TileFrame {
            seq: 0,
            kind: FrameKind::Key,
            tile: 0,
            rect: vp(0, 0, 2, 2),
            payload: vec![130, 9, 9, 9],
        };
        let wire = f.encode();
        for cut in 0..wire.len() {
            assert_eq!(decode(&wire[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(b"nonsense header\n").is_err());
        assert!(decode(b"tile x key 0 0:0:1:1 3\n").is_err());
        assert!(decode(b"tile 0 huh 0 0:0:1:1 3\n").is_err());
        assert!(decode(b"tile 0 key 0 0:0:1:1 5\n").is_err()); // past the bound
        assert!(decode(b"tile 0 key 0 0:0:0:1 0\n").is_err()); // empty rect
        assert!(decode(b"tile 0 key 0 0:0:1:1 3 extra\n").is_err());
        let long = vec![b'x'; MAX_HEADER + 2];
        assert!(decode(&long).is_err());
    }

    #[test]
    fn decode_refuses_an_overflowing_rect_before_its_payload() {
        // `w * h` wraps to 0 in release arithmetic.
        let wraps = decode(b"tile 0 key 0 0:0:9223372036854775808:2 0\n");
        assert!(wraps.unwrap_err().0.contains("overflows"));
        for header in [
            "tile 0 key 0 18446744073709551615:0:1:1 4\n",
            "tile 0 key 0 0:18446744073709551615:1:1 4\n",
            // 3 * w * h fits, but the bound's control bytes do not
            "tile 0 key 0 0:0:6148914691236517205:1 0\n",
        ] {
            assert!(decode(header.as_bytes()).is_err(), "{header:?}");
        }
        // A huge rect whose payload could be long is refused by its
        // `nbytes` alone, with no payload buffered.
        let most = max_payload_len(1 << 20).unwrap();
        let header = format!("tile 0 key 0 0:0:1024:1024 {}\n", most + 1);
        assert!(decode(header.as_bytes()).is_err());
        let header = format!("tile 0 key 0 0:0:1024:1024 {most}\n");
        assert_eq!(decode(header.as_bytes()).unwrap(), None);
    }

    #[test]
    fn keyframe_covers_wall_and_reassembles() {
        let grid = TileGrid::new(3, 2, 8, 4);
        let wall = gradient(24, 8);
        let mut enc = TileStreamEncoder::new(grid);
        let frames = enc.keyframe(&wall);
        assert_eq!(frames.len(), 6);
        assert!(frames
            .iter()
            .all(|f| f.seq == 0 && f.kind == FrameKind::Key));
        let mut asm = TileAssembler::new(grid);
        for f in &frames {
            asm.apply(f).unwrap();
        }
        assert_eq!(asm.framebuffer(), &wall);
        assert_eq!(asm.keyframes(), 6);
    }

    #[test]
    fn delta_ships_only_damage_and_converges() {
        let grid = TileGrid::new(2, 2, 8, 8);
        let before = gradient(16, 16);
        let mut after = before.clone();
        after.fill_rect(6, 6, 5, 5, Rgb::new(200, 0, 0)); // crosses all 4 tiles

        let mut enc = TileStreamEncoder::new(grid);
        let mut asm = TileAssembler::new(grid);
        for f in enc.keyframe(&before) {
            asm.apply(&f).unwrap();
        }
        let tiles = tile_damage(&grid, &[vp(6, 6, 5, 5)]);
        assert_eq!(tiles.len(), 4, "damage crosses four tiles");
        let frames = enc.delta(&after, &tiles);
        let shipped: usize = frames.iter().map(|f| f.payload.len()).sum();
        assert!(shipped < after.bytes().len() / 4, "delta should be small");
        for f in &frames {
            assert_eq!(f.seq, 1);
            asm.apply(f).unwrap();
        }
        assert_eq!(asm.framebuffer(), &after);
    }

    #[test]
    fn empty_damage_burns_no_seq() {
        let grid = TileGrid::new(1, 1, 4, 4);
        let wall = gradient(4, 4);
        let mut enc = TileStreamEncoder::new(grid);
        assert!(enc.delta(&wall, &[]).is_empty());
        assert_eq!(enc.next_seq(), 0);
    }

    #[test]
    fn tile_damage_clips_to_wall() {
        let grid = TileGrid::new(2, 1, 4, 4);
        let tiles = tile_damage(&grid, &[vp(6, 2, 100, 100)]);
        assert_eq!(tiles, vec![(1, vp(6, 2, 2, 2))]);
        assert!(tile_damage(&grid, &[vp(50, 50, 3, 3)]).is_empty());
    }

    #[test]
    fn assembler_rejects_bad_frames() {
        let grid = TileGrid::new(2, 1, 4, 4);
        let mut asm = TileAssembler::new(grid);
        let escape = TileFrame {
            seq: 0,
            kind: FrameKind::Delta,
            tile: 0,
            rect: vp(2, 0, 4, 2), // spills into tile 1
            payload: vec![134, 0, 0, 0],
        };
        assert!(asm.apply(&escape).is_err());
        let oob = TileFrame {
            seq: 0,
            kind: FrameKind::Key,
            tile: 9,
            rect: vp(0, 0, 1, 1),
            payload: vec![0; 4],
        };
        assert!(asm.apply(&oob).is_err());
        let wraps = TileFrame {
            tile: 0,
            rect: vp(usize::MAX, 0, 2, 1),
            ..oob.clone()
        };
        assert!(asm.apply(&wraps).is_err());
        // A payload short of its rect, past it, or cut inside a run
        // paints nothing.
        for payload in [vec![129, 9, 9, 9], vec![131, 9, 9, 9], vec![1, 9, 9, 9]] {
            let short = TileFrame {
                tile: 0,
                rect: vp(0, 0, 2, 2),
                payload,
                ..oob.clone()
            };
            assert!(asm.apply(&short).is_err());
        }
        assert_eq!(asm.framebuffer(), &Framebuffer::new(8, 4));
        assert_eq!(asm.frames(), 0);
    }

    #[test]
    fn assembler_rejects_seq_regression() {
        let grid = TileGrid::new(1, 1, 2, 2);
        let wall = gradient(2, 2);
        let mut enc = TileStreamEncoder::new(grid);
        let mut asm = TileAssembler::new(grid);
        let k0 = enc.keyframe(&wall);
        let k1 = enc.keyframe(&wall);
        asm.apply(&k1[0]).unwrap();
        assert!(asm.apply(&k0[0]).is_err());
    }
}
