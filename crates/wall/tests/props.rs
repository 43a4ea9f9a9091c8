//! Property-based tests for the wall simulator: damage merging never loses
//! coverage and stays bounded, tile geometry round-trips, and the
//! fv-stream tile-frame codec is an exact encode/decode inverse.

use fv_render::{Framebuffer, Rgb};
use fv_wall::damage::DamageTracker;
use fv_wall::stream::{
    decode, max_payload_len, FrameKind, TileAssembler, TileFrame, TileStreamEncoder,
};
use fv_wall::tile::{TileGrid, Viewport};
use proptest::prelude::*;

prop_compose! {
    fn arb_rect()(
        x in 0usize..200,
        y in 0usize..200,
        w in 1usize..40,
        h in 1usize..40,
    ) -> Viewport {
        Viewport { x, y, w, h }
    }
}

prop_compose! {
    fn arb_grid()(
        tiles_x in 1usize..7,
        tiles_y in 1usize..5,
        tile_w in 1usize..40,
        tile_h in 1usize..40,
    ) -> TileGrid {
        TileGrid::new(tiles_x, tiles_y, tile_w, tile_h)
    }
}

/// xorshift64 step, for payload bytes the proptest shim need not draw
/// one by one.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A `w`×`h` surface painted in runs whose lengths straddle the codec's
/// limits (1, 2, 128, 129, 130 …), each of a colour drawn from `colours`
/// (1 paints one colour, 0 a fresh random colour per run).
fn runs_surface(w: usize, h: usize, colours: u64, seed: u64) -> Framebuffer {
    let mut s = seed | 1;
    let mut bytes = Vec::with_capacity(w * h * 3);
    while bytes.len() < w * h * 3 {
        let len = [1, 1, 1, 2, 3, 5, 127, 128, 129, 130, 258, 259][(next(&mut s) % 12) as usize];
        let c = match colours {
            0 => next(&mut s),
            n => next(&mut s) % n * 0x0101_0101,
        };
        for _ in 0..len {
            bytes.extend_from_slice(&c.to_le_bytes()[..3]);
        }
    }
    bytes.truncate(w * h * 3);
    let mut fb = Framebuffer::new(w, h);
    fb.write_rect(0, 0, w, h, &bytes);
    fb
}

/// The one key frame of a one-tile wall holding `fb`.
fn key_of(fb: &Framebuffer) -> TileFrame {
    let grid = TileGrid::new(1, 1, fb.width(), fb.height());
    let mut frames = TileStreamEncoder::new(grid).keyframe(fb);
    frames.pop().expect("one tile, one frame")
}

/// A `w`×`h` surface whose pixels all differ from their neighbours.
fn no_two_equal(w: usize, h: usize) -> Framebuffer {
    let mut fb = Framebuffer::new(w, h);
    for i in 0..w * h {
        fb.put(
            (i % w) as i64,
            (i / w) as i64,
            Rgb::new(i as u8, (i >> 8) as u8, 1),
        );
    }
    fb
}

/// Decode `wire` as one whole frame.
fn decode_whole(wire: &[u8]) -> Result<TileFrame, String> {
    match decode(wire) {
        Ok(Some((frame, used))) if used == wire.len() => Ok(frame),
        Ok(other) => Err(format!("not one whole frame: {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

prop_compose! {
    fn arb_frame()(
        seq in any::<u64>(),
        key in any::<bool>(),
        tile in 0usize..64,
        x in 0usize..5000,
        y in 0usize..5000,
        w in 1usize..32,
        h in 1usize..32,
        colours in 0u64..5,
        seed in any::<u64>(),
    ) -> TileFrame {
        let frame = key_of(&runs_surface(w, h, colours, seed));
        TileFrame {
            seq,
            kind: if key { FrameKind::Key } else { FrameKind::Delta },
            tile,
            rect: Viewport { x, y, w, h },
            ..frame
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn damage_merge_never_loses_coverage(rects in prop::collection::vec(arb_rect(), 1..80)) {
        let mut t = DamageTracker::new();
        for r in &rects {
            t.add(*r);
        }
        // Every input corner pixel (cheap proxy for every input pixel) is
        // still covered by some tracked rect.
        for r in &rects {
            for &(px, py) in &[
                (r.x, r.y),
                (r.x + r.w - 1, r.y),
                (r.x, r.y + r.h - 1),
                (r.x + r.w - 1, r.y + r.h - 1),
            ] {
                prop_assert!(
                    t.rects().iter().any(|d| d.contains(px, py)),
                    "pixel ({px},{py}) lost after merging {} rects",
                    rects.len()
                );
            }
        }
        // The merge loop terminated (we got here) and stayed bounded.
        prop_assert!(t.rects().len() <= DamageTracker::MAX_RECTS);
        prop_assert!(t.rects().len() <= rects.len());
        // Tracked rects are pairwise non-touching, else a merge was missed.
        let tracked = t.rects();
        for i in 0..tracked.len() {
            for j in (i + 1)..tracked.len() {
                let a = &tracked[i];
                let b = &tracked[j];
                let touches = a.x <= b.x + b.w
                    && b.x <= a.x + a.w
                    && a.y <= b.y + b.h
                    && b.y <= a.y + a.h;
                prop_assert!(!touches, "tracked rects {i} and {j} still touch");
            }
        }
    }

    #[test]
    fn tile_at_inverts_tile_viewport(grid in arb_grid(), seed in any::<u64>()) {
        for i in 0..grid.n_tiles() {
            let vp = grid.tile_viewport_linear(i);
            // Any pixel of the viewport maps back to the same tile.
            let px = vp.x + (seed as usize) % vp.w;
            let py = vp.y + (seed as usize / 7) % vp.h;
            let (tx, ty) = grid.tile_at(px, py).expect("viewport pixel inside wall");
            prop_assert_eq!(ty * grid.tiles_x + tx, i);
            prop_assert_eq!(grid.tile_viewport(tx, ty), vp);
        }
        prop_assert!(grid.tile_at(grid.wall_width(), 0).is_none());
        prop_assert!(grid.tile_at(0, grid.wall_height()).is_none());
    }

    #[test]
    fn tile_frame_encode_decode_roundtrip(frame in arb_frame(), split in any::<u64>()) {
        let wire = frame.encode();
        prop_assert_eq!(frame.encoded_len(), wire.len());
        let (back, used) = decode(&wire)
            .expect("well-formed frame decodes")
            .expect("complete frame decodes");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(&back, &frame);
        // Any strict prefix is incomplete, never an error.
        let cut = (split as usize) % wire.len();
        prop_assert_eq!(decode(&wire[..cut]).expect("prefix is not an error"), None);
        // Two frames back to back decode independently.
        let mut twice = wire.clone();
        twice.extend_from_slice(&wire);
        let (first, used) = decode(&twice).unwrap().unwrap();
        prop_assert_eq!(&first, &frame);
        let (second, used2) = decode(&twice[used..]).unwrap().unwrap();
        prop_assert_eq!(&second, &frame);
        prop_assert_eq!(used + used2, twice.len());
    }

    /// The counted length equals the written one where a field gains a
    /// digit, and at the largest values each field holds.
    #[test]
    fn encoded_len_counts_every_digit(
        seq in 0usize..8,
        tile in 0usize..8,
        (x, y) in (0usize..8, 0usize..8),
        (w, h) in (0usize..8, 0usize..8),
        payload in 0usize..7,
    ) {
        let at = |i: usize| [0, 9, 10, 99, 100, 999_999, 1_000_000, usize::MAX][i];
        let frame = TileFrame {
            seq: [0, 9, 10, 99, 100, 12_345_678_901, u64::MAX - 1, u64::MAX][seq],
            kind: if tile % 2 == 0 { FrameKind::Key } else { FrameKind::Delta },
            tile: at(tile),
            rect: Viewport { x: at(x), y: at(y), w: at(w), h: at(h) },
            payload: vec![7; at(payload)],
        };
        prop_assert_eq!(frame.encoded_len(), frame.encode().len());
    }

    /// Every rect of a wall, cut as a delta from random runs and
    /// unpacked over a keyframe of another wall, lands exactly.
    #[test]
    fn any_rect_packs_and_unpacks_exactly(
        (w, h) in (1usize..300, 1usize..12),
        rect in arb_rect(),
        colours in 0u64..5,
        seed in any::<u64>(),
    ) {
        let (before, after) = (runs_surface(w, h, colours, seed), runs_surface(w, h, colours, !seed));
        let Some(rect) = rect.intersect(&Viewport { x: 0, y: 0, w, h }) else {
            return Ok(());
        };
        let grid = TileGrid::new(1, 1, w, h);
        let (mut encoder, mut wall) = (TileStreamEncoder::new(grid), TileAssembler::new(grid));
        let mut frames = encoder.keyframe(&before);
        frames.extend(encoder.delta(&after, &[(0, rect)]));
        for frame in &frames {
            let wire = frame.encode();
            prop_assert_eq!(frame.encoded_len(), wire.len());
            prop_assert!(frame.payload.len() <= max_payload_len(frame.rect.area()).unwrap());
            let back = decode_whole(&wire).expect("a packed frame decodes");
            prop_assert_eq!(&back, frame);
            wall.apply(&back).expect("a decoded frame applies");
        }
        let mut want = before.clone();
        want.write_rect(rect.x, rect.y, rect.w, rect.h, after.crop(rect.x, rect.y, rect.w, rect.h).bytes());
        prop_assert_eq!(wall.framebuffer(), &want);
    }
}

#[test]
fn no_two_equal_neighbours_is_the_bound_exactly() {
    for (w, h) in [(1, 1), (128, 1), (129, 1), (7, 37), (300, 5)] {
        let fb = no_two_equal(w, h);
        let frame = key_of(&fb);
        assert_eq!(Some(frame.payload.len()), max_payload_len(w * h), "{w}x{h}");
        let mut wall = TileAssembler::new(TileGrid::new(1, 1, w, h));
        wall.apply(&decode_whole(&frame.encode()).unwrap()).unwrap();
        assert_eq!(wall.framebuffer(), &fb);
    }
}

#[test]
fn runs_at_the_codec_limits_pack_to_their_control_bytes() {
    let (a, b) = (Rgb::new(1, 2, 3), Rgb::new(9, 8, 7));
    for (len, payload) in [
        (1, vec![1, 1, 2, 3, 9, 8, 7]),
        (2, vec![128, 1, 2, 3, 0, 9, 8, 7]),
        (128, vec![254, 1, 2, 3, 0, 9, 8, 7]),
        (129, vec![255, 1, 2, 3, 0, 9, 8, 7]),
        (130, vec![255, 1, 2, 3, 1, 1, 2, 3, 9, 8, 7]),
    ] {
        // `len` pixels of `a`, then one of `b`
        let mut line = Framebuffer::filled(len + 1, 1, b);
        line.fill_rect(0, 0, len, 1, a);
        let frame = key_of(&line);
        assert_eq!(frame.payload, payload, "a run of {len}");
        let mut wall = TileAssembler::new(TileGrid::new(1, 1, len + 1, 1));
        wall.apply(&decode_whole(&frame.encode()).unwrap()).unwrap();
        assert_eq!(wall.framebuffer(), &line);
    }
    // Runs and literal blocks carry on across row ends.
    assert_eq!(
        key_of(&Framebuffer::filled(7, 3, a)).payload,
        [147, 1, 2, 3]
    );
    assert_eq!(key_of(&no_two_equal(5, 3)).payload[0], 14);
    // a one-colour tile: one repeat per 129 pixels
    let frame = key_of(&Framebuffer::filled(320, 480, a));
    assert_eq!(frame.payload.len(), 320_usize * 480 / 129 * 4 + 4);
}

#[test]
fn a_payload_must_fill_its_rect_exactly() {
    let frame = |rect: &str, payload: &[u8]| {
        let mut wire = format!("tile 0 key 0 {rect} {}\n", payload.len()).into_bytes();
        wire.extend_from_slice(payload);
        decode_whole(&wire)
    };
    assert!(frame("0:0:2:1", &[128, 5, 5, 5]).is_ok());
    // under-fills: one pixel of two, or three of four across rows
    assert!(frame("0:0:2:1", &[0, 5, 5, 5]).is_err());
    assert!(frame("0:0:2:2", &[129, 5, 5, 5]).is_err());
    // over-fills: three pixels into two
    assert!(frame("0:0:2:1", &[129, 5, 5, 5]).is_err());
    assert!(frame("0:0:2:1", &[0, 5, 5, 5, 128, 6, 6, 6]).is_err());
    // a control byte whose run overruns the payload
    assert!(frame("0:0:2:1", &[1, 5, 5, 5]).is_err());
    assert!(frame("0:0:2:1", &[128, 5]).is_err());
    // an `nbytes` past the codec bound (7 bytes for two pixels) is
    // refused from its header alone
    assert_eq!(max_payload_len(2), Some(7));
    let header = decode(b"tile 0 key 0 0:0:2:1 8\n");
    assert!(header.is_err());
    assert_eq!(decode(b"tile 0 key 0 0:0:2:1 7\n").unwrap(), None);
}
