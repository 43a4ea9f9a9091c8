//! Image encoding: a binary PPM (P6) writer, plus a PPM decoder used by
//! tests and examples to verify artifacts.

use crate::color::Rgb;
use crate::framebuffer::Framebuffer;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// Errors from image decoding.
#[derive(Debug)]
pub enum ImageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a valid P6 PPM.
    BadFormat(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Io(e) => write!(f, "i/o error: {e}"),
            ImageError::BadFormat(m) => write!(f, "bad image format: {m}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<io::Error> for ImageError {
    fn from(e: io::Error) -> Self {
        ImageError::Io(e)
    }
}

/// Encode as binary PPM (P6).
pub fn encode_ppm(fb: &Framebuffer) -> Vec<u8> {
    let header = format!("P6\n{} {}\n255\n", fb.width(), fb.height());
    let mut out = Vec::with_capacity(header.len() + fb.bytes().len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(fb.bytes());
    out
}

/// Write a PPM file.
pub fn write_ppm(fb: &Framebuffer, path: impl AsRef<Path>) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&encode_ppm(fb))
}

/// Decode a binary PPM (P6) produced by [`encode_ppm`].
pub fn decode_ppm(bytes: &[u8]) -> Result<Framebuffer, ImageError> {
    // Parse "P6\n<w> <h>\n255\n" allowing arbitrary whitespace and comments.
    let mut pos = 0usize;
    let mut token = |bytes: &[u8]| -> Result<String, ImageError> {
        // skip whitespace and comments
        loop {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < bytes.len() && bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
                continue;
            }
            break;
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err(ImageError::BadFormat("unexpected end of header".into()));
        }
        Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
    };

    let magic = token(bytes)?;
    if magic != "P6" {
        return Err(ImageError::BadFormat(format!("magic {magic:?}, want P6")));
    }
    let w: usize = token(bytes)?
        .parse()
        .map_err(|_| ImageError::BadFormat("bad width".into()))?;
    let h: usize = token(bytes)?
        .parse()
        .map_err(|_| ImageError::BadFormat("bad height".into()))?;
    let maxval: usize = token(bytes)?
        .parse()
        .map_err(|_| ImageError::BadFormat("bad maxval".into()))?;
    if maxval != 255 {
        return Err(ImageError::BadFormat(format!("maxval {maxval}, want 255")));
    }
    // Exactly one whitespace byte separates header from pixel data.
    pos += 1;
    let need = w * h * 3;
    if bytes.len() < pos + need {
        return Err(ImageError::BadFormat(format!(
            "pixel data truncated: need {need}, have {}",
            bytes.len().saturating_sub(pos)
        )));
    }
    let mut fb = Framebuffer::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let i = pos + (y * w + x) * 3;
            fb.put(
                x as i64,
                y as i64,
                Rgb::new(bytes[i], bytes[i + 1], bytes[i + 2]),
            );
        }
    }
    Ok(fb)
}

/// Read a PPM file.
pub fn read_ppm(path: impl AsRef<Path>) -> Result<Framebuffer, ImageError> {
    let bytes = std::fs::read(path)?;
    decode_ppm(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Framebuffer {
        let mut fb = Framebuffer::new(3, 2);
        fb.put(0, 0, Rgb::RED);
        fb.put(1, 0, Rgb::GREEN);
        fb.put(2, 0, Rgb::BLUE);
        fb.put(0, 1, Rgb::WHITE);
        fb.put(2, 1, Rgb::new(1, 2, 3));
        fb
    }

    #[test]
    fn ppm_roundtrip() {
        let fb = sample();
        let bytes = encode_ppm(&fb);
        let back = decode_ppm(&bytes).unwrap();
        assert_eq!(back, fb);
    }

    #[test]
    fn ppm_header_shape() {
        let fb = Framebuffer::new(7, 5);
        let bytes = encode_ppm(&fb);
        assert!(bytes.starts_with(b"P6\n7 5\n255\n"));
        assert_eq!(bytes.len(), 11 + 7 * 5 * 3);
    }

    #[test]
    fn ppm_decode_with_comment() {
        let mut input = b"P6\n# a comment\n2 1\n255\n".to_vec();
        input.extend_from_slice(&[255, 0, 0, 0, 255, 0]);
        let fb = decode_ppm(&input).unwrap();
        assert_eq!(fb.get(0, 0), Some(Rgb::RED));
        assert_eq!(fb.get(1, 0), Some(Rgb::GREEN));
    }

    #[test]
    fn ppm_decode_rejects_bad_magic() {
        assert!(matches!(
            decode_ppm(b"P3\n1 1\n255\n   "),
            Err(ImageError::BadFormat(_))
        ));
    }

    #[test]
    fn ppm_decode_rejects_truncation() {
        let input = b"P6\n4 4\n255\nxx".to_vec();
        assert!(matches!(decode_ppm(&input), Err(ImageError::BadFormat(_))));
    }

    #[test]
    fn ppm_file_roundtrip() {
        let dir = std::env::temp_dir().join("fv_render_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ppm");
        let fb = sample();
        write_ppm(&fb, &path).unwrap();
        let back = read_ppm(&path).unwrap();
        assert_eq!(back, fb);
        std::fs::remove_file(&path).ok();
    }
}
