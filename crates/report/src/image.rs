//! Grayscale image output (binary PGM) for the figure commands.
//!
//! The paper's Figs. 1, 3, 5 and 7 are field visualizations; `pvs fig1/3/5/7`
//! render their ASCII form to stdout and, with `--pgm` and this module,
//! also write portable graymap files any image viewer opens.

use std::io::Write;
use std::path::Path;

/// Render a scalar field to 8-bit grayscale bytes (min → black,
/// max → white).
pub fn to_gray(field: &[f64]) -> Vec<u8> {
    let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-300);
    field
        .iter()
        .map(|&v| (((v - lo) / span) * 255.0).round().clamp(0.0, 255.0) as u8)
        .collect()
}

/// Encode an `nx × ny` field as a binary PGM (P5) byte stream.
pub fn encode_pgm(field: &[f64], nx: usize, ny: usize) -> Vec<u8> {
    assert_eq!(field.len(), nx * ny, "field dimensions");
    let mut out = format!("P5\n{nx} {ny}\n255\n").into_bytes();
    out.extend(to_gray(field));
    out
}

/// Write an `nx × ny` field as a PGM file.
pub fn save_pgm(
    field: &[f64],
    nx: usize,
    ny: usize,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    let bytes = encode_pgm(field, nx, ny);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)
}

/// Upscale a field by integer factor `k` (nearest neighbour) so small
/// simulation grids produce viewable images.
pub fn upscale(field: &[f64], nx: usize, ny: usize, k: usize) -> (Vec<f64>, usize, usize) {
    assert_eq!(field.len(), nx * ny);
    assert!(k >= 1);
    let (mx, my) = (nx * k, ny * k);
    let mut out = vec![0.0; mx * my];
    for y in 0..my {
        for x in 0..mx {
            out[y * mx + x] = field[(y / k) * nx + (x / k)];
        }
    }
    (out, mx, my)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_mapping_covers_full_range() {
        let g = to_gray(&[0.0, 0.5, 1.0]);
        assert_eq!(g, vec![0, 128, 255]);
    }

    #[test]
    fn constant_field_does_not_divide_by_zero() {
        let g = to_gray(&[3.0, 3.0]);
        assert_eq!(g.len(), 2);
        assert!(g.iter().all(|&v| v == 0));
    }

    #[test]
    fn pgm_header_and_payload() {
        let bytes = encode_pgm(&[0.0, 1.0, 0.25, 0.75], 2, 2);
        let header_end = bytes
            .windows(4)
            .position(|w| w == b"255\n")
            .expect("header")
            + 4;
        assert_eq!(&bytes[..3], b"P5\n");
        assert_eq!(bytes.len() - header_end, 4, "one byte per pixel");
    }

    #[test]
    fn upscale_replicates_pixels() {
        let (big, mx, my) = upscale(&[1.0, 2.0, 3.0, 4.0], 2, 2, 3);
        assert_eq!((mx, my), (6, 6));
        assert_eq!(big[0], 1.0);
        assert_eq!(big[2], 1.0);
        assert_eq!(big[3], 2.0);
        assert_eq!(big[5 * 6 + 5], 4.0);
    }

    #[test]
    fn save_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pvs_pgm_test_{}.pgm", std::process::id()));
        save_pgm(&[0.0, 0.5, 0.5, 1.0], 2, 2, &dir).expect("write");
        let read = std::fs::read(&dir).expect("read");
        assert_eq!(read, encode_pgm(&[0.0, 0.5, 0.5, 1.0], 2, 2));
        let _ = std::fs::remove_file(dir);
    }
}
