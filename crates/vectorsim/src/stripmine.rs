//! Strip-mining arithmetic: how a loop of `n` iterations is chopped into
//! vector-length-sized chunks, and what AVL that produces.

/// Number of vector instructions needed to cover `n` iterations at maximum
/// vector length `vl` (zero for an empty loop).
pub fn num_strips(n: usize, vl: usize) -> usize {
    assert!(vl >= 1);
    n.div_ceil(vl)
}

/// Average vector length over the strips covering `n` iterations — exactly
/// the AVL a hardware counter reports for this loop (elements processed per
/// vector instruction issued).
pub fn average_vector_length(n: usize, vl: usize) -> f64 {
    let strips = num_strips(n, vl);
    if strips == 0 {
        0.0
    } else {
        n as f64 / strips as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple() {
        assert_eq!(num_strips(512, 256), 2);
        assert_eq!(average_vector_length(512, 256), 256.0);
    }

    #[test]
    fn remainder_strip() {
        assert_eq!(num_strips(300, 256), 2);
        assert!((average_vector_length(300, 256) - 150.0).abs() < 1e-12);
    }

    #[test]
    fn short_loop_single_strip() {
        assert_eq!(num_strips(10, 256), 1);
        assert_eq!(average_vector_length(10, 256), 10.0);
    }

    #[test]
    fn empty_loop() {
        assert_eq!(num_strips(0, 64), 0);
        assert_eq!(average_vector_length(0, 64), 0.0);
    }

    #[test]
    fn paper_cactus_avl_values() {
        // Table 5 discussion: AVL 248 for x-dimension 250, AVL ~92 for 80
        // after accounting for two ghost cells — here we check the raw
        // strip-mining relationship that drives it: 250 iterations on the ES
        // splits as 250 (<=256, one strip).
        assert_eq!(average_vector_length(250, 256), 250.0);
        assert_eq!(average_vector_length(80, 256), 80.0);
        // On the X1 (VL=64): 250 -> 62.5, 80 -> 40.
        assert!((average_vector_length(250, 64) - 62.5).abs() < 1e-12);
        assert!((average_vector_length(80, 64) - 40.0).abs() < 1e-12);
    }
}
