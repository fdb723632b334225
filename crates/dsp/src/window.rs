//! Window functions for spectral analysis and FIR design.

use std::f64::consts::PI;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// All-ones window (no tapering).
    Rectangular,
    /// Hann window: good general-purpose spectral leakage suppression.
    Hann,
    /// Hamming window: classic FIR-design window (~53 dB sidelobes).
    Hamming,
    /// Blackman window: heavy sidelobe suppression (~74 dB), wider mainlobe.
    Blackman,
}

impl Window {
    /// Evaluate the window at sample `n` of `len` (symmetric convention).
    ///
    /// Returns 1.0 everywhere for `len < 2` to avoid division by zero.
    // lint: unitless window coefficient in [0, 1]
    pub fn coefficient(self, n: usize, len: usize) -> f64 {
        if len < 2 {
            return 1.0;
        }
        let x = n as f64 / (len - 1) as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            Window::Blackman => {
                0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos()
            }
        }
    }

    /// Generate the full window as a vector of length `len`.
    // lint: allow(dead-pub) test-oracle windows_bounded_and_symmetric window shape property over every length
    pub fn generate(self, len: usize) -> Vec<f64> {
        (0..len).map(|n| self.coefficient(n, len)).collect()
    }

    /// Coherent gain of the window (mean of its coefficients), used to
    /// normalise spectral amplitudes.
    #[cfg(test)]
    pub(crate) fn coherent_gain(self, len: usize) -> f64 {
        if len == 0 {
            return 1.0;
        }
        self.generate(len).iter().sum::<f64>() / len as f64
    }
}

/// Multiply a signal by a window in place. Panics if lengths differ.
pub fn apply(signal: &mut [f64], window: &[f64]) {
    assert_eq!(
        signal.len(),
        window.len(),
        "signal and window must have equal length"
    );
    for (s, w) in signal.iter_mut().zip(window) {
        *s *= w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_is_zero_at_edges_and_one_at_center() {
        let w = Window::Hann.generate(65);
        assert!(w[0].abs() < 1e-12);
        assert!(w[64].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_edges_are_nonzero() {
        let w = Window::Hamming.generate(33);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[32] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn blackman_is_symmetric() {
        let w = Window::Blackman.generate(101);
        for i in 0..50 {
            assert!((w[i] - w[100 - i]).abs() < 1e-12, "asymmetry at {i}");
        }
    }

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular.generate(10).iter().all(|&x| x == 1.0));
    }

    #[test]
    fn coherent_gain_of_rect_is_one() {
        assert!((Window::Rectangular.coherent_gain(100) - 1.0).abs() < 1e-12);
        // Hann coherent gain tends to 0.5 for long windows.
        assert!((Window::Hann.coherent_gain(4096) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn degenerate_lengths_do_not_panic() {
        assert_eq!(Window::Hann.coefficient(0, 0), 1.0);
        assert_eq!(Window::Hann.coefficient(0, 1), 1.0);
        assert_eq!(Window::Blackman.generate(1), vec![1.0]);
    }

    #[test]
    fn apply_multiplies_elementwise() {
        let mut s = vec![2.0, 2.0, 2.0];
        apply(&mut s, &[0.0, 0.5, 1.0]);
        assert_eq!(s, vec![0.0, 1.0, 2.0]);
    }
}
