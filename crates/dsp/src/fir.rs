//! FIR filters: windowed-sinc design, streaming convolution, matched
//! filtering, and moving averages.

use crate::window::Window;
use crate::DspError;
use std::f64::consts::PI;

/// A finite-impulse-response filter defined by its taps.
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Build directly from taps. Errors on an empty tap vector.
    fn from_taps(taps: Vec<f64>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::InvalidOrder(0));
        }
        Ok(Fir { taps })
    }

    /// The filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples (taps are symmetric for all designs here).
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Windowed-sinc low-pass design with `num_taps` taps (forced odd) and
    /// cutoff `cutoff_hz`.
    pub fn lowpass(
        num_taps: usize,
        cutoff_hz: f64,
        fs_hz: f64,
        window: Window,
    ) -> Result<Self, DspError> {
        if num_taps < 3 {
            return Err(DspError::InvalidOrder(num_taps));
        }
        if !(fs_hz > 0.0) {
            return Err(DspError::InvalidParameter("fs_hz must be positive"));
        }
        if !(cutoff_hz > 0.0 && cutoff_hz < fs_hz / 2.0) {
            return Err(DspError::FrequencyOutOfRange {
                frequency_hz: cutoff_hz,
                nyquist_hz: fs_hz / 2.0,
            });
        }
        let n = if num_taps.is_multiple_of(2) { num_taps + 1 } else { num_taps };
        let fc = cutoff_hz / fs_hz;
        let mid = (n - 1) as f64 / 2.0;
        let mut taps: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 - mid;
                let sinc = if x == 0.0 {
                    2.0 * fc
                } else {
                    (2.0 * PI * fc * x).sin() / (PI * x)
                };
                sinc * window.coefficient(i, n)
            })
            .collect();
        // Normalise to unity DC gain.
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Ok(Fir { taps })
    }

    /// Full convolution filtering, output length = input length ("same"
    /// alignment: `output[i]` uses input ending at `i`; i.e. causal filter):
    /// `y[i] = Σ_k taps[k]·x[i−k]` over ascending `k ≤ i`, the direct
    /// O(N·M) loop.
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let m = self.taps.len();
        let mut y = vec![0.0; x.len()];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            let kmax = m.min(i + 1);
            for k in 0..kmax {
                // lint: allow(panic-path) k < kmax = m.min(i+1), so i-k >= 0
                acc += self.taps[k] * x[i - k];
            }
            *yi = acc;
        }
        y
    }

    /// Complex-input filtering with the same "same"-causal alignment and
    /// summation order as [`Fir::filter`]. Because the taps are real, this
    /// equals filtering the real and imaginary parts independently,
    /// without splitting the buffer into two temporaries.
    // lint: allow(dead-pub) test-oracle decim_oracle_complex complex oracle for the polyphase decimator
    pub fn filter_complex(&self, x: &[num_complex::Complex64]) -> Vec<num_complex::Complex64> {
        let m = self.taps.len();
        let mut y = vec![num_complex::Complex64::new(0.0, 0.0); x.len()];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = num_complex::Complex64::new(0.0, 0.0);
            let kmax = m.min(i + 1);
            for k in 0..kmax {
                // lint: allow(panic-path) k < kmax = m.min(i+1), so i-k >= 0
                acc += x[i - k] * self.taps[k];
            }
            *yi = acc;
        }
        y
    }
}

/// Windowed FIR Hilbert transformer: output approximates the 90°-shifted
/// (quadrature) version of the input, delayed by the filter's group delay.
///
/// Used to apply *complex* reflection gains to real narrowband carriers:
/// `Re{G · (x + j x̂)} = Re(G)·x − Im(G)·x̂`.
pub fn hilbert(num_taps: usize, window: Window) -> Result<Fir, DspError> {
    if num_taps < 3 {
        return Err(DspError::InvalidOrder(num_taps));
    }
    let n = if num_taps.is_multiple_of(2) { num_taps + 1 } else { num_taps };
    let mid = (n - 1) / 2;
    let taps: Vec<f64> = (0..n)
        .map(|i| {
            let k = i as i64 - mid as i64;
            if k % 2 == 0 {
                0.0
            } else {
                2.0 / (PI * k as f64) * window.coefficient(i, n)
            }
        })
        .collect();
    Fir::from_taps(taps)
}

/// Outputs per register tile of [`FoldedHilbert::filter`]: eight
/// independent accumulators, so the tap sum runs across outputs rather
/// than down one serial add chain.
const HILBERT_LANES: usize = 8;

/// A [`hilbert`] design run in folded form. Its taps vanish at even
/// offsets from the centre `c` and are antisymmetric about it, so the
/// causal output of [`Fir::filter`] is
/// `y[i] = Σ_j h_j·(x[i−c−j] − x[i−c+j])` over odd `j ≤ c`, where `h_j`
/// is the tap at `c + j` and `x` is zero before its first sample: one
/// multiply per tap pair (32 for the node's 127 taps), and no transform.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedHilbert {
    /// `h_j` for `j = 1, 3, 5, …`, up to the centre offset.
    half: Vec<f64>,
    /// The centre tap index, which is also the group delay.
    centre: usize,
}

impl FoldedHilbert {
    /// Fold the `num_taps` [`hilbert`] design.
    pub fn new(num_taps: usize, window: Window) -> Result<Self, DspError> {
        let fir = hilbert(num_taps, window)?;
        let centre = fir.group_delay();
        let half = fir.taps()[centre + 1..]
            .iter()
            .step_by(2)
            .copied()
            .collect();
        Ok(FoldedHilbert { half, centre })
    }

    /// Group delay in samples (the centre tap index).
    pub fn group_delay(&self) -> usize {
        self.centre
    }

    /// The quadrature of `x` into a caller-owned buffer, resized to
    /// `x.len()`: same length and alignment as [`Fir::filter`] on the
    /// unfolded design. Outputs from `2c` on, where every tap pair reads
    /// inside `x`, run in tiles of eight; the rest take the zero-padded
    /// scalar form. Both sum the pairs in the same order, so an output's
    /// bits do not depend on which path computed it. Every output is
    /// written, so `y`'s old contents are never read.
    pub fn filter_into(&self, x: &[f64], y: &mut Vec<f64>) {
        y.truncate(x.len());
        y.resize(x.len(), 0.0);
        let c = self.centre;
        let edge = (2 * c).min(x.len());
        let (head, body) = y.split_at_mut(edge);
        for (i, yi) in head.iter_mut().enumerate() {
            *yi = self.output_at(x, i);
        }
        let mut tiles = body.chunks_exact_mut(HILBERT_LANES);
        for (t, tile) in tiles.by_ref().enumerate() {
            let start = edge + t * HILBERT_LANES;
            let mut acc = [0.0; HILBERT_LANES];
            for (k, &h) in self.half.iter().enumerate() {
                let j = 2 * k + 1;
                // lint: allow(panic-path) start >= 2c >= c + j
                let early = &x[start - c - j..][..HILBERT_LANES];
                // lint: allow(panic-path) j <= c, so start - c + j + LANES <= start + LANES <= x.len()
                let late = &x[start - c + j..][..HILBERT_LANES];
                for l in 0..HILBERT_LANES {
                    acc[l] += h * (early[l] - late[l]);
                }
            }
            tile.copy_from_slice(&acc);
        }
        let done = x.len() - tiles.into_remainder().len();
        for (i, yi) in y.iter_mut().enumerate().skip(done) {
            *yi = self.output_at(x, i);
        }
    }

    /// One output with `x` zero-padded before its start.
    fn output_at(&self, x: &[f64], i: usize) -> f64 {
        let at = |k: Option<usize>| k.and_then(|k| x.get(k)).copied().unwrap_or(0.0);
        let mut acc = 0.0;
        for (k, &h) in self.half.iter().enumerate() {
            let j = 2 * k + 1;
            acc += h * (at(i.checked_sub(self.centre + j)) - at((i + j).checked_sub(self.centre)));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::tone;
    use crate::stats::rms;

    impl Fir {
        /// Band-pass design by modulating a low-pass prototype to the band
        /// center.
        fn bandpass(
            num_taps: usize,
            low_hz: f64,
            high_hz: f64,
            fs_hz: f64,
            window: Window,
        ) -> Result<Self, DspError> {
            if !(low_hz < high_hz) {
                return Err(DspError::InvalidParameter("low_hz must be < high_hz"));
            }
            let half_bw = (high_hz - low_hz) / 2.0;
            let center = (high_hz + low_hz) / 2.0;
            let proto = Fir::lowpass(num_taps, half_bw, fs_hz, window)?;
            let n = proto.taps.len();
            let mid = (n - 1) as f64 / 2.0;
            let taps: Vec<f64> = proto
                .taps
                .iter()
                .enumerate()
                // Factor 2 restores unity passband gain after modulation.
                .map(|(i, &t)| 2.0 * t * (2.0 * PI * center / fs_hz * (i as f64 - mid)).cos())
                .collect();
            Ok(Fir { taps })
        }

        /// Magnitude response at `freq_hz`.
        fn magnitude_at(&self, freq_hz: f64, fs_hz: f64) -> f64 {
            let w = 2.0 * PI * freq_hz / fs_hz;
            let (mut re, mut im) = (0.0, 0.0);
            for (k, &t) in self.taps.iter().enumerate() {
                re += t * (w * k as f64).cos();
                im -= t * (w * k as f64).sin();
            }
            (re * re + im * im).sqrt()
        }
    }

    /// Moving-average filter output ("same" causal alignment) — a cheap
    /// integrate-and-dump stand-in used by bit-rate-flexible decoders.
    fn moving_average(x: &[f64], len: usize) -> Vec<f64> {
        assert!(len > 0, "window length must be positive");
        let mut y = vec![0.0; x.len()];
        let mut acc = 0.0;
        for i in 0..x.len() {
            acc += x[i];
            if i >= len {
                acc -= x[i - len];
            }
            y[i] = acc / len.min(i + 1) as f64;
        }
        y
    }

    #[test]
    fn lowpass_passes_dc_rejects_high() {
        let f = Fir::lowpass(101, 1_000.0, 48_000.0, Window::Hamming).unwrap();
        assert!((f.magnitude_at(0.0, 48_000.0) - 1.0).abs() < 1e-9);
        assert!(f.magnitude_at(10_000.0, 48_000.0) < 0.01);
    }

    #[test]
    fn even_tap_request_is_rounded_up_to_odd() {
        let f = Fir::lowpass(100, 1_000.0, 48_000.0, Window::Hamming).unwrap();
        assert_eq!(f.taps().len() % 2, 1);
    }

    #[test]
    fn bandpass_selects_band() {
        let f = Fir::bandpass(201, 14_000.0, 16_000.0, 192_000.0, Window::Hamming).unwrap();
        assert!(f.magnitude_at(15_000.0, 192_000.0) > 0.95);
        assert!(f.magnitude_at(10_000.0, 192_000.0) < 0.02);
        assert!(f.magnitude_at(20_000.0, 192_000.0) < 0.02);
    }

    #[test]
    fn filter_attenuates_stopband_signal() {
        let fs_hz = 48_000.0;
        let f = Fir::lowpass(101, 1_000.0, fs_hz, Window::Hamming).unwrap();
        let hi = tone(12_000.0, fs_hz, 0.0, 2000);
        let out = f.filter(&hi);
        assert!(rms(&out[200..]) < 5e-3);
    }

    #[test]
    fn fft_filter_matches_direct_loop() {
        // An independent algorithm for the same causal convolution: zero-pad
        // both sides past the full length, multiply spectra, invert, and
        // keep the first `n` outputs.
        use crate::fft::fft;
        use num_complex::Complex64;
        let f = Fir::lowpass(127, 1_000.0, 48_000.0, Window::Hamming).unwrap();
        let x: Vec<f64> = (0..6_000).map(|i| ((i * 17 + 3) % 29) as f64 - 14.0).collect();
        let len = (x.len() + f.taps().len() - 1).next_power_of_two();
        let padded = |v: &[f64]| {
            let mut c: Vec<Complex64> = v.iter().map(|&r| Complex64::new(r, 0.0)).collect();
            c.resize(len, Complex64::new(0.0, 0.0));
            fft(&c)
        };
        // The inverse transform as conj(fft(conj(·)))/len.
        let product: Vec<Complex64> = padded(&x)
            .iter()
            .zip(padded(f.taps()))
            .map(|(a, b)| (a * b).conj())
            .collect();
        let spectral: Vec<f64> = fft(&product).iter().map(|c| c.re / len as f64).collect();
        let dir = f.filter(&x);
        assert_eq!(dir.len(), x.len());
        for (a, b) in dir.iter().zip(&spectral) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_filter_matches_separate_re_im() {
        use num_complex::Complex64;
        let f = Fir::lowpass(127, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        let x: Vec<Complex64> = (0..5_000)
            .map(|i| Complex64::new(((i * 7) % 13) as f64 - 6.0, ((i * 11) % 17) as f64 - 8.0))
            .collect();
        let re: Vec<f64> = x.iter().map(|c| c.re).collect();
        let im: Vec<f64> = x.iter().map(|c| c.im).collect();
        let yre = f.filter(&re);
        let yim = f.filter(&im);
        let yc = f.filter_complex(&x);
        for ((c, &r), &i) in yc.iter().zip(&yre).zip(&yim) {
            assert_eq!(c.re.to_bits(), r.to_bits());
            assert_eq!(c.im.to_bits(), i.to_bits());
        }
    }

    #[test]
    fn moving_average_of_constant_is_constant() {
        let x = vec![3.0; 100];
        let y = moving_average(&x, 7);
        for &v in &y[7..] {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn moving_average_startup_uses_partial_window() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = moving_average(&x, 4);
        assert!((y[0] - 1.0).abs() < 1e-12);
        assert!((y[1] - 1.5).abs() < 1e-12);
        assert!((y[3] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_designs() {
        assert!(Fir::lowpass(1, 100.0, 1_000.0, Window::Hann).is_err());
        assert!(Fir::lowpass(11, 600.0, 1_000.0, Window::Hann).is_err());
        assert!(Fir::bandpass(11, 300.0, 200.0, 1_000.0, Window::Hann).is_err());
        assert!(Fir::from_taps(vec![]).is_err());
    }

    #[test]
    fn hilbert_shifts_tone_by_90_degrees() {
        let fs_hz = 48_000.0;
        let f = 2_000.0;
        let h = hilbert(127, Window::Hamming).unwrap();
        let x = tone(f, fs_hz, 0.0, 4800);
        let xh = h.filter(&x);
        let gd = h.group_delay();
        // sin shifted by -90° is -cos; compare past the transient, with
        // the group delay compensated.
        #[allow(clippy::needless_range_loop)] // index feeds the formula
        for i in 400..4000 {
            let expected = -((std::f64::consts::TAU * f / fs_hz) * (i - gd) as f64).cos();
            assert!((xh[i] - expected).abs() < 0.02, "at {i}: {} vs {expected}", xh[i]);
        }
    }

    #[test]
    fn hilbert_magnitude_is_unity_in_band() {
        let h = hilbert(127, Window::Hamming).unwrap();
        for f in [4_000.0, 10_000.0, 15_000.0, 18_000.0] {
            let m = h.magnitude_at(f, 192_000.0);
            assert!((m - 1.0).abs() < 0.02, "f={f} m={m}");
        }
    }

    impl FoldedHilbert {
        /// [`FoldedHilbert::filter_into`] into a fresh buffer.
        fn filter(&self, x: &[f64]) -> Vec<f64> {
            let mut y = Vec::new();
            self.filter_into(x, &mut y);
            y
        }
    }

    #[test]
    fn folded_hilbert_matches_the_direct_loop() {
        let fir = hilbert(127, Window::Hamming).unwrap();
        let folded = FoldedHilbert::new(127, Window::Hamming).unwrap();
        assert_eq!(folded.group_delay(), fir.group_delay());
        assert_eq!(folded.half.len(), 32);
        let h_norm = fir.taps().iter().map(|t| t * t).sum::<f64>().sqrt();
        // Around the 2c = 126 switch to tiles, and a long run of tiles
        // that ends in a partial one.
        for n in [0, 1, 62, 63, 64, 127, 128, 100_000] {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 37 + 11) % 101) as f64 - 50.0 + (i as f64 * 0.013).sin())
                .collect();
            let x_norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            let want = fir.filter(&x);
            let got = folded.filter(&x);
            assert_eq!(got.len(), n);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-12 * x_norm * h_norm,
                    "n {n} at {i}: {g} vs {w}"
                );
            }
            // Tiles and the zero-padded scalar form agree bitwise.
            for (i, g) in got.iter().enumerate().step_by(97) {
                let scalar = folded.output_at(&x, i);
                assert_eq!(g.to_bits(), scalar.to_bits(), "n {n} at {i}");
            }
            // A reused buffer, longer or shorter and full of NaN, ends
            // bitwise the fresh output.
            for stale in [n + 5, n / 2] {
                let mut y = vec![f64::NAN; stale];
                folded.filter_into(&x, &mut y);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y), bits(&got), "n {n}, stale {stale}");
            }
        }
    }

    #[test]
    fn hilbert_rejects_tiny_designs() {
        assert!(FoldedHilbert::new(1, Window::Hamming).is_err());
        assert!(hilbert(1, Window::Hamming).is_err());
    }

    #[test]
    fn group_delay_is_center_tap() {
        let f = Fir::lowpass(101, 1_000.0, 48_000.0, Window::Hamming).unwrap();
        assert_eq!(f.group_delay(), 50);
    }
}
