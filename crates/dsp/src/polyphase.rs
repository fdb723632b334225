//! Polyphase decimating FIR front-end: fused filter→decimate that
//! computes only the outputs the decimator keeps.
//!
//! The receive chain's anti-alias stage historically ran
//! [`crate::fir::Fir::filter_complex`] over the full-rate baseband and
//! then threw away `decim − 1` of every `decim` outputs with `step_by`.
//! [`PolyphaseDecimator`] collapses that into one pass: the per-output
//! summation at the kept indices only, costing `taps × outputs` MACs
//! instead of `taps × inputs`, with four kept outputs summed side by
//! side. Its outputs are bitwise identical to `Fir::filter` + `step_by`
//! at every decimation, and it preserves `Fir::filter`'s "same"-causal
//! alignment: output `q` is the full convolution output at input index
//! `q·decim`.

use crate::fir::Fir;
use crate::DspError;
use num_complex::Complex64;
use std::ops::AddAssign;

/// A decimating FIR filter that evaluates the convolution only at the
/// sample positions the decimator keeps.
#[derive(Debug, Clone)]
pub struct PolyphaseDecimator {
    fir: Fir,
    decim: usize,
}

impl PolyphaseDecimator {
    /// Wrap an existing FIR design with a decimation factor (`>= 1`).
    pub fn new(fir: Fir, decim: usize) -> Result<Self, DspError> {
        if decim == 0 {
            return Err(DspError::InvalidParameter("decimation factor must be >= 1"));
        }
        Ok(PolyphaseDecimator { fir, decim })
    }

    /// The decimation factor.
    pub fn decim(&self) -> usize {
        self.decim
    }

    /// The underlying FIR taps.
    pub fn taps(&self) -> &[f64] {
        self.fir.taps()
    }

    /// Number of outputs produced for `n` inputs: the kept indices are
    /// `0, decim, 2·decim, …` below `n`.
    pub fn out_len(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (n - 1) / self.decim + 1
        }
    }

    /// MACs a call over `n` samples skips versus filtering all of them:
    /// the taps of every dropped output.
    pub fn direct_macs_saved(&self, n: usize) -> u64 {
        let dropped = n - self.out_len(n);
        (dropped as u64) * (self.fir.taps().len() as u64)
    }

    /// Decimate a real signal: `fir.filter(x)`, then `.step_by(decim)`.
    // lint: allow(dead-pub) test-oracle polyphase_auto_real_is_bitwise_filter_step_by allocating form of decimate_into
    pub fn decimate(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.decimate_into(x, &mut out);
        out
    }

    /// [`PolyphaseDecimator::decimate`] into a caller-owned buffer.
    pub fn decimate_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.out_len(x.len()));
        // `taps[k] * x[i-k]`, as `Fir::filter` forms it.
        self.direct(x, out, |v, t| t * v);
    }

    /// Decimate `gain · x` into a caller-owned buffer. The gain is
    /// applied as each input sample is read — the same multiply, in the
    /// same place in the dataflow, as pre-scaling the input buffer, so
    /// the outputs are bitwise identical to
    /// `fir.filter_complex(&scaled).step_by(decim)` while the full-rate
    /// scaled copy never materialises.
    pub fn decimate_complex_scaled_into(
        &self,
        x: &[Complex64],
        gain: f64, // lint: unitless — linear amplitude scale factor
        out: &mut Vec<Complex64>,
    ) {
        out.clear();
        out.reserve(self.out_len(x.len()));
        // `x[i-k] * taps[k]`, as `Fir::filter_complex` forms it, on the
        // scaled input when gain != 1.
        if gain == 1.0 {
            self.direct(x, out, |v, t| v * t);
        } else {
            self.direct(x, out, |v, t| (gain * v) * t);
        }
    }

    /// The kept-output loop: output `i = q·decim` is
    /// `Σ_k term(x[i−k], taps[k])` over ascending `k`, from a zero
    /// accumulator, stopping at `k = i` near the start. Outputs whose
    /// window lies inside `x` run in tiles of four, one accumulator
    /// each, so four tap sums advance together instead of one serial
    /// add chain (about 1.7–2× on the 127-tap front end); the head and
    /// the tail run one output at a time. Each output sums the same terms
    /// in the same order either way, so its bits do not depend on which
    /// loop computed it.
    fn direct<T: Copy + Default + AddAssign>(
        &self,
        x: &[T],
        out: &mut Vec<T>,
        term: impl Fn(T, f64) -> T,
    ) {
        let taps = self.fir.taps();
        let (m, d, n) = (taps.len(), self.decim, x.len());
        let output_at = |i: usize| {
            let mut acc = T::default();
            for (k, &t) in taps.iter().enumerate().take(i + 1) {
                // lint: allow(panic-path) take(i + 1) keeps k <= i
                acc += term(x[i - k], t);
            }
            acc
        };
        let mut i = 0usize;
        while i < n && i + 1 < m {
            out.push(output_at(i));
            i += d;
        }
        let span = 3 * d;
        while i + span < n {
            // Output i + l·d of the tile reads x[i + l·d − k] for ascending
            // k: its window, walked backwards.
            // lint: allow(panic-path) i >= m - 1 after the head loop and i + span < n
            let lane = |l: usize| x[i + l * d + 1 - m..=i + l * d].iter().rev();
            let mut acc = [T::default(); 4];
            for ((((&t, &v0), &v1), &v2), &v3) in taps
                .iter()
                .zip(lane(0))
                .zip(lane(1))
                .zip(lane(2))
                .zip(lane(3))
            {
                acc[0] += term(v0, t);
                acc[1] += term(v1, t);
                acc[2] += term(v2, t);
                acc[3] += term(v3, t);
            }
            out.extend_from_slice(&acc);
            i += 4 * d;
        }
        while i < n {
            out.push(output_at(i));
            i += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    impl PolyphaseDecimator {
        /// Decimate a complex signal: `fir.filter_complex(x)`, then
        /// `.step_by(decim)`.
        fn decimate_complex(&self, x: &[Complex64]) -> Vec<Complex64> {
            let mut out = Vec::new();
            self.decimate_complex_scaled_into(x, 1.0, &mut out);
            out
        }
    }

    fn sig(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13 + 5) % 17) as f64 - 8.0).collect()
    }

    fn csig(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    ((i * 13 + 5) % 17) as f64 - 8.0,
                    ((i * 7) % 11) as f64 / 4.0 - 1.0,
                )
            })
            .collect()
    }

    /// Filter everything with `Fir::filter`, then `step_by`.
    fn oracle_real(f: &Fir, x: &[f64], decim: usize) -> Vec<f64> {
        f.filter(x).into_iter().step_by(decim).collect()
    }

    /// [`oracle_real`] for complex input, through `Fir::filter_complex`.
    fn oracle_complex(f: &Fir, x: &[Complex64], decim: usize) -> Vec<Complex64> {
        f.filter_complex(x).into_iter().step_by(decim).collect()
    }

    fn assert_bitwise_complex(got: &[Complex64], want: &[Complex64], tag: &str) {
        assert_eq!(got.len(), want.len(), "{tag}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "{tag}: re at {i}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "{tag}: im at {i}");
        }
    }

    #[test]
    fn auto_real_is_bitwise_filter_then_step_by() {
        // Short and long inputs at decim 2, and higher decimations.
        for &(taps, n, decim) in &[
            (9usize, 400usize, 3usize),
            (127, 6000, 11),
            (127, 6000, 23),
            (127, 200, 4),
            (127, 6000, 2),
            (127, 200, 2),
        ] {
            let f = Fir::lowpass(taps, 2_000.0, 48_000.0, Window::Hamming).unwrap();
            let x = sig(n);
            let want = oracle_real(&f, &x, decim);
            let pd = PolyphaseDecimator::new(f, decim).unwrap();
            let got = pd.decimate(&x);
            assert_eq!(got.len(), want.len(), "taps={taps} n={n} decim={decim}");
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "taps={taps} n={n} decim={decim} at {i}");
            }
        }
    }

    #[test]
    fn auto_complex_is_bitwise_filter_then_step_by() {
        for &(taps, n, decim) in &[
            (9usize, 400usize, 2usize),
            (127, 6000, 2),
            (127, 6000, 5),
            (255, 9000, 23),
        ] {
            let f = Fir::lowpass(taps, 2_000.0, 48_000.0, Window::Hamming).unwrap();
            let x = csig(n);
            let want = oracle_complex(&f, &x, decim);
            let pd = PolyphaseDecimator::new(f, decim).unwrap();
            let tag = format!("taps={taps} n={n} decim={decim}");
            assert_bitwise_complex(&pd.decimate_complex(&x), &want, &tag);
        }
    }

    #[test]
    fn scaled_into_is_bitwise_prescaled_filter() {
        // Read-time gain equals pre-scaling the input.
        let f = Fir::lowpass(127, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        let x = csig(5000);
        let scaled: Vec<Complex64> = x.iter().map(|&c| 2.0 * c).collect();
        for decim in [2, 7] {
            let want = oracle_complex(&f, &scaled, decim);
            let pd = PolyphaseDecimator::new(f.clone(), decim).unwrap();
            let mut got = Vec::new();
            pd.decimate_complex_scaled_into(&x, 2.0, &mut got);
            assert_bitwise_complex(&got, &want, &format!("decim={decim}"));
        }
    }

    #[test]
    fn out_len_counts_kept_indices() {
        let f = Fir::lowpass(9, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        let pd = PolyphaseDecimator::new(f, 4).unwrap();
        assert_eq!(pd.out_len(0), 0);
        assert_eq!(pd.out_len(1), 1);
        assert_eq!(pd.out_len(4), 1);
        assert_eq!(pd.out_len(5), 2);
        assert_eq!(pd.out_len(9), 3);
        assert_eq!(pd.decimate(&sig(9)).len(), 3);
    }

    #[test]
    fn decim_one_keeps_everything() {
        let f = Fir::lowpass(9, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        let x = sig(64);
        let want = f.filter(&x);
        let pd = PolyphaseDecimator::new(f, 1).unwrap();
        let got = pd.decimate(&x);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_zero_decim() {
        let f = Fir::lowpass(9, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        assert!(PolyphaseDecimator::new(f, 0).is_err());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let f = Fir::lowpass(9, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        let pd = PolyphaseDecimator::new(f, 3).unwrap();
        assert!(pd.decimate(&[]).is_empty());
        assert!(pd.decimate_complex(&[]).is_empty());
    }

    /// Decimate by 4 with the receiver's anti-alias design: 127 Hamming
    /// taps at 80% of the new Nyquist.
    fn decimate_by_4(x: &[f64], fs_hz: f64) -> Vec<f64> {
        let f = Fir::lowpass(127, 0.8 * fs_hz / 8.0, fs_hz, Window::Hamming).unwrap();
        PolyphaseDecimator::new(f, 4).unwrap().decimate(x)
    }

    #[test]
    fn decimation_preserves_in_band_tone() {
        let fs_hz = 48_000.0;
        let x = crate::mix::tone(1_000.0, fs_hz, 0.0, 9600);
        let y = decimate_by_4(&x, fs_hz);
        assert_eq!(y.len(), 2400);
        let a = crate::goertzel::tone_amplitude(&y[600..], 1_000.0, fs_hz / 4.0);
        assert!((a - 1.0).abs() < 0.05, "a={a}");
    }

    #[test]
    fn decimation_removes_aliasing_tone() {
        let fs_hz = 48_000.0;
        // 10 kHz would alias to 2 kHz after /4 (new Nyquist 6 kHz) if not
        // filtered.
        let x = crate::mix::tone(10_000.0, fs_hz, 0.0, 9600);
        let y = decimate_by_4(&x, fs_hz);
        let alias = crate::goertzel::tone_amplitude(&y[600..], 2_000.0, fs_hz / 4.0);
        assert!(alias < 0.01, "alias={alias}");
    }
}
