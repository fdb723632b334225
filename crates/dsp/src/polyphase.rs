//! Polyphase decimating FIR front-end: fused filter→decimate that
//! computes only the outputs the decimator keeps.
//!
//! The receive chain's anti-alias stage historically ran
//! [`crate::fir::Fir::filter_complex`] over the full-rate baseband and
//! then threw away `decim − 1` of every `decim` outputs with `step_by`.
//! [`PolyphaseDecimator`] collapses that into one pass and picks one of
//! two paths per call, as a function of `(taps, decim, n)` only:
//!
//! * **Overlap-save FFT** when `decim < 3` and [`fastconv::fft_pays_off`].
//!   The blocks still transform every input sample, so the kept outputs
//!   are bitwise identical to `Fir::filter` + `step_by`; the win is
//!   skipping the discarded-output emission and the intermediate
//!   full-rate allocation.
//! * **Direct** otherwise: the per-output summation at the kept indices
//!   only, costing `taps × outputs` MACs instead of `taps × inputs`, with
//!   four kept outputs summed side by side. Its outputs are bitwise
//!   identical to `Fir::filter_direct` + `step_by` (and agree with the FFT
//!   path to rounding).
//!
//! The crossover is measured (127 taps, 60k and 120k complex samples on
//! a 2-vCPU host): before the direct path was tiled, direct time over FFT
//! time was 1.97 and 1.53 at decim 2, 0.77–0.86 at decim 3–5 and
//! 0.12–0.44 at decim 8–23. Tiling made the direct path about 1.7–2×
//! cheaper, which may have moved the decim-2 crossover; moving it would
//! move bits. The `polyphase_decim*` benches re-measure it.
//!
//! Both paths preserve `Fir::filter`'s "same"-causal alignment: output
//! `q` is the full convolution output at input index `q·decim`.

use crate::fastconv;
use crate::fir::Fir;
use crate::plan::with_thread_cache;
use crate::DspError;
use num_complex::Complex64;
use std::collections::HashMap;
use std::ops::AddAssign;
use std::sync::{Arc, Mutex};

/// A decimating FIR filter that evaluates the convolution only at the
/// sample positions the decimator keeps.
#[derive(Debug)]
pub struct PolyphaseDecimator {
    fir: Fir,
    /// Reversed taps as complex — the overlap-save engine's kernel.
    rev: Vec<Complex64>,
    decim: usize,
    /// Frequency-domain kernels keyed by FFT block size, shared across
    /// calls (and clones of the owning front-end) so repeated decodes of
    /// same-length waveforms skip the kernel transform entirely.
    kfft: Mutex<HashMap<usize, Arc<Vec<Complex64>>>>,
}

impl Clone for PolyphaseDecimator {
    fn clone(&self) -> Self {
        PolyphaseDecimator {
            fir: self.fir.clone(),
            rev: self.rev.clone(),
            decim: self.decim,
            kfft: Mutex::new(self.lock_kfft().clone()),
        }
    }
}

impl PolyphaseDecimator {
    /// Wrap an existing FIR design with a decimation factor (`>= 1`).
    pub fn new(fir: Fir, decim: usize) -> Result<Self, DspError> {
        if decim == 0 {
            return Err(DspError::InvalidParameter("decimation factor must be >= 1"));
        }
        let rev: Vec<Complex64> =
            fir.taps().iter().rev().map(|&t| Complex64::new(t, 0.0)).collect();
        Ok(PolyphaseDecimator {
            fir,
            rev,
            decim,
            kfft: Mutex::new(HashMap::new()),
        })
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

    /// MACs a call over `n` samples skips versus filtering all of them
    /// with the direct loop. Zero when the call runs the FFT path, whose
    /// cost model is per-block, not per-MAC.
    pub fn direct_macs_saved(&self, n: usize) -> u64 {
        if self.uses_fft(n) {
            return 0;
        }
        let dropped = n - self.out_len(n);
        (dropped as u64) * (self.fir.taps().len() as u64)
    }

    /// True when a call over `n` samples runs the overlap-save FFT engine:
    /// only below decimation 3, where computing every output still beats
    /// computing the kept ones directly.
    fn uses_fft(&self, n: usize) -> bool {
        self.decim < 3 && fastconv::fft_pays_off(n, self.fir.taps().len())
    }

    /// Decimate a real signal: `fir.filter(x)` (FFT path) or
    /// `fir.filter_direct(x)` (direct path), then `.step_by(decim)`.
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
        if x.is_empty() {
            return;
        }
        if self.uses_fft(x.len()) {
            // `convolve_same_real` widens to complex, convolves, and
            // takes `.re`; `(c·scale).re == c.re·scale`, so taking `.re`
            // of the emitted sample reproduces its bits.
            self.fft_decimate(x.len(), |i| Complex64::new(x[i], 0.0), |c| out.push(c.re));
        } else {
            // `taps[k] * x[i-k]`, as `Fir::filter_direct` forms it.
            self.direct(x, out, |v, t| t * v);
        }
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
        if x.is_empty() {
            return;
        }
        if self.uses_fft(x.len()) {
            if gain == 1.0 {
                self.fft_decimate(x.len(), |i| x[i], |c| out.push(c));
            } else {
                self.fft_decimate(x.len(), |i| gain * x[i], |c| out.push(c));
            }
        } else if gain == 1.0 {
            // `x[i-k] * taps[k]`, as `Fir::filter_complex`'s direct
            // branch forms it, on the scaled input when gain != 1.
            self.direct(x, out, |v, t| v * t);
        } else {
            self.direct(x, out, |v, t| (gain * v) * t);
        }
    }

    /// The direct kept-output loop: output `i = q·decim` is
    /// `Σ_k term(x[i−k], taps[k])` over ascending `k`, from a zero
    /// accumulator, stopping at `k = i` near the start. Outputs whose
    /// window lies inside `x` run in tiles of four, one accumulator
    /// each, so four tap sums advance together instead of one serial
    /// add chain (about 1.7–2× on the 127-tap front end); the head and
    /// the tail run one output at a time. Each output sums the same terms
    /// in the same order on either path, so its bits do not depend on
    /// which one computed it.
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

    /// The overlap-save engine of [`fastconv`] specialised to "same"
    /// convolution with decimated emission. Replicates
    /// `fastconv::convolve_same` bit for bit: same virtual front padding
    /// of `m − 1` zeros, same [`fastconv::block_size`], same per-block
    /// transform-multiply-inverse, same `1/B` scaling — but the padded
    /// input is materialised directly into the (pre-zeroed) block
    /// scratch, and only outputs at multiples of `decim` are emitted.
    fn fft_decimate(
        &self,
        n: usize,
        read: impl Fn(usize) -> Complex64,
        mut emit: impl FnMut(Complex64),
    ) {
        let m = self.rev.len();
        let p = m - 1;
        let np = n + p; // virtually front-padded length
        let out_len = n; // "same" alignment: one output per input
        let b = fastconv::block_size(np, m);
        let kfft = self.kernel_fft(b);
        let step = b - p;
        let scale = 1.0 / b as f64;
        let mut start = 0usize;
        while start < out_len {
            with_thread_cache(|cache| {
                cache.with_scratch(b, |cache, buf| {
                    let take = (np - start).min(b);
                    // padded[j] is 0 for j < p and x[j − p] after; the
                    // scratch arrives zeroed, so only real samples are
                    // written.
                    for j in start.max(p)..start + take {
                        // lint: allow(panic-path) j < start+take <= start+b and j >= start.max(p)
                        buf[j - start] = read(j - p);
                    }
                    cache.fft_in_place(buf);
                    for (v, h) in buf.iter_mut().zip(kfft.iter()) {
                        *v *= *h;
                    }
                    cache.inverse(b).process(buf);
                    let emit_n = step.min(out_len - start);
                    // Kept outputs: global indices divisible by decim.
                    let mut g = start.next_multiple_of(self.decim);
                    while g < start + emit_n {
                        // lint: allow(panic-path) g < start+emit_n <= start+step, so p+g-start < b
                        emit(buf[p + g - start] * scale);
                        g += self.decim;
                    }
                });
            });
            start += step;
        }
    }

    /// The memoised frequency-domain kernel for block size `b`.
    fn kernel_fft(&self, b: usize) -> Arc<Vec<Complex64>> {
        let mut map = self.lock_kfft();
        map.entry(b)
            .or_insert_with(|| Arc::new(fastconv::kernel_fft(&self.rev, b)))
            .clone()
    }

    fn lock_kfft(&self) -> std::sync::MutexGuard<'_, HashMap<usize, Arc<Vec<Complex64>>>> {
        // A poisoned lock only follows a panic mid-insert; the map holds
        // pure function-of-taps values, so recovering it is always safe.
        self.kfft.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    impl PolyphaseDecimator {
        /// Decimate a complex signal: `fir.filter_complex(x)` (either path),
        /// then `.step_by(decim)`.
        fn decimate_complex(&self, x: &[Complex64]) -> Vec<Complex64> {
            let mut out = Vec::new();
            self.decimate_complex_scaled_into(x, 1.0, &mut out);
            out
        }

        /// Number of distinct FFT block sizes memoised so far.
        fn cached_kernels(&self) -> usize {
            self.lock_kfft().len()
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

    /// Each path's own oracle: `Fir::filter` (which dispatches to the
    /// same overlap-save engine) below decimation 3, the direct loop
    /// `Fir::filter_direct` from decimation 3 up; then `step_by`.
    fn oracle_real(f: &Fir, x: &[f64], decim: usize) -> Vec<f64> {
        let y = if decim < 3 {
            f.filter(x)
        } else {
            f.filter_direct(x)
        };
        y.into_iter().step_by(decim).collect()
    }

    /// [`oracle_real`] for complex input: `Fir::filter_complex` below
    /// decimation 3, `Fir::filter_direct` per component from 3 up.
    fn oracle_complex(f: &Fir, x: &[Complex64], decim: usize) -> Vec<Complex64> {
        let y = if decim < 3 {
            f.filter_complex(x)
        } else {
            let re: Vec<f64> = x.iter().map(|c| c.re).collect();
            let im: Vec<f64> = x.iter().map(|c| c.im).collect();
            let (re, im) = (f.filter_direct(&re), f.filter_direct(&im));
            re.into_iter()
                .zip(im)
                .map(|(r, i)| Complex64::new(r, i))
                .collect()
        };
        y.into_iter().step_by(decim).collect()
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
        // The decimator's own path choice, against each path's oracle:
        // both sides of the FFT crossover at decim 2, direct above it.
        for &(taps, n, decim) in &[
            (9usize, 400usize, 3usize),
            (127, 6000, 11),
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
        // Read-time gain equals pre-scaling the input, on both paths.
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
    fn direct_mode_is_bitwise_filter_direct_then_step_by() {
        // In the FFT regime of `Fir::filter`, the direct path matches the
        // direct loop exactly and the FFT path to rounding.
        let f = Fir::lowpass(127, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        let x = sig(6000);
        let want: Vec<f64> = f.filter_direct(&x).into_iter().step_by(23).collect();
        let pd = PolyphaseDecimator::new(f.clone(), 23).unwrap();
        let got = pd.decimate(&x);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let fft: Vec<f64> = f.filter(&x).into_iter().step_by(23).collect();
        for (a, b) in got.iter().zip(&fft) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn macs_saved_only_on_the_direct_path() {
        let f = Fir::lowpass(127, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        let fft = PolyphaseDecimator::new(f.clone(), 2).unwrap();
        assert_eq!(fft.direct_macs_saved(6000), 0, "FFT path saves no MACs");
        // Too short for the FFT to pay off: decim 2 runs direct.
        assert_eq!(fft.direct_macs_saved(200), 100 * 127);
        let direct = PolyphaseDecimator::new(f, 3).unwrap();
        assert_eq!(direct.direct_macs_saved(6000), 4000 * 127);
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
    fn kernel_cache_fills_once_per_block_size() {
        let f = Fir::lowpass(127, 2_000.0, 48_000.0, Window::Hamming).unwrap();
        let pd = PolyphaseDecimator::new(f.clone(), 2).unwrap();
        let x = csig(6000);
        assert_eq!(pd.cached_kernels(), 0);
        let _ = pd.decimate_complex(&x);
        assert_eq!(pd.cached_kernels(), 1);
        let _ = pd.decimate_complex(&x);
        assert_eq!(pd.cached_kernels(), 1, "same length reuses the kernel");
        // The direct path never transforms a kernel.
        let direct = PolyphaseDecimator::new(f, 5).unwrap();
        let _ = direct.decimate_complex(&x);
        assert_eq!(direct.cached_kernels(), 0);
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
