//! IIR filters: biquad sections, Butterworth designs, and zero-phase
//! (forward-backward) filtering.
//!
//! The PAB receiver "employs a Butterworth filter on each of the receive
//! channels to isolate the signal of interest and reduce interference from
//! concurrent transmissions" (§5.1(b)). [`butter_lowpass`] implements
//! the standard bilinear-transform Butterworth design (the high-pass and
//! band-pass designs the receiver never used live in the tests).
//! [`Cascade::filtfilt`] provides the zero-phase offline
//! filtering MATLAB's `filtfilt` would have supplied in the paper's decoder.

use crate::DspError;
use num_complex::Complex64;
use std::ops::{Add, Mul, Sub};

/// One second-order (biquad) section in Direct Form II transposed.
///
/// Transfer function `H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    /// Numerator coefficients.
    pub b: [f64; 3],
    /// Denominator coefficients `[a1, a2]` (a0 normalised to 1).
    pub a: [f64; 2],
}

/// A sample the real biquad coefficients act on: `f64`, or `Complex64`,
/// whose real and imaginary parts filter independently.
trait Sample: Copy + Add<Output = Self> + Sub<Output = Self> + Mul<f64, Output = Self> {
    const ZERO: Self;
}

impl Sample for f64 {
    const ZERO: Self = 0.0;
}

impl Sample for Complex64 {
    const ZERO: Self = Complex64::new(0.0, 0.0);
}

/// One in-place pass of `sections` over `buf` from zero state, walking
/// it end-to-start when `reverse`. Sections run two at a time with their
/// states in locals; a longer cascade runs its pairs one after another,
/// which is bitwise the sample-by-sample loop because each section still
/// sees the same input sequence.
fn cascade_pass<T: Sample>(sections: &[Biquad], buf: &mut [T], reverse: bool) {
    for pair in sections.chunks(2) {
        match pair {
            [a, b] => run_sections(&[*a, *b], buf, reverse),
            [a] => run_sections(&[*a], buf, reverse),
            _ => {}
        }
    }
}

fn run_sections<T: Sample, const N: usize>(sections: &[Biquad; N], buf: &mut [T], reverse: bool) {
    if reverse {
        step_sections(sections, buf.iter_mut().rev());
    } else {
        step_sections(sections, buf.iter_mut());
    }
}

/// The Direct Form II transposed recurrence of `N` cascaded sections.
fn step_sections<'a, T: Sample + 'a, const N: usize>(
    sections: &[Biquad; N],
    samples: impl Iterator<Item = &'a mut T>,
) {
    let mut state = [(T::ZERO, T::ZERO); N];
    for x in samples {
        let mut v = *x;
        for (c, (s1, s2)) in sections.iter().zip(state.iter_mut()) {
            let y = v * c.b[0] + *s1;
            *s1 = v * c.b[1] - y * c.a[0] + *s2;
            *s2 = v * c.b[2] - y * c.a[1];
            v = y;
        }
        *x = v;
    }
}

/// A cascade of biquad sections (second-order-sections filter).
#[derive(Debug, Clone, PartialEq)]
pub struct Cascade {
    sections: Vec<Biquad>,
}

impl Cascade {
    /// Build from explicit sections.
    pub fn new(sections: Vec<Biquad>) -> Self {
        Cascade { sections }
    }

    /// Causal (single-pass) filtering with zero initial state.
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        self.filter_in_place(&mut y);
        y
    }

    /// [`filter`](Self::filter) over `buf` in place.
    pub fn filter_in_place(&self, buf: &mut [f64]) {
        cascade_pass(&self.sections, buf, false);
    }

    /// Zero-phase forward-backward filtering with odd-reflection edge
    /// padding (the shape MATLAB/scipy `filtfilt` uses). Suitable for the
    /// offline decoding pipeline; not causal.
    ///
    /// Both passes run in place on the padded buffer — the backward pass
    /// walks the forward output end-to-start, which performs exactly the
    /// reverse→filter→reverse sequence of the textbook formulation
    /// without materialising the reversed copies.
    pub fn filtfilt(&self, x: &[f64]) -> Vec<f64> {
        self.filtfilt_padded(x)
    }

    /// Zero-phase filtering of a complex signal, with the same
    /// odd-reflection padding and in-place two-pass structure as
    /// [`Cascade::filtfilt`].
    // lint: allow(dead-pub) test-oracle decode_in_the_old_order the receiver's filter-first reference path
    pub fn filtfilt_complex(&self, x: &[Complex64]) -> Vec<Complex64> {
        self.filtfilt_padded(x)
    }

    fn filtfilt_padded<T: Sample>(&self, x: &[T]) -> Vec<T> {
        if x.is_empty() {
            return Vec::new();
        }
        let n = x.len();
        let pad = self.filtfilt_pad(n);
        let mut ext = vec![T::ZERO; n + 2 * pad];
        ext[pad..pad + n].copy_from_slice(x);
        self.filtfilt_in_place(&mut ext, pad, n);
        ext[pad..pad + n].to_vec()
    }

    /// [`filtfilt`](Self::filtfilt) on a caller-owned padded workspace:
    /// `ext` is resized to `x.len() + 2·pad` (its old contents are never
    /// read), `x` is copied into its centre and filtered in place there.
    /// Returns `pad`; `ext[pad..pad + x.len()]` then holds bitwise what
    /// `filtfilt(x)` returns.
    pub fn filtfilt_into(&self, x: &[f64], ext: &mut Vec<f64>) -> usize {
        let n = x.len();
        let pad = self.filtfilt_pad(n);
        ext.truncate(n + 2 * pad);
        ext.resize(n + 2 * pad, 0.0);
        if let Some(centre) = ext.get_mut(pad..pad + n) {
            centre.copy_from_slice(x);
        }
        self.filtfilt_in_place(ext, pad, n);
        pad
    }

    /// The odd-reflection padding length `filtfilt` uses for an `n`-sample
    /// input: 3·(2·sections+1), clamped so the reflected edge fits.
    pub fn filtfilt_pad(&self, n: usize) -> usize {
        (3 * (2 * self.sections.len() + 1)).min(n.saturating_sub(1))
    }

    /// Zero-phase filtering on a caller-owned padded workspace — the
    /// allocation-free core of [`Cascade::filtfilt_complex`].
    ///
    /// `ext` must be `n + 2·pad` samples long with the signal already in
    /// `ext[pad..pad + n]` and `pad == self.filtfilt_pad(n)`; the edge
    /// regions are overwritten with the odd reflections, then the forward
    /// and backward passes run in place. Afterwards `ext[pad..pad + n]`
    /// holds exactly what `filtfilt_complex` would return: the reflection
    /// values, the biquad arithmetic and both traversal orders are the
    /// same operations on the same bit patterns.
    ///
    /// Lets hot callers fill the centre of a recycled buffer directly
    /// (e.g. fusing a downconversion mix into the write) so the unpadded
    /// full-rate signal never materialises separately.
    pub fn filtfilt_complex_in_place(&self, ext: &mut [Complex64], pad: usize, n: usize) {
        self.filtfilt_in_place(ext, pad, n);
    }

    /// The real form of
    /// [`filtfilt_complex_in_place`](Self::filtfilt_complex_in_place),
    /// for a stage that writes its input straight into the centre.
    pub(crate) fn filtfilt_real_in_place(&self, ext: &mut [f64], pad: usize, n: usize) {
        self.filtfilt_in_place(ext, pad, n);
    }

    fn filtfilt_in_place<T: Sample>(&self, ext: &mut [T], pad: usize, n: usize) {
        if n == 0 {
            return;
        }
        debug_assert_eq!(ext.len(), n + 2 * pad);
        debug_assert_eq!(pad, self.filtfilt_pad(n));
        // Odd reflection about the first/last sample, computed from the
        // centre copy: ext[pad] is x[0] and ext[pad+n-1] is x[n-1].
        let x0 = ext[pad];
        let xl = ext[pad + n - 1];
        for i in 1..=pad {
            // lint: allow(panic-path) pad <= n-1 via filtfilt_pad, so pad±i index the ext edges
            ext[pad - i] = x0 * 2.0 - ext[pad + i];
            // lint: allow(panic-path) ext.len() == n + 2*pad, so pad+n-1±i stays in bounds
            ext[pad + n - 1 + i] = xl * 2.0 - ext[pad + n - 1 - i];
        }
        cascade_pass(&self.sections, ext, false);
        cascade_pass(&self.sections, ext, true);
    }
}

/// Analog biquad `(b2 s^2 + b1 s + b0) / (a2 s^2 + a1 s + a0)` mapped to a
/// digital [`Biquad`] via the bilinear transform with `K = 2 fs_hz`.
fn bilinear(b: [f64; 3], a: [f64; 3], fs_hz: f64) -> Biquad {
    let k = 2.0 * fs_hz;
    let k2 = k * k;
    let (b0, b1, b2) = (b[0], b[1], b[2]);
    let (a0, a1, a2) = (a[0], a[1], a[2]);
    let nd0 = b2 * k2 + b1 * k + b0;
    let nd1 = -2.0 * b2 * k2 + 2.0 * b0;
    let nd2 = b2 * k2 - b1 * k + b0;
    let dd0 = a2 * k2 + a1 * k + a0;
    let dd1 = -2.0 * a2 * k2 + 2.0 * a0;
    let dd2 = a2 * k2 - a1 * k + a0;
    Biquad {
        b: [nd0 / dd0, nd1 / dd0, nd2 / dd0],
        a: [dd1 / dd0, dd2 / dd0],
    }
}

fn check_freq(freq_hz: f64, fs_hz: f64) -> Result<(), DspError> {
    if !(fs_hz > 0.0) {
        return Err(DspError::InvalidParameter("fs_hz must be positive"));
    }
    if !(freq_hz > 0.0 && freq_hz < fs_hz / 2.0) {
        return Err(DspError::FrequencyOutOfRange {
            frequency_hz: freq_hz,
            nyquist_hz: fs_hz / 2.0,
        });
    }
    Ok(())
}

/// Butterworth analog prototype poles (left half plane, |p| = 1) for order
/// `n`, as (real, imag) pairs; conjugates implied for imag != 0.
fn prototype_poles(n: usize) -> Vec<Complex64> {
    let mut poles = Vec::new();
    let nf = n as f64;
    for k in 1..=(n / 2) {
        let theta = std::f64::consts::PI * (2.0 * k as f64 + nf - 1.0) / (2.0 * nf);
        poles.push(Complex64::new(theta.cos(), theta.sin()));
    }
    if n % 2 == 1 {
        poles.push(Complex64::new(-1.0, 0.0));
    }
    poles
}

/// Design an order-`n` Butterworth low-pass filter with -3 dB cutoff
/// `cutoff_hz` at sample rate `fs_hz`.
pub fn butter_lowpass(n: usize, cutoff_hz: f64, fs_hz: f64) -> Result<Cascade, DspError> {
    if n == 0 || n > 16 {
        return Err(DspError::InvalidOrder(n));
    }
    check_freq(cutoff_hz, fs_hz)?;
    // Pre-warp the cutoff so the digital -3 dB point lands on cutoff_hz.
    let wc = 2.0 * fs_hz * (std::f64::consts::PI * cutoff_hz / fs_hz).tan();
    let mut sections = Vec::new();
    for p in prototype_poles(n) {
        if p.im.abs() < 1e-12 {
            // First-order section: H(s) = wc / (s + wc).
            sections.push(bilinear([wc, 0.0, 0.0], [wc, 1.0, 0.0], fs_hz));
        } else {
            // H(s) = wc^2 / (s^2 - 2 Re(p) wc s + wc^2).
            sections.push(bilinear(
                [wc * wc, 0.0, 0.0],
                [wc * wc, -2.0 * p.re * wc, 1.0],
                fs_hz,
            ));
        }
    }
    Ok(Cascade::new(sections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::tone;
    use crate::stats::rms;

    impl Biquad {
        /// Evaluate the magnitude response at `freq_hz` for sample rate `fs_hz`.
        fn magnitude_at(&self, freq_hz: f64, fs_hz: f64) -> f64 {
            let w = std::f64::consts::TAU * freq_hz / fs_hz;
            let z1 = Complex64::from_polar(1.0, -w);
            let z2 = z1 * z1;
            let num = Complex64::new(self.b[0], 0.0) + z1 * self.b[1] + z2 * self.b[2];
            let den = Complex64::new(1.0, 0.0) + z1 * self.a[0] + z2 * self.a[1];
            (num / den).norm()
        }
    }

    impl Cascade {
        /// The biquad sections of this cascade.
        fn sections(&self) -> &[Biquad] {
            &self.sections
        }

        /// Number of cascaded biquad sections. First-order analog prototypes
        /// appear as biquads with a pole/zero cancellation at z = -1, so this
        /// is `ceil(order / 2)` for the designs in this module.
        fn num_sections(&self) -> usize {
            self.sections.len()
        }

        /// Filter a complex signal. The real coefficients act on the real and
        /// imaginary parts independently, so the biquads run directly on the
        /// complex samples — numerically identical to filtering the two parts
        /// separately, without splitting the buffer into two temporaries.
        fn filter_complex(&self, x: &[Complex64]) -> Vec<Complex64> {
            let mut y = x.to_vec();
            cascade_pass(&self.sections, &mut y, false);
            y
        }

        /// Magnitude response of the full cascade at `freq_hz`.
        fn magnitude_at(&self, freq_hz: f64, fs_hz: f64) -> f64 {
            self.sections
                .iter()
                .map(|s| s.magnitude_at(freq_hz, fs_hz))
                .product()
        }
    }

    /// Design an order-`n` Butterworth high-pass filter with -3 dB cutoff
    /// `cutoff_hz` at sample rate `fs_hz`.
    fn butter_highpass(n: usize, cutoff_hz: f64, fs_hz: f64) -> Result<Cascade, DspError> {
        if n == 0 || n > 16 {
            return Err(DspError::InvalidOrder(n));
        }
        check_freq(cutoff_hz, fs_hz)?;
        let wc = 2.0 * fs_hz * (std::f64::consts::PI * cutoff_hz / fs_hz).tan();
        let mut sections = Vec::new();
        for p in prototype_poles(n) {
            if p.im.abs() < 1e-12 {
                // H(s) = s / (s + wc).
                sections.push(bilinear([0.0, 1.0, 0.0], [wc, 1.0, 0.0], fs_hz));
            } else {
                // H(s) = s^2 / (s^2 - 2 Re(p) wc s + wc^2).
                sections.push(bilinear(
                    [0.0, 0.0, 1.0],
                    [wc * wc, -2.0 * p.re * wc, 1.0],
                    fs_hz,
                ));
            }
        }
        Ok(Cascade::new(sections))
    }

    /// Band-pass filter built as a cascade of an order-`n` Butterworth
    /// high-pass at `low_hz` and an order-`n` low-pass at `high_hz`.
    ///
    /// This is not the analytic band-pass Butterworth transform, but for the
    /// well-separated band edges used in the PAB receiver (kHz-wide channels)
    /// the passband/stopband behaviour is equivalent for our purposes.
    fn butter_bandpass(
        n: usize,
        low_hz: f64,
        high_hz: f64,
        fs_hz: f64,
    ) -> Result<Cascade, DspError> {
        if !(low_hz < high_hz) {
            return Err(DspError::InvalidParameter("low_hz must be < high_hz"));
        }
        let hp = butter_highpass(n, low_hz, fs_hz)?;
        let lp = butter_lowpass(n, high_hz, fs_hz)?;
        let mut sections = hp.sections;
        sections.extend(lp.sections);
        Ok(Cascade::new(sections))
    }

    /// The sample-major loop the cascade pass replaced: for each sample,
    /// every section in order, states in a vector.
    fn reference_pass(sections: &[Biquad], buf: &mut [f64], reverse: bool) {
        let mut states = vec![(0.0, 0.0); sections.len()];
        let mut step = |x: &mut f64| {
            let mut v = *x;
            for (c, st) in sections.iter().zip(states.iter_mut()) {
                let y = c.b[0] * v + st.0;
                st.0 = c.b[1] * v - c.a[0] * y + st.1;
                st.1 = c.b[2] * v - c.a[1] * y;
                v = y;
            }
            *x = v;
        };
        if reverse {
            buf.iter_mut().rev().for_each(&mut step);
        } else {
            buf.iter_mut().for_each(&mut step);
        }
    }

    fn reference_filtfilt(sections: &[Biquad], x: &[f64]) -> Vec<f64> {
        let n = x.len();
        let pad = (3 * (2 * sections.len() + 1)).min(n - 1);
        let mut ext: Vec<f64> = (1..=pad).rev().map(|i| 2.0 * x[0] - x[i]).collect();
        ext.extend_from_slice(x);
        ext.extend((1..=pad).map(|i| 2.0 * x[n - 1] - x[n - 1 - i]));
        reference_pass(sections, &mut ext, false);
        reference_pass(sections, &mut ext, true);
        ext[pad..pad + n].to_vec()
    }

    #[test]
    fn cascade_pass_matches_the_reference_loop_bitwise() {
        let same = |got: &[f64], want: &[f64], tag: &str| {
            assert_eq!(got.len(), want.len(), "{tag}");
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{tag} at {i}");
            }
        };
        // Orders 1..=8 give 1 to 4 sections: the one- and two-section
        // passes and the pairwise runs of longer cascades.
        for order in 1..=8 {
            let f = butter_lowpass(order, 1_500.0, 48_000.0).unwrap();
            assert_eq!(f.num_sections(), order.div_ceil(2));
            for n in [1, 2, 3, 40, 2_000] {
                let tag = format!("order {order}, n {n}");
                let x: Vec<Complex64> = (0..n)
                    .map(|i| {
                        Complex64::new(((i * 7) % 23) as f64 - 11.0, ((i * 13) % 19) as f64 * 0.3)
                    })
                    .collect();
                let re: Vec<f64> = x.iter().map(|c| c.re).collect();
                let im: Vec<f64> = x.iter().map(|c| c.im).collect();
                let mut want_re = re.clone();
                reference_pass(f.sections(), &mut want_re, false);
                let mut want_im = im.clone();
                reference_pass(f.sections(), &mut want_im, false);
                same(&f.filter(&re), &want_re, &tag);
                let yc = f.filter_complex(&x);
                same(&yc.iter().map(|c| c.re).collect::<Vec<_>>(), &want_re, &tag);
                same(&yc.iter().map(|c| c.im).collect::<Vec<_>>(), &want_im, &tag);

                let (want_re, want_im) = (
                    reference_filtfilt(f.sections(), &re),
                    reference_filtfilt(f.sections(), &im),
                );
                same(&f.filtfilt(&re), &want_re, &tag);
                let yc = f.filtfilt_complex(&x);
                same(&yc.iter().map(|c| c.re).collect::<Vec<_>>(), &want_re, &tag);
                same(&yc.iter().map(|c| c.im).collect::<Vec<_>>(), &want_im, &tag);
                let pad = f.filtfilt_pad(n);
                let mut ext = vec![Complex64::new(0.0, 0.0); n + 2 * pad];
                ext[pad..pad + n].copy_from_slice(&x);
                f.filtfilt_complex_in_place(&mut ext, pad, n);
                assert_eq!(&ext[pad..pad + n], &yc[..], "{tag}");
            }
        }
    }

    #[test]
    fn complex_filtering_matches_separate_re_im_bitwise() {
        let lp = butter_lowpass(4, 2_000.0, 48_000.0).unwrap();
        let x: Vec<Complex64> = (0..1_000)
            .map(|i| Complex64::new(((i * 7) % 23) as f64 - 11.0, ((i * 13) % 19) as f64 - 9.0))
            .collect();
        let re: Vec<f64> = x.iter().map(|c| c.re).collect();
        let im: Vec<f64> = x.iter().map(|c| c.im).collect();
        for (complex_out, (r, i)) in [
            (lp.filter_complex(&x), (lp.filter(&re), lp.filter(&im))),
            (lp.filtfilt_complex(&x), (lp.filtfilt(&re), lp.filtfilt(&im))),
        ] {
            for ((c, &rr), &ii) in complex_out.iter().zip(&r).zip(&i) {
                assert_eq!(c.re.to_bits(), rr.to_bits());
                assert_eq!(c.im.to_bits(), ii.to_bits());
            }
        }
    }

    #[test]
    fn lowpass_minus_3db_at_cutoff() {
        let f = butter_lowpass(4, 2_000.0, 48_000.0).unwrap();
        let mag = f.magnitude_at(2_000.0, 48_000.0);
        assert!((20.0 * mag.log10() + 3.0103).abs() < 0.1, "mag {mag}");
        assert!(f.magnitude_at(100.0, 48_000.0) > 0.999);
        assert!(f.magnitude_at(10_000.0, 48_000.0) < 0.01);
    }

    #[test]
    fn highpass_minus_3db_at_cutoff() {
        let f = butter_highpass(4, 2_000.0, 48_000.0).unwrap();
        let mag = f.magnitude_at(2_000.0, 48_000.0);
        assert!((20.0 * mag.log10() + 3.0103).abs() < 0.1);
        assert!(f.magnitude_at(20_000.0, 48_000.0) > 0.99);
        assert!(f.magnitude_at(200.0, 48_000.0) < 0.01);
    }

    #[test]
    fn odd_order_designs_work() {
        let f = butter_lowpass(5, 1_000.0, 48_000.0).unwrap();
        assert_eq!(f.num_sections(), 3);
        let mag = f.magnitude_at(1_000.0, 48_000.0);
        assert!((20.0 * mag.log10() + 3.0103).abs() < 0.1);
    }

    #[test]
    fn bandpass_passes_band_rejects_outside() {
        let f = butter_bandpass(4, 14_000.0, 16_000.0, 192_000.0).unwrap();
        // The HP+LP cascade droops in a narrow passband (documented), and
        // order-4 Butterworth skirts fall off gradually near the edges but
        // reach deep attenuation an octave out.
        assert!(f.magnitude_at(15_000.0, 192_000.0) > 0.5);
        assert!(f.magnitude_at(11_000.0, 192_000.0) < 0.4);
        assert!(f.magnitude_at(19_000.0, 192_000.0) < 0.5);
        assert!(f.magnitude_at(5_000.0, 192_000.0) < 0.02);
        assert!(f.magnitude_at(40_000.0, 192_000.0) < 0.02);
    }

    #[test]
    fn filtering_attenuates_out_of_band_tone() {
        let fs_hz = 48_000.0;
        let f = butter_lowpass(6, 1_000.0, fs_hz).unwrap();
        let hi = tone(8_000.0, fs_hz, 0.0, 4800);
        let lo = tone(200.0, fs_hz, 0.0, 4800);
        let hi_out = f.filter(&hi);
        let lo_out = f.filter(&lo);
        assert!(rms(&hi_out[2400..]) < 0.001);
        assert!((rms(&lo_out[2400..]) - rms(&lo[2400..])).abs() < 0.01);
    }

    #[test]
    fn filtfilt_has_zero_phase_delay() {
        let fs_hz = 48_000.0;
        let f = butter_lowpass(4, 2_000.0, fs_hz).unwrap();
        let sig = tone(500.0, fs_hz, 0.0, 4800);
        let out = f.filtfilt(&sig);
        // No group delay: the in-band tone should align sample-for-sample.
        for i in 1000..3800 {
            assert!((out[i] - sig[i]).abs() < 0.01, "mismatch at {i}");
        }
    }

    #[test]
    fn filtfilt_handles_short_and_empty_inputs() {
        let f = butter_lowpass(2, 100.0, 1_000.0).unwrap();
        assert!(f.filtfilt(&[]).is_empty());
        let out = f.filtfilt(&[1.0, 1.0, 1.0]);
        assert_eq!(out.len(), 3);
    }

    /// The workspace forms are bitwise the allocating ones, whatever a
    /// reused buffer held before.
    #[test]
    fn workspace_forms_match_the_allocating_forms_bitwise() {
        let f = butter_lowpass(4, 900.0, 48_000.0).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 2, 40, 5_000] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 29 + 3) % 17) as f64 - 8.0).collect();
            for stale in [0, n / 3, n + 100] {
                let mut ext = vec![f64::NAN; stale];
                let pad = f.filtfilt_into(&x, &mut ext);
                assert_eq!(ext.len(), n + 2 * pad);
                assert_eq!(bits(&ext[pad..pad + n]), bits(&f.filtfilt(&x)), "n {n}");
            }
            let mut y = x.clone();
            f.filter_in_place(&mut y);
            assert_eq!(bits(&y), bits(&f.filter(&x)), "n {n}");
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(butter_lowpass(0, 100.0, 1_000.0).is_err());
        assert!(butter_lowpass(4, 600.0, 1_000.0).is_err());
        assert!(butter_lowpass(4, -5.0, 1_000.0).is_err());
        assert!(butter_bandpass(2, 500.0, 400.0, 48_000.0).is_err());
    }

    #[test]
    fn complex_filtering_matches_separate_parts() {
        let f = butter_lowpass(3, 1_000.0, 48_000.0).unwrap();
        let x: Vec<Complex64> = (0..512)
            .map(|i| Complex64::new((i as f64 * 0.1).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let y = f.filter_complex(&x);
        let re: Vec<f64> = x.iter().map(|c| c.re).collect();
        let yr = f.filter(&re);
        for (a, b) in y.iter().zip(&yr) {
            assert!((a.re - b).abs() < 1e-12);
        }
    }
}
