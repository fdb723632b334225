//! Oscillators, mixing, and complex-baseband conversion.
//!
//! The PAB receiver "downconverts the signals to baseband by multiplying
//! each of them with its respective carrier frequency" (§5.1(b)). These
//! helpers implement that step plus the numerically controlled oscillator
//! (NCO) used by the projector's waveform synthesis.

use num_complex::Complex64;
use std::f64::consts::TAU;

/// Samples between `from_polar` re-anchors in the phasor-recurrence
/// oscillators below. A unit phasor advanced by complex multiplication
/// drifts by roughly one ulp per step; 512 steps keeps the accumulated
/// error near 1e-13 — far below the 1e-9 agreement the DSP test suite
/// requires — while amortising the two trig calls to ~0.4% of samples.
const PHASOR_RESYNC: usize = 512;

/// Phasor blocks advanced together by [`for_each_phasor`]: four
/// independent complex-multiply chains instead of one serial chain.
const PHASOR_LANES: usize = 4;

/// Call `f(i, rot)` with `rot = exp(j(w·i + phase0))` once for every `i`
/// in `0..n`. The phasor advances by one complex multiply per sample
/// instead of a sin/cos pair, re-anchoring from `from_polar` at every
/// multiple of [`PHASOR_RESYNC`].
///
/// Blocks between anchors do not depend on each other, so whole blocks
/// run [`PHASOR_LANES`] at a time, one phasor each, interleaved sample by
/// sample; the remaining blocks run one after another. Every index still
/// gets the same anchor and the same multiplies, so `rot` is bitwise the
/// sequential recurrence's, but the indices are visited out of order: `f`
/// must touch only index `i` of whatever it reads and writes.
fn for_each_phasor(n: usize, w: f64, phase0: f64, mut f: impl FnMut(usize, Complex64)) {
    let step = Complex64::from_polar(1.0, w);
    let anchor = |i: usize| Complex64::from_polar(1.0, w * i as f64 + phase0);
    let group = PHASOR_LANES * PHASOR_RESYNC;
    let mut i = 0;
    while i + group <= n {
        let mut rot: [Complex64; PHASOR_LANES] =
            std::array::from_fn(|l| anchor(i + l * PHASOR_RESYNC));
        for k in i..i + PHASOR_RESYNC {
            for (l, r) in rot.iter_mut().enumerate() {
                f(k + l * PHASOR_RESYNC, *r);
                *r *= step;
            }
        }
        i += group;
    }
    while i < n {
        let mut rot = anchor(i);
        let end = (i + PHASOR_RESYNC).min(n);
        for k in i..end {
            f(k, rot);
            rot *= step;
        }
        i = end;
    }
}

/// Generate `n` samples of a unit-amplitude real sine at `freq_hz`,
/// sample rate `fs_hz`, starting phase `phase_rad`.
// lint: allow(dead-pub) test-oracle mix_roundtrip_preserves_tone test-signal generator shared by the DSP, channel, core and bench suites
pub fn tone(freq_hz: f64, fs_hz: f64, phase_rad: f64, n: usize) -> Vec<f64> {
    let w = TAU * freq_hz / fs_hz;
    let mut out = vec![0.0; n];
    for_each_phasor(n, w, phase_rad, |i, rot| out[i] = rot.im);
    out
}

/// Generate `n` samples of a unit complex exponential `exp(j(2πf t + φ))`.
// lint: allow(dead-pub) test-oracle complex_correlation_detects_offset_tone complex test-signal generator for the correlator and mixer tests
pub fn complex_tone(freq_hz: f64, fs_hz: f64, phase_rad: f64, n: usize) -> Vec<Complex64> {
    let w = TAU * freq_hz / fs_hz;
    let mut out = vec![Complex64::new(0.0, 0.0); n];
    for_each_phasor(n, w, phase_rad, |i, rot| out[i] = rot);
    out
}

/// Numerically controlled oscillator with continuous phase across calls.
///
/// Used by the projector to synthesise PWM-keyed carriers without phase
/// discontinuities at bit boundaries.
#[derive(Debug, Clone)]
pub struct Nco {
    phase: f64,
    phase_inc: f64,
}

impl Nco {
    /// Create an NCO at `freq_hz` for sample rate `fs_hz`.
    pub fn new(freq_hz: f64, fs_hz: f64) -> Self {
        Nco {
            phase: 0.0,
            phase_inc: TAU * freq_hz / fs_hz,
        }
    }

    /// Produce the next real sample (sine convention).
    // lint: unitless oscillator sample in [-1, 1]
    pub fn next_sample(&mut self) -> f64 {
        let s = self.phase.sin();
        self.phase = (self.phase + self.phase_inc) % TAU;
        s
    }

    /// Fill a buffer with consecutive samples.
    ///
    /// Samples come from a phasor recurrence (one complex multiply each)
    /// re-anchored from the exact running phase every `PHASOR_RESYNC`
    /// samples; the phase accumulator itself advances exactly as in
    /// [`Nco::next_sample`], so the two can be interleaved without a phase jump.
    pub fn fill(&mut self, out: &mut [f64]) {
        let step = Complex64::from_polar(1.0, self.phase_inc);
        let mut i = 0;
        while i < out.len() {
            let mut rot = Complex64::from_polar(1.0, self.phase);
            let end = (i + PHASOR_RESYNC).min(out.len());
            for o in &mut out[i..end] {
                *o = rot.im;
                rot *= step;
                self.phase = (self.phase + self.phase_inc) % TAU;
            }
            i = end;
        }
    }
}

/// Downconvert a real passband signal to complex baseband:
/// `y[n] = x[n] * exp(-j 2π f n / fs_hz)`.
///
/// The result still contains the double-frequency image; follow with a
/// low-pass filter (see [`crate::iir::butter_lowpass`]).
// lint: allow(dead-pub) test-oracle mix_roundtrip_preserves_tone allocating form of downconvert_into, the receiver tests' reference mixer
pub fn downconvert(signal: &[f64], carrier_hz: f64, fs_hz: f64) -> Vec<Complex64> {
    let mut out = vec![Complex64::new(0.0, 0.0); signal.len()];
    downconvert_into(signal, carrier_hz, fs_hz, &mut out);
    out
}

/// [`downconvert`] into a caller-owned buffer (`out.len()` must equal
/// `signal.len()`): the same phasor recurrence writing the same values,
/// but reusable across calls so a hot receive path allocates nothing.
/// The destination may be any sub-slice of a larger workspace — that is
/// what lets the mix fuse into a padded filter buffer.
pub fn downconvert_into(signal: &[f64], carrier_hz: f64, fs_hz: f64, out: &mut [Complex64]) {
    debug_assert_eq!(signal.len(), out.len());
    let w = TAU * carrier_hz / fs_hz;
    for_each_phasor(signal.len(), -w, 0.0, |i, rot| out[i] = rot * signal[i]);
}

/// Upconvert a complex baseband signal onto a real carrier:
/// `y[n] = Re( x[n] * exp(+j 2π f n / fs_hz) )`.
// lint: allow(dead-pub) test-oracle mix_roundtrip_preserves_tone inverse of downconvert for the round-trip property
pub fn upconvert(baseband: &[Complex64], carrier_hz: f64, fs_hz: f64) -> Vec<f64> {
    let w = TAU * carrier_hz / fs_hz;
    let mut out = vec![0.0; baseband.len()];
    for_each_phasor(baseband.len(), w, 0.0, |i, rot| {
        out[i] = (baseband[i] * rot).re;
    });
    out
}

/// Detrend and frequency-shift in one phasor pass: with `rot` the
/// `frequency_shift` phasor (a test oracle), writes `detrended[i] = (x[i] − trend[i])·rot`
/// (`detrended` is cleared and resized to `x.len()`) and shifts `x` in
/// place, `x[i] ← x[i]·rot`. Both are bitwise what `frequency_shift`
/// gives on the difference and on `x`. `trend` must be as long as `x`.
pub fn detrend_shift_in_place(
    x: &mut [Complex64],
    trend: &[Complex64],
    shift_hz: f64,
    fs_hz: f64,
    detrended: &mut Vec<Complex64>,
) {
    assert_eq!(x.len(), trend.len());
    let w = TAU * shift_hz / fs_hz;
    detrended.clear();
    detrended.resize(x.len(), Complex64::new(0.0, 0.0));
    for_each_phasor(x.len(), w, 0.0, |i, rot| {
        detrended[i] = (x[i] - trend[i]) * rot;
        x[i] *= rot;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Apply a frequency shift to a complex baseband signal (used for CFO
    /// correction after estimation).
    fn frequency_shift(signal: &[Complex64], shift_hz: f64, fs_hz: f64) -> Vec<Complex64> {
        let w = TAU * shift_hz / fs_hz;
        let mut out = vec![Complex64::new(0.0, 0.0); signal.len()];
        for_each_phasor(signal.len(), w, 0.0, |i, rot| out[i] = signal[i] * rot);
        out
    }

    /// The one-block-at-a-time recurrence [`for_each_phasor`] replaced,
    /// kept as its oracle.
    fn sequential_phasors(n: usize, w: f64, phase0: f64) -> Vec<Complex64> {
        let step = Complex64::from_polar(1.0, w);
        let mut out = Vec::with_capacity(n);
        let mut i = 0;
        while i < n {
            let mut rot = Complex64::from_polar(1.0, w * i as f64 + phase0);
            let end = (i + PHASOR_RESYNC).min(n);
            for _ in i..end {
                out.push(rot);
                rot *= step;
            }
            i = end;
        }
        out
    }

    #[test]
    fn interleaved_phasors_are_bitwise_the_sequential_recurrence() {
        let group = PHASOR_LANES * PHASOR_RESYNC;
        let mut sizes = vec![0, 1, 511, 512, 513, 2047, 2048, 2049];
        for k in 1..=3 {
            sizes.extend([k * group - 1, k * group + 1]);
        }
        let w = TAU * 15_321.7 / 192_000.0;
        for n in sizes {
            let want = sequential_phasors(n, -w, 0.4);
            let mut got = vec![None; n];
            for_each_phasor(n, -w, 0.4, |i, rot| {
                assert!(got[i].replace(rot).is_none(), "n {n}: index {i} twice");
            });
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let g = g.unwrap_or_else(|| panic!("n {n}: index {i} never visited"));
                assert_eq!(
                    (g.re.to_bits(), g.im.to_bits()),
                    (w.re.to_bits(), w.im.to_bits()),
                    "n {n} at {i}"
                );
            }
        }
    }

    #[test]
    fn nco_matches_tone() {
        let mut nco = Nco::new(1_000.0, 48_000.0);
        let direct = tone(1_000.0, 48_000.0, 0.0, 256);
        let mut buf = vec![0.0; 256];
        nco.fill(&mut buf);
        for (a, b) in direct.iter().zip(&buf) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn phasor_recurrence_matches_per_sample_trig() {
        // Cover several resync boundaries and an awkward frequency.
        let fs_hz = 192_000.0;
        let f = 15_321.7;
        let n = 3 * super::PHASOR_RESYNC + 17;
        let w = TAU * f / fs_hz;
        let t = tone(f, fs_hz, 0.4, n);
        let ct = complex_tone(f, fs_hz, 0.4, n);
        for i in 0..n {
            let ph = w * i as f64 + 0.4;
            assert!((t[i] - ph.sin()).abs() < 1e-11, "tone at {i}");
            assert!((ct[i] - Complex64::from_polar(1.0, ph)).norm() < 1e-11, "ctone at {i}");
        }
        let x: Vec<f64> = (0..n).map(|i| ((i % 37) as f64 - 18.0) / 7.0).collect();
        let bb = downconvert(&x, f, fs_hz);
        for i in 0..n {
            let want = Complex64::from_polar(1.0, -(w * i as f64)) * x[i];
            assert!((bb[i] - want).norm() < 1e-10, "downconvert at {i}");
        }
    }

    #[test]
    fn downconvert_tone_gives_dc_plus_image() {
        let fs_hz = 192_000.0;
        let sig = tone(15_000.0, fs_hz, 0.0, 4096);
        let bb = downconvert(&sig, 15_000.0, fs_hz);
        // Average over an integer number of image periods: the DC term of
        // sin(wt)·e^{-jwt} is -j/2 => magnitude 1/2.
        let mean: Complex64 = bb.iter().sum::<Complex64>() / bb.len() as f64;
        assert!((mean.norm() - 0.5).abs() < 1e-2, "mean {mean}");
        assert!(mean.im < 0.0);
    }

    #[test]
    fn up_down_conversion_roundtrip_preserves_envelope() {
        let fs_hz = 192_000.0;
        let n = 8192;
        // Slow raised-cosine envelope.
        let env: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.5 + 0.5 * (TAU * i as f64 / n as f64).cos(), 0.0))
            .collect();
        let pass = upconvert(&env, 20_000.0, fs_hz);
        let bb = downconvert(&pass, 20_000.0, fs_hz);
        // 2*bb ≈ env after removing the double-frequency image via coarse
        // block averaging.
        let block = 64;
        for blk in (0..n - block).step_by(block * 8) {
            let m: Complex64 =
                bb[blk..blk + block].iter().sum::<Complex64>() / block as f64 * 2.0;
            let e: Complex64 =
                env[blk..blk + block].iter().sum::<Complex64>() / block as f64;
            assert!((m.norm() - e.norm()).abs() < 0.05);
        }
    }

    #[test]
    fn frequency_shift_moves_tone() {
        let fs_hz = 48_000.0;
        let bb = complex_tone(100.0, fs_hz, 0.0, 4800);
        let shifted = frequency_shift(&bb, -100.0, fs_hz);
        let mean = shifted.iter().sum::<Complex64>() / shifted.len() as f64;
        assert!((mean.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fused_detrend_shift_is_bitwise_the_separate_passes() {
        let fs_hz = 96_000.0;
        let n = 2 * super::PHASOR_RESYNC + 93;
        let x: Vec<Complex64> = (0..n)
            .map(|i| {
                Complex64::new(
                    ((i * 13) % 29) as f64 / 3.0 - 4.0,
                    ((i * 7) % 11) as f64 * 0.3,
                )
            })
            .collect();
        let trend: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0 + i as f64 * 1e-3, -0.5))
            .collect();
        let diff: Vec<Complex64> = x.iter().zip(&trend).map(|(&a, &t)| a - t).collect();
        let want_d = frequency_shift(&diff, -3.7, fs_hz);
        let want_x = frequency_shift(&x, -3.7, fs_hz);
        let mut got_x = x.clone();
        let mut got_d = Vec::new();
        detrend_shift_in_place(&mut got_x, &trend, -3.7, fs_hz, &mut got_d);
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        assert_eq!(bits(&got_d), bits(&want_d));
        assert_eq!(bits(&got_x), bits(&want_x));
    }
}
