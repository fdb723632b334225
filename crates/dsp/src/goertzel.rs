//! Goertzel single-bin DFT — a cheap way to measure energy at one known
//! frequency, used by tests and by the recto-piezo frequency sweep where a
//! full FFT per point would be wasteful.

use num_complex::Complex64;
use std::f64::consts::TAU;

/// A Goertzel detector for one fixed `(freq_hz, fs_hz)` bin.
///
/// The recurrence coefficient and end-correction trig are computed once at
/// construction, so a receiver evaluating the same bin packet after packet
/// (e.g. the FSK downlink decoder or the recto-piezo frequency sweep) pays
/// no per-call trigonometry beyond the final phase-reference rotation.
#[derive(Debug, Clone, Copy)]
pub struct GoertzelBin {
    w: f64,
    coeff: f64,
    cos_w: f64,
    sin_w: f64,
}

impl GoertzelBin {
    /// Plan a detector for `freq_hz` at sample rate `fs_hz`.
    pub fn new(freq_hz: f64, fs_hz: f64) -> Self {
        let w = TAU * freq_hz / fs_hz;
        GoertzelBin {
            w,
            coeff: 2.0 * w.cos(),
            cos_w: w.cos(),
            sin_w: w.sin(),
        }
    }

    /// Complex DFT coefficient of `signal` at this bin (not normalised by N).
    fn evaluate(&self, signal: &[f64]) -> Complex64 {
        let n = signal.len();
        if n == 0 {
            return Complex64::new(0.0, 0.0);
        }
        let (mut s_prev, mut s_prev2) = (0.0_f64, 0.0_f64);
        for &x in signal {
            let s = x + self.coeff * s_prev - s_prev2;
            s_prev2 = s_prev;
            s_prev = s;
        }
        // y[N-1] phase-referenced to the start of the block.
        let real = s_prev - s_prev2 * self.cos_w;
        let imag = s_prev2 * self.sin_w;
        let raw = Complex64::new(real, imag);
        // Rotate so the phase matches a DFT evaluated at sample index 0.
        raw * Complex64::from_polar(1.0, -self.w * (n as f64 - 1.0))
    }
}

/// Complex DFT coefficient of `signal` at `freq_hz` (not normalised by N).
/// One-shot convenience over [`GoertzelBin`]; hoist the bin out of the loop
/// when evaluating the same frequency repeatedly.
fn goertzel(signal: &[f64], freq_hz: f64, fs_hz: f64) -> Complex64 {
    GoertzelBin::new(freq_hz, fs_hz).evaluate(signal)
}

/// Amplitude of the sinusoidal component at `freq_hz` (a unit sine reads 1.0,
/// assuming an integer number of periods fits the block).
// lint: unitless amplitude in the input's own units
pub fn tone_amplitude(signal: &[f64], freq_hz: f64, fs_hz: f64) -> f64 { // lint: allow(dead-pub) test-oracle cw_has_requested_amplitude_and_frequency
    if signal.is_empty() {
        return 0.0;
    }
    2.0 * goertzel(signal, freq_hz, fs_hz).norm() / signal.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::tone;

    #[test]
    fn unit_sine_amplitude_reads_one() {
        let fs_hz = 48_000.0;
        // 1 kHz: exactly 100 periods in 4800 samples.
        let sig = tone(1_000.0, fs_hz, 0.0, 4800);
        let a = tone_amplitude(&sig, 1_000.0, fs_hz);
        assert!((a - 1.0).abs() < 1e-6, "a={a}");
    }

    #[test]
    fn off_frequency_energy_is_small() {
        let fs_hz = 48_000.0;
        let sig = tone(1_000.0, fs_hz, 0.0, 4800);
        let a = tone_amplitude(&sig, 3_000.0, fs_hz);
        assert!(a < 1e-6);
    }

    #[test]
    fn amplitude_scales_linearly() {
        let fs_hz = 48_000.0;
        let sig: Vec<f64> = tone(2_000.0, fs_hz, 0.4, 4800).iter().map(|x| 3.5 * x).collect();
        let a = tone_amplitude(&sig, 2_000.0, fs_hz);
        assert!((a - 3.5).abs() < 1e-6);
    }

    #[test]
    fn matches_fft_bin() {
        let fs_hz = 8_000.0;
        let sig = tone(1_000.0, fs_hz, 0.7, 64);
        let g = goertzel(&sig, 1_000.0, fs_hz);
        let spectrum = crate::fft::fft(
            &sig.iter()
                .map(|&x| Complex64::new(x, 0.0))
                .collect::<Vec<_>>(),
        );
        let bin = spectrum[8]; // 1000 Hz = bin 8 of 64 at 8 kHz.
        assert!((g - bin).norm() < 1e-6, "g={g} bin={bin}");
    }

    #[test]
    fn empty_signal_reads_zero() {
        assert_eq!(tone_amplitude(&[], 100.0, 1_000.0), 0.0);
        assert_eq!(goertzel(&[], 100.0, 1_000.0).norm(), 0.0);
    }
}
