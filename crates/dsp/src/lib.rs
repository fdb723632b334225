//! # pab-dsp — signal-processing primitives for the PAB stack
//!
//! This crate provides the DSP building blocks used throughout the
//! Piezo-Acoustic Backscatter (PAB) reproduction: windows, FFT helpers,
//! FIR/IIR filters (including Butterworth designs matching the paper's
//! receiver), numerically controlled oscillators and downconversion,
//! decimation and fractional delay, envelope detection, correlation, and
//! dB/statistics utilities.
//!
//! Everything operates on plain `&[f64]` / `Vec<f64>` sample buffers (real
//! pressure or voltage waveforms) or `Complex64` baseband buffers. No I/O,
//! no global state, no allocation surprises: the API is deterministic and
//! suitable for reproducible simulation, in the spirit of event-driven
//! network stacks such as smoltcp.
//!
//! ```
//! use pab_dsp::{mix, iir};
//!
//! let fs_hz = 192_000.0;
//! let carrier = mix::tone(15_000.0, fs_hz, 0.0, 1024);
//! let bb = mix::downconvert(&carrier, 15_000.0, fs_hz);
//! let lp = iir::butter_lowpass(4, 2_000.0, fs_hz).unwrap();
//! // Low-pass the complex baseband to remove the double-frequency image,
//! // then the magnitude (x2 to undo real->complex mixing loss) is the
//! // envelope: constant 1.0 for a pure unit tone.
//! let env: Vec<f64> = lp.filtfilt_complex(&bb).iter().map(|c| 2.0 * c.norm()).collect();
//! assert!((env[512] - 1.0).abs() < 0.05);
//! ```
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it is
// also true for NaN, so one guard rejects non-positive *and* non-numeric
// parameters.
#![allow(clippy::neg_cmp_op_on_partial_ord)]


pub mod correlate;
pub mod envelope;
pub mod fastconv;
pub mod fir;
pub mod goertzel;
pub mod iir;
pub mod mix;
pub mod plan;
pub mod polyphase;
pub mod resample;
pub mod stats;
pub mod window;

pub use num_complex::Complex64;

/// Errors produced by DSP routines when given invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DspError {
    /// A cutoff or center frequency was not inside `(0, fs_hz/2)`.
    FrequencyOutOfRange { frequency_hz: f64, nyquist_hz: f64 },
    /// Filter order/length parameter was invalid (zero, or too large).
    InvalidOrder(usize),
    /// An input buffer was too short for the requested operation.
    InputTooShort { needed: usize, got: usize },
    /// A numeric parameter was invalid (NaN, non-positive, ...).
    InvalidParameter(&'static str),
}

impl std::fmt::Display for DspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DspError::FrequencyOutOfRange {
                frequency_hz,
                nyquist_hz,
            } => write!(
                f,
                "frequency {frequency_hz} Hz outside (0, {nyquist_hz}) Hz"
            ),
            DspError::InvalidOrder(n) => write!(f, "invalid filter order {n}"),
            DspError::InputTooShort { needed, got } => {
                write!(f, "input too short: need {needed} samples, got {got}")
            }
            DspError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for DspError {}

// Spectral analysis oracles for the tests; no simulator stage uses an FFT
// spectrum.
#[cfg(test)]
mod fft;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = DspError::FrequencyOutOfRange {
            frequency_hz: 99_000.0,
            nyquist_hz: 96_000.0,
        };
        let s = e.to_string();
        assert!(s.contains("99000"));
        assert!(s.contains("96000"));
        assert!(DspError::InvalidOrder(0).to_string().contains('0'));
        assert!(DspError::InputTooShort { needed: 8, got: 2 }
            .to_string()
            .contains("8"));
        assert!(DspError::InvalidParameter("q").to_string().contains('q'));
    }
}
