//! Envelope detection.
//!
//! The PAB node's downlink decoder is an analog envelope detector followed
//! by a Schmitt trigger (§4.2.1), modelled here. The hydrophone-side
//! demodulator (Fig. 2) is the receiver's, in `pab-core`.

use crate::iir::Cascade;
use crate::DspError;

/// Asynchronous (diode-style) envelope: full-wave rectify, then low-pass
/// zero-phase with `lp`. Mirrors the node's analog detector, which has
/// no carrier reference.
///
/// Runs on a caller-owned padded workspace: `ext` must be
/// `signal.len() + 2·pad` long, with `pad = lp.filtfilt_pad(signal.len())`.
/// The rectified signal is written straight into its centre, filtered
/// there in place and scaled, so `ext`'s old contents are never read.
/// Returns `pad`; the envelope is `ext[pad..pad + signal.len()]`.
pub fn rectified_envelope_into(
    lp: &Cascade,
    signal: &[f64],
    ext: &mut [f64],
) -> Result<usize, DspError> {
    let n = signal.len();
    let pad = lp.filtfilt_pad(n);
    if ext.len() != n + 2 * pad {
        return Err(DspError::InvalidParameter(
            "envelope workspace must be the signal plus both pads",
        ));
    }
    let (_, rest) = ext.split_at_mut(pad);
    for (e, &x) in rest.iter_mut().zip(signal) {
        *e = x.abs();
    }
    lp.filtfilt_real_in_place(ext, pad, n);
    // π/2 compensates the mean of |sin| = 2/π.
    let (_, rest) = ext.split_at_mut(pad);
    for e in rest.iter_mut().take(n) {
        *e *= std::f64::consts::FRAC_PI_2;
    }
    Ok(pad)
}

/// Schmitt trigger: discretises an envelope into high/low with hysteresis,
/// exactly as the TXB0302 trigger + level shifter does on the node.
#[derive(Debug, Clone, Copy)]
pub struct SchmittTrigger {
    /// Rising threshold.
    // lint: unitless threshold in the envelope's own amplitude units
    pub high_threshold: f64,
    /// Falling threshold (must be < high_threshold).
    // lint: unitless threshold in the envelope's own amplitude units
    pub low_threshold: f64,
}

impl SchmittTrigger {
    /// Create a trigger; errors if thresholds are not ordered.
    pub fn new(
        low_threshold: f64,  // lint: unitless — in the envelope's own amplitude units
        high_threshold: f64, // lint: unitless — in the envelope's own amplitude units
    ) -> Result<Self, DspError> {
        if !(low_threshold < high_threshold) {
            return Err(DspError::InvalidParameter(
                "low_threshold must be < high_threshold",
            ));
        }
        Ok(SchmittTrigger {
            high_threshold,
            low_threshold,
        })
    }

    /// Convert an envelope into a boolean level sequence. Starts low.
    pub fn discretize(&self, envelope: &[f64]) -> Vec<bool> {
        let mut state = false;
        envelope
            .iter()
            .map(|&x| {
                if state && x < self.low_threshold {
                    state = false;
                } else if !state && x > self.high_threshold {
                    state = true;
                }
                state
            })
            .collect()
    }
}

/// Edge events extracted from a discretised level sequence; the MCU's
/// timer-capture interrupt sees exactly these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Sample index at which the transition happened.
    pub sample: usize,
    /// `true` for a rising edge, `false` for falling.
    pub rising: bool,
}

/// Extract all edges from a boolean level sequence.
pub fn edges(levels: &[bool]) -> Vec<Edge> {
    let mut out = Vec::new();
    for (i, pair) in levels.windows(2).enumerate() {
        if pair[1] != pair[0] {
            out.push(Edge {
                sample: i + 1,
                rising: pair[1],
            });
        }
    }
    out
}

/// Reusable envelope-follower with a one-pole low-pass, for streaming use.
#[derive(Debug, Clone)]
pub struct EnvelopeFollower {
    alpha: f64,
    state: f64,
}

impl EnvelopeFollower {
    /// Time-constant style constructor: `cutoff_hz` sets the smoothing pole.
    pub fn new(cutoff_hz: f64, fs_hz: f64) -> Result<Self, DspError> {
        if !(cutoff_hz > 0.0 && cutoff_hz < fs_hz / 2.0) {
            return Err(DspError::FrequencyOutOfRange {
                frequency_hz: cutoff_hz,
                nyquist_hz: fs_hz / 2.0,
            });
        }
        let alpha = 1.0 - (-std::f64::consts::TAU * cutoff_hz / fs_hz).exp();
        Ok(EnvelopeFollower { alpha, state: 0.0 })
    }

    /// Process one sample, returning the current envelope estimate.
    pub fn step(&mut self, x: f64) -> f64 { // lint: unitless — one sample in the signal's own units
        self.state += self.alpha * (x.abs() - self.state);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iir::butter_lowpass;
    use crate::mix::tone;

    fn ask_signal(fs_hz: f64, carrier: f64, high: f64, low: f64, half_period: usize) -> Vec<f64> {
        // On-off-ish keyed carrier alternating between two amplitudes.
        let n = half_period * 8;
        let c = tone(carrier, fs_hz, 0.0, n);
        c.iter()
            .enumerate()
            .map(|(i, &x)| {
                let amp = if (i / half_period).is_multiple_of(2) { high } else { low };
                amp * x
            })
            .collect()
    }

    #[test]
    fn rectified_envelope_tracks_amplitude() {
        let fs_hz = 192_000.0;
        let sig = ask_signal(fs_hz, 15_000.0, 0.8, 0.2, 19_200);
        let lp = butter_lowpass(2, 400.0, fs_hz).unwrap();
        let pad = lp.filtfilt_pad(sig.len());
        let mut ext = vec![f64::NAN; sig.len() + 2 * pad];
        assert_eq!(rectified_envelope_into(&lp, &sig, &mut ext).unwrap(), pad);
        let env = &ext[pad..pad + sig.len()];
        assert!((env[9_600] - 0.8).abs() < 0.08);
        assert!((env[28_800] - 0.2).abs() < 0.08);
        // Bitwise the filtfilt of the rectified signal, scaled.
        let rect: Vec<f64> = sig.iter().map(|x| x.abs()).collect();
        let want: Vec<u64> = lp
            .filtfilt(&rect)
            .iter()
            .map(|&x| (x * std::f64::consts::FRAC_PI_2).to_bits())
            .collect();
        assert_eq!(env.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
        assert!(rectified_envelope_into(&lp, &sig, &mut ext[1..]).is_err());
    }

    #[test]
    fn schmitt_trigger_has_hysteresis() {
        let trig = SchmittTrigger::new(0.3, 0.7).unwrap();
        let env = vec![0.0, 0.5, 0.8, 0.5, 0.4, 0.31, 0.2, 0.5, 0.9];
        let lv = trig.discretize(&env);
        // Rises only above 0.7; stays high through 0.31; falls below 0.3.
        assert_eq!(
            lv,
            vec![false, false, true, true, true, true, false, false, true]
        );
    }

    #[test]
    fn schmitt_rejects_bad_thresholds() {
        assert!(SchmittTrigger::new(0.7, 0.3).is_err());
        assert!(SchmittTrigger::new(0.5, 0.5).is_err());
    }

    #[test]
    fn edges_are_extracted_with_direction() {
        let lv = vec![false, true, true, false, true];
        let e = edges(&lv);
        assert_eq!(
            e,
            vec![
                Edge { sample: 1, rising: true },
                Edge { sample: 3, rising: false },
                Edge { sample: 4, rising: true },
            ]
        );
    }

    #[test]
    fn follower_converges_to_rectified_mean_scale() {
        let fs_hz = 48_000.0;
        let mut f = EnvelopeFollower::new(100.0, fs_hz).unwrap();
        let sig = tone(1_000.0, fs_hz, 0.0, 48_000);
        let mut last = 0.0;
        for &x in &sig {
            last = f.step(x);
        }
        // Converges near mean(|sin|) = 2/pi.
        assert!((last - std::f64::consts::FRAC_2_PI).abs() < 0.05, "last={last}");
    }
}
