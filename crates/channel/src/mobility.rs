//! Mobility: time-varying propagation for a moving node (§8 names
//! mobility as one of the open challenges of real deployments).
//!
//! A node receding at velocity `v` sees its propagation delay grow as
//! `τ(t) = (d₀ + v·t)/c`: the received waveform is the transmitted one
//! resampled at a rate `1 − v/c` (Doppler) and attenuated by the growing
//! spreading loss. [`MovingPath`] applies exactly that, sample by sample,
//! with linear interpolation.

use crate::faults::DriftRamp;
use crate::ChannelError;

/// A single direct path to/from a node moving radially at constant speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingPath {
    /// Range at t = 0, meters.
    pub initial_distance_m: f64,
    /// Radial velocity, m/s (positive = receding).
    pub velocity_m_s: f64,
    /// Sound speed, m/s.
    pub sound_speed_m_s: f64,
}

impl MovingPath {
    /// Construct with validation.
    pub fn new(
        initial_distance_m: f64,
        velocity_m_s: f64,
        sound_speed_m_s: f64,
    ) -> Result<Self, ChannelError> {
        if !(initial_distance_m > 0.0) || !initial_distance_m.is_finite() {
            return Err(ChannelError::InvalidParameter("initial_distance_m"));
        }
        if !velocity_m_s.is_finite() || velocity_m_s.abs() >= sound_speed_m_s {
            return Err(ChannelError::InvalidParameter("velocity_m_s"));
        }
        if !(sound_speed_m_s > 0.0) {
            return Err(ChannelError::InvalidParameter("sound_speed_m_s"));
        }
        Ok(MovingPath {
            initial_distance_m,
            velocity_m_s,
            sound_speed_m_s,
        })
    }

    /// Range at time `t_s`, meters (floored at a near-field limit).
    fn distance_at_m(&self, t_s: f64) -> f64 {
        (self.initial_distance_m + self.velocity_m_s * t_s)
            .max(crate::propagation::NEAR_FIELD_LIMIT_M)
    }

    /// The Doppler factor `1 − v/c` (received-rate compression ratio).
    fn doppler_factor(&self) -> f64 {
        1.0 - self.velocity_m_s / self.sound_speed_m_s
    }

    /// Carrier frequency observed at the receiver for a transmitted
    /// `freq_hz`.
    pub fn observed_frequency_hz(&self, freq_hz: f64) -> f64 {
        freq_hz * self.doppler_factor()
    }

    /// Carrier frequency observed at the receiver when the transmitter's
    /// oscillator also drifts: the oscillator emits `freq_hz` plus the
    /// ramp's accumulated offset at emission time `t_s`, and *that* tone
    /// rides the moving path — so drift and Doppler compose
    /// multiplicatively, `(f₀ + Δf(t)) · (1 − v/c)`, not additively.
    fn observed_frequency_with_drift_hz(
        &self,
        freq_hz: f64,
        drift: &DriftRamp,
        t_s: f64,
    ) -> f64 {
        (freq_hz + drift.offset_at_hz(t_s)) * self.doppler_factor()
    }

    /// Total carrier frequency offset (CFO) seen by a receiver tuned to
    /// `freq_hz`, Hz — the composed drift-plus-Doppler error the carrier
    /// recovery loop must absorb.
    pub fn cfo_with_drift_hz(&self, freq_hz: f64, drift: &DriftRamp, t_s: f64) -> f64 {
        self.observed_frequency_with_drift_hz(freq_hz, drift, t_s) - freq_hz
    }

    /// Propagate a sampled waveform along the moving path: per-sample
    /// time-varying delay (Doppler) and spreading loss.
    pub fn apply(&self, signal: &[f64], fs_hz: f64) -> Vec<f64> {
        let c = self.sound_speed_m_s;
        let n_out = signal.len()
            + (self.distance_at_m(signal.len() as f64 / fs_hz) / c * fs_hz).ceil() as usize
            + 2;
        let mut out = vec![0.0; n_out];
        for (i, o) in out.iter_mut().enumerate() {
            let t_rx = i as f64 / fs_hz;
            // Solve t_tx from t_rx = t_tx + (d0 + v·t_tx)/c  (emission-time
            // form; exact for constant radial velocity).
            let t_tx = (t_rx - self.initial_distance_m / c)
                / (1.0 + self.velocity_m_s / c);
            if t_tx < 0.0 {
                continue;
            }
            let x = t_tx * fs_hz;
            let k = x.floor() as usize;
            let frac = x - x.floor();
            if k + 1 >= signal.len() {
                continue;
            }
            let sample = signal[k] * (1.0 - frac) + signal[k + 1] * frac;
            let d = self.distance_at_m(t_tx);
            *o = sample / d.max(crate::propagation::NEAR_FIELD_LIMIT_M);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pab_dsp::goertzel::tone_amplitude;
    use pab_dsp::mix::tone;

    #[test]
    fn stationary_path_matches_free_field() {
        let fs_hz = 48_000.0;
        let p = MovingPath::new(3.0, 0.0, 1_500.0).unwrap();
        let x = tone(1_000.0, fs_hz, 0.0, 9_600);
        let y = p.apply(&x, fs_hz);
        // Amplitude 1/3, frequency unchanged.
        let a = tone_amplitude(&y[2_000..8_000], 1_000.0, fs_hz);
        assert!((a - 1.0 / 3.0).abs() < 0.01, "a={a}");
        assert!((p.observed_frequency_hz(1_000.0) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn receding_node_shifts_frequency_down() {
        let fs_hz = 192_000.0;
        let v = 5.0; // m/s, fast swimmer
        let p = MovingPath::new(2.0, v, 1_500.0).unwrap();
        let f0 = 15_000.0;
        let x = tone(f0, fs_hz, 0.0, 192_000);
        let y = p.apply(&x, fs_hz);
        let f_obs = p.observed_frequency_hz(f0);
        assert!(f_obs < f0);
        // Energy sits at the Doppler-shifted frequency, not the original.
        let seg = &y[20_000..170_000];
        let at_shifted = tone_amplitude(seg, f_obs, fs_hz);
        let at_original = tone_amplitude(seg, f0, fs_hz);
        assert!(
            at_shifted > 3.0 * at_original,
            "shifted {at_shifted} vs original {at_original}"
        );
    }

    #[test]
    fn approaching_node_shifts_frequency_up_and_gets_louder() {
        let fs_hz = 192_000.0;
        let p = MovingPath::new(5.0, -2.0, 1_500.0).unwrap();
        assert!(p.observed_frequency_hz(15_000.0) > 15_000.0);
        let x = tone(15_000.0, fs_hz, 0.0, 192_000);
        let y = p.apply(&x, fs_hz);
        // Early (far) quieter than late (near).
        let early = tone_amplitude(&y[10_000..40_000], p.observed_frequency_hz(15_000.0), fs_hz);
        let late = tone_amplitude(&y[150_000..180_000], p.observed_frequency_hz(15_000.0), fs_hz);
        assert!(late > early, "late {late} vs early {early}");
    }

    #[test]
    fn distance_floors_at_near_field() {
        let p = MovingPath::new(1.0, -10.0, 1_500.0).unwrap();
        // After 1 s the node would be 9 m "past" the receiver; the model
        // clamps instead of inverting.
        assert!(p.distance_at_m(10.0) >= crate::propagation::NEAR_FIELD_LIMIT_M);
    }

    #[test]
    fn drift_and_doppler_compose_multiplicatively() {
        // Regression pin: a 15 kHz carrier from an oscillator that has
        // drifted +5 Hz (0.5 Hz/s for 10 s), on a node receding at 2 m/s
        // in 1500 m/s water. The drifted tone (15005 Hz) is what rides
        // the Doppler compression:
        //   CFO = (15000 + 5)·(1 − 2/1500) − 15000 = −15.00666... Hz
        let p = MovingPath::new(5.0, 2.0, 1_500.0).unwrap();
        let drift = DriftRamp {
            rate_hz_per_s: 0.5,
            max_abs_hz: 20.0,
        };
        let cfo = p.cfo_with_drift_hz(15_000.0, &drift, 10.0);
        assert!((cfo - (-15.006666666666666)).abs() < 1e-9, "cfo {cfo}");
        // The additive shortcut (f0·factor + Δf) is wrong by Δf·v/c —
        // small, but the whole point of composing properly.
        let additive = p.observed_frequency_hz(15_000.0) + drift.offset_at_hz(10.0);
        let composed = p.observed_frequency_with_drift_hz(15_000.0, &drift, 10.0);
        assert!((additive - composed - 5.0 * 2.0 / 1_500.0).abs() < 1e-9);
        // Saturation carries through: far past the ramp bound the offset
        // pins at max_abs_hz.
        let cfo_late = p.cfo_with_drift_hz(15_000.0, &drift, 1e4);
        assert!((cfo_late - ((15_000.0 + 20.0) * p.doppler_factor() - 15_000.0)).abs() < 1e-9);
        // Zero drift degenerates to the plain Doppler CFO.
        let none = DriftRamp {
            rate_hz_per_s: 0.0,
            max_abs_hz: 0.0,
        };
        let plain = p.observed_frequency_hz(15_000.0) - 15_000.0;
        assert!((p.cfo_with_drift_hz(15_000.0, &none, 10.0) - plain).abs() < 1e-12);
    }

    #[test]
    fn rejects_unphysical_parameters() {
        assert!(MovingPath::new(0.0, 1.0, 1_500.0).is_err());
        assert!(MovingPath::new(1.0, 2_000.0, 1_500.0).is_err());
        assert!(MovingPath::new(1.0, 0.0, 0.0).is_err());
        assert!(MovingPath::new(1.0, f64::NAN, 1_500.0).is_err());
    }
}
