//! The projector (transmitter): an in-house transducer driven by a power
//! amplifier (§5.1(a)), synthesising PWM-keyed acoustic carriers.
//!
//! Following the paper, the projector's own matching circuit is re-tuned
//! per configuration "to optimize the power transfer between the power
//! amplifier and the transducer", so the synthesised source level is
//! frequency-flat across the sweep range: the recto-piezo under test is
//! the only frequency-selective element.

use crate::{CoreError, DEFAULT_SAMPLE_RATE_HZ};
use pab_dsp::mix::Nco;
use pab_net::packet::DownlinkQuery;
use pab_net::pwm::{self, PwmTiming};
use pab_piezo::Transducer;

/// The acoustic projector.
#[derive(Debug, Clone)]
pub struct Projector {
    /// The projector transducer (sets the V → Pa·m conversion).
    pub transducer: Transducer,
    /// Drive voltage amplitude from the power amplifier, volts.
    pub drive_voltage_v: f64,
    /// Downlink PWM timing.
    pub pwm: PwmTiming,
    /// Sample rate for waveform synthesis, Hz.
    pub fs_hz: f64,
    /// Oscillator frequency error, Hz (models the CFO between projector
    /// and receiver sound cards noted in §5.1(b), footnote 12).
    pub cfo_hz: f64,
    /// Carrier-settle duration before the PWM query, seconds.
    pub settle_s: f64,
}

impl Projector {
    /// A projector at `drive_voltage_v` with default timing and rate.
    pub fn new(drive_voltage_v: f64) -> Result<Self, CoreError> {
        if !(drive_voltage_v > 0.0) || !drive_voltage_v.is_finite() {
            return Err(CoreError::InvalidConfig("drive_voltage_v"));
        }
        Ok(Projector {
            transducer: Transducer::pab_projector(),
            drive_voltage_v,
            pwm: PwmTiming::pab_default(),
            fs_hz: DEFAULT_SAMPLE_RATE_HZ,
            cfo_hz: 0.0,
            settle_s: 0.08,
        })
    }

    /// Source pressure amplitude at 1 m, pascals (frequency-flat — see
    /// module docs).
    pub(crate) fn source_pressure_pa(&self) -> f64 {
        self.transducer.tx_sensitivity_pa_m_per_v * self.drive_voltage_v
    }

    /// Synthesise a continuous-wave carrier of `duration_s` at
    /// `carrier_hz`, as source pressure at 1 m.
    pub fn continuous_wave(&self, carrier_hz: f64, duration_s: f64) -> Vec<f64> {
        let n = (duration_s * self.fs_hz).round() as usize;
        let mut nco = Nco::new(carrier_hz + self.cfo_hz, self.fs_hz);
        let amp = self.source_pressure_pa();
        let mut out = vec![0.0; n];
        nco.fill(&mut out);
        for s in &mut out {
            *s *= amp;
        }
        out
    }

    /// Synthesise the full downlink waveform for one query/response slot:
    /// a carrier-settle period (lets the node's envelope detector and
    /// AC-coupling bias converge, and its trailing edge is the PWM timing
    /// reference), the PWM-keyed query, then `cw_tail_s` of continuous
    /// carrier that illuminates the node while it backscatters.
    ///
    /// Returns `(samples, query_end_s)` where `query_end_s` is the time
    /// the PWM portion ends and the CW illumination begins.
    pub fn query_waveform(
        &self,
        query: &DownlinkQuery,
        carrier_hz: f64,
        cw_tail_s: f64,
    ) -> Result<(Vec<f64>, f64), CoreError> {
        if !(carrier_hz > 0.0 && carrier_hz < self.fs_hz / 2.0) {
            return Err(CoreError::InvalidConfig("carrier_hz"));
        }
        let bits = query.to_bits();
        // Settle carrier, then a reference '0'-width pulse so the first
        // falling edges anchor PWM timing, then the query bits.
        let settle = (self.settle_s * self.fs_hz).round() as usize;
        let mut keyed = vec![false];
        keyed.extend(&bits);
        let segments = pwm::encode(&keyed, &self.pwm);
        let mut keying = vec![true; settle];
        // A gap after the settle period so its falling edge is clean.
        keying.extend(vec![false; (self.pwm.gap_s * self.fs_hz).round() as usize]);
        keying.extend(pwm::rasterize(&segments, self.fs_hz));
        let query_end_s = keying.len() as f64 / self.fs_hz;
        let tail = (cw_tail_s * self.fs_hz).round() as usize;
        let total = keying.len() + tail;
        let mut nco = Nco::new(carrier_hz + self.cfo_hz, self.fs_hz);
        let amp = self.source_pressure_pa();
        let mut out = Vec::with_capacity(total);
        for i in 0..total {
            let s = nco.next_sample();
            let on = if i < keying.len() { keying[i] } else { true };
            out.push(if on { amp * s } else { 0.0 });
        }
        Ok((out, query_end_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pab_dsp::goertzel::tone_amplitude;
    use pab_net::packet::Command;

    impl Projector {
        /// Sum several per-carrier waveforms into one pressure waveform
        /// (dual-frequency downlink for concurrent FDMA, §6.3). Buffers of
        /// different lengths are zero-extended.
        fn sum_waveforms(waves: &[Vec<f64>]) -> Vec<f64> {
            let n = waves.iter().map(Vec::len).max().unwrap_or(0);
            let mut out = vec![0.0; n];
            for w in waves {
                for (o, &s) in out.iter_mut().zip(w) {
                    *o += s;
                }
            }
            out
        }
    }

    #[test]
    fn cw_has_requested_amplitude_and_frequency() {
        let p = Projector::new(36.0).unwrap();
        let w = p.continuous_wave(15_000.0, 0.1);
        assert_eq!(w.len(), 19_200);
        let a = tone_amplitude(&w, 15_000.0, p.fs_hz);
        assert!((a - p.source_pressure_pa()).abs() / a < 0.01, "a={a}");
    }

    #[test]
    fn query_waveform_keys_the_carrier() {
        let p = Projector::new(36.0).unwrap();
        let q = DownlinkQuery {
            dest: 3,
            command: Command::Ping,
        };
        let (w, query_end) = p.query_waveform(&q, 15_000.0, 0.05).unwrap();
        assert!(query_end > 0.0);
        // The PWM portion contains zero (carrier-off) stretches...
        let query_n = (query_end * p.fs_hz) as usize;
        let zeros = w[..query_n].iter().filter(|&&x| x == 0.0).count();
        assert!(zeros > query_n / 10, "zeros={zeros}");
        // ...and the CW tail does not.
        let tail = &w[query_n..];
        assert!(tail.iter().all(|&x| x.abs() <= p.source_pressure_pa() * 1.001));
        let tail_amp = tone_amplitude(tail, 15_000.0, p.fs_hz);
        assert!((tail_amp - p.source_pressure_pa()).abs() / tail_amp < 0.02);
    }

    /// The PWM downlink is the sparse source the propagation kernel skips
    /// through; on real queries at both slot rates, through a real
    /// image-method channel, it must leave every sample bitwise where the
    /// dense per-tap loop does.
    #[test]
    fn query_waveform_propagates_bitwise_like_the_per_tap_loop() {
        use pab_channel::{Pool, Position};
        use pab_dsp::resample::add_delayed_scaled;
        let queries = [
            (96_000.0, Command::SetBitrateDivider(0x2a5)),
            (192_000.0, Command::Ping),
        ];
        for (fs_hz, command) in queries {
            let mut p = Projector::new(100.0).unwrap();
            p.fs_hz = fs_hz;
            let q = DownlinkQuery { dest: 2, command };
            let (w, _) = p.query_waveform(&q, 15_000.0, 0.1).unwrap();
            let zeros = w.iter().filter(|&&x| x == 0.0).count();
            assert!(
                zeros > w.len() / 4,
                "{fs_hz} Hz: {zeros} zeros in {}",
                w.len()
            );
            let ch = Pool::pool_a()
                .channel(
                    &Position::new(0.5, 1.5, 0.6),
                    &Position::new(1.5, 1.8, 0.6),
                    3,
                    15_000.0,
                )
                .unwrap();
            let got = ch.apply(&w, fs_hz);
            let mut want = vec![0.0; got.len()];
            for t in ch.taps() {
                add_delayed_scaled(&mut want, &w, t.delay_s * fs_hz, t.gain);
            }
            for (i, (g, x)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), x.to_bits(), "{fs_hz} Hz: sample {i}");
            }
        }
    }

    #[test]
    fn query_duration_matches_pwm_timing() {
        let p = Projector::new(36.0).unwrap();
        let q = DownlinkQuery {
            dest: 0xFF,
            command: Command::Ping,
        };
        let bits = q.to_bits();
        let mut keyed = vec![false];
        keyed.extend(&bits);
        let expect = p.pwm.total_duration_s(&keyed) + p.settle_s + p.pwm.gap_s;
        let (_, query_end) = p.query_waveform(&q, 15_000.0, 0.0).unwrap();
        assert!((query_end - expect).abs() < 1e-3, "{query_end} vs {expect}");
    }

    #[test]
    fn cfo_shifts_the_carrier() {
        let mut p = Projector::new(36.0).unwrap();
        p.cfo_hz = 40.0;
        let w = p.continuous_wave(15_000.0, 0.5);
        let on_freq = tone_amplitude(&w, 15_040.0, p.fs_hz);
        let off_freq = tone_amplitude(&w, 15_000.0, p.fs_hz);
        assert!(on_freq > 10.0 * off_freq);
    }

    #[test]
    fn sum_waveforms_superposes_and_extends() {
        let a = vec![1.0, 1.0];
        let b = vec![0.5, 0.5, 0.5];
        let s = Projector::sum_waveforms(&[a, b]);
        assert_eq!(s, vec![1.5, 1.5, 0.5]);
        assert!(Projector::sum_waveforms(&[]).is_empty());
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Projector::new(0.0).is_err());
        let p = Projector::new(36.0).unwrap();
        let q = DownlinkQuery {
            dest: 1,
            command: Command::Ping,
        };
        assert!(p.query_waveform(&q, 0.0, 0.1).is_err());
        assert!(p.query_waveform(&q, 100_000.0, 0.1).is_err());
    }
}
