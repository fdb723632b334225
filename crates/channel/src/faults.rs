//! Seeded, schedulable link impairments — the fault-injection substrate.
//!
//! The paper's evaluation lives in quiet tanks; a deployed network sees
//! bubbles and surface agitation (broadband noise bursts), slow path-gain
//! fades as geometry and stratification drift, supercap brown-outs that
//! silence a node for seconds (the Fig. 9 power-up threshold crossed from
//! above), and oscillator drift that walks the carrier off the receiver's
//! tuning. A [`FaultSchedule`] composes any of these onto a link as a
//! pure function of *absolute simulation time*, so the same schedule
//! replays bit-identically regardless of how the caller slices time into
//! slots.
//!
//! Determinism contract: every random draw is derived from
//! `(schedule seed, burst index, absolute sample index)` through a
//! SplitMix64 finaliser — never from call order or shared RNG state — so
//! fault-injected runs stay reproducible under the workspace's seeded-RNG
//! discipline and under parallel sweeps.

use crate::ChannelError;

/// SplitMix64 finaliser: the workspace's standard stateless scrambler
/// (same constants as `pab_sweep::derive_seed`).
fn mix64(z0: u64) -> u64 {
    let mut z = z0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A standard normal sample derived purely from `seed` (Box–Muller over
/// two SplitMix64 uniforms). Stateless, so sample `k` of burst `b` is the
/// same value no matter how the enclosing window is sliced.
fn normal_from_seed(seed: u64) -> f64 {
    let u1 = ((mix64(seed) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = (mix64(seed ^ 0xD1B5_4A32_D192_ED03) >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A transient broadband noise burst (bubble cloud, surface agitation,
/// passing vessel): additive white noise of RMS `rms_pa` over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BroadbandBurst {
    /// Burst onset, seconds of absolute simulation time.
    pub start_s: f64,
    /// Burst duration, seconds.
    pub duration_s: f64,
    /// RMS pressure of the added noise, pascals.
    pub rms_pa: f64,
}

/// A slow path-gain fade: the link gain ramps from 1 down to
/// `floor_ratio` at the window centre and back, on a raised-cosine
/// profile (smooth, so it models geometry/stratification drift rather
/// than a switching event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathFade {
    /// Fade onset, seconds of absolute simulation time.
    pub start_s: f64,
    /// Fade duration, seconds.
    pub duration_s: f64,
    /// Gain floor at the fade centre, as a ratio in (0, 1].
    pub floor_ratio: f64,
}

impl PathFade {
    /// Where `t_s` falls in the fade window: 0 at onset, 1 at the end.
    fn position(&self, t_s: f64) -> f64 {
        (t_s - self.start_s) / self.duration_s
    }

    /// The fade's gain factor at `t_s`, or `None` outside its window.
    fn factor_at(&self, t_s: f64) -> Option<f64> {
        let u = self.position(t_s);
        // 0 at the edges, 1 at the centre.
        (0.0..=1.0).contains(&u).then(|| {
            let shape = 0.5 * (1.0 - (std::f64::consts::TAU * u).cos());
            1.0 - (1.0 - self.floor_ratio) * shape
        })
    }
}

/// The product, in order, of every fade's factor at `t_s` (1.0 when none
/// applies).
fn fade_product(fades: &[PathFade], t_s: f64) -> f64 {
    let mut g = 1.0;
    for fade in fades {
        if let Some(factor) = fade.factor_at(t_s) {
            g *= factor;
        }
    }
    g
}

/// A node dropout window: the node's storage browned out (or it sank
/// below the power-up threshold), so it neither decodes nor backscatters
/// for the duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropoutWindow {
    /// Brown-out onset, seconds of absolute simulation time.
    pub start_s: f64,
    /// Time until the supercap recharges past the power-up threshold,
    /// seconds. Use `f64::INFINITY` for a permanently dead node.
    pub duration_s: f64,
}

/// A carrier/clock drift ramp: the node's (or projector's) oscillator
/// walks linearly away from nominal, saturating at `max_abs_hz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRamp {
    /// Drift rate, Hz of carrier offset per second of simulation time.
    pub rate_hz_per_s: f64,
    /// Saturation bound on the accumulated offset, Hz.
    pub max_abs_hz: f64,
}

impl DriftRamp {
    /// Accumulated oscillator offset at absolute time `t_s`, Hz, clamped
    /// to the saturation bound. Standalone so callers outside a
    /// [`FaultSchedule`] (e.g. the mobility model composing drift with
    /// Doppler) share the exact same ramp arithmetic.
    pub fn offset_at_hz(&self, t_s: f64) -> f64 {
        (self.rate_hz_per_s * t_s).clamp(-self.max_abs_hz, self.max_abs_hz)
    }
}

/// A composable, seeded schedule of link impairments. An empty schedule
/// (the [`Default`]) is a perfectly healthy link.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    seed: u64,
    bursts: Vec<BroadbandBurst>,
    fades: Vec<PathFade>,
    dropouts: Vec<DropoutWindow>,
    drift: Option<DriftRamp>,
}

impl FaultSchedule {
    /// A schedule with no impairments, seeded for any bursts added later.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            ..Default::default()
        }
    }

    /// Add a broadband noise burst.
    pub fn with_burst(mut self, burst: BroadbandBurst) -> Result<Self, ChannelError> {
        if !(burst.duration_s > 0.0) || !burst.start_s.is_finite() || burst.start_s < 0.0 {
            return Err(ChannelError::InvalidParameter("burst window"));
        }
        if !(burst.rms_pa >= 0.0) || !burst.rms_pa.is_finite() {
            return Err(ChannelError::InvalidParameter("burst rms_pa"));
        }
        self.bursts.push(burst);
        Ok(self)
    }

    /// Add a slow path-gain fade.
    pub fn with_fade(mut self, fade: PathFade) -> Result<Self, ChannelError> {
        if !(fade.duration_s > 0.0) || !fade.start_s.is_finite() || fade.start_s < 0.0 {
            return Err(ChannelError::InvalidParameter("fade window"));
        }
        if !(fade.floor_ratio > 0.0) || fade.floor_ratio > 1.0 {
            return Err(ChannelError::InvalidParameter("fade floor_ratio"));
        }
        self.fades.push(fade);
        Ok(self)
    }

    /// Add a node dropout (brown-out) window. An infinite duration models
    /// a permanently dead node.
    pub fn with_dropout(mut self, dropout: DropoutWindow) -> Result<Self, ChannelError> {
        if !(dropout.duration_s > 0.0) || !dropout.start_s.is_finite() || dropout.start_s < 0.0 {
            return Err(ChannelError::InvalidParameter("dropout window"));
        }
        self.dropouts.push(dropout);
        Ok(self)
    }

    /// Set the carrier/clock drift ramp (replaces any previous ramp).
    pub fn with_drift(mut self, drift: DriftRamp) -> Result<Self, ChannelError> {
        if !drift.rate_hz_per_s.is_finite() || !(drift.max_abs_hz >= 0.0) {
            return Err(ChannelError::InvalidParameter("drift ramp"));
        }
        self.drift = Some(drift);
        Ok(self)
    }

    /// Whether the schedule contains no impairments at all.
    pub fn is_quiet(&self) -> bool {
        self.bursts.is_empty()
            && self.fades.is_empty()
            && self.dropouts.is_empty()
            && self.drift.is_none()
    }

    /// Multiplicative path gain at absolute time `t_s`: the product of
    /// every active fade's raised-cosine profile (1.0 when none is
    /// active).
    // lint: unitless product of raised-cosine fade profiles, linear gain
    pub fn gain_at(&self, t_s: f64) -> f64 { // lint: allow(dead-pub) api crates/experiments/src/bin/pab_bench/layers.rs
        fade_product(&self.fades, t_s)
    }

    /// [`gain_at`](Self::gain_at) at the `out.len()` sample times
    /// `t_start_s + i / fs_hz`, bit for bit, written into `out`,
    /// evaluating per sample only the fades that can apply to one of
    /// them. A fade's window position `u` grows with `t`, and the sample
    /// times grow with `i`, so a fade whose `u` is below 0 at the last
    /// sample or above 1 at the first applies to none. The rest keep
    /// schedule order.
    pub fn gains_into(&self, t_start_s: f64, fs_hz: f64, out: &mut [f64]) {
        let t_at = |i: usize| t_start_s + i as f64 / fs_hz;
        let t_last = t_at(out.len().saturating_sub(1));
        let fades: Vec<PathFade> = self
            .fades
            .iter()
            .filter(|f| f.position(t_last) >= 0.0 && f.position(t_start_s) <= 1.0)
            .copied()
            .collect();
        for (i, g) in out.iter_mut().enumerate() {
            *g = fade_product(&fades, t_at(i));
        }
    }

    /// Whether the node is browned out at any point during
    /// `[start_s, end_s)` — a node that loses power mid-exchange sends
    /// nothing usable, so partial overlap silences the whole window.
    pub fn node_down_during(&self, start_s: f64, end_s: f64) -> bool {
        self.dropouts
            .iter()
            .any(|d| start_s < d.start_s + d.duration_s && end_s > d.start_s)
    }

    /// Accumulated carrier/clock offset at absolute time `t_s`, Hz.
    pub fn drift_at_hz(&self, t_s: f64) -> f64 {
        match self.drift {
            Some(d) => d.offset_at_hz(t_s),
            None => 0.0,
        }
    }

    /// Whether the drift ramp is still moving at `t_s`: a ramp with a
    /// non-zero rate whose accumulated offset `|rate·t_s|` is still below
    /// its bound. The unclamped ramp is strictly monotone, so the offset
    /// in force at such a `t_s` is one that no other time gives.
    pub fn drift_ramping_at(&self, t_s: f64) -> bool {
        self.drift
            .is_some_and(|d| d.rate_hz_per_s != 0.0 && (d.rate_hz_per_s * t_s).abs() < d.max_abs_hz)
    }

    /// Whether any burst window covers part of `[start_s, end_s)`.
    pub fn burst_active_during(&self, start_s: f64, end_s: f64) -> bool {
        self.bursts
            .iter()
            .any(|b| b.rms_pa > 0.0 && start_s < b.start_s + b.duration_s && end_s > b.start_s)
    }

    /// Whether any fade window covers part of `[start_s, end_s)`.
    pub fn fade_active_during(&self, start_s: f64, end_s: f64) -> bool {
        self.fades
            .iter()
            .any(|f| f.floor_ratio < 1.0 && start_s < f.start_s + f.duration_s && end_s > f.start_s)
    }

    /// Whether a non-zero drift offset has accumulated anywhere in
    /// `[start_s, end_s)`. The ramp is monotone in |offset|, so checking
    /// the later edge suffices.
    pub fn drift_active_during(&self, _start_s: f64, end_s: f64) -> bool {
        self.drift_at_hz(end_s).abs() > 0.0
    }

    /// The configured drift ramp, if any.
    pub fn drift(&self) -> Option<DriftRamp> {
        self.drift
    }

    /// Add every scheduled burst's noise into `samples`, a window of the
    /// pressure waveform starting at absolute time `window_start_s` and
    /// sampled at `fs_hz`. Sample `k` of burst `b` always receives the
    /// same draw, so overlapping or re-sliced windows stay bit-identical.
    pub fn add_burst_noise(&self, samples: &mut [f64], window_start_s: f64, fs_hz: f64) {
        if !(fs_hz > 0.0) || samples.is_empty() {
            return;
        }
        let n = samples.len();
        for (bi, burst) in self.bursts.iter().enumerate() {
            if burst.rms_pa == 0.0 {
                continue;
            }
            // Overlap of the burst with this window, in absolute sample
            // indices (the determinism anchor).
            let b0 = (burst.start_s * fs_hz).ceil() as i64;
            let b1 = ((burst.start_s + burst.duration_s) * fs_hz).floor() as i64;
            let w0 = (window_start_s * fs_hz).round() as i64;
            let lo = b0.max(w0);
            let hi = b1.min(w0 + n as i64);
            let burst_seed = mix64(self.seed ^ mix64(bi as u64));
            for k in lo..hi {
                let idx = (k - w0) as usize;
                samples[idx] += burst.rms_pa * normal_from_seed(burst_seed ^ (k as u64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bursty() -> FaultSchedule {
        FaultSchedule::new(42)
            .with_burst(BroadbandBurst {
                start_s: 0.1,
                duration_s: 0.2,
                rms_pa: 0.5,
            })
            .unwrap()
    }

    #[test]
    fn quiet_schedule_is_identity() {
        let f = FaultSchedule::default();
        assert!(f.is_quiet());
        assert_eq!(f.gain_at(1.0), 1.0);
        assert_eq!(f.drift_at_hz(5.0), 0.0);
        assert!(!f.node_down_during(0.0, 100.0));
        let mut s = vec![1.0, 2.0, 3.0];
        f.add_burst_noise(&mut s, 0.0, 1000.0);
        assert_eq!(s, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultSchedule::new(0)
            .with_burst(BroadbandBurst {
                start_s: -1.0,
                duration_s: 1.0,
                rms_pa: 0.1
            })
            .is_err());
        assert!(FaultSchedule::new(0)
            .with_fade(PathFade {
                start_s: 0.0,
                duration_s: 1.0,
                floor_ratio: 0.0
            })
            .is_err());
        assert!(FaultSchedule::new(0)
            .with_dropout(DropoutWindow {
                start_s: 0.0,
                duration_s: 0.0
            })
            .is_err());
        assert!(FaultSchedule::new(0)
            .with_drift(DriftRamp {
                rate_hz_per_s: f64::NAN,
                max_abs_hz: 10.0
            })
            .is_err());
    }

    #[test]
    fn fade_profile_reaches_floor_at_centre() {
        let f = FaultSchedule::new(1)
            .with_fade(PathFade {
                start_s: 1.0,
                duration_s: 2.0,
                floor_ratio: 0.25,
            })
            .unwrap();
        assert!((f.gain_at(0.5) - 1.0).abs() < 1e-12, "before the fade");
        assert!((f.gain_at(2.0) - 0.25).abs() < 1e-12, "fade centre");
        assert!((f.gain_at(3.5) - 1.0).abs() < 1e-12, "after the fade");
        // Smooth: a quarter of the way in, gain is strictly between.
        let mid = f.gain_at(1.5);
        assert!(mid > 0.25 && mid < 1.0, "gain {mid}");
    }

    #[test]
    fn fades_compose_multiplicatively() {
        let f = FaultSchedule::new(1)
            .with_fade(PathFade {
                start_s: 0.0,
                duration_s: 2.0,
                floor_ratio: 0.5,
            })
            .unwrap()
            .with_fade(PathFade {
                start_s: 0.0,
                duration_s: 2.0,
                floor_ratio: 0.5,
            })
            .unwrap();
        assert!((f.gain_at(1.0) - 0.25).abs() < 1e-12);
    }

    /// `gains_into` must be `gain_at` at every sample, bit for bit: before,
    /// across and after a fade's start and end, under two overlapping
    /// fades, and with no fade in reach or none at all.
    #[test]
    fn gains_are_gain_at_bit_for_bit() {
        let gains = |sched: &FaultSchedule, t_start_s: f64, fs_hz: f64, n: usize| {
            let mut out = vec![f64::NAN; n];
            sched.gains_into(t_start_s, fs_hz, &mut out);
            out
        };
        let fade = |start_s: f64, duration_s: f64, floor_ratio: f64| PathFade {
            start_s,
            duration_s,
            floor_ratio,
        };
        let f = FaultSchedule::new(3)
            .with_fade(fade(0.4, 0.3, 0.2))
            .unwrap()
            .with_fade(fade(0.6, 0.5, 0.55))
            .unwrap()
            .with_fade(fade(5.0, 1.0, 0.1))
            .unwrap()
            .with_fade(fade(0.03, 0.011, 0.3))
            .unwrap();
        let fs_hz = 96_000.0;
        let n = 9_600;
        // Windows straddling each start and end, the overlap, a whole
        // fade inside one window, and a window no fade reaches.
        let starts = [0.0, 0.35, 0.39999, 0.65, 0.69, 1.05, 1.099_99, 2.0, 4.95];
        let quiet = FaultSchedule::new(3);
        for t_start_s in starts {
            for (what, sched) in [("faded", &f), ("quiet", &quiet)] {
                for (i, g) in gains(sched, t_start_s, fs_hz, n).iter().enumerate() {
                    let want = sched.gain_at(t_start_s + i as f64 / fs_hz);
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{what} {t_start_s} s, sample {i}"
                    );
                }
            }
        }
        // The overlap really multiplies two factors, and edges really move.
        let both = gains(&f, 0.65, fs_hz, 1)[0];
        assert!(both < gains(&f, 0.45, fs_hz, 1)[0].min(gains(&f, 1.0, fs_hz, 1)[0]));
        assert!(gains(&f, 0.0, fs_hz, 0).is_empty());
    }

    #[test]
    fn dropout_overlap_detection() {
        let f = FaultSchedule::new(1)
            .with_dropout(DropoutWindow {
                start_s: 10.0,
                duration_s: 5.0,
            })
            .unwrap();
        assert!(!f.node_down_during(0.0, 10.0)); // ends exactly at onset
        assert!(f.node_down_during(9.9, 10.1)); // partial overlap silences
        assert!(f.node_down_during(12.0, 13.0));
        assert!(!f.node_down_during(15.0, 16.0));
        // Infinite dropout = permanently dead.
        let dead = FaultSchedule::new(1)
            .with_dropout(DropoutWindow {
                start_s: 0.0,
                duration_s: f64::INFINITY,
            })
            .unwrap();
        assert!(dead.node_down_during(1e9, 1e9 + 1.0));
    }

    #[test]
    fn drift_ramps_and_saturates() {
        let f = FaultSchedule::new(1)
            .with_drift(DriftRamp {
                rate_hz_per_s: 2.0,
                max_abs_hz: 10.0,
            })
            .unwrap();
        assert!((f.drift_at_hz(1.0) - 2.0).abs() < 1e-12);
        assert!((f.drift_at_hz(100.0) - 10.0).abs() < 1e-12, "saturates");
    }

    /// A ramp moves until its offset reaches the bound, whichever way it
    /// runs; no ramp, or a zero rate, never moves.
    #[test]
    fn drift_ramping_only_below_the_bound() {
        let ramp = |rate_hz_per_s| {
            FaultSchedule::new(1)
                .with_drift(DriftRamp {
                    rate_hz_per_s,
                    max_abs_hz: 10.0,
                })
                .unwrap()
        };
        assert!(!FaultSchedule::default().drift_ramping_at(3.0), "no drift");
        assert!(!ramp(0.0).drift_ramping_at(3.0), "zero rate");
        assert!(ramp(2.0).drift_ramping_at(0.0));
        assert!(ramp(2.0).drift_ramping_at(4.5), "mid-ramp");
        assert!(!ramp(2.0).drift_ramping_at(5.0), "reaches the bound");
        assert!(!ramp(2.0).drift_ramping_at(60.0), "saturated");
        assert!(ramp(-2.0).drift_ramping_at(4.5), "negative rate, mid-ramp");
        assert!(!ramp(-2.0).drift_ramping_at(60.0), "negative rate, saturated");
    }

    #[test]
    fn activity_accessors_report_window_overlap() {
        let f = FaultSchedule::new(7)
            .with_burst(BroadbandBurst {
                start_s: 1.0,
                duration_s: 0.5,
                rms_pa: 0.3,
            })
            .unwrap()
            .with_fade(PathFade {
                start_s: 4.0,
                duration_s: 2.0,
                floor_ratio: 0.5,
            })
            .unwrap()
            .with_drift(DriftRamp {
                rate_hz_per_s: 1.0,
                max_abs_hz: 5.0,
            })
            .unwrap();
        assert!(f.burst_active_during(0.9, 1.1));
        assert!(!f.burst_active_during(2.0, 3.0));
        assert!(f.fade_active_during(5.9, 6.5));
        assert!(!f.fade_active_during(0.0, 4.0), "edge-exclusive");
        assert!(f.drift_active_during(0.0, 0.1));
        assert!(!FaultSchedule::default().drift_active_during(0.0, 100.0));
        assert_eq!(
            f.drift(),
            Some(DriftRamp {
                rate_hz_per_s: 1.0,
                max_abs_hz: 5.0
            })
        );
        // A zero-RMS burst and a unity-floor fade are no-ops and must not
        // report as active windows.
        let noop = FaultSchedule::new(0)
            .with_burst(BroadbandBurst {
                start_s: 0.0,
                duration_s: 1.0,
                rms_pa: 0.0,
            })
            .unwrap()
            .with_fade(PathFade {
                start_s: 0.0,
                duration_s: 1.0,
                floor_ratio: 1.0,
            })
            .unwrap();
        assert!(!noop.burst_active_during(0.0, 1.0));
        assert!(!noop.fade_active_during(0.0, 1.0));
    }

    #[test]
    fn drift_ramp_offset_matches_schedule() {
        let ramp = DriftRamp {
            rate_hz_per_s: -3.0,
            max_abs_hz: 7.5,
        };
        assert!((ramp.offset_at_hz(1.0) + 3.0).abs() < 1e-12);
        assert!((ramp.offset_at_hz(100.0) + 7.5).abs() < 1e-12, "saturates");
        let f = FaultSchedule::new(0).with_drift(ramp).unwrap();
        assert_eq!(f.drift_at_hz(2.0), ramp.offset_at_hz(2.0));
    }

    #[test]
    fn burst_noise_is_window_slicing_invariant() {
        // One 4000-sample window vs the same span in two halves: the
        // injected noise must be bit-identical (the determinism contract).
        let f = bursty();
        let fs = 10_000.0;
        let mut whole = vec![0.0; 4000];
        f.add_burst_noise(&mut whole, 0.0, fs);
        let mut first = vec![0.0; 2000];
        let mut second = vec![0.0; 2000];
        f.add_burst_noise(&mut first, 0.0, fs);
        f.add_burst_noise(&mut second, 0.2, fs);
        let stitched: Vec<f64> = first.into_iter().chain(second).collect();
        assert_eq!(whole, stitched);
    }

    #[test]
    fn burst_noise_has_roughly_the_commanded_rms() {
        let f = bursty();
        let fs = 48_000.0;
        let mut s = vec![0.0; (0.4 * fs) as usize];
        f.add_burst_noise(&mut s, 0.0, fs);
        let active: Vec<f64> = s
            .iter()
            .copied()
            .filter(|&x| x != 0.0)
            .collect();
        assert!(active.len() > 9000, "burst spans 0.2 s at 48 kHz");
        let rms = (active.iter().map(|x| x * x).sum::<f64>() / active.len() as f64).sqrt();
        assert!((rms - 0.5).abs() < 0.05, "rms {rms}");
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let fs = 10_000.0;
        let mk = |seed| {
            FaultSchedule::new(seed)
                .with_burst(BroadbandBurst {
                    start_s: 0.0,
                    duration_s: 0.1,
                    rms_pa: 1.0,
                })
                .unwrap()
        };
        let mut a = vec![0.0; 1000];
        let mut b = vec![0.0; 1000];
        mk(1).add_burst_noise(&mut a, 0.0, fs);
        mk(2).add_burst_noise(&mut b, 0.0, fs);
        assert_ne!(a, b);
    }
}
