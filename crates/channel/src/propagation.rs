//! Tapped-delay-line channels and their application to sampled waveforms.

use crate::ChannelError;

/// Below this range the 1/d point-source law is no longer valid (the
/// transducer is ~5 cm across); gains are clamped at this distance.
pub const NEAR_FIELD_LIMIT_M: f64 = 0.3;

/// One propagation path: an arrival with a delay and a (signed) amplitude
/// gain relative to the source level at 1 m.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Propagation delay, seconds.
    pub delay_s: f64,
    /// Amplitude gain (negative for phase-inverting surface bounces).
    // lint: unitless linear amplitude gain, signed for phase inversion
    pub gain: f64,
}

/// A linear time-invariant multipath channel as a list of taps.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipathChannel {
    taps: Vec<Tap>,
}

impl MultipathChannel {
    /// Build from explicit taps; taps are sorted by increasing delay.
    pub fn new(mut taps: Vec<Tap>) -> Result<Self, ChannelError> {
        if taps.is_empty() {
            return Err(ChannelError::InvalidParameter("taps must be non-empty"));
        }
        for t in &taps {
            if !(t.delay_s >= 0.0) || !t.delay_s.is_finite() || !t.gain.is_finite() {
                return Err(ChannelError::InvalidParameter("tap delay/gain"));
            }
        }
        taps.sort_by(|a, b| a.delay_s.total_cmp(&b.delay_s));
        Ok(MultipathChannel { taps })
    }

    /// A single direct path: free-field spherical spreading over
    /// `distance_m` at sound speed `c`.
    pub fn free_field(distance_m: f64, sound_speed_m_s: f64) -> Result<Self, ChannelError> {
        if !(distance_m > 0.0) {
            return Err(ChannelError::InvalidParameter("distance_m"));
        }
        if !(sound_speed_m_s > 0.0) {
            return Err(ChannelError::InvalidParameter("sound_speed_m_s"));
        }
        MultipathChannel::new(vec![Tap {
            delay_s: distance_m / sound_speed_m_s,
            gain: 1.0 / distance_m.max(NEAR_FIELD_LIMIT_M),
        }])
    }

    /// The taps, sorted by delay.
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// First-arrival (direct-path) tap.
    pub fn direct(&self) -> Tap {
        self.taps[0]
    }

    /// Coherent sum of tap gains — the steady-state channel gain for a
    /// narrowband carrier at `freq_hz` (complex phasor magnitude).
    // lint: unitless linear amplitude gain (phasor magnitude)
    pub fn coherent_gain_at(&self, freq_hz: f64) -> f64 {
        let w = std::f64::consts::TAU * freq_hz;
        let (mut re, mut im) = (0.0, 0.0);
        for t in &self.taps {
            re += t.gain * (w * t.delay_s).cos();
            im -= t.gain * (w * t.delay_s).sin();
        }
        (re * re + im * im).sqrt()
    }

    /// Sum of |gain| — an upper bound on constructive interference.
    // lint: unitless linear amplitude gain bound
    pub fn total_energy_gain(&self) -> f64 {
        self.taps.iter().map(|t| t.gain * t.gain).sum::<f64>().sqrt()
    }

    /// RMS delay spread, seconds — multipath severity metric.
    pub fn rms_delay_spread_s(&self) -> f64 {
        let p_total: f64 = self.taps.iter().map(|t| t.gain * t.gain).sum();
        if p_total == 0.0 {
            return 0.0;
        }
        let mean: f64 = self
            .taps
            .iter()
            .map(|t| t.delay_s * t.gain * t.gain)
            .sum::<f64>()
            / p_total;
        let var: f64 = self
            .taps
            .iter()
            .map(|t| (t.delay_s - mean).powi(2) * t.gain * t.gain)
            .sum::<f64>()
            / p_total;
        var.sqrt()
    }

    /// Length of the buffer [`apply`](Self::apply) produces for an input
    /// of `input_len` samples: the input extended by the maximum tap
    /// delay (plus interpolation slack) so no energy is truncated. Lets
    /// callers pre-size accumulation buffers that must match `apply`'s
    /// framing exactly.
    pub fn output_len(&self, input_len: usize, fs_hz: f64) -> usize {
        let max_delay = self.taps.last().map(|t| t.delay_s).unwrap_or(0.0);
        input_len + (max_delay * fs_hz).ceil() as usize + 2
    }

    /// Apply the channel to a sampled waveform at sample rate `fs_hz`.
    ///
    /// The output buffer is extended by the maximum tap delay so no energy
    /// is truncated; fractional delays use linear interpolation. This is
    /// [`apply_into`](Self::apply_into) on a fresh zeroed buffer.
    pub fn apply(&self, signal: &[f64], fs_hz: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.output_len(signal.len(), fs_hz)];
        self.apply_into(&mut out, signal, fs_hz);
        out
    }

    /// Apply the channel into a caller-owned accumulation buffer (for
    /// superposing several sources at one receiver). Energy falling past
    /// the end of `dst` is dropped.
    ///
    /// Each tap adds `signal` delayed by `delay_s · fs_hz` samples and
    /// scaled by its gain, exactly as
    /// [`add_delayed_scaled`](pab_dsp::resample::add_delayed_scaled) does,
    /// taps in delay order. The kernel does that work only where it can
    /// change `dst`:
    ///
    /// * **Sparse.** It finds the signal's nonzero runs once per call and
    ///   applies each tap only to the outputs those runs reach: `[a, b)`
    ///   feeds outputs `a + int ..= b + int` (`int = ⌊delay⌋`; the last
    ///   one only for a fractional delay). A keyed-off PWM downlink is
    ///   ~45% exact zeros. A skipped term is `g·0·frac` or `g·0·(1−frac)`,
    ///   a signed zero, and adding a signed zero leaves every value but
    ///   −0.0 unchanged. A run's first output is `d + g·x[a]·(1−frac)` and
    ///   the output after its end `d + g·x[b−1]·frac`, the full
    ///   expressions minus their zero term.
    /// * **Tiled.** It walks `dst` in tiles of `TILE_LEN` samples and
    ///   runs every tap over a tile before the next, so a tile stays in
    ///   cache across the taps. Each output still takes its terms in tap
    ///   order, with the same two roundings per tap.
    ///
    /// The run list lives on the stack. A signal with more than
    /// `MAX_RUNS` runs has the rest merged into the last one, which only
    /// adds zero terms.
    ///
    /// So `dst` ends bitwise as the per-tap `add_delayed_scaled` loop
    /// leaves it, with one exception: a −0.0 already in `dst` at an
    /// output no run reaches stays −0.0, where the dense loop turned it
    /// into +0.0. A buffer that starts at +0.0 and only accumulates can
    /// never hold −0.0 (a sum is −0.0 only when both operands are), so
    /// [`apply`](Self::apply) and every accumulator built that way are
    /// bitwise unaffected.
    pub fn apply_into(&self, dst: &mut [f64], signal: &[f64], fs_hz: f64) {
        let runs = NonzeroRuns::of(signal);
        let runs = runs.as_slice();
        for (t, tile) in dst.chunks_mut(TILE_LEN).enumerate() {
            for tap in &self.taps {
                let delay_samples = tap.delay_s * fs_hz;
                add_tap_to_tile(tile, t * TILE_LEN, signal, runs, delay_samples, tap.gain);
            }
        }
    }
}

/// Output samples per tile of [`MultipathChannel::apply_into`]: 16 KiB of
/// `f64`, so a tile and the source window each tap reads stay in L1/L2
/// across the taps.
const TILE_LEN: usize = 2048;

/// Capacity of the stack-held run list. A PWM query has about fifty
/// nonzero runs; a dense waveform has one.
const MAX_RUNS: usize = 128;

/// The nonzero runs `[start, end)` of a signal, in order. Runs past the
/// capacity are merged into the last one (the zeros between them then
/// add exact zero terms).
struct NonzeroRuns {
    runs: [(usize, usize); MAX_RUNS],
    len: usize,
}

impl NonzeroRuns {
    fn of(signal: &[f64]) -> Self {
        let mut list = NonzeroRuns {
            runs: [(0, 0); MAX_RUNS],
            len: 0,
        };
        let mut open: Option<usize> = None;
        for (i, &s) in signal.iter().enumerate() {
            // NaN counts as nonzero, so it reaches the output.
            match (s != 0.0, open) {
                (true, None) => open = Some(i),
                (false, Some(start)) => {
                    list.push(start, i);
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            list.push(start, signal.len());
        }
        list
    }

    fn push(&mut self, start: usize, end: usize) {
        if let Some(slot) = self.runs.get_mut(self.len) {
            *slot = (start, end);
            self.len += 1;
        } else if let Some(last) = self.runs.last_mut() {
            last.1 = end;
        }
    }

    fn as_slice(&self) -> &[(usize, usize)] {
        self.runs.get(..self.len).unwrap_or(&[])
    }
}

/// One tap of [`MultipathChannel::apply_into`] over one output tile:
/// `tile` is `dst[tile_start..]`, and `signal` arrives `delay_samples`
/// late, scaled by `gain`, wherever one of its nonzero `runs` reaches.
/// Every output gets the expression `add_delayed_scaled` gives it.
fn add_tap_to_tile(
    tile: &mut [f64],
    tile_start: usize,
    signal: &[f64],
    runs: &[(usize, usize)],
    delay_samples: f64,
    gain: f64,
) {
    if !(delay_samples >= 0.0) || gain == 0.0 {
        return;
    }
    let int = delay_samples.floor() as usize;
    let frac = delay_samples - delay_samples.floor();
    let whole = 1.0 - frac;
    // Output `dst[k + int]` is source position `k`; the tile spans
    // positions `k_start..k_end`. A delay past the tile's end (`int` may
    // be `usize::MAX`) leaves nothing.
    let k_end = match (tile_start + tile.len()).checked_sub(int) {
        Some(k_end) if k_end > 0 => k_end,
        _ => return,
    };
    let k_start = tile_start.saturating_sub(int);
    // A run `[a, b)` feeds positions `a..b + reach`.
    let reach = usize::from(frac != 0.0);
    let first = runs.partition_point(|&(_, b)| b + reach <= k_start);
    for &(a, b) in runs.get(first..).unwrap_or(&[]) {
        if a >= k_end {
            break;
        }
        let (lo, hi) = (a.max(k_start), (b + reach).min(k_end));
        let Some(out) = tile.get_mut(lo + int - tile_start..hi + int - tile_start) else {
            continue;
        };
        if frac == 0.0 {
            for (d, &s) in out.iter_mut().zip(signal.get(lo..hi).unwrap_or(&[])) {
                *d += gain * s * whole;
            }
            continue;
        }
        // Position `a` sees only `signal[a]`.
        let (k, out) = match out.split_first_mut() {
            Some((d, rest)) if lo == a => {
                if let Some(&s) = signal.get(a) {
                    *d += gain * s * whole;
                }
                (a + 1, rest)
            }
            _ => (lo, out),
        };
        // Positions `k..min(hi, b)` see `signal[k − 1]` (frac), then
        // `signal[k]` (1 − frac). `lo < hi`, so `out` was not empty and
        // `k > a >= 0`.
        let body_end = hi.min(b).max(k);
        let (body, tail) = out.split_at_mut((body_end - k).min(out.len()));
        let prev = signal.get(k - 1..body_end - 1).unwrap_or(&[]);
        let cur = signal.get(k..body_end).unwrap_or(&[]);
        for ((d, &p), &c) in body.iter_mut().zip(prev).zip(cur) {
            *d = (*d + gain * p * frac) + gain * c * whole;
        }
        // Position `b`, when the tile holds it, sees only `signal[b − 1]`.
        if let (Some(d), Some(&last)) = (tail.first_mut(), signal.get(b - 1)) {
            *d += gain * last * frac;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_field_single_tap() {
        let ch = MultipathChannel::free_field(5.0, 1500.0).unwrap();
        assert_eq!(ch.taps().len(), 1);
        let t = ch.direct();
        assert!((t.delay_s - 5.0 / 1500.0).abs() < 1e-12);
        assert!((t.gain - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sub_near_field_distance_clamps_gain() {
        let ch = MultipathChannel::free_field(0.1, 1500.0).unwrap();
        assert!((ch.direct().gain - 1.0 / NEAR_FIELD_LIMIT_M).abs() < 1e-12);
        // At 0.5 m the true 1/d law applies.
        let ch2 = MultipathChannel::free_field(0.5, 1500.0).unwrap();
        assert!((ch2.direct().gain - 2.0).abs() < 1e-12);
    }

    #[test]
    fn taps_sorted_by_delay() {
        let ch = MultipathChannel::new(vec![
            Tap { delay_s: 0.02, gain: 0.1 },
            Tap { delay_s: 0.01, gain: 0.5 },
        ])
        .unwrap();
        assert!(ch.taps()[0].delay_s < ch.taps()[1].delay_s);
        assert_eq!(ch.direct().gain, 0.5);
    }

    #[test]
    fn apply_impulse_reveals_taps() {
        let fs_hz = 1000.0;
        let ch = MultipathChannel::new(vec![
            Tap { delay_s: 0.002, gain: 1.0 },
            Tap { delay_s: 0.005, gain: -0.5 },
        ])
        .unwrap();
        let mut x = vec![0.0; 10];
        x[0] = 1.0;
        let y = ch.apply(&x, fs_hz);
        assert!((y[2] - 1.0).abs() < 1e-12);
        assert!((y[5] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn apply_extends_for_late_taps() {
        let fs_hz = 1000.0;
        let ch = MultipathChannel::new(vec![Tap { delay_s: 0.05, gain: 1.0 }]).unwrap();
        let x = vec![1.0; 10];
        let y = ch.apply(&x, fs_hz);
        assert!(y.len() >= 60);
        assert!((y[55] - 1.0).abs() < 1e-12);
    }

    /// The dense per-tap loop the sparse, tiled kernel must match.
    fn oracle_into(ch: &MultipathChannel, dst: &mut [f64], signal: &[f64], fs_hz: f64) {
        for t in ch.taps() {
            pab_dsp::resample::add_delayed_scaled(dst, signal, t.delay_s * fs_hz, t.gain);
        }
    }

    fn assert_bitwise_like_oracle(ch: &MultipathChannel, dst: &[f64], signal: &[f64], what: &str) {
        let mut got = dst.to_vec();
        ch.apply_into(&mut got, signal, ORACLE_FS_HZ);
        let mut want = dst.to_vec();
        oracle_into(ch, &mut want, signal, ORACLE_FS_HZ);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: sample {i}: {g} vs {w}");
        }
    }

    /// Delays are multiples of 1/1024 s, so `delay_s · fs` is exact.
    const ORACLE_FS_HZ: f64 = 1024.0;

    /// Fractional and whole-sample delays, both gain signs, and taps
    /// spread across tile boundaries, the last past most test buffers.
    /// No fraction or gain is a power of two, so a reassociated product
    /// rounds differently.
    fn oracle_channel() -> MultipathChannel {
        let tap = |samples: f64, gain: f64| Tap {
            delay_s: samples / ORACLE_FS_HZ,
            gain,
        };
        MultipathChannel::new(vec![
            tap(3.3, 0.8),
            tap(5.0, -0.6),
            tap(0.0, 0.3),
            tap(17.7, 0.27),
            tap(2047.6, -0.21),
            tap(2048.0, 0.1),
            tap(4100.15, 0.053),
            tap(9000.45, 0.51),
        ])
        .unwrap()
    }

    /// Nonzero accumulator contents, so the addition order shows.
    fn prior(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(0.125..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect()
    }

    #[test]
    fn apply_into_is_bitwise_the_per_tap_loop() {
        let ch = oracle_channel();
        let tone =
            |n: usize| -> Vec<f64> { (0..n).map(|i| (0.37 * i as f64).sin() + 0.01).collect() };
        let mut gated = tone(6000);
        for (i, s) in gated.iter_mut().enumerate() {
            // Keyed like a PWM query: on, off, and stretches of both.
            if (i / 300) % 3 == 1 || !(500..=5200).contains(&i) {
                *s = 0.0;
            }
        }
        let isolated: Vec<f64> = (0..5000)
            .map(|i| {
                if i % 7 == 3 {
                    1.0 + i as f64 * 1e-3
                } else {
                    0.0
                }
            })
            .collect();
        let one_zero_apart: Vec<f64> = (0..5000)
            .map(|i| {
                if i % 3 == 2 {
                    0.0
                } else {
                    0.5 - i as f64 * 1e-4
                }
            })
            .collect();
        let many_runs: Vec<f64> = (0..6 * MAX_RUNS)
            .map(|i| if i % 2 == 0 { 0.75 } else { 0.0 })
            .collect();
        let cases: Vec<(&str, Vec<f64>)> = vec![
            ("dense tone", tone(5000)),
            ("zero head and tail", gated),
            ("isolated samples", isolated),
            ("runs one zero apart", one_zero_apart),
            ("more runs than the list holds", many_runs),
            ("empty source", vec![]),
            ("all zeros", vec![0.0; 3000]),
            ("one sample", vec![1.5]),
        ];
        for (what, signal) in &cases {
            for dst_len in [0, 2, 3, 4, 1000, 4800, 9000] {
                assert_bitwise_like_oracle(
                    &ch,
                    &prior(dst_len, 1),
                    signal,
                    &format!("{what}, dst {dst_len}"),
                );
            }
            let full = vec![0.0; ch.output_len(signal.len(), ORACLE_FS_HZ)];
            assert_bitwise_like_oracle(&ch, &full, signal, &format!("{what}, apply framing"));
        }
        // Lengths at a tile edge, ±1, for both the source and `dst`.
        for len in [
            TILE_LEN - 1,
            TILE_LEN,
            TILE_LEN + 1,
            2 * TILE_LEN - 1,
            2 * TILE_LEN + 1,
        ] {
            let signal = tone(len);
            for dst_len in [len, TILE_LEN - 1, TILE_LEN, TILE_LEN + 1, 3 * TILE_LEN] {
                assert_bitwise_like_oracle(
                    &ch,
                    &prior(dst_len, 2),
                    &signal,
                    &format!("src {len}, dst {dst_len}"),
                );
            }
        }
        // Delays too large for any buffer (or for `usize`) add nothing.
        let huge = MultipathChannel::new(vec![
            Tap {
                delay_s: 0.5 / ORACLE_FS_HZ,
                gain: 1.0,
            },
            Tap {
                delay_s: 1e300,
                gain: 1.0,
            },
        ])
        .unwrap();
        assert_bitwise_like_oracle(&huge, &prior(5000, 4), &tone(3000), "huge delay");
        // A `dst` shorter than the first delay takes nothing.
        let late = MultipathChannel::new(vec![Tap {
            delay_s: 40.5 / ORACLE_FS_HZ,
            gain: 1.0,
        }])
        .unwrap();
        let before = prior(40, 3);
        let mut dst = before.clone();
        late.apply_into(&mut dst, &tone(100), ORACLE_FS_HZ);
        assert_eq!(dst, before);
        assert_bitwise_like_oracle(&late, &prior(41, 3), &tone(100), "first output at the end");
    }

    #[test]
    fn apply_matches_apply_into_on_zeros() {
        let ch = oracle_channel();
        let signal: Vec<f64> = (0..3000)
            .map(|i| {
                if i % 500 < 200 {
                    (0.1 * i as f64).cos()
                } else {
                    0.0
                }
            })
            .collect();
        let mut want = vec![0.0; ch.output_len(signal.len(), ORACLE_FS_HZ)];
        oracle_into(&ch, &mut want, &signal, ORACLE_FS_HZ);
        let got = ch.apply(&signal, ORACLE_FS_HZ);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    /// The one observable difference from the dense loop: a −0.0 already
    /// in a caller's buffer under a silent stretch stays −0.0 (the dense
    /// loop added `+0.0` terms there, giving +0.0). Outputs a run reaches
    /// are the dense loop's.
    #[test]
    fn negative_zero_under_silence_stays_negative_zero() {
        let ch = MultipathChannel::new(vec![Tap {
            delay_s: 2.5 / ORACLE_FS_HZ,
            gain: 1.0,
        }])
        .unwrap();
        let mut signal = vec![0.0; 64];
        signal[10] = 1.0;
        signal[11] = -2.0;
        let mut got = vec![-0.0; 80];
        ch.apply_into(&mut got, &signal, ORACLE_FS_HZ);
        let mut dense = vec![-0.0; 80];
        oracle_into(&ch, &mut dense, &signal, ORACLE_FS_HZ);
        // The run [10, 12) reaches outputs 12..=14.
        for (i, (g, d)) in got.iter().zip(&dense).enumerate() {
            if (12..=14).contains(&i) {
                assert_eq!(g.to_bits(), d.to_bits(), "reached output {i}");
            } else if (2..=66).contains(&i) {
                assert_eq!(g.to_bits(), (-0.0f64).to_bits(), "silent output {i}");
                assert_eq!(d.to_bits(), 0.0f64.to_bits(), "dense loop at {i}");
            } else {
                assert_eq!(g.to_bits(), d.to_bits(), "output {i} outside every tap");
            }
        }
    }

    #[test]
    fn coherent_gain_reflects_interference() {
        // Two equal taps half a carrier period apart cancel.
        let f = 1_000.0;
        let half_period = 0.5 / f;
        let ch = MultipathChannel::new(vec![
            Tap { delay_s: 0.0, gain: 1.0 },
            Tap { delay_s: half_period, gain: 1.0 },
        ])
        .unwrap();
        assert!(ch.coherent_gain_at(f) < 1e-9);
        // And a full period apart they add.
        let ch2 = MultipathChannel::new(vec![
            Tap { delay_s: 0.0, gain: 1.0 },
            Tap { delay_s: 1.0 / f, gain: 1.0 },
        ])
        .unwrap();
        assert!((ch2.coherent_gain_at(f) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn delay_spread_zero_for_single_path() {
        let ch = MultipathChannel::free_field(3.0, 1500.0).unwrap();
        assert_eq!(ch.rms_delay_spread_s(), 0.0);
    }

    #[test]
    fn rejects_invalid_taps() {
        assert!(MultipathChannel::new(vec![]).is_err());
        assert!(MultipathChannel::new(vec![Tap {
            delay_s: -1.0,
            gain: 1.0
        }])
        .is_err());
        assert!(MultipathChannel::new(vec![Tap {
            delay_s: 0.0,
            gain: f64::NAN
        }])
        .is_err());
        assert!(MultipathChannel::free_field(-2.0, 1500.0).is_err());
        assert!(MultipathChannel::free_field(2.0, 0.0).is_err());
    }
}
