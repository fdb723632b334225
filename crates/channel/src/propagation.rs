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
    #[cfg(test)]
    pub(crate) fn total_energy_gain(&self) -> f64 {
        self.taps.iter().map(|t| t.gain * t.gain).sum::<f64>().sqrt()
    }

    /// Length of the buffer [`apply`](Self::apply) produces for an input
    /// of `input_len` samples: the input extended by the maximum tap
    /// delay (plus interpolation slack) so no energy is truncated. Lets
    /// callers pre-size accumulation buffers that must match `apply`'s
    /// framing exactly. A rate [`apply_into`](Self::apply_into) rejects,
    /// or a reach whose sum overflows `usize`, adds no extension.
    pub fn output_len(&self, input_len: usize, fs_hz: f64) -> usize {
        if !(fs_hz > 0.0 && fs_hz.is_finite()) {
            return input_len;
        }
        let max_delay = self.taps.last().map(|t| t.delay_s).unwrap_or(0.0);
        // `as usize` saturates, so an unrepresentable reach overflows below.
        ((max_delay * fs_hz).ceil() as usize)
            .checked_add(input_len)
            .and_then(|n| n.checked_add(2))
            .unwrap_or(input_len)
    }

    /// Apply the channel to a sampled waveform at sample rate `fs_hz`.
    ///
    /// The output buffer is extended by the maximum tap delay so no energy
    /// is truncated; fractional delays use linear interpolation. This is
    /// [`apply_into`](Self::apply_into) on a fresh zeroed buffer. A rate
    /// that is not finite and positive, or a reach whose length overflows
    /// `usize`, yields `signal.len()` zeros. Any other finite rate's reach
    /// is allocated as asked, however large: callers bound the rate (the
    /// slot simulators reject rates of 2⁵² Hz and up at construction).
    pub fn apply(&self, signal: &[f64], fs_hz: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.output_len(signal.len(), fs_hz)];
        self.apply_into(&mut out, signal, fs_hz);
        out
    }

    /// Apply the channel into a caller-owned accumulation buffer (for
    /// superposing several sources at one receiver). Energy falling past
    /// the end of `dst` is dropped.
    ///
    /// The channel runs as a sparse FIR with one coefficient per integer
    /// lag: a tap `d = delay_s · fs_hz` samples late puts `g·(1−frac)` at
    /// lag `⌊d⌋` and, when `frac = d − ⌊d⌋ > 0`, `g·frac` at `⌊d⌋ + 1`;
    /// coefficients at equal lags are summed in tap order. Each output
    /// `n` then ends as `dst[n] + h_L·x[n−L] + …`, added left to right in
    /// ascending lag over every lag with `0 ≤ n − L < signal.len()`,
    /// zero terms included. A block of `BLOCK` outputs is loaded once,
    /// every lag runs over it in registers, and it is stored once; at the
    /// head and tail, where the signal starts or ends inside some lag's
    /// window, a block takes the same sums in memory. This is the per-tap
    /// [`add_delayed_scaled`](pab_dsp::resample::add_delayed_scaled) loop
    /// with its products regrouped, so the two differ by rounding only.
    ///
    /// Signed zeros follow IEEE addition: an output no lag reaches is not
    /// written, so a −0.0 there stays −0.0; a reached one becomes +0.0 as
    /// soon as one term is +0.0. A buffer that starts at +0.0, as
    /// [`apply`](Self::apply)'s does, never holds −0.0. A NaN sample
    /// reaches exactly the outputs its lags reach. A sample rate that is
    /// not finite and positive, and a lag at or past the end of `dst`
    /// (even one too large for a `usize`), add nothing.
    pub fn apply_into(&self, dst: &mut [f64], signal: &[f64], fs_hz: f64) {
        if !(fs_hz > 0.0 && fs_hz.is_finite()) {
            return;
        }
        // Exact for any buffer that fits in memory.
        let dst_len = dst.len() as f64;
        let mut lags = Lags { lag: [0; MAX_LAGS], coef: [0.0; MAX_LAGS], len: 0 };
        for tap in self.taps.iter().filter(|t| t.gain != 0.0) {
            let delay = tap.delay_s * fs_hz;
            // Taps ascend by delay, so every later one is past `dst` too.
            if !(delay < dst_len) {
                break;
            }
            let lag = delay.floor() as usize;
            let frac = delay - delay.floor();
            if lags.len + 2 > MAX_LAGS {
                lags.apply_below(lag, dst, signal);
            }
            lags.add(lag, tap.gain * (1.0 - frac));
            if frac > 0.0 && lag + 1 < dst.len() {
                lags.add(lag + 1, tap.gain * frac);
            }
        }
        lags.apply_below(usize::MAX, dst, signal);
    }
}

/// Outputs per register block of [`MultipathChannel::apply_into`]: eight
/// SSE2 registers of `f64` pairs, so the block stays in registers.
const BLOCK: usize = 16;

/// Capacity of the stack-held lag table. A 63-tap pool channel at
/// 192 kHz has 80–114 lags; one with more is applied in passes.
const MAX_LAGS: usize = 128;

/// Ascending lags with their merged coefficients, on the stack.
struct Lags {
    lag: [usize; MAX_LAGS],
    coef: [f64; MAX_LAGS],
    len: usize,
}

impl Lags {
    /// Add `coef` at `lag`. Taps arrive in delay order, so `lag` is one
    /// of the last two entries or past them all.
    fn add(&mut self, lag: usize, coef: f64) {
        let tail = self.len.saturating_sub(2);
        let held = self.lag.get(tail..self.len).unwrap_or(&[]);
        if let Some(at) = held.iter().position(|&l| l == lag) {
            if let Some(c) = self.coef.get_mut(tail + at) {
                *c += coef;
            }
        } else if let (Some(l), Some(c)) = (self.lag.get_mut(self.len), self.coef.get_mut(self.len))
        {
            (*l, *c) = (lag, coef);
            self.len += 1;
        }
    }

    /// Apply, and drop, the lags below `lag`. No later tap adds to them,
    /// and applying a prefix of the ascending lags, then the rest, adds
    /// each output's terms in the same order as one pass would.
    fn apply_below(&mut self, lag: usize, dst: &mut [f64], signal: &[f64]) {
        let lags = self.lag.get(..self.len).unwrap_or(&[]);
        let done = lags.partition_point(|&l| l < lag);
        let (lags, coefs) = (lags.get(..done), self.coef.get(..done));
        add_lags(dst, signal, lags.unwrap_or(&[]), coefs.unwrap_or(&[]));
        self.lag.copy_within(done..self.len, 0);
        self.coef.copy_within(done..self.len, 0);
        self.len -= done;
    }
}

/// `dst[n] += Σ coefs[j]·signal[n − lags[j]]` over `j` in order, for the
/// terms whose sample lies in `signal`, a block of outputs at a time.
/// `lags` ascend.
fn add_lags(dst: &mut [f64], signal: &[f64], lags: &[usize], coefs: &[f64]) {
    let (Some(&first), Some(&last)) = (lags.first(), lags.last()) else {
        return;
    };
    let end = dst.len().min(last.saturating_add(signal.len()));
    let Some(reached) = dst.get_mut(first..end) else {
        return;
    };
    for (b, out) in reached.chunks_mut(BLOCK).enumerate() {
        let n = first + b * BLOCK;
        // Lag `L` reads `window[last − L..][..BLOCK]` when all lie in `signal`.
        let window = n.checked_sub(last).and_then(|k| signal.get(k..n - first + BLOCK));
        match (window, <&mut [f64; BLOCK]>::try_from(&mut *out)) {
            // The block stays in registers across the lags.
            (Some(window), Ok(out)) => {
                let mut acc = *out;
                for (&lag, &h) in lags.iter().zip(coefs) {
                    let src = window.get(last - lag..last - lag + BLOCK);
                    if let Some(Ok(src)) = src.map(<&[f64; BLOCK]>::try_from) {
                        for (a, &x) in acc.iter_mut().zip(src) {
                            *a += h * x;
                        }
                    }
                }
                *out = acc;
            }
            _ => add_lags_clipped(out, n, signal, lags, coefs),
        }
    }
}

/// [`add_lags`] on the outputs `out = dst[n..]` of a block where the
/// signal starts or ends inside some lag's window.
fn add_lags_clipped(out: &mut [f64], n: usize, signal: &[f64], lags: &[usize], coefs: &[f64]) {
    // The lags that reach `out` read `signal[n − L..]`: `n − len < L < n + out.len()`.
    let lo = lags.partition_point(|&l| l.saturating_add(signal.len()) <= n);
    let hi = lags.partition_point(|&l| l < n + out.len());
    let coefs = coefs.get(lo..hi).unwrap_or(&[]);
    for (&lag, &h) in lags.get(lo..hi).unwrap_or(&[]).iter().zip(coefs) {
        let whole = n.checked_sub(lag).and_then(|k| signal.get(k..k + out.len()));
        if let Some(src) = whole {
            for (d, &x) in out.iter_mut().zip(src) {
                *d += h * x;
            }
            continue;
        }
        for (j, d) in out.iter_mut().enumerate() {
            if let Some(&x) = (n + j).checked_sub(lag).and_then(|k| signal.get(k)) {
                *d += h * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MultipathChannel {
        /// A single direct path: free-field spherical spreading over
        /// `distance_m` at sound speed `c`.
        fn free_field(distance_m: f64, sound_speed_m_s: f64) -> Result<Self, ChannelError> {
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

        /// RMS delay spread, seconds — multipath severity metric.
        fn rms_delay_spread_s(&self) -> f64 {
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
    }

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

    /// Delays are multiples of 1/1024 s, so `delay_s · fs` is exact.
    const ORACLE_FS_HZ: f64 = 1024.0;

    /// The channel's lags and merged coefficients, built independently of
    /// the kernel: `g·(1−frac)` at `⌊d⌋`, `g·frac` at `⌊d⌋ + 1` when
    /// `frac > 0`, summed per lag in tap order.
    fn oracle_lags(ch: &MultipathChannel, fs_hz: f64) -> std::collections::BTreeMap<usize, f64> {
        use std::collections::btree_map::Entry;
        let mut lags = std::collections::BTreeMap::new();
        let mut add = |lag: usize, c: f64| match lags.entry(lag) {
            Entry::Vacant(e) => {
                e.insert(c);
            }
            Entry::Occupied(mut e) => *e.get_mut() += c,
        };
        for t in ch.taps().iter().filter(|t| t.gain != 0.0) {
            let d = t.delay_s * fs_hz;
            let frac = d - d.floor();
            add(d.floor() as usize, t.gain * (1.0 - frac));
            if frac > 0.0 {
                add(d.floor() as usize + 1, t.gain * frac);
            }
        }
        lags
    }

    /// The plain scalar per-lag loop the kernel must match bit for bit:
    /// each output is `dst[n]` plus `h_L·x[n−L]` over the in-range lags,
    /// added in ascending lag order.
    fn lag_oracle_into(ch: &MultipathChannel, dst: &mut [f64], signal: &[f64], fs_hz: f64) {
        let lags = oracle_lags(ch, fs_hz);
        for (n, d) in dst.iter_mut().enumerate() {
            for (&lag, &h) in &lags {
                if lag <= n && n - lag < signal.len() {
                    *d += h * signal[n - lag];
                }
            }
        }
    }

    /// The per-tap interpolation loop, the physics the lags regroup.
    fn per_tap_into(ch: &MultipathChannel, dst: &mut [f64], signal: &[f64], fs_hz: f64) {
        for t in ch.taps() {
            pab_dsp::resample::add_delayed_scaled(dst, signal, t.delay_s * fs_hz, t.gain);
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bitwise_like_oracle(ch: &MultipathChannel, dst: &[f64], signal: &[f64], what: &str) {
        let mut got = dst.to_vec();
        ch.apply_into(&mut got, signal, ORACLE_FS_HZ);
        let mut want = dst.to_vec();
        lag_oracle_into(ch, &mut want, signal, ORACLE_FS_HZ);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: sample {i}: {g} vs {w}");
        }
    }

    /// Fractional and whole-sample delays, both gain signs, two taps
    /// sharing a floor, a whole-sample tap on another's `⌊d⌋ + 1`, and a
    /// lag spread longer than most test sources. No fraction or gain is
    /// a power of two, so a reordered or reassociated sum rounds
    /// differently.
    fn oracle_channel() -> MultipathChannel {
        let tap = |samples: f64, gain: f64| Tap {
            delay_s: samples / ORACLE_FS_HZ,
            gain,
        };
        MultipathChannel::new(vec![
            tap(3.3, 0.8),
            tap(3.8, -0.45),
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

    /// More lags than the kernel's table holds, so it applies them in
    /// passes.
    fn many_lag_channel() -> MultipathChannel {
        let taps = (0..3 * MAX_LAGS)
            .map(|i| Tap {
                delay_s: (1.0 + i as f64 * 1.35) / ORACLE_FS_HZ,
                gain: if i % 3 == 0 { -0.7 } else { 0.3 } / (1.0 + i as f64),
            })
            .collect();
        MultipathChannel::new(taps).unwrap()
    }

    /// Nonzero accumulator contents, so the addition order shows.
    fn prior(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(0.125..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect()
    }

    fn tone(n: usize) -> Vec<f64> {
        (0..n).map(|i| (0.37 * i as f64).sin() + 0.01).collect()
    }

    #[test]
    fn apply_into_is_bitwise_the_per_lag_loop() {
        let mut gated = tone(6000);
        for (i, s) in gated.iter_mut().enumerate() {
            // Keyed like a PWM query: on, off, and stretches of both.
            if (i / 300) % 3 == 1 || !(500..=5200).contains(&i) {
                *s = 0.0;
            }
        }
        let isolated: Vec<f64> =
            (0..5000).map(|i| if i % 7 == 3 { 1.0 + i as f64 * 1e-3 } else { 0.0 }).collect();
        let cases: Vec<(&str, Vec<f64>)> = vec![
            ("dense tone", tone(5000)),
            ("zero head and tail", gated),
            ("isolated samples", isolated),
            ("empty source", vec![]),
            ("all zeros", vec![0.0; 3000]),
            ("one sample", vec![1.5]),
        ];
        for ch in [oracle_channel(), many_lag_channel()] {
            for (what, signal) in &cases {
                for dst_len in [0, 2, 3, 4, 17, 1000, 4800, 9000, 9001, 9002] {
                    let what = format!("{what}, dst {dst_len}");
                    assert_bitwise_like_oracle(&ch, &prior(dst_len, 1), signal, &what);
                }
                let full = vec![0.0; ch.output_len(signal.len(), ORACLE_FS_HZ)];
                assert_bitwise_like_oracle(&ch, &full, signal, &format!("{what}, apply framing"));
            }
        }
        // Sources around the lag spread (where the all-lags body starts
        // to exist) and `dst` lengths around block edges of that body.
        let ch = oracle_channel();
        let spread = 9002;
        for len in [spread - 1, spread, spread + 1, spread + BLOCK - 1, spread + 3 * BLOCK + 5] {
            let signal = tone(len);
            let body_start = 9001;
            for dst_len in [
                body_start - 1,
                body_start,
                body_start + 1,
                body_start + BLOCK - 1,
                body_start + BLOCK,
                body_start + BLOCK + 1,
                body_start + 7 * BLOCK + 3,
                len + spread,
            ] {
                let what = format!("src {len}, dst {dst_len}");
                assert_bitwise_like_oracle(&ch, &prior(dst_len, 2), &signal, &what);
            }
        }
        // A `dst` shorter than the first lag takes nothing; one sample
        // longer takes one term.
        let late = MultipathChannel::new(vec![Tap {
            delay_s: 40.5 / ORACLE_FS_HZ,
            gain: 1.0,
        }])
        .unwrap();
        let before = prior(40, 3);
        let mut dst = before.clone();
        late.apply_into(&mut dst, &tone(100), ORACLE_FS_HZ);
        assert_eq!(bits(&dst), bits(&before));
        assert_bitwise_like_oracle(&late, &prior(41, 3), &tone(100), "first output at the end");
    }

    #[test]
    fn apply_matches_apply_into_on_zeros() {
        let ch = oracle_channel();
        let signal: Vec<f64> =
            (0..3000).map(|i| if i % 500 < 200 { (0.1 * i as f64).cos() } else { 0.0 }).collect();
        let got = ch.apply(&signal, ORACLE_FS_HZ);
        let mut into = vec![0.0; got.len()];
        ch.apply_into(&mut into, &signal, ORACLE_FS_HZ);
        let mut want = vec![0.0; got.len()];
        lag_oracle_into(&ch, &mut want, &signal, ORACLE_FS_HZ);
        assert_eq!(bits(&got), bits(&into));
        assert_eq!(bits(&got), bits(&want));
    }

    /// The regrouped sum stays within rounding of the per-tap loop. Each
    /// loop rounds a term at most `2T + 2` times on its way into an
    /// output of a `T`-tap channel (products, coefficient merges, the
    /// running sum), each rounding costs at most `ε/2` of the running
    /// magnitude, and the terms' magnitudes sum to at most
    /// `|d| + Σ|g|·max|x|` (the two weights of a tap sum to 1). So
    /// `k = 3T + 2` in units of `ε` bounds the gap between the two.
    #[test]
    fn apply_into_is_within_rounding_of_the_per_tap_loop() {
        let pool = crate::Pool::pool_a();
        let pool_ch = pool
            .channel(
                &crate::Position::new(1.5, 1.5, 0.6),
                &crate::Position::new(1.0, 1.2, 0.6),
                3,
                15_000.0,
            )
            .unwrap();
        let big = tone(20_000).iter().map(|x| 40.0 * x).collect::<Vec<_>>();
        let cases = [
            (oracle_channel(), ORACLE_FS_HZ, tone(12_000)),
            (many_lag_channel(), ORACLE_FS_HZ, tone(3000)),
            (pool_ch, 192_000.0, big),
        ];
        for (ch, fs_hz, signal) in &cases {
            let taps = ch.taps().len() as f64;
            let k = 3.0 * taps + 2.0;
            let gain_sum: f64 = ch.taps().iter().map(|t| t.gain.abs()).sum();
            let peak = signal.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            for seed in [0, 5] {
                let n = ch.output_len(signal.len(), *fs_hz);
                let start = if seed == 0 { vec![0.0; n] } else { prior(n, seed) };
                let mut got = start.clone();
                ch.apply_into(&mut got, signal, *fs_hz);
                let mut want = start.clone();
                per_tap_into(ch, &mut want, signal, *fs_hz);
                for (i, ((g, w), d)) in got.iter().zip(&want).zip(&start).enumerate() {
                    let bound = k * f64::EPSILON * (d.abs() + gain_sum * peak);
                    assert!((g - w).abs() <= bound, "{taps} taps, sample {i}: {g} vs {w}");
                }
            }
        }
    }

    /// The signed-zero contract: outputs no lag reaches are not written;
    /// a reached output is IEEE `d + terms`, so a −0.0 there becomes
    /// +0.0 when a term is +0.0 and stays −0.0 when every term is −0.0.
    /// A buffer that starts at +0.0 never holds −0.0.
    #[test]
    fn signed_zeros_follow_ieee_addition() {
        // Lags 2 and 3, coefficient 0.5 each.
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
        let mut want = vec![-0.0; 80];
        lag_oracle_into(&ch, &mut want, &signal, ORACLE_FS_HZ);
        assert_eq!(bits(&got), bits(&want));
        for (i, g) in got.iter().enumerate() {
            if !(2..67).contains(&i) {
                assert_eq!(g.to_bits(), (-0.0f64).to_bits(), "unreached output {i}");
            } else if !(12..=14).contains(&i) {
                assert_eq!(g.to_bits(), 0.0f64.to_bits(), "output {i} over +0.0 samples");
            }
        }
        // A negative coefficient on +0.0 samples adds −0.0 terms only.
        let neg = MultipathChannel::new(vec![Tap {
            delay_s: 2.0 / ORACLE_FS_HZ,
            gain: -0.75,
        }])
        .unwrap();
        let mut dst = vec![-0.0; 20];
        neg.apply_into(&mut dst, &[0.0; 10], ORACLE_FS_HZ);
        assert_eq!(bits(&dst), bits(&[-0.0; 20]));
        // `apply` starts at +0.0: no output is −0.0, whatever the signs.
        let mixed = [0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 0.0];
        for ch in [&ch, &neg, &oracle_channel()] {
            let y = ch.apply(&mixed, ORACLE_FS_HZ);
            assert!(y.iter().all(|v| v.to_bits() != (-0.0f64).to_bits()));
        }
    }

    /// A NaN sample reaches exactly the outputs its lags reach.
    #[test]
    fn nan_reaches_only_its_lags() {
        let ch = oracle_channel();
        let lags = oracle_lags(&ch, ORACLE_FS_HZ);
        let mut signal = tone(3000);
        signal[1234] = f64::NAN;
        let y = ch.apply(&signal, ORACLE_FS_HZ);
        for (n, v) in y.iter().enumerate() {
            let reached = n >= 1234 && lags.contains_key(&(n - 1234));
            assert_eq!(v.is_nan(), reached, "output {n}");
        }
    }

    /// Rates that are not finite and positive, rates and delays whose
    /// lags lie past `dst` (or past `usize`), leave `dst` untouched, and
    /// `apply` yields silence of the input's length for them.
    #[test]
    fn hostile_rates_and_delays_add_nothing() {
        let ch = crate::Pool::pool_a()
            .channel(
                &crate::Position::new(0.5, 1.5, 0.6),
                &crate::Position::new(1.5, 1.8, 0.6),
                3,
                15_000.0,
            )
            .unwrap();
        let before = prior(5000, 4);
        let signal = tone(3000);
        let rates = [0.0, -0.0, -192_000.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2f64.powi(60)];
        for fs_hz in rates {
            let mut dst = before.clone();
            ch.apply_into(&mut dst, &signal, fs_hz);
            assert_eq!(bits(&dst), bits(&before), "fs {fs_hz}");
        }
        // `apply` returns the input's length in zeros there, and where
        // the reach overflows `usize`, instead of overflowing its length.
        let far = MultipathChannel::new(vec![Tap { delay_s: 1e300, gain: 1.0 }]).unwrap();
        let silence = |y: Vec<f64>| y.len() == signal.len() && y.iter().all(|&v| v == 0.0);
        for fs_hz in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(silence(ch.apply(&signal, fs_hz)), "apply at fs {fs_hz}");
        }
        for fs_hz in [ORACLE_FS_HZ, 2f64.powi(52), 2f64.powi(60), f64::INFINITY] {
            assert!(silence(far.apply(&signal, fs_hz)), "far apply at fs {fs_hz}");
        }
        let len = before.len() as f64;
        for delay in [1e300, f64::MAX, (len + 0.5) / ORACLE_FS_HZ, len / ORACLE_FS_HZ] {
            let far = MultipathChannel::new(vec![Tap { delay_s: delay, gain: 1.0 }]).unwrap();
            let mut dst = before.clone();
            far.apply_into(&mut dst, &signal, ORACLE_FS_HZ);
            assert_eq!(bits(&dst), bits(&before), "delay {delay} s");
        }
        // Beside a near tap, the far one adds nothing either.
        let both = MultipathChannel::new(vec![
            Tap { delay_s: 0.5 / ORACLE_FS_HZ, gain: 1.0 },
            Tap { delay_s: 1e300, gain: 1.0 },
        ])
        .unwrap();
        assert_bitwise_like_oracle(&both, &before, &signal, "huge delay beside a near one");
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
