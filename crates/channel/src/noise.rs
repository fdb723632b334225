//! Ambient noise: Wenz-style spectral levels and Gaussian sample
//! generation.
//!
//! In the 10–20 kHz band PAB occupies, open-water ambient noise is
//! dominated by wind/sea-state (thermal noise takes over above ~50 kHz);
//! enclosed test tanks are much quieter and mostly limited by the
//! receiving chain. Both are modelled as Gaussian noise whose standard
//! deviation derives from a spectral level integrated over the receiver
//! bandwidth.
//!
//! Samples come from one sampler, [`standard_normal`]: a 256-layer
//! Marsaglia–Tsang ziggurat over the seeded RNG. About 98.5% of draws cost
//! one inlined `next_u64` (two buffered words; the ChaCha8 block behind
//! them is computed once per eight draws), a table lookup, a multiply, a
//! compare and an OR of the sign bit, with no branch on the random sign;
//! the rest take the exact `exp` test at a layer's edge or Marsaglia's
//! tail algorithm beyond the base layer. The tables are built once, in
//! static storage, so drawing never allocates. The stream is pinned by a
//! digest test: a change to it moves every noisy result in `results/`.

use crate::ChannelError;
use rand::Rng;
use std::sync::OnceLock;

/// Ambient-noise environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseEnvironment {
    /// Quiet indoor test tank; `level_db` is the flat spectral level in
    /// dB re 1 µPa²/Hz.
    Tank { level_db: f64 },
    /// Open water parameterised by wind speed (m/s) and shipping activity
    /// (0..1), using the classic empirical formulas.
    OpenWater { wind_m_s: f64, shipping: f64 },
}

impl NoiseEnvironment {
    /// Quiet laboratory tank (≈ 40 dB re 1 µPa²/Hz: instrument-limited).
    pub fn quiet_tank() -> Self {
        NoiseEnvironment::Tank { level_db: 40.0 }
    }

    /// Noise power spectral density at `freq_hz`, dB re 1 µPa²/Hz.
    ///
    /// Open-water model (f in kHz):
    /// * turbulence: `17 - 30 log f`
    /// * shipping:   `40 + 20(s - 0.5) + 26 log f - 60 log(f + 0.03)`
    /// * wind:       `50 + 7.5 √w + 20 log f - 40 log(f + 0.4)`
    /// * thermal:    `-15 + 20 log f`
    ///
    /// summed in power.
    fn spectral_level_db(&self, freq_hz: f64) -> f64 {
        match *self {
            NoiseEnvironment::Tank { level_db } => level_db,
            NoiseEnvironment::OpenWater { wind_m_s, shipping } => {
                let f = (freq_hz / 1000.0).max(1e-3);
                let lf = f.log10();
                let turb = 17.0 - 30.0 * lf;
                let ship = 40.0 + 20.0 * (shipping - 0.5) + 26.0 * lf
                    - 60.0 * (f + 0.03).log10();
                let wind = 50.0 + 7.5 * wind_m_s.max(0.0).sqrt() + 20.0 * lf
                    - 40.0 * (f + 0.4).log10();
                let therm = -15.0 + 20.0 * lf;
                let total_power = 10f64.powf(turb / 10.0)
                    + 10f64.powf(ship / 10.0)
                    + 10f64.powf(wind / 10.0)
                    + 10f64.powf(therm / 10.0);
                10.0 * total_power.log10()
            }
        }
    }

    /// RMS pressure (pascals) of the noise integrated over `bandwidth_hz`
    /// around `freq_hz`.
    pub fn rms_pressure_pa(&self, freq_hz: f64, bandwidth_hz: f64) -> Result<f64, ChannelError> {
        if !(bandwidth_hz > 0.0) {
            return Err(ChannelError::InvalidParameter("bandwidth_hz"));
        }
        let psd_db = self.spectral_level_db(freq_hz);
        // dB re 1 µPa²/Hz -> µPa² / Hz -> Pa².
        let psd_upa2 = 10f64.powf(psd_db / 10.0);
        let power_pa2 = psd_upa2 * bandwidth_hz * 1e-12;
        Ok(power_pa2.sqrt())
    }
}

/// Number of ziggurat layers; a draw's low byte picks one.
const ZIG_LAYERS: usize = 256;
/// Right edge of the base layer's rectangle, where the tail begins (`R`).
// lint: unitless abscissa of the N(0,1) density
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every layer under the unnormalised density `exp(-x²/2)` (`V`):
/// `R·exp(-R²/2) + √(π/2)·erfc(R/√2)`, the base rectangle plus the tail.
// lint: unitless area under the N(0,1) density
const ZIG_AREA: f64 = 0.004_928_673_233_974_654_5;

/// Ziggurat tables for the standard normal.
///
/// Layer `i ≥ 1` is the rectangle `[0, x[i]] × [f[i], f[i+1]]`; layer 0
/// is the base, the rectangle `[0, R] × [0, f(R)]` plus the tail beyond
/// `R`, drawn as the rectangle `[0, x[0]] × [0, f(R)]`. All have area `V`.
struct Ziggurat {
    /// Layer edges, decreasing: `x[0] = V/f(R)`, `x[1] = R`, …, `x[256] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// `f[i] = exp(-x[i]²/2)`, increasing to `f[256] = 1`.
    f: [f64; ZIG_LAYERS + 1],
}

impl Ziggurat {
    fn build() -> Ziggurat {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_AREA / pdf(ZIG_R);
        x[1] = ZIG_R;
        // Each layer's top edge sits where its area reaches V; the last
        // layer closes at the density's peak, x[256] = 0.
        let mut edge = ZIG_R;
        for next in &mut x[2..ZIG_LAYERS] {
            edge = (-2.0 * (pdf(edge) + ZIG_AREA / edge).ln()).sqrt();
            *next = edge;
        }
        Ziggurat { x, f: x.map(pdf) }
    }

    /// One N(0, 1) draw.
    ///
    /// Every candidate is non-negative, so the sign is bit 8 of the word
    /// moved into the sign bit: exactly `±1.0 * x`, `+0` becoming `-0.0`
    /// included, without a branch on a coin flip.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            // Bits 0–7 pick the layer, bit 8 the sign, bits 11–63 a
            // uniform in [0, 1) across the layer's width.
            let bits = rng.next_u64();
            let i = (bits & 0xff) as usize;
            let sign = (bits & 0x100) << 55;
            let signed = |x: f64| f64::from_bits(x.to_bits() | sign);
            // lint: allow(panic-path) i = bits & 0xff < 256 and both tables have 257 entries
            let (x_i, x_next) = (self.x[i], self.x[i + 1]);
            let x = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * x_i;
            if x < x_next {
                return signed(x);
            }
            if i == 0 {
                return signed(ZIG_R + tail_excess(rng));
            }
            // Edge of layer i: accept if a uniform height in the layer
            // falls under the density.
            // lint: allow(panic-path) i = bits & 0xff < 256 and both tables have 257 entries
            let (f_i, f_next) = (self.f[i], self.f[i + 1]);
            let y = f_i + (f_next - f_i) * rng.gen::<f64>();
            if y < (-0.5 * x * x).exp() {
                return signed(x);
            }
        }
    }
}

/// Marsaglia's tail algorithm: the excess over `R` of a normal draw
/// conditioned on exceeding `R`.
#[cold]
fn tail_excess<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        // 1 - [0, 1) is in (0, 1], so both logarithms are finite.
        let x = -(1.0 - rng.gen::<f64>()).ln() / ZIG_R;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y > x * x {
            return x;
        }
    }
}

fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::build)
}

/// Draw one standard-normal sample (256-layer ziggurat; see the module
/// docs). The same RNG state always gives the same sample.
// lint: unitless N(0,1) draw; caller applies the scale
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 { // lint: allow(dead-pub) test-oracle zero_forcing_separates_streams
    ziggurat().sample(rng)
}

/// Add white Gaussian noise with standard deviation `sigma_pa` to a signal in
/// place, one [`standard_normal`] draw per sample.
///
/// `sigma_pa` must be finite: a NaN would poison every sample. A zero or
/// negative sigma adds nothing and draws nothing. The slot simulators
/// reject a non-finite or negative noise level when they are built.
pub fn add_awgn<R: Rng + ?Sized>(signal: &mut [f64], sigma_pa: f64, rng: &mut R) {
    if sigma_pa <= 0.0 {
        return;
    }
    let zig = ziggurat();
    for s in signal.iter_mut() {
        *s += sigma_pa * zig.sample(rng);
    }
}

/// Generate `n` samples of white Gaussian noise with standard deviation
/// `sigma_pa`: [`add_awgn`] over silence, so both draw the same stream.
// lint: allow(dead-pub) test-oracle same_seed_noise_is_bit_identical allocating form of add_awgn for the determinism and robustness suites
pub fn awgn<R: Rng + ?Sized>(n: usize, sigma_pa: f64, rng: &mut R) -> Vec<f64> {
    let mut out = vec![0.0; n];
    add_awgn(&mut out, sigma_pa, rng);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Sigma needed for a target SNR (dB) given a signal power (linear).
    /// The returned sigma is in the signal's own amplitude units.
    fn sigma_for_snr_db(
        signal_power: f64,
        snr_db: f64,
    ) -> f64 {
        (signal_power / 10f64.powf(snr_db / 10.0)).sqrt()
    }

    #[test]
    fn tank_level_is_flat() {
        let env = NoiseEnvironment::quiet_tank();
        assert_eq!(env.spectral_level_db(1_000.0), env.spectral_level_db(20_000.0));
    }

    #[test]
    fn wind_raises_open_water_noise() {
        let calm = NoiseEnvironment::OpenWater { wind_m_s: 0.0, shipping: 0.3 };
        let windy = NoiseEnvironment::OpenWater { wind_m_s: 15.0, shipping: 0.3 };
        assert!(windy.spectral_level_db(15_000.0) > calm.spectral_level_db(15_000.0));
    }

    #[test]
    fn shipping_matters_at_low_frequency_not_high() {
        let lo_ship = NoiseEnvironment::OpenWater { wind_m_s: 5.0, shipping: 0.0 };
        let hi_ship = NoiseEnvironment::OpenWater { wind_m_s: 5.0, shipping: 1.0 };
        let delta_100 = hi_ship.spectral_level_db(100.0) - lo_ship.spectral_level_db(100.0);
        let delta_15k = hi_ship.spectral_level_db(15_000.0) - lo_ship.spectral_level_db(15_000.0);
        assert!(delta_100 > 5.0, "delta_100={delta_100}");
        assert!(delta_15k < 1.0, "delta_15k={delta_15k}");
    }

    #[test]
    fn open_water_levels_in_plausible_band() {
        // Sea state with moderate wind at 15 kHz: ~35-55 dB re µPa²/Hz.
        let env = NoiseEnvironment::OpenWater { wind_m_s: 7.0, shipping: 0.5 };
        let l = env.spectral_level_db(15_000.0);
        assert!((30.0..60.0).contains(&l), "l={l}");
    }

    #[test]
    fn rms_pressure_scales_with_bandwidth() {
        let env = NoiseEnvironment::quiet_tank();
        let narrow = env.rms_pressure_pa(15_000.0, 100.0).unwrap();
        let wide = env.rms_pressure_pa(15_000.0, 10_000.0).unwrap();
        assert!((wide / narrow - 10.0).abs() < 1e-9);
        assert!(env.rms_pressure_pa(15_000.0, 0.0).is_err());
    }

    #[test]
    fn awgn_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let x = awgn(100_000, 2.0, &mut rng);
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / x.len() as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn add_awgn_zero_sigma_is_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut x = vec![1.0, 2.0];
        add_awgn(&mut x, 0.0, &mut rng);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn sigma_for_snr_inverts() {
        let sigma_pa = sigma_for_snr_db(0.5, 10.0);
        // SNR = P_sig / sigma_pa^2 = 0.5 / 0.05 = 10 => 10 dB.
        assert!((0.5 / (sigma_pa * sigma_pa) - 10.0).abs() < 1e-9);
    }

    /// `∫_x^∞ exp(-t²/2) dt`: the Laplace continued fraction for x ≥ 2.5,
    /// else √(π/2) minus the Taylor series of `∫_0^x`. Good to ~1e-14
    /// relative, far past what any check here needs.
    fn upper_tail(x: f64) -> f64 {
        if x < 0.0 {
            return (2.0 * std::f64::consts::PI).sqrt() - upper_tail(-x);
        }
        if x >= 2.5 {
            let mut cf = x;
            for k in (1..=300).rev() {
                cf = x + k as f64 / cf;
            }
            return (-0.5 * x * x).exp() / cf;
        }
        let (mut term, mut sum) = (x, x);
        for n in 1..200 {
            term *= -x * x / (2.0 * n as f64);
            sum += term / (2 * n + 1) as f64;
        }
        (std::f64::consts::PI / 2.0).sqrt() - sum
    }

    /// P(N(0, 1) > x).
    fn normal_sf(x: f64) -> f64 {
        upper_tail(x) / (2.0 * std::f64::consts::PI).sqrt()
    }

    fn draws(seed: u64, n: usize) -> Vec<f64> {
        awgn(n, 1.0, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    #[test]
    fn ziggurat_tables_are_consistent() {
        let z = ziggurat();
        assert_eq!(z.x[1], ZIG_R);
        assert_eq!(z.x[ZIG_LAYERS], 0.0);
        assert_eq!(z.f[ZIG_LAYERS], 1.0);
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
        for i in 0..=ZIG_LAYERS {
            assert_eq!(z.f[i], (-0.5 * z.x[i] * z.x[i]).exp(), "f[{i}]");
        }
        // V is the base rectangle plus the tail...
        let base = ZIG_R * (-0.5 * ZIG_R * ZIG_R).exp() + upper_tail(ZIG_R);
        assert!(
            (base - ZIG_AREA).abs() < 1e-12,
            "base area {base} vs V {ZIG_AREA}"
        );
        // ...and every layer, the base drawn as [0, x[0]] × [0, f(R)], has it.
        assert!((z.x[0] * z.f[1] - ZIG_AREA).abs() < 1e-12);
        for i in 1..ZIG_LAYERS {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!(
                (area - ZIG_AREA).abs() < 1e-12,
                "layer {i}: area {area} vs V {ZIG_AREA}"
            );
        }
    }

    #[test]
    fn ziggurat_moments_match_standard_normal() {
        let n = 2_000_000;
        let x = draws(101, n);
        let nf = n as f64;
        let mean = x.iter().sum::<f64>() / nf;
        let m2 = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / nf;
        let m4 = x.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / nf;
        let kurtosis = m4 / (m2 * m2);
        // Five standard errors: 1/√n, √(2/n) and √(24/n).
        assert!(mean.abs() < 5.0 / nf.sqrt(), "mean={mean}");
        assert!((m2 - 1.0).abs() < 5.0 * (2.0 / nf).sqrt(), "var={m2}");
        assert!(
            (kurtosis - 3.0).abs() < 5.0 * (24.0 / nf).sqrt(),
            "kurtosis={kurtosis}"
        );
    }

    #[test]
    fn ziggurat_tails_match_erfc() {
        let n = 4_000_000;
        let x = draws(202, n);
        for k in [3.0, 4.0] {
            let p = 2.0 * normal_sf(k);
            let hits = x.iter().filter(|v| v.abs() > k).count() as f64;
            let expected = p * n as f64;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (hits - expected).abs() < 5.0 * sd,
                "P(|x| > {k}): {hits} draws vs {expected:.1} ± {sd:.1}"
            );
        }
    }

    #[test]
    fn ziggurat_passes_chi_square_on_equiprobable_bins() {
        const BINS: usize = 50;
        let n = 1_000_000;
        let mut counts = [0usize; BINS];
        for v in draws(303, n) {
            // Φ(v) is uniform on [0, 1) for a standard-normal v.
            let u = 1.0 - normal_sf(v);
            counts[((u * BINS as f64) as usize).min(BINS - 1)] += 1;
        }
        let expected = n as f64 / BINS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        // 99.9th percentile of chi-square with 49 degrees of freedom.
        assert!(chi2 < 85.35, "chi2={chi2} counts={counts:?}");
    }

    #[test]
    fn ziggurat_reaches_the_base_layer_tail() {
        // Only the tail algorithm returns |x| > R: every other branch
        // returns a point inside a layer, whose edge is at most R.
        let n = 4_000_000;
        let beyond = draws(404, n).iter().filter(|v| v.abs() > ZIG_R).count() as f64;
        let p = 2.0 * normal_sf(ZIG_R);
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        assert!(beyond > 0.0);
        assert!(
            (beyond - p * n as f64).abs() < 5.0 * sd,
            "{beyond} draws beyond R"
        );
    }

    /// An RNG that replays scripted words.
    struct Words<'a>(std::slice::Iter<'a, u64>);

    impl RngCore for Words<'_> {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("scripted words ran out")
        }
    }

    /// Draw from scripted words, checking that all of them were used.
    fn draw_from(words: &[u64]) -> f64 {
        let mut rng = Words(words.iter());
        let x = standard_normal(&mut rng);
        assert!(rng.0.next().is_none(), "{words:x?}: words left over");
        x
    }

    #[test]
    fn sign_is_bit_8_on_every_return_path() {
        let z = ziggurat();
        let sign = 0x100u64;
        let uniform = |bits: u64| (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // Fast path: layer 5 at half its width is inside the next edge.
        let fast = (1u64 << 63) | 5;
        let x = uniform(fast) * z.x[5];
        assert!(x < z.x[6]);
        assert_eq!(draw_from(&[fast]).to_bits(), x.to_bits());
        assert_eq!(draw_from(&[fast | sign]).to_bits(), (-x).to_bits());
        // A zero uniform gives +0 and, with the sign bit, -0.0.
        assert_eq!(draw_from(&[3]).to_bits(), 0.0f64.to_bits());
        assert_eq!(draw_from(&[3 | sign]).to_bits(), (-0.0f64).to_bits());
        // Edge path: layer 1 at 99% of its width lies past x[2], and a
        // zero height (the second word) is under the density.
        let edge = (((0.99 * (1u64 << 53) as f64) as u64) << 11) | 1;
        let x = uniform(edge) * z.x[1];
        assert!(x >= z.x[2]);
        assert_eq!(draw_from(&[edge, 0]).to_bits(), x.to_bits());
        assert_eq!(draw_from(&[edge | sign, 0]).to_bits(), (-x).to_bits());
        // Tail path: a word naming layer 0 with a uniform near 1 lands
        // past R on the base layer's rectangle, so the next two words are
        // the tail draw's uniforms (0.5 each).
        let base_edge = u64::MAX << 11;
        let half = 1u64 << 63;
        let x = ZIG_R + std::f64::consts::LN_2 / ZIG_R;
        assert_eq!(draw_from(&[base_edge, half, half]).to_bits(), x.to_bits());
        assert_eq!(
            draw_from(&[base_edge | sign, half, half]).to_bits(),
            (-x).to_bits()
        );
    }

    /// FNV-1a over the little-endian bits of every sample.
    fn fnv1a_bits(x: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn awgn_stream_is_pinned() {
        // The first 2^20 draws of two seeds, bit for bit. Every noisy
        // result in `results/` and every replay digest rests on this
        // stream: a change to the sampler or to ChaCha8 must fail here.
        for (seed, digest) in [
            (7u64, 0x9ce8_cddc_f730_9ba8u64),
            (2019, 0xf944_e1bb_0b6e_d27a),
        ] {
            let got = fnv1a_bits(&draws(seed, 1 << 20));
            assert_eq!(got, digest, "seed {seed}: digest {got:#018x}");
        }
    }

    #[test]
    fn add_awgn_and_awgn_consume_the_stream_identically() {
        for (n, sigma_pa) in [(0, 1.0), (1, 0.5), (4_097, 2.0), (10_000, 1e-3)] {
            let mut a = ChaCha8Rng::seed_from_u64(17);
            let mut b = ChaCha8Rng::seed_from_u64(17);
            let fresh = awgn(n, sigma_pa, &mut a);
            let mut added = vec![0.0; n];
            add_awgn(&mut added, sigma_pa, &mut b);
            assert_eq!(fresh, added);
            assert_eq!(a.next_u64(), b.next_u64(), "n={n}: streams diverged");
        }
        // Standard normals scaled by sigma, draw for draw.
        let mut a = ChaCha8Rng::seed_from_u64(23);
        let mut b = ChaCha8Rng::seed_from_u64(23);
        let scaled = awgn(64, 3.0, &mut a);
        assert!(scaled.iter().all(|&v| v == 3.0 * standard_normal(&mut b)));
    }

    #[test]
    fn noise_is_deterministic_with_seed() {
        let a = awgn(16, 1.0, &mut ChaCha8Rng::seed_from_u64(9));
        let b = awgn(16, 1.0, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
