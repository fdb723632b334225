//! Signal statistics and decibel conversions used across the stack and by
//! the experiment harnesses (SNR/SINR computation per §6.1 of the paper).

/// Arithmetic mean; 0.0 for an empty slice.
// lint: unitless mean in the input's own units
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population variance; 0.0 for an empty slice.
// lint: unitless variance in the input's own units squared
pub fn variance(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Standard deviation.
// lint: unitless deviation in the input's own units
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square value.
// lint: unitless RMS in the input's own units
pub fn rms(x: &[f64]) -> f64 { // lint: allow(dead-pub) test-oracle stats_identities
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|&v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Mean power (mean of squares).
// lint: unitless power in the input's own units squared
pub fn power(x: &[f64]) -> f64 { // lint: allow(dead-pub) test-oracle stats_identities
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|&v| v * v).sum::<f64>() / x.len() as f64
}

/// Power ratio to decibels; returns `-inf` for a non-positive ratio.
fn db_from_power_ratio(ratio: f64) -> f64 {
    10.0 * ratio.log10()
}

/// SNR in dB from separate signal and noise power measurements.
/// Returns `+inf` when noise power is zero and signal power is positive.
pub fn snr_db(
    signal_power: f64, // lint: unitless — any linear power unit; only the ratio matters
    noise_power: f64,  // lint: unitless — same units as signal_power
) -> f64 {
    if noise_power <= 0.0 {
        if signal_power > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        db_from_power_ratio(signal_power / noise_power)
    }
}

/// The paper's SNR definition (§6.1): signal power is the squared channel
/// estimate; noise power is the mean squared difference between the
/// received samples and the channel-scaled reference.
///
/// `received` and `reference` must have the same length; `reference` is the
/// unit-amplitude transmitted waveform.
// lint: allow(dead-pub) test-oracle snr_estimate_scale_invariant reference-based SNR for the estimator property
pub fn snr_from_reference_db(received: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(received.len(), reference.len(), "length mismatch");
    let ref_power = power(reference);
    if ref_power == 0.0 || received.is_empty() {
        return f64::NEG_INFINITY;
    }
    // Least-squares channel estimate h = <received, reference> / |reference|^2.
    let dot: f64 = received.iter().zip(reference).map(|(a, b)| a * b).sum();
    let h = dot / (ref_power * received.len() as f64);
    let noise: f64 = received
        .iter()
        .zip(reference)
        .map(|(&r, &s)| {
            let e = r - h * s;
            e * e
        })
        .sum::<f64>()
        / received.len() as f64;
    snr_db(h * h * ref_power, noise)
}

/// Linear least-squares fit `y = a + b x`; returns `(a, b)`. Requires at
/// least two points, else returns `(mean(y), 0.0)`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len());
    if x.len() < 2 {
        return (mean(y), 0.0);
    }
    let mx = mean(x);
    let my = mean(y);
    let mut num = 0.0;
    let mut den = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        num += (xi - mx) * (yi - my);
        den += (xi - mx) * (xi - mx);
    }
    if den == 0.0 {
        (my, 0.0)
    } else {
        let b = num / den;
        (my - b * mx, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::tone;

    /// Amplitude ratio to decibels.
    fn db_from_amplitude_ratio(ratio: f64) -> f64 {
        20.0 * ratio.log10()
    }

    /// Decibels to power ratio.
    fn power_ratio_from_db(db: f64) -> f64 {
        10f64.powf(db / 10.0)
    }

    /// Decibels to amplitude ratio.
    fn amplitude_ratio_from_db(db: f64) -> f64 {
        10f64.powf(db / 20.0)
    }

    #[test]
    fn basic_moments() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&x) - 2.5).abs() < 1e-12);
        assert!((variance(&x) - 1.25).abs() < 1e-12);
        assert!((std_dev(&x) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn rms_of_unit_sine_is_sqrt_half() {
        let s = tone(1_000.0, 48_000.0, 0.0, 4800);
        assert!((rms(&s) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((power(&s) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn db_roundtrips() {
        assert!((db_from_power_ratio(100.0) - 20.0).abs() < 1e-12);
        assert!((db_from_amplitude_ratio(10.0) - 20.0).abs() < 1e-12);
        assert!((power_ratio_from_db(30.0) - 1000.0).abs() < 1e-9);
        assert!((amplitude_ratio_from_db(6.0206) - 2.0).abs() < 1e-4);
    }

    #[test]
    fn snr_edge_cases() {
        assert_eq!(snr_db(1.0, 0.0), f64::INFINITY);
        assert_eq!(snr_db(0.0, 0.0), f64::NEG_INFINITY);
        assert!((snr_db(10.0, 1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn reference_snr_matches_constructed_snr() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let reference = tone(1_000.0, 48_000.0, 0.0, 9600);
        let h = 0.5;
        let noise_sigma = 0.05;
        let received: Vec<f64> = reference
            .iter()
            .map(|&s| {
                h * s
                    + noise_sigma
                        * rng.sample::<f64, _>(rand_distr_standard_normal())
            })
            .collect();
        let est = snr_from_reference_db(&received, &reference);
        let expected = snr_db(h * h * 0.5, noise_sigma * noise_sigma);
        assert!((est - expected).abs() < 0.5, "est={est} expected={expected}");
    }

    // Small local helper: Box-Muller standard normal as a rand Distribution,
    // avoiding a rand_distr dependency for one test.
    struct StdNormal;
    impl rand::distributions::Distribution<f64> for StdNormal {
        fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        }
    }
    fn rand_distr_standard_normal() -> StdNormal {
        StdNormal
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 + 0.5 * v).collect();
        let (a, b) = linear_fit(&x, &y);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 0.5).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_inputs() {
        let (a, b) = linear_fit(&[1.0], &[5.0]);
        assert_eq!((a, b), (5.0, 0.0));
        let (a, b) = linear_fit(&[2.0, 2.0], &[1.0, 3.0]);
        assert_eq!((a, b), (2.0, 0.0));
    }
}
