//! Property-based tests for the DSP primitives.

use pab_dsp::fir::Fir;
use pab_dsp::goertzel::tone_amplitude;
use pab_dsp::iir::butter_lowpass;
use pab_dsp::mix::{downconvert, tone, upconvert};
use pab_dsp::resample::add_delayed_scaled;
use pab_dsp::stats;
use pab_dsp::window::Window;
use pab_dsp::Complex64;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stable filter's output of a bounded signal stays bounded.
    #[test]
    fn butterworth_output_is_bounded(
        cutoff in 100.0f64..20_000.0,
        order in 1usize..8,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..2048).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let f = butter_lowpass(order, cutoff, 48_000.0).unwrap();
        let y = f.filter(&x);
        // Butterworth low-pass gain never exceeds ~1 plus transient margin.
        prop_assert!(y.iter().all(|v| v.abs() < 4.0));
        let yy = f.filtfilt(&x);
        prop_assert!(yy.iter().all(|v| v.abs() < 8.0));
    }

    /// Filters are linear: filter(a·x) == a·filter(x).
    #[test]
    fn filters_are_homogeneous(scale in 0.01f64..100.0, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..512).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xs: Vec<f64> = x.iter().map(|v| v * scale).collect();
        let f = butter_lowpass(4, 2_000.0, 48_000.0).unwrap();
        let y = f.filter(&x);
        let ys = f.filter(&xs);
        for (a, b) in y.iter().zip(&ys) {
            prop_assert!((a * scale - b).abs() <= 1e-9 * scale.max(1.0));
        }
    }

    /// FIR low-pass DC gain is exactly 1 regardless of design parameters.
    #[test]
    fn fir_dc_gain_is_unity(
        taps in 3usize..301,
        cutoff in 100.0f64..20_000.0,
    ) {
        let f = Fir::lowpass(taps, cutoff, 48_000.0, Window::Hamming).unwrap();
        let s: f64 = f.taps().iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
    }

    /// Downconvert-then-upconvert at the same carrier recovers the
    /// carrier-frequency component's amplitude.
    #[test]
    fn mix_roundtrip_preserves_tone(freq in 5_000.0f64..40_000.0, amp in 0.1f64..10.0) {
        let fs_hz = 192_000.0;
        let x: Vec<f64> = tone(freq, fs_hz, 0.0, 8192).iter().map(|v| v * amp).collect();
        let bb = downconvert(&x, freq, fs_hz);
        let back = upconvert(&bb, freq, fs_hz);
        // Without intermediate filtering the roundtrip is the exact
        // identity: Re(x·e^{-jω n}·e^{+jω n}) = x.
        for (orig, rt) in x.iter().zip(&back) {
            prop_assert!((orig - rt).abs() < 1e-9 * amp.max(1.0));
        }
        let a = tone_amplitude(&back[1024..7168], freq, fs_hz);
        prop_assert!((a - amp).abs() < 1e-3 * amp + 1e-9, "a={a} amp={amp}");
    }

    /// Linear interpolation splits an interior pulse between two
    /// neighbouring outputs and preserves its mass.
    #[test]
    fn fractional_delay_preserves_pulse_mass(delay in 0.0f64..50.0) {
        let mut x = vec![0.0; 256];
        x[40] = 1.0;
        let mut y = vec![0.0; 256];
        add_delayed_scaled(&mut y, &x, delay, 1.0);
        let mass: f64 = y.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!(y.iter().filter(|&&v| v != 0.0).count() <= 2);
    }

    /// add_delayed_scaled is additive: two calls superpose exactly.
    #[test]
    fn delayed_add_superposes(
        d1 in 0.0f64..20.0,
        d2 in 0.0f64..20.0,
        g1 in -2.0f64..2.0,
        g2 in -2.0f64..2.0,
    ) {
        let src = vec![1.0, -0.5, 0.25];
        let mut a = vec![0.0; 64];
        add_delayed_scaled(&mut a, &src, d1, g1);
        add_delayed_scaled(&mut a, &src, d2, g2);
        let mut b1 = vec![0.0; 64];
        add_delayed_scaled(&mut b1, &src, d1, g1);
        let mut b2 = vec![0.0; 64];
        add_delayed_scaled(&mut b2, &src, d2, g2);
        for i in 0..64 {
            prop_assert!((a[i] - (b1[i] + b2[i])).abs() < 1e-12);
        }
    }

    /// The output-major add_delayed_scaled is bit for bit the source-major
    /// loop it replaced, whatever the lengths, delay and gain. `case`
    /// picks the delay: a random one (0), one whole sample (1), one
    /// within a sample of the end of `dst` (2), NaN (3), and gain 0 (4).
    #[test]
    fn delayed_add_matches_the_source_major_oracle(
        src_len in 0usize..48,
        dst_len in 0usize..96,
        whole in 0usize..96,
        frac in 0.0f64..1.0,
        gain in -3.0f64..3.0,
        case in 0u8..5,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let src: Vec<f64> = (0..src_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let dst: Vec<f64> = (0..dst_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (delay, gain) = match case {
            0 => (whole as f64 + frac, gain),
            1 => (whole as f64, gain),
            2 => (dst_len as f64 - 1.0 + 2.0 * frac, gain),
            3 => (f64::NAN, gain),
            _ => (whole as f64 + frac, 0.0),
        };
        let mut got = dst.clone();
        add_delayed_scaled(&mut got, &src, delay, gain);
        let mut want = dst;
        add_delayed_scaled_oracle(&mut want, &src, delay, gain);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "sample {} (delay {})", i, delay);
        }
    }

    /// Goertzel amplitude is scale-equivariant.
    #[test]
    fn goertzel_scales_linearly(amp in 0.001f64..1000.0) {
        let fs_hz = 48_000.0;
        let x: Vec<f64> = tone(1_500.0, fs_hz, 0.3, 4800).iter().map(|v| v * amp).collect();
        let a = tone_amplitude(&x, 1_500.0, fs_hz);
        prop_assert!((a - amp).abs() < 1e-6 * amp.max(1.0));
    }

    /// Windows are bounded in [0, ~1.01] and symmetric.
    #[test]
    fn windows_bounded_and_symmetric(len in 2usize..512) {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            let v = w.generate(len);
            prop_assert!(v.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
            for i in 0..len / 2 {
                prop_assert!((v[i] - v[len - 1 - i]).abs() < 1e-9);
            }
        }
    }

    /// SNR from reference is invariant to the channel scale.
    #[test]
    fn snr_estimate_scale_invariant(h in 0.01f64..100.0) {
        let reference = tone(1_000.0, 48_000.0, 0.0, 4096);
        let received: Vec<f64> = reference.iter().enumerate()
            .map(|(i, &s)| h * s + 0.01 * ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.005)
            .collect();
        let snr = stats::snr_from_reference_db(&received, &reference);
        // Noise is fixed relative to the *unscaled* dither, so SNR grows
        // with h; just require finiteness and monotone sanity at extremes.
        prop_assert!(snr.is_finite());
    }

    /// Mean/variance/rms basic identities hold on arbitrary data.
    #[test]
    fn stats_identities(xs in proptest::collection::vec(-1e3f64..1e3, 1..256)) {
        let m = stats::mean(&xs);
        let v = stats::variance(&xs);
        let p = stats::power(&xs);
        // E[x^2] = var + mean^2.
        prop_assert!((p - (v + m * m)).abs() < 1e-6 * p.max(1.0));
        prop_assert!(v >= -1e-12);
        prop_assert!((stats::rms(&xs).powi(2) - p).abs() < 1e-6 * p.max(1.0));
    }
}

// Polyphase decimator equivalences: the fused kernel must track the
// filter-everything-then-step_by oracle bit for bit across random tap
// counts, decimation factors (half the cases at decimation 2, the
// receiver's 2731 bps rate at 192 kHz) and input lengths.

/// `Fir::filter` + `step_by`.
fn decim_oracle(fir: &Fir, x: &[f64], decim: usize) -> Vec<f64> {
    fir.filter(x).into_iter().step_by(decim).collect()
}

/// [`decim_oracle`] for complex input, through `Fir::filter_complex`.
fn decim_oracle_complex(fir: &Fir, x: &[Complex64], decim: usize) -> Vec<Complex64> {
    fir.filter_complex(x).into_iter().step_by(decim).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Real decimation is bitwise `Fir::filter` + `step_by`.
    #[test]
    fn polyphase_auto_real_is_bitwise_filter_step_by(
        half_taps in 1usize..100,
        decim in prop_oneof![Just(2usize), 1usize..25],
        n in 1usize..3000,
        seed in any::<u64>(),
    ) {
        use pab_dsp::polyphase::PolyphaseDecimator;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let fir = Fir::lowpass(2 * half_taps + 1, 4_000.0, 48_000.0, Window::Hamming).unwrap();
        let reference = decim_oracle(&fir, &x, decim);
        let pd = PolyphaseDecimator::new(fir, decim).unwrap();
        let fast = pd.decimate(&x);
        prop_assert_eq!(fast.len(), reference.len());
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "sample {} differs", i);
        }
    }

    /// Complex decimation with a read-time gain is bitwise
    /// `Fir::filter_complex` of the pre-scaled signal + `step_by`.
    #[test]
    fn polyphase_auto_complex_scaled_is_bitwise(
        half_taps in 1usize..100,
        decim in prop_oneof![Just(2usize), 1usize..25],
        n in 1usize..2000,
        gain in prop_oneof![Just(1.0f64), Just(2.0f64), 0.1f64..10.0],
        seed in any::<u64>(),
    ) {
        use pab_dsp::polyphase::PolyphaseDecimator;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let fir = Fir::lowpass(2 * half_taps + 1, 4_000.0, 48_000.0, Window::Hamming).unwrap();
        let scaled: Vec<Complex64> = x.iter().map(|&c| gain * c).collect();
        let reference = decim_oracle_complex(&fir, &scaled, decim);
        let pd = PolyphaseDecimator::new(fir, decim).unwrap();
        let mut fast = Vec::new();
        pd.decimate_complex_scaled_into(&x, gain, &mut fast);
        prop_assert_eq!(fast.len(), reference.len());
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "re {} differs", i);
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "im {} differs", i);
        }
    }

    /// Bitwise `Fir::filter` + `step_by` (same summation order, just
    /// skipping the dropped outputs) at every decimation. The length is
    /// built from the kernel's three parts: the head outputs whose window
    /// starts before the input, `tiles` whole tiles of four, and `ragged`
    /// outputs left over, for real input and for complex input at
    /// read-time gain 1 and 2.
    #[test]
    fn polyphase_direct_is_bitwise_direct_filter_step_by(
        half_taps in 1usize..100,
        decim in prop_oneof![Just(2usize), 1usize..25],
        tiles in 0usize..6,
        ragged in 0usize..4,
        slack in 0usize..25,
        gain in prop_oneof![Just(1.0f64), Just(2.0f64)],
        seed in any::<u64>(),
    ) {
        use pab_dsp::polyphase::PolyphaseDecimator;
        use rand::{Rng, SeedableRng};
        let m = 2 * half_taps + 1;
        let head = (m - 1).div_ceil(decim);
        let outputs = head + 4 * tiles + ragged;
        let n = (outputs - 1) * decim + 1 + slack % decim;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let fir = Fir::lowpass(m, 4_000.0, 48_000.0, Window::Hamming).unwrap();
        let reference = decim_oracle(&fir, &x, decim);
        let xc: Vec<Complex64> = x
            .iter()
            .map(|&re| Complex64::new(re, rng.gen_range(-1.0..1.0)))
            .collect();
        let scaled: Vec<Complex64> = xc.iter().map(|&c| gain * c).collect();
        let reference_c = decim_oracle_complex(&fir, &scaled, decim);
        let pd = PolyphaseDecimator::new(fir, decim).unwrap();
        let fast = pd.decimate(&x);
        prop_assert_eq!(fast.len(), outputs);
        prop_assert_eq!(fast.len(), reference.len());
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "sample {} differs", i);
        }
        let mut fast_c = Vec::new();
        pd.decimate_complex_scaled_into(&xc, gain, &mut fast_c);
        prop_assert_eq!(fast_c.len(), reference_c.len());
        for (i, (a, b)) in fast_c.iter().zip(&reference_c).enumerate() {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "re {} differs", i);
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "im {} differs", i);
        }
    }
}

/// The source-major loop `add_delayed_scaled` ran before it went
/// output-major, kept verbatim as the oracle it must match bit for bit.
fn add_delayed_scaled_oracle(dst: &mut [f64], src: &[f64], delay_samples: f64, gain: f64) {
    if !(delay_samples >= 0.0) || gain == 0.0 {
        return;
    }
    let int = delay_samples.floor() as usize;
    let frac = delay_samples - delay_samples.floor();
    for (j, &s) in src.iter().enumerate() {
        let i0 = j + int;
        if let Some(d) = dst.get_mut(i0) {
            *d += gain * s * (1.0 - frac);
        }
        if frac > 0.0 {
            if let Some(d) = dst.get_mut(i0 + 1) {
                *d += gain * s * frac;
            }
        }
    }
}

/// Every boundary of the output-major kernel against the oracle: empty
/// `src`, `dst` shorter and longer than `src + int + 1`, whole-sample
/// delays, delays within a sample of `dst`'s end, NaN delay, zero gain,
/// and signed zeros already in `dst`.
#[test]
fn delayed_add_matches_the_oracle_on_every_boundary() {
    for src_len in 0..6 {
        for dst_len in 0..12 {
            let n = dst_len as f64;
            let delays = [0.0, 0.25, 1.0, 2.75, n - 1.0, n - 0.5, n, n + 0.5, f64::NAN];
            for delay in delays {
                for gain in [0.0, -1.5, 0.75] {
                    let src: Vec<f64> = (0..src_len).map(|j| 0.5 - j as f64 * 0.3).collect();
                    let dst: Vec<f64> = (0..dst_len)
                        .map(|i| if i % 3 == 0 { -0.0 } else { i as f64 * 0.1 })
                        .collect();
                    let mut got = dst.clone();
                    add_delayed_scaled(&mut got, &src, delay, gain);
                    let mut want = dst;
                    add_delayed_scaled_oracle(&mut want, &src, delay, gain);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "src {src_len} dst {dst_len} delay {delay} gain {gain}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Complex correlation (the preamble search): the run-length form of
    /// a random piecewise-constant real template equals the direct
    /// conjugating O(N·M) loop.
    #[test]
    fn cross_correlate_complex_matches_direct(
        sig_len in 16usize..2048,
        tpl_len in 1usize..144,
        max_run in 1usize..20,
        seed in any::<u64>(),
    ) {
        use pab_dsp::correlate::{cross_correlate_complex_direct, RunLengthTemplate};
        use rand::{Rng, SeedableRng};
        let tpl_len = tpl_len.min(sig_len);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let s: Vec<Complex64> = (0..sig_len)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut t = Vec::with_capacity(tpl_len);
        while t.len() < tpl_len {
            let (run, level) = (rng.gen_range(1..=max_run), rng.gen_range(-1.0..1.0));
            t.extend(std::iter::repeat_n(level, run.min(tpl_len - t.len())));
        }
        let (mut prefix, mut fast) = (Vec::new(), Vec::new());
        RunLengthTemplate::new(&t).correlate_into(&s, &mut prefix, &mut fast);
        let tc: Vec<Complex64> = t.iter().map(|&x| Complex64::new(x, 0.0)).collect();
        let slow = cross_correlate_complex_direct(&s, &tc);
        prop_assert_eq!(fast.len(), slow.len());
        let tol = 1e-9 * tpl_len as f64;
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).norm() < tol, "{a} vs {b}");
        }
    }
}
