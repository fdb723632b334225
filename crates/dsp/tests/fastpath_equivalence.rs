//! Property tests pinning the fast paths to the direct reference
//! implementations: the run-length preamble correlator against the
//! direct complex correlation, and `Fir::filter`'s overlap-save dispatch
//! across random lengths straddling the crossover (`FFT_CROSSOVER_TAPS`),
//! so neither can silently change numerics by more than 1e-9.

use num_complex::Complex64;
use pab_dsp::correlate::{cross_correlate_complex_direct, RunLengthTemplate};
use pab_dsp::fastconv::FFT_CROSSOVER_TAPS;
use pab_dsp::fir::Fir;
use pab_dsp::window::Window;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_signal(rng: &mut ChaCha8Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Complex correlation (the preamble search): the run-length form of
    /// a random piecewise-constant real template equals the direct
    /// conjugating O(N·M) loop.
    #[test]
    fn cross_correlate_complex_matches_direct(
        sig_len in 16usize..2048,
        tpl_len in 1usize..(3 * FFT_CROSSOVER_TAPS),
        max_run in 1usize..20,
        seed in any::<u64>(),
    ) {
        let tpl_len = tpl_len.min(sig_len);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
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

    /// FIR filtering: overlap-save "same" convolution equals the direct
    /// causal loop for designed low-pass taps.
    #[test]
    fn fir_filter_matches_direct(
        sig_len in 16usize..4096,
        taps in 3usize..(3 * FFT_CROSSOVER_TAPS),
        seed in any::<u64>(),
    ) {
        // Odd tap counts only (the designer requires symmetry).
        let taps = if taps % 2 == 0 { taps + 1 } else { taps };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = random_signal(&mut rng, sig_len);
        let f = Fir::lowpass(taps, 4_000.0, 48_000.0, Window::Hamming).unwrap();
        let fast = f.filter(&s);
        let slow = f.filter_direct(&s);
        prop_assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
