//! Overlap-save FFT convolution — the O(N log B) engine behind
//! [`crate::fir`]'s and [`crate::polyphase`]'s long-kernel fast paths.
//!
//! The input is processed in fixed power-of-two blocks of `B` samples
//! overlapping by `m − 1` (the kernel length minus one); each block costs
//! one forward FFT, one spectrum multiply and one inverse FFT, and yields
//! `B − m + 1` fully-converged outputs. Plans and the block scratch
//! buffer come from the thread-local [`crate::plan::PlanCache`], so a
//! long sweep pays the FFT setup once and allocates no per-block memory.

use crate::plan::with_thread_cache;
use num_complex::Complex64;

/// Kernel lengths at or above this run the FFT path; shorter kernels run
/// the direct O(N·M) loops, which win below roughly this size on the
/// benchmarked 0.5 s PAB waveforms (`cargo bench -p pab-bench --bench
/// dsp`, `fir_*` pairs).
pub const FFT_CROSSOVER_TAPS: usize = 48;

/// True when the FFT path is expected to beat the direct loop for a
/// kernel of `kernel_len` taps sliding over `signal_len` samples.
pub fn fft_pays_off(signal_len: usize, kernel_len: usize) -> bool {
    kernel_len >= FFT_CROSSOVER_TAPS && signal_len >= 2 * kernel_len
}

/// Pick the FFT block size for a kernel of `m` taps sliding over `n`
/// samples: at least 8× the kernel (so ≥ 7/8 of every block is fresh
/// output), at least 1024 (so per-block bookkeeping stays negligible),
/// and no bigger than one FFT covering the whole problem. Callers that
/// memoise [`kernel_fft`] across calls key their cache on it.
pub(crate) fn block_size(n: usize, m: usize) -> usize {
    let whole = (n + m - 1).next_power_of_two();
    (8 * m).max(1024).next_power_of_two().min(whole)
}

/// The frequency-domain kernel the overlap-save engine multiplies each
/// block by: the `m`-tap kernel time-reversed into the front of a
/// length-`b` buffer (correlation as convolution with the reversed
/// kernel) and forward-transformed. `b` must be the [`block_size`] of the
/// intended call. Pure function of `(kernel, b)` — memoise it to strip
/// the per-call kernel transform from repeated correlations against the
/// same template.
pub(crate) fn kernel_fft(kernel: &[Complex64], b: usize) -> Vec<Complex64> {
    let m = kernel.len();
    debug_assert!(m >= 1 && m <= b);
    with_thread_cache(|cache| {
        let mut h = vec![Complex64::new(0.0, 0.0); b];
        for (k, &t) in kernel.iter().enumerate() {
            // lint: allow(panic-path) kernel.len() == m <= b, so m-1-k >= 0 and < b
            h[m - 1 - k] = t;
        }
        cache.fft_in_place(&mut h);
        h
    })
}

/// Plain (non-conjugating) valid-mode sliding dot product,
/// `out[i] = Σ_k signal[i+k] · kernel[k]`, via overlap-save. The caller
/// guarantees `1 ≤ kernel.len() ≤ signal.len()`. Conjugate the kernel
/// first for a conjugating correlation.
pub(crate) fn correlate_valid(signal: &[Complex64], kernel: &[Complex64]) -> Vec<Complex64> {
    let n = signal.len();
    let m = kernel.len();
    debug_assert!(m >= 1 && m <= n);
    let b = block_size(n, m);
    let kfft = kernel_fft(kernel, b);
    let out_len = n - m + 1;
    let step = b - (m - 1);

    let mut out = Vec::with_capacity(out_len);
    let scale = 1.0 / b as f64;
    let mut start = 0usize;
    while start < out_len {
        with_thread_cache(|cache| {
            cache.with_scratch(b, |cache, buf| {
                let take = (n - start).min(b);
                // lint: allow(panic-path) take = (n-start).min(b) bounds both slices
                buf[..take].copy_from_slice(&signal[start..start + take]);
                cache.fft_in_place(buf);
                for (x, y) in buf.iter_mut().zip(&kfft) {
                    *x *= *y;
                }
                cache.inverse(b).process(buf);
                let emit = step.min(out_len - start);
                // Only the emitted samples need the 1/B inverse scaling.
                // lint: allow(panic-path) b >= m-1+step and emit <= step, so the slice end is in bounds
                out.extend(buf[m - 1..m - 1 + emit].iter().map(|c| c * scale));
            });
        });
        start += step;
    }
    out
}

/// Causal "same"-length convolution `y[i] = Σ_k taps[k] · x[i−k]`
/// (output length = input length), the FFT twin of the direct
/// [`crate::fir::Fir::filter`] loop. Implemented as a valid correlation
/// of the front-padded input with the reversed taps.
pub(crate) fn convolve_same(x: &[Complex64], taps: &[f64]) -> Vec<Complex64> {
    let m = taps.len();
    debug_assert!(m >= 1);
    let mut padded = vec![Complex64::new(0.0, 0.0); x.len() + m - 1];
    padded[m - 1..].copy_from_slice(x);
    let rev: Vec<Complex64> = taps.iter().rev().map(|&t| Complex64::new(t, 0.0)).collect();
    correlate_valid(&padded, &rev)
}

/// Real-input wrapper around [`convolve_same`].
pub(crate) fn convolve_same_real(x: &[f64], taps: &[f64]) -> Vec<f64> {
    let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    convolve_same(&xc, taps).into_iter().map(|c| c.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_correlate(signal: &[Complex64], kernel: &[Complex64]) -> Vec<Complex64> {
        (0..=signal.len() - kernel.len())
            .map(|i| {
                signal[i..i + kernel.len()]
                    .iter()
                    .zip(kernel)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    fn sig(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                Complex64::new(
                    ((i * 13 + 5) % 17) as f64 - 8.0,
                    ((i * 7) % 11) as f64 / 4.0,
                )
            })
            .collect()
    }

    #[test]
    fn matches_direct_across_block_boundaries() {
        // Lengths around multiples of the block step exercise the
        // partial-final-block and exact-fit paths.
        for &(n, m) in &[(64usize, 3usize), (1025, 64), (2048, 127), (5000, 512)] {
            let s = sig(n);
            let k = sig(m);
            let fft = correlate_valid(&s, &k);
            let dir = direct_correlate(&s, &k);
            assert_eq!(fft.len(), dir.len());
            for (a, b) in fft.iter().zip(&dir) {
                assert!((a - b).norm() < 1e-9 * (m as f64).max(1.0), "n={n} m={m}");
            }
        }
    }

    #[test]
    fn same_convolution_matches_direct_loop() {
        let x: Vec<f64> = (0..700).map(|i| ((i * 3) % 13) as f64 - 6.0).collect();
        let taps: Vec<f64> = (0..65).map(|i| (i as f64 * 0.1).sin()).collect();
        let fft = convolve_same_real(&x, &taps);
        assert_eq!(fft.len(), x.len());
        for (i, &y) in fft.iter().enumerate() {
            let mut acc = 0.0;
            for (k, &t) in taps.iter().enumerate().take(i + 1) {
                acc += t * x[i - k];
            }
            assert!((y - acc).abs() < 1e-9, "i={i}");
        }
    }

    #[test]
    fn kernel_equal_to_signal_yields_one_output() {
        let s = sig(256);
        let out = correlate_valid(&s, &s);
        assert_eq!(out.len(), 1);
        let want: Complex64 = s.iter().map(|c| c * c).sum();
        assert!((out[0] - want).norm() < 1e-8);
    }

    #[test]
    fn crossover_predicate_is_sane() {
        assert!(!fft_pays_off(10_000, 8), "tiny kernels stay direct");
        assert!(fft_pays_off(10_000, 512), "long kernels go FFT");
        assert!(
            !fft_pays_off(80, 64),
            "kernel nearly as long as the signal stays direct"
        );
    }
}
