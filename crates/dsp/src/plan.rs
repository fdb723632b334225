//! Cached FFT plans and scratch buffers.
//!
//! The simulation regenerates every paper figure by pushing thousands of
//! half-second waveforms through the same FFT sizes. Building a fresh
//! `rustfft` plan per call re-derives twiddle tables and (for Bluestein
//! sizes) the chirp filter every time; [`PlanCache`] builds each
//! `(length, direction)` plan once and reuses it. A process-wide
//! thread-local cache ([`with_thread_cache`]) backs the FFT convolution
//! fast path and the polyphase decimator's FFT mode, so independent sweep
//! workers each get their own cache with no locking.

use num_complex::Complex64;
use rustfft::{Fft, FftPlanner};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// A reusable store of planned FFTs keyed by length and direction.
#[derive(Default)]
pub struct PlanCache {
    planner: Option<FftPlanner>,
    forward: HashMap<usize, Arc<dyn Fft>>,
    inverse: HashMap<usize, Arc<dyn Fft>>,
    /// Reusable zero-padded work buffer for convolution-style callers.
    scratch: Vec<Complex64>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("forward_lens", &self.forward.len())
            .field("inverse_lens", &self.inverse.len())
            .finish()
    }
}

impl PlanCache {
    /// An empty cache. Plans are built lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn planner(&mut self) -> &mut FftPlanner {
        self.planner.get_or_insert_with(FftPlanner::new)
    }

    /// The forward plan for length `n`, building it on first request.
    fn forward(&mut self, n: usize) -> Arc<dyn Fft> {
        if let Some(p) = self.forward.get(&n) {
            return p.clone();
        }
        let p = self.planner().plan_fft_forward(n);
        self.forward.insert(n, p.clone());
        p
    }

    /// The (unnormalised) inverse plan for length `n`.
    pub fn inverse(&mut self, n: usize) -> Arc<dyn Fft> {
        if let Some(p) = self.inverse.get(&n) {
            return p.clone();
        }
        let p = self.planner().plan_fft_inverse(n);
        self.inverse.insert(n, p.clone());
        p
    }

    /// Forward-transform `buf` in place.
    pub fn fft_in_place(&mut self, buf: &mut [Complex64]) {
        self.forward(buf.len()).process(buf);
    }

    /// Inverse-transform `buf` in place with `1/N` normalisation, so
    /// `ifft_in_place(fft_in_place(x)) == x`.
    #[cfg(test)]
    pub(crate) fn ifft_in_place(&mut self, buf: &mut [Complex64]) {
        let n = buf.len();
        if n == 0 {
            return;
        }
        self.inverse(n).process(buf);
        let scale = 1.0 / n as f64;
        for c in buf.iter_mut() {
            *c *= scale;
        }
    }

    /// Borrow the cache's scratch buffer resized (and zeroed) to `n`
    /// complex samples, run `f` on it, and return `f`'s result. The
    /// buffer's allocation is kept for the next call, so steady-state
    /// convolution work does no per-block allocation.
    pub fn with_scratch<R>(
        &mut self,
        n: usize,
        f: impl FnOnce(&mut Self, &mut Vec<Complex64>) -> R,
    ) -> R {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.resize(n, Complex64::new(0.0, 0.0));
        let out = f(self, &mut scratch);
        self.scratch = scratch;
        out
    }
}

thread_local! {
    static THREAD_CACHE: RefCell<PlanCache> = RefCell::new(PlanCache::new());
}

/// Run `f` with this thread's shared [`PlanCache`]. All of `pab-dsp`'s
/// internal FFT users route through here, so a long-lived worker thread
/// pays each plan's setup cost exactly once.
pub fn with_thread_cache<R>(f: impl FnOnce(&mut PlanCache) -> R) -> R {
    THREAD_CACHE.with(|c| f(&mut c.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_plan_is_reused() {
        let mut cache = PlanCache::new();
        let a = cache.forward(256);
        let b = cache.forward(256);
        assert!(Arc::ptr_eq(&a, &b), "same length must share one plan");
        let inv = cache.inverse(256);
        assert!(!Arc::ptr_eq(&a, &inv), "directions are distinct plans");
    }

    #[test]
    fn fft_ifft_roundtrip_via_cache() {
        let mut cache = PlanCache::new();
        let x: Vec<Complex64> = (0..100)
            .map(|i| Complex64::new(i as f64, (i % 7) as f64))
            .collect();
        let mut y = x.clone();
        cache.fft_in_place(&mut y);
        cache.ifft_in_place(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).norm() < 1e-9);
        }
    }

    #[test]
    fn cached_results_match_fresh_planner() {
        let x: Vec<Complex64> = (0..48)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut via_cache = x.clone();
        with_thread_cache(|c| c.fft_in_place(&mut via_cache));
        let mut direct = x.clone();
        FftPlanner::new().plan_fft_forward(48).process(&mut direct);
        for (a, b) in via_cache.iter().zip(&direct) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn scratch_is_zeroed_between_uses() {
        let mut cache = PlanCache::new();
        cache.with_scratch(8, |_, s| {
            for c in s.iter_mut() {
                *c = Complex64::new(9.0, 9.0);
            }
        });
        cache.with_scratch(16, |_, s| {
            assert_eq!(s.len(), 16);
            assert!(s.iter().all(|c| c.re == 0.0 && c.im == 0.0));
        });
    }

    #[test]
    fn empty_ifft_is_a_noop() {
        let mut cache = PlanCache::new();
        let mut empty: Vec<Complex64> = Vec::new();
        cache.ifft_in_place(&mut empty);
        assert!(empty.is_empty());
    }
}
