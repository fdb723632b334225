//! Reusable sample-buffer arena for the slot engine.
//!
//! The slot loop's steady state touches megabytes of `f64` waveform per
//! exchange but the *shape* of that data is fixed per cache key, so the
//! buffers can be pooled: `Scratch::take_copy` hands out a buffer holding
//! a copy of a cached waveform (recycled when one of sufficient capacity
//! is pooled, freshly grown otherwise) and [`Scratch::put`] returns it. After warm-up the pool
//! has seen every length the engine asks for and `pool_misses` stops
//! moving — the property `tests/slot_engine_alloc.rs` pins with a
//! counting global allocator.
//!
//! [`ALLOC_PROBE`] is the hook for that test: a process-wide counter a
//! counting `#[global_allocator]` can bump on every allocation. The
//! library only ever *reads* it (to bracket the engine stage in
//! [`crate::link::LinkSimulator::slot_exchange`]); with the system
//! allocator installed it just stays 0 and the bracket reads 0 − 0.

use num_complex::Complex64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide allocation counter, incremented by an (optional)
/// counting global allocator installed by a test harness. See the module
/// docs — production builds never write to it.
pub static ALLOC_PROBE: AtomicU64 = AtomicU64::new(0);

/// Read the allocation probe (0 unless a counting allocator is wired up).
pub fn alloc_probe() -> u64 {
    ALLOC_PROBE.load(Ordering::Relaxed)
}

/// A pool of `f64` sample buffers.
///
/// Not thread-safe by design: each [`LinkSimulator`](crate::link) owns
/// its own `Scratch`, and the slot engine parallelises across
/// simulators, never within one.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f64>>,
    takes: u64,
    pool_misses: u64,
}

impl Scratch {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a buffer holding a copy of `src`. Recycles the first pooled
    /// buffer whose capacity suffices; anything smaller counts as a
    /// `pool_miss` (the buffer grows, which allocates). The copy fills
    /// the buffer, so it is not zeroed first.
    pub(crate) fn take_copy(&mut self, src: &[f64]) -> Vec<f64> {
        self.takes += 1;
        let slot = self.pool.iter().position(|b| b.capacity() >= src.len());
        let mut buf = match slot {
            Some(i) => self.pool.swap_remove(i),
            None => {
                self.pool_misses += 1;
                Vec::with_capacity(src.len())
            }
        };
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// A zeroed buffer of exactly `len` samples, pooled as
    /// [`take_copy`](Self::take_copy) pools.
    #[cfg(test)]
    fn take(&mut self, len: usize) -> Vec<f64> {
        self.take_copy(&vec![0.0; len])
    }

    /// Return a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        self.pool.push(buf);
    }

    /// Buffers handed out since construction.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// Takes that had to allocate because no pooled buffer was large
    /// enough. Flat `pool_misses` across steady-state slots is the
    /// "arena is warm" signal the allocation test asserts.
    pub fn pool_misses(&self) -> u64 {
        self.pool_misses
    }
}

/// Named reusable buffers for one in-flight `decode_uplink` pipeline.
///
/// Each field is a stage's workspace; every decode clears and refills
/// them, so once their capacities have grown to the receiver's working
/// set (one slot's exchange length), a steady-state decode performs zero
/// heap allocations — the decode-side extension of the [`Scratch`]
/// arena's contract, pinned end-to-end by `tests/slot_engine_alloc.rs`.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeScratch {
    /// The Butterworth's padded `filtfilt` workspace, reflections in
    /// the margins: at decimation 1 the downconverted signal fills its
    /// centre; above, it first holds the full-rate mix the anti-alias
    /// decimator reads, then the decimated baseband.
    pub(crate) ext: Vec<Complex64>,
    /// Decimated complex baseband (post anti-alias), CFO-derotated in
    /// place once the offset is known: the stream the projection reads.
    pub(crate) bb_d: Vec<Complex64>,
    /// Padded trend-filter workspace at the decimated rate.
    pub(crate) ext2: Vec<Complex64>,
    /// Detrended, CFO-derotated baseband: the stream the preamble
    /// search reads.
    pub(crate) d: Vec<Complex64>,
    /// Prefix sums of `d` over one output tile of the run-length matched
    /// filter (`PREFIX_TILE` outputs plus the template length), restarted
    /// per tile so it stays small whatever the signal length.
    pub(crate) prefix: Vec<Complex64>,
    /// Matched-filter correlation numerator.
    pub(crate) num: Vec<Complex64>,
    /// Squared trend magnitudes for the CFO-segment search.
    pub(crate) norms: Vec<f64>,
    /// Projected real modulation stream fed to the slicer.
    pub(crate) projected: Vec<f64>,
    /// The symbol-slicing stage's own buffers.
    pub(crate) slicer: SlicerScratch,
}

/// Buffers for the integrate-and-dump slicer, cluster tracker and the
/// two-pass ML trellis (the tail shared by the coherent and envelope
/// decode paths).
#[derive(Debug, Clone, Default)]
pub(crate) struct SlicerScratch {
    /// Integrate-and-dump soft half-bit values.
    pub(crate) soft: Vec<f64>,
    /// Per-block sort workspace for the cluster tracker.
    pub(crate) chunk: Vec<f64>,
    /// Cluster-block centre positions.
    pub(crate) centers: Vec<f64>,
    /// Per-block low-cluster means.
    pub(crate) los: Vec<f64>,
    /// Per-block high-cluster means.
    pub(crate) his: Vec<f64>,
    /// Interpolated per-half low-cluster means.
    pub(crate) mu_lo: Vec<f64>,
    /// Interpolated per-half high-cluster means.
    pub(crate) mu_hi: Vec<f64>,
    /// Viterbi backpointers: `(prev_state, mid_flip)` per bit per state.
    pub(crate) back: Vec<[(usize, bool); 2]>,
    /// ML half-bit decisions.
    pub(crate) halves: Vec<bool>,
    /// Lenient-decoded data bits.
    pub(crate) bits: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_cycle_reuses_capacity() {
        let mut s = Scratch::new();
        let a = s.take(1000);
        assert_eq!(a.len(), 1000);
        assert_eq!(s.pool_misses(), 1);
        s.put(a);
        // Same length: recycled, no miss.
        let b = s.take(1000);
        assert_eq!(s.pool_misses(), 1);
        s.put(b);
        // Smaller length: still recycled.
        let c = s.take(500);
        assert_eq!(s.pool_misses(), 1);
        assert_eq!(c.len(), 500);
        assert!(c.iter().all(|&x| x == 0.0));
        s.put(c);
        // Larger: miss (growth allocates).
        let d = s.take(2000);
        assert_eq!(s.pool_misses(), 2);
        s.put(d);
        assert_eq!(s.takes(), 4);
    }

    #[test]
    fn buffers_come_back_zeroed() {
        let mut s = Scratch::new();
        let mut a = s.take(16);
        a.iter_mut().for_each(|x| *x = 7.0);
        s.put(a);
        let b = s.take(16);
        assert!(b.iter().all(|&x| x == 0.0));
    }
}
