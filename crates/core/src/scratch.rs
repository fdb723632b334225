//! Reusable sample-buffer arena for both slot engines.
//!
//! A slot touches megabytes of `f64` waveform and `Complex64` baseband,
//! but the *shape* of that data repeats from slot to slot, so the buffers
//! can be pooled. `Scratch` hands out buffers three ways — a copy of a
//! slice (`take_copy`), a zeroed accumulator (`take_zeroed`), or a
//! workspace whose contents are unspecified because every element is
//! written before it is read (`take_workspace`) — and `put` returns
//! them. After warm-up the pool has seen every length its owner asks
//! for and `pool_misses` stops moving.
//!
//! * A link's cache-hit and fade-bypass paths draw from the arena its
//!   owner lends it: a `LinkSimulator`'s own, or the one a
//!   `FaultNetSimulator` lends all of its links;
//!   `tests/slot_engine_alloc.rs` pins the hit path at zero allocations.
//! * A collision group's training and collision slots run every stage
//!   on their group's pool (medium, nodes, receiver, zero-forcing);
//!   `tests/collision_slot_alloc.rs` pins their bytes per slot.
//!
//! [`ALLOC_PROBE`] is the hook for the link test: a process-wide counter a
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

/// A [`Scratch::with_headroom`] pool allocates `1/HEADROOM` more capacity
/// than asked, so a slightly longer take (a different query makes a slot
/// a few percent longer) still fits the buffer.
const HEADROOM: usize = 8;

/// A sample type [`Scratch`] keeps a shelf of buffers for. Its
/// `Default` is the zero a fresh or zeroed buffer holds.
pub(crate) trait Pooled: Copy + Default {
    fn shelf(s: &mut Scratch) -> &mut Vec<Vec<Self>>;
}

impl Pooled for f64 {
    fn shelf(s: &mut Scratch) -> &mut Vec<Vec<f64>> {
        &mut s.real
    }
}

impl Pooled for Complex64 {
    fn shelf(s: &mut Scratch) -> &mut Vec<Vec<Complex64>> {
        &mut s.complex
    }
}

/// A pool of `f64` and `Complex64` sample buffers.
///
/// Not thread-safe by design: each simulator owns its own `Scratch`, and
/// the slot engines parallelise across simulators, never within one.
#[derive(Debug)]
pub(crate) struct Scratch {
    real: Vec<Vec<f64>>,
    complex: Vec<Vec<Complex64>>,
    takes: u64,
    pool_misses: u64,
    /// Whether `put` keeps a buffer for the next take.
    keep: bool,
    /// Whether an allocation gets `1/HEADROOM` spare capacity.
    headroom: bool,
}

impl Scratch {
    /// An empty pool that allocates exactly what a take asks: for an
    /// owner whose buffer lengths are fixed per cache key.
    pub(crate) fn new() -> Self {
        Scratch {
            real: Vec::new(),
            complex: Vec::new(),
            takes: 0,
            pool_misses: 0,
            keep: true,
            headroom: false,
        }
    }

    /// An empty pool for an owner whose lengths vary from slot to slot:
    /// every allocation gets `1/HEADROOM` spare capacity, so one buffer
    /// serves every slot within a few percent of the one that sized it.
    /// Capacity that is never written is never touched, so the headroom
    /// costs address space, not resident memory.
    pub(crate) fn with_headroom() -> Self {
        Scratch {
            headroom: true,
            ..Self::new()
        }
    }

    /// A pool that keeps nothing: every take allocates exactly what it
    /// asks and every `put` frees its buffer at once. The allocating
    /// forms of the pooled stages, and a link's cache miss, run on one,
    /// so they free each buffer as its stage ends.
    pub(crate) fn transient() -> Self {
        Scratch {
            keep: false,
            ..Self::new()
        }
    }

    /// A pooled buffer with capacity for `len` samples: the smallest
    /// pooled one that fits, so a short take leaves the long buffers to
    /// the long takes. When none fits, the take is a `pool_miss` and
    /// allocates.
    fn fetch<T: Pooled>(&mut self, len: usize) -> Vec<T> {
        self.takes += 1;
        let shelf = T::shelf(self);
        let fit = shelf
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        if let Some(i) = fit {
            return shelf.swap_remove(i);
        }
        self.pool_misses += 1;
        Vec::with_capacity(if self.headroom { len + len / HEADROOM } else { len })
    }

    /// Take a buffer holding a copy of `src`. The copy fills the buffer,
    /// so it is not zeroed first.
    pub(crate) fn take_copy<T: Pooled>(&mut self, src: &[T]) -> Vec<T> {
        let mut buf = self.fetch(src.len());
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Take a buffer of `len` zeros: an accumulator that is added into.
    pub(crate) fn take_zeroed<T: Pooled>(&mut self, len: usize) -> Vec<T> {
        let mut buf = self.fetch(len);
        buf.clear();
        buf.resize(len, T::default());
        buf
    }

    /// Take a buffer of `len` samples whose contents are unspecified (what
    /// its last user left): only for a stage that writes every element
    /// before it reads it.
    pub(crate) fn take_workspace<T: Pooled>(&mut self, len: usize) -> Vec<T> {
        let mut buf = self.fetch(len);
        buf.truncate(len);
        buf.resize(len, T::default());
        buf
    }

    /// Return a buffer to the pool for reuse (a transient pool frees it).
    pub(crate) fn put<T: Pooled>(&mut self, buf: Vec<T>) {
        if self.keep {
            T::shelf(self).push(buf);
        }
    }

    /// Return every buffer of `bufs` to the pool.
    pub(crate) fn put_all<T: Pooled>(&mut self, bufs: impl IntoIterator<Item = Vec<T>>) {
        if self.keep {
            T::shelf(self).extend(bufs);
        }
    }

    /// Buffers handed out since construction.
    pub(crate) fn takes(&self) -> u64 {
        self.takes
    }

    /// Takes that had to allocate because no pooled buffer was large
    /// enough. Flat `pool_misses` across steady-state slots is the
    /// "arena is warm" signal the allocation tests assert.
    pub(crate) fn pool_misses(&self) -> u64 {
        self.pool_misses
    }
}

/// Named reusable buffers for one in-flight `decode_uplink` pipeline.
///
/// Each field is a stage's workspace; every decode refills them, so once
/// their capacities have grown to the receiver's working set (its
/// longest recording), a steady-state decode performs zero heap
/// allocations — the decode-side extension of the [`Scratch`] arena's
/// contract, pinned end-to-end by `tests/slot_engine_alloc.rs`. A buffer
/// grows only through [`reserve_to`], to exactly the stage's need, so a
/// receiver shared by many links holds what its longest exchange needs
/// and no amortised-doubling slack.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeScratch {
    /// The one padded `filtfilt` workspace, reflections in the margins,
    /// reused stage after stage; it only grows, so it is zero-filled
    /// once. The coherent decoder runs the Butterworth in it (at
    /// decimation 1 the downconverted signal fills its centre; above, it
    /// first holds the full-rate mix the anti-alias decimator reads, then
    /// the decimated baseband), then, once the baseband is copied out to
    /// `bb_d`, the trend filter, and, once the trend is consumed, the
    /// preamble matched filter's numerator. The envelope decoder uses it
    /// for that numerator only.
    pub(crate) ext: Vec<Complex64>,
    /// Decimated complex baseband (post anti-alias), CFO-derotated in
    /// place once the offset is known: the stream the projection reads.
    pub(crate) bb_d: Vec<Complex64>,
    /// Detrended, CFO-derotated baseband: the stream the preamble
    /// search reads.
    pub(crate) d: Vec<Complex64>,
    /// Prefix sums of `d` over one output tile of the run-length matched
    /// filter (`PREFIX_TILE` outputs plus the template length), restarted
    /// per tile so it stays small whatever the signal length.
    pub(crate) prefix: Vec<Complex64>,
    /// Padded trend-filter workspace of the envelope decoder, whose
    /// stream is real.
    pub(crate) trend: Vec<f64>,
    /// Projected real modulation stream fed to the slicer.
    pub(crate) projected: Vec<f64>,
    /// The symbol-slicing stage's own buffers.
    pub(crate) slicer: SlicerScratch,
}

/// Make room for `len` elements in `buf`, whose contents are dead: when
/// it must grow, it allocates exactly `len`, never `Vec`'s amortised
/// doubling, so a workspace that many recordings share ends the size of
/// the longest one's need. The old allocation is freed first (the buffer
/// comes back empty), so the two are never live together and no dead
/// sample is copied across.
pub(crate) fn reserve_to<T>(buf: &mut Vec<T>, len: usize) {
    if buf.capacity() < len {
        *buf = Vec::new();
        buf.reserve_exact(len);
    }
}

/// Lengthen `buf`, whose contents are dead, to at least `len` elements
/// through [`reserve_to`], zero-filling what is new; it never shrinks, so
/// a workspace that every stage writes before it reads is zero-filled
/// only as it grows.
pub(crate) fn grow_to<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        reserve_to(buf, len);
        buf.resize(len, T::default());
    }
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
        let a: Vec<f64> = s.take_zeroed(1000);
        assert_eq!(a.len(), 1000);
        assert_eq!(s.pool_misses(), 1);
        s.put(a);
        // Same length: recycled, no miss.
        let b: Vec<f64> = s.take_zeroed(1000);
        assert_eq!(s.pool_misses(), 1);
        s.put(b);
        // Smaller length: still recycled.
        let c: Vec<f64> = s.take_zeroed(500);
        assert_eq!(s.pool_misses(), 1);
        assert_eq!(c.len(), 500);
        assert!(c.iter().all(|&x| x == 0.0));
        s.put(c);
        // Larger: miss (growth allocates).
        let d: Vec<f64> = s.take_zeroed(2000);
        assert_eq!(s.pool_misses(), 2);
        s.put(d);
        assert_eq!(s.takes(), 4);
    }

    #[test]
    fn buffers_come_back_zeroed() {
        let mut s = Scratch::new();
        let mut a: Vec<f64> = s.take_zeroed(16);
        a.iter_mut().for_each(|x| *x = 7.0);
        s.put(a);
        let b: Vec<f64> = s.take_zeroed(16);
        assert!(b.iter().all(|&x| x == 0.0));
        s.put(b);
        let src = [1.0, f64::NAN, -0.0];
        let c = s.take_copy(&src);
        assert_eq!(c.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), src.map(f64::to_bits));
    }

    /// The smallest fitting buffer serves a take, so a small request
    /// leaves the large buffer for the large request after it.
    #[test]
    fn takes_are_best_fit_and_shelves_are_per_type() {
        let mut s = Scratch::new();
        s.put(Vec::<f64>::with_capacity(4000));
        s.put(Vec::<f64>::with_capacity(1000));
        s.put(Vec::<Complex64>::with_capacity(10));
        let small: Vec<f64> = s.take_workspace(900);
        let large: Vec<f64> = s.take_workspace(3000);
        assert!(small.capacity() < 4000 && large.capacity() >= 4000);
        let z: Vec<Complex64> = s.take_zeroed(10);
        assert!(z.iter().all(|c| c.re == 0.0 && c.im == 0.0));
        assert_eq!(s.pool_misses(), 0);
    }

    /// Only a headroom pool allocates spare capacity.
    #[test]
    fn headroom_pools_allocate_an_eighth_more() {
        let exact: Vec<f64> = Scratch::new().take_zeroed(800);
        let slack: Vec<f64> = Scratch::with_headroom().take_zeroed(800);
        assert_eq!((exact.capacity(), slack.capacity()), (800, 900));
    }

    /// A transient pool frees what it is given and allocates exactly.
    #[test]
    fn transient_pools_keep_nothing() {
        let mut s = Scratch::transient();
        let a: Vec<f64> = s.take_zeroed(100);
        assert_eq!(a.capacity(), 100);
        s.put(a);
        assert!(s.real.is_empty());
        let _: Vec<f64> = s.take_zeroed(100);
        assert_eq!((s.takes(), s.pool_misses()), (2, 2));
    }

    /// A workspace keeps what its last user left; only growth is zeroed.
    #[test]
    fn workspaces_are_not_cleared() {
        let mut s = Scratch::new();
        s.put(vec![f64::NAN; 8]);
        let w: Vec<f64> = s.take_workspace(4);
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|x| x.is_nan()));
    }
}
