//! The event recorder: a bounded ring of timed events plus aggregate
//! counters and histograms, stamped with a caller-driven monotonic
//! simulation clock.

use crate::event::{Event, TimedEvent};
use crate::metrics::{Counters, Histogram};
use std::collections::{BTreeMap, VecDeque};

/// Default event-ring capacity: generous enough to hold every event of a
/// full `ext_fault_resilience` run, small enough to stay cheap when a
/// sweep spawns one recorder per point.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// A deterministic event recorder. One recorder belongs to one simulation
/// run (one sweep point); aggregation across runs happens at export time,
/// in an order the caller controls.
#[derive(Debug, Clone)]
pub struct Recorder {
    run_id: u64,
    capacity: usize,
    events: VecDeque<TimedEvent>,
    events_dropped: u64,
    slot: u64,
    t_s: f64,
    clock_regressions: u64,
    counters: Counters,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl Recorder {
    /// New recorder with the given event-ring capacity (clamped to at
    /// least 1 so `record` always retains the newest event).
    pub fn new(capacity: usize) -> Self {
        Recorder {
            run_id: 0,
            capacity: capacity.max(1),
            events: VecDeque::new(),
            events_dropped: 0,
            slot: 0,
            t_s: 0.0,
            clock_regressions: 0,
            counters: Counters::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// Tag this recorder with a run identifier (the sweep point index);
    /// exported rows carry it in the `run` column.
    pub fn with_run_id(mut self, run_id: u64) -> Self {
        self.run_id = run_id;
        self
    }

    /// The run identifier.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// Open a slot: subsequent events are stamped `(slot, t_s)`. The clock
    /// is monotonic — a `t_s` earlier than the current clock is clamped
    /// (the stamp stays put) and counted in [`Recorder::clock_regressions`].
    pub fn begin_slot(&mut self, slot: u64, t_s: f64) {
        self.slot = slot;
        self.advance_clock(t_s);
    }

    /// Move the simulation clock forward within the current slot. Ignores
    /// (but counts) attempts to move it backwards or to a non-finite time.
    pub fn advance_clock(&mut self, t_s: f64) {
        if t_s.is_finite() && t_s >= self.t_s {
            self.t_s = t_s;
        } else {
            self.clock_regressions += 1;
        }
    }

    /// Current slot index.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Current simulation time, seconds.
    pub fn t_s(&self) -> f64 {
        self.t_s
    }

    /// How many times a caller tried to move the clock backwards (should
    /// be 0 in a correct simulation; exported in the summary as a tripwire).
    pub fn clock_regressions(&self) -> u64 {
        self.clock_regressions
    }

    /// Record one event, stamped with the current clock. When the ring is
    /// full the oldest event is evicted and [`Recorder::events_dropped`]
    /// incremented — accounting is exact, eviction is never silent. Every
    /// event also bumps the `event.<name>` counter, which survives
    /// eviction (counters are unbounded u64s, not ring entries).
    pub fn record(&mut self, event: Event) {
        self.counters.inc(event.name());
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.events_dropped += 1;
        }
        self.events.push_back(TimedEvent { slot: self.slot, t_s: self.t_s, event });
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> + '_ {
        self.events.iter()
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Aggregate counters (per-event-name counts plus anything recorded
    /// via [`Recorder::inc`]).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Bump a named counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.counters.inc(name);
    }

    /// Bump a named counter by `by`.
    pub fn add(&mut self, name: &'static str, by: u64) {
        self.counters.add(name, by);
    }

    /// Fold a sample into the named histogram, creating it with the given
    /// configuration on first use. A histogram name is bound to its first
    /// configuration; later calls with a different `(lo, hi, buckets)`
    /// still observe into the original (fixed edges are what make merges
    /// and exports deterministic). Invalid configurations on first use are
    /// counted under the `telemetry.bad_histogram` counter and the sample
    /// is discarded — the hot path never panics.
    // lint: unitless bounds and sample carry the named metric's unit (e.g. rx.snr_db)
    pub fn observe(&mut self, name: &'static str, lo: f64, hi: f64, buckets: usize, x: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(x);
            return;
        }
        match Histogram::new(lo, hi, buckets) {
            Ok(mut h) => {
                h.observe(x);
                self.histograms.insert(name, h);
            }
            Err(_) => self.counters.inc("telemetry.bad_histogram"),
        }
    }

    /// Histograms in lexicographic name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Recorder {
        /// Look up one histogram by name.
        fn histogram(&self, name: &str) -> Option<&Histogram> {
            self.histograms.get(name)
        }

        /// Fold another recorder's aggregates and events into this one, in
        /// `other`'s recording order: absorbing sub-recorders in order gives
        /// exactly what recording into one would have (counter totals,
        /// histogram contents including the order-sensitive `f64` sums, and
        /// the event ring).
        ///
        /// Counters add; histograms with identical configuration merge
        /// (mismatched configurations are counted under
        /// `telemetry.bad_histogram` and skipped, never panicked on); events
        /// append under this recorder's current slot/time and ring capacity;
        /// `events_dropped` and `clock_regressions` accumulate.
        fn absorb(&mut self, other: &Recorder) {
            self.counters.merge(other.counters());
            for (name, h) in other.histograms() {
                match self.histograms.get_mut(name) {
                    Some(mine) => {
                        if !mine.merge(h) {
                            self.counters.inc("telemetry.bad_histogram");
                        }
                    }
                    None => {
                        self.histograms.insert(name, h.clone());
                    }
                }
            }
            for timed in other.events() {
                if self.events.len() == self.capacity {
                    self.events.pop_front();
                    self.events_dropped += 1;
                }
                self.events.push_back(TimedEvent {
                    slot: self.slot,
                    t_s: self.t_s,
                    event: timed.event,
                });
            }
            self.events_dropped += other.events_dropped();
            self.clock_regressions += other.clock_regressions();
        }
    }

    #[test]
    fn ring_overflow_accounting_is_exact() {
        let mut r = Recorder::new(8);
        for i in 0..11u64 {
            r.begin_slot(i, i as f64 * 0.25);
            r.record(Event::SlotStart { queries: 1 });
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.events_dropped(), 3, "11 pushed into capacity 8");
        // Oldest three evicted: retained log starts at slot 3.
        assert_eq!(r.events().next().map(|e| e.slot), Some(3));
        // The per-event counter still saw all 11.
        assert_eq!(r.counters().get("slot_start"), 11);
    }

    #[test]
    fn clock_is_monotonic_and_counts_regressions() {
        let mut r = Recorder::new(4);
        r.begin_slot(0, 1.0);
        r.advance_clock(0.5);
        assert_eq!(r.t_s(), 1.0, "backwards move is clamped");
        assert_eq!(r.clock_regressions(), 1);
        r.advance_clock(f64::NAN);
        assert_eq!(r.clock_regressions(), 2);
        r.advance_clock(2.0);
        assert_eq!(r.t_s(), 2.0);
        r.record(Event::Erasure { node: 1 });
        assert_eq!(r.events().next().map(|e| e.t_s), Some(2.0));
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let mut r = Recorder::new(0);
        r.record(Event::Eviction { node: 2 });
        r.record(Event::Eviction { node: 3 });
        assert_eq!(r.len(), 1);
        assert_eq!(r.events_dropped(), 1);
        assert_eq!(
            r.events().next().map(|e| e.event),
            Some(Event::Eviction { node: 3 }),
            "newest event is the one retained"
        );
    }

    #[test]
    pub fn histogram_name_binds_first_config() {
        let mut r = Recorder::new(4);
        r.observe("snr_db", 0.0, 30.0, 30, 12.5);
        r.observe("snr_db", -10.0, 10.0, 4, 29.0);
        let h = r.histogram("snr_db").unwrap();
        assert_eq!(h.lo(), 0.0);
        assert_eq!(h.hi(), 30.0);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn bad_histogram_config_is_counted_not_panicked() {
        let mut r = Recorder::new(4);
        r.observe("broken", 1.0, 1.0, 4, 0.5);
        assert!(r.histogram("broken").is_none());
        assert_eq!(r.counters().get("telemetry.bad_histogram"), 1);
    }

    #[test]
    fn absorb_in_order_matches_direct_recording() {
        // The parallel-slot contract: recording through per-exchange
        // sub-recorders absorbed in order must equal recording directly,
        // including the order-sensitive f64 histogram sums.
        let samples = [3.7, -1.25, 14.5, 0.0625];
        let mut direct = Recorder::new(16);
        for (i, &x) in samples.iter().enumerate() {
            direct.inc("rx.detections");
            direct.observe("snr_db", -10.0, 40.0, 25, x);
            direct.record(Event::Erasure { node: i as u8 });
        }
        let mut absorbed = Recorder::new(16);
        for (i, &x) in samples.iter().enumerate() {
            let mut sub = Recorder::new(16);
            sub.inc("rx.detections");
            sub.observe("snr_db", -10.0, 40.0, 25, x);
            sub.record(Event::Erasure { node: i as u8 });
            absorbed.absorb(&sub);
        }
        assert_eq!(direct.counters(), absorbed.counters());
        assert_eq!(
            direct.histogram("snr_db"),
            absorbed.histogram("snr_db"),
            "bitwise-equal sums require in-order absorption"
        );
        let d: Vec<_> = direct.events().map(|t| t.event).collect();
        let a: Vec<_> = absorbed.events().map(|t| t.event).collect();
        assert_eq!(d, a);
    }

    #[test]
    fn absorb_honors_ring_capacity() {
        let mut big = Recorder::new(64);
        for i in 0..10u8 {
            big.record(Event::Erasure { node: i });
        }
        let mut small = Recorder::new(4);
        small.absorb(&big);
        assert_eq!(small.len(), 4);
        assert_eq!(small.events_dropped(), 6);
    }
}
