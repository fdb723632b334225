//! Counters and fixed-bucket histograms: the aggregate half of the
//! telemetry story, deterministic by construction (BTreeMap ordering,
//! fixed bucket edges decided at registration).

use crate::TelemetryError;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Named monotonic counters. Keys are `&'static str` so incrementing
/// never allocates; iteration order is lexicographic (BTreeMap), which is
/// what makes the summary export stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    counts: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// New empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to `name` (creating it at zero).
    pub fn add(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    /// Increment `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 when never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All counters in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no counter exists yet.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Merge another counter set into this one (used when aggregating
    /// per-worker recorders).
    pub fn merge(&mut self, other: &Counters) {
        for (name, v) in other.iter() {
            self.add(name, v);
        }
    }
}

/// A fixed-bucket histogram over `[lo, hi)` with `buckets` equal-width
/// bins plus explicit underflow/overflow bins. Bucket edges are fixed at
/// construction, so two runs that observe the same samples produce the
/// same counts regardless of observation order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
    finite: u64,
    sum: f64,
}

impl Histogram {
    /// New histogram over `[lo, hi)` with `buckets` bins.
    // lint: unitless bounds carry the unit of the named metric (e.g. rx.snr_db)
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Result<Self, TelemetryError> {
        // `partial_cmp` rather than `hi <= lo`: a NaN bound is refused too.
        if !lo.is_finite() || !hi.is_finite() || hi.partial_cmp(&lo) != Some(Ordering::Greater) {
            return Err(TelemetryError::InvalidHistogram("range"));
        }
        if buckets == 0 {
            return Err(TelemetryError::InvalidHistogram("zero buckets"));
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
            finite: 0,
            sum: 0.0,
        })
    }

    /// Fold one sample in. Non-finite samples count as overflow (they are
    /// still accounted, never silently dropped).
    // lint: unitless sample in the named metric's unit
    pub fn observe(&mut self, x: f64) {
        self.total += 1;
        if x.is_finite() {
            self.finite += 1;
            self.sum += x;
        }
        if !x.is_finite() {
            self.overflow += 1;
        } else if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Lower edge of the range.
    // lint: unitless bound in the named metric's unit
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the range.
    // lint: unitless bound in the named metric's unit
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Per-bucket counts (underflow/overflow excluded).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi` (plus non-finite samples).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the finite samples observed (0.0 when none yet).
    // lint: unitless mean in the named metric's unit
    pub fn mean(&self) -> f64 {
        if self.finite == 0 {
            0.0
        } else {
            self.sum / self.finite as f64
        }
    }

    /// Merge a histogram with identical configuration; returns false (and
    /// changes nothing) when the configurations differ.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.hi.to_bits() != other.hi.to_bits()
            || self.counts.len() != other.counts.len()
        {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
        self.finite += other.finite;
        self.sum += other.sum;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_in_name_order() {
        let mut c = Counters::new();
        c.inc("zebra");
        c.inc("alpha");
        c.add("alpha", 2);
        assert_eq!(c.get("alpha"), 3);
        assert_eq!(c.get("zebra"), 1);
        assert_eq!(c.get("missing"), 0);
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zebra"], "lexicographic order");
        let mut d = Counters::new();
        d.inc("alpha");
        c.merge(&d);
        assert_eq!(c.get("alpha"), 4);
    }

    #[test]
    fn histogram_buckets_and_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        for &x in &[-0.1, 0.0, 0.24, 0.25, 0.5, 0.99, 1.0, f64::NAN] {
            h.observe(x);
        }
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2, "hi edge and NaN both overflow");
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn histogram_rejects_bad_config() {
        assert!(Histogram::new(1.0, 0.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, f64::INFINITY, 4).is_err());
    }

    #[test]
    fn histogram_merge_requires_identical_config() {
        let mut a = Histogram::new(0.0, 1.0, 4).unwrap();
        let mut b = Histogram::new(0.0, 1.0, 4).unwrap();
        a.observe(0.1);
        b.observe(0.9);
        assert!(a.merge(&b));
        assert_eq!(a.total(), 2);
        let c = Histogram::new(0.0, 2.0, 4).unwrap();
        assert!(!a.merge(&c), "mismatched ranges must refuse");
        assert_eq!(a.total(), 2, "refused merge must not mutate");
    }
}
