//! Downlink pulse-width modulation.
//!
//! §3.2: "We also adopt the Pulse Width Modulation (PWM) scheme on the
//! downlink since it can be decoded using simple envelope detection" —
//! and §5.1(a): "the '1' bit is twice as long as the '0' bit". A bit is a
//! carrier-ON pulse (one or two base periods) followed by a fixed OFF gap;
//! the node's MCU decodes by timing the intervals between falling edges
//! (§4.2.2).

use crate::NetError;

/// PWM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwmTiming {
    /// Base pulse width `T`, seconds: a '0' is ON for `T`, a '1' for `2T`.
    pub short_pulse_s: f64,
    /// OFF gap after each pulse, seconds.
    pub gap_s: f64,
}

impl PwmTiming {
    /// The stack's default downlink timing: 3 ms base pulse, 6 ms gap
    /// (≈ 100 bps downlink — queries are short, so downlink speed is not
    /// the bottleneck). The long gap lets tank reverberation (≈1 ms RMS
    /// delay spread in the paper's pools) decay below the Schmitt
    /// trigger's low threshold before the next pulse.
    pub fn pab_default() -> Self {
        PwmTiming {
            short_pulse_s: 3e-3,
            gap_s: 6e-3,
        }
    }

    /// Duration of a '0' / '1' bit including the gap.
    fn bit_duration_s(&self, bit: bool) -> f64 {
        let on = if bit {
            2.0 * self.short_pulse_s
        } else {
            self.short_pulse_s
        };
        on + self.gap_s
    }

    /// Total duration of a bit sequence.
    // lint: allow(dead-pub) test-oracle pwm_duration_is_sum_of_bits
    pub fn total_duration_s(&self, bits: &[bool]) -> f64 {
        bits.iter().map(|&b| self.bit_duration_s(b)).sum()
    }
}

/// One carrier-keying segment: level (carrier on/off) and duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Carrier on (`true`) or off (`false`).
    pub on: bool,
    /// Segment duration, seconds.
    pub duration_s: f64,
}

/// Encode bits into ON/OFF segments. A leading reference pulse (a '0'-width
/// pulse) is NOT added here — the packet preamble provides the timing
/// reference.
pub fn encode(bits: &[bool], timing: &PwmTiming) -> Vec<Segment> {
    let mut out = Vec::with_capacity(bits.len() * 2);
    for &bit in bits {
        out.push(Segment {
            on: true,
            duration_s: if bit {
                2.0 * timing.short_pulse_s
            } else {
                timing.short_pulse_s
            },
        });
        out.push(Segment {
            on: false,
            duration_s: timing.gap_s,
        });
    }
    out
}

/// Rasterise segments into a boolean keying waveform at `fs_hz`.
///
/// Sample counts come from *cumulative* edge times, not per-segment
/// rounding: rounding each segment independently lets the error accumulate
/// across a packet, drifting edges by several samples at `fs_hz`/timing
/// combinations that don't divide evenly. Here every edge lands within one
/// sample of its exact time no matter how long the packet is.
pub fn rasterize(segments: &[Segment], fs_hz: f64) -> Vec<bool> {
    let total: f64 = segments.iter().map(|s| s.duration_s).sum();
    let mut out = Vec::with_capacity((total * fs_hz).ceil() as usize);
    let mut t_edge_s = 0.0;
    let mut start = 0usize;
    for seg in segments {
        t_edge_s += seg.duration_s;
        let end = (t_edge_s * fs_hz).round() as usize;
        out.extend(std::iter::repeat_n(seg.on, end.saturating_sub(start)));
        start = end.max(start);
    }
    out
}

/// Decode bits from *falling-edge timestamps* (seconds), the way the MCU
/// does. The interval between falling edges `k` and `k+1` is
/// `gap + on_{k+1}`, so `n` edges decode `n − 1` bits; the first edge is
/// the timing reference.
pub fn decode_falling_edges(edges_s: &[f64], timing: &PwmTiming) -> Result<Vec<bool>, NetError> {
    if edges_s.len() < 2 {
        return Err(NetError::Truncated {
            needed: 2,
            got: edges_s.len(),
        });
    }
    let threshold = timing.gap_s + 1.5 * timing.short_pulse_s;
    let mut bits = Vec::with_capacity(edges_s.len() - 1);
    for w in edges_s.windows(2) {
        let dt = w[1] - w[0];
        if dt <= 0.0 {
            return Err(NetError::InvalidField("edge timestamps must increase"));
        }
        bits.push(dt > threshold);
    }
    Ok(bits)
}

/// Decode from a rasterised keying waveform (testing convenience): finds
/// falling edges and calls [`decode_falling_edges`]. The waveform must
/// start with a reference pulse whose falling edge anchors timing.
// lint: allow(dead-pub) test-oracle pwm_roundtrips_any_bits
pub fn decode_waveform(levels: &[bool], fs_hz: f64, timing: &PwmTiming) -> Result<Vec<bool>, NetError> {
    let mut edges = Vec::new();
    for i in 1..levels.len() {
        if levels[i - 1] && !levels[i] {
            edges.push(i as f64 / fs_hz);
        }
    }
    decode_falling_edges(&edges, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prepend the reference '0' pulse the preamble normally supplies.
    fn with_reference(bits: &[bool]) -> Vec<bool> {
        let mut v = vec![false];
        v.extend_from_slice(bits);
        v
    }

    #[test]
    fn roundtrip_through_waveform() {
        let timing = PwmTiming::pab_default();
        let bits = vec![true, false, true, true, false, false, true];
        let segs = encode(&with_reference(&bits), &timing);
        let wave = rasterize(&segs, 48_000.0);
        let decoded = decode_waveform(&wave, 48_000.0, &timing).unwrap();
        assert_eq!(decoded, bits);
    }

    #[test]
    fn one_bits_are_twice_as_long() {
        let timing = PwmTiming::pab_default();
        assert!(
            (timing.bit_duration_s(true) - timing.bit_duration_s(false)
                - timing.short_pulse_s)
                .abs()
                < 1e-12
        );
        let segs = encode(&[true, false], &timing);
        assert!((segs[0].duration_s - 2.0 * segs[2].duration_s).abs() < 1e-12);
    }

    #[test]
    fn total_duration_accumulates() {
        let timing = PwmTiming::pab_default();
        let bits = vec![true, false];
        let expect = timing.bit_duration_s(true) + timing.bit_duration_s(false);
        assert!((timing.total_duration_s(&bits) - expect).abs() < 1e-12);
    }

    #[test]
    fn decode_needs_two_edges() {
        let timing = PwmTiming::pab_default();
        assert!(matches!(
            decode_falling_edges(&[0.001], &timing),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_nonmonotonic_edges() {
        let timing = PwmTiming::pab_default();
        assert!(decode_falling_edges(&[0.01, 0.005], &timing).is_err());
    }

    #[test]
    fn timing_tolerance() {
        // Edges jittered by up to 20% of T still decode.
        let timing = PwmTiming::pab_default();
        let bits = vec![true, false, true];
        let mut t = 0.0;
        let mut edges = vec![];
        // Reference pulse.
        t += timing.short_pulse_s;
        edges.push(t);
        for (i, &b) in bits.iter().enumerate() {
            let jitter = 0.2 * timing.short_pulse_s * if i % 2 == 0 { 1.0 } else { -1.0 };
            t += timing.gap_s + if b { 2.0 } else { 1.0 } * timing.short_pulse_s + jitter;
            edges.push(t);
        }
        assert_eq!(decode_falling_edges(&edges, &timing).unwrap(), bits);
    }
}
