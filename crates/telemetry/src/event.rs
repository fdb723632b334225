//! Typed trace events: everything the MAC, receiver and fault layer know
//! per slot, as a `Copy` enum so recording never allocates.

/// Which impairment class a fault-window transition refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A broadband noise burst window.
    Burst,
    /// A raised-cosine path fade window.
    Fade,
    /// A supercap brown-out (dropout) window.
    Dropout,
    /// A non-zero carrier/clock drift offset.
    Drift,
}

impl FaultKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Burst => "burst",
            FaultKind::Fade => "fade",
            FaultKind::Dropout => "dropout",
            FaultKind::Drift => "drift",
        }
    }
}

/// One trace event. Variants mirror the per-slot state machine of the
/// resilient MAC (`pab_net::mac::ResilientMac`), the receiver's detection
/// verdicts, and the fault layer's windows; every payload is plain `Copy`
/// data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A slot opened with this many scheduled queries (0 = every eligible
    /// node was backing off and the channel idled).
    SlotStart {
        /// Queries scheduled into the slot.
        queries: u32,
    },
    /// A slot closed.
    SlotEnd {
        /// Wall-of-simulation duration of the slot, seconds.
        duration_s: f64,
        /// Delivered payload bits within the slot.
        bits: u64,
    },
    /// Preamble found and CRC passed for `node`.
    Detection {
        /// Node address.
        node: u8,
        /// Peak normalized preamble correlation in [0, 1].
        corr: f64,
        /// Receiver-estimated SNR, dB.
        snr_db: f64,
    },
    /// Preamble found but the payload failed CRC (alive but noisy).
    CrcFail {
        /// Node address.
        node: u8,
        /// Peak normalized preamble correlation in [0, 1].
        corr: f64,
    },
    /// No preamble in the response window (dead, browned out, or faded).
    Erasure {
        /// Node address.
        node: u8,
    },
    /// The MAC consumed one retry from `node`'s budget.
    Retry {
        /// Node address.
        node: u8,
        /// Retries consumed so far for the in-flight packet.
        retries_used: u32,
    },
    /// The MAC backed `node` off until `until_slot`.
    Backoff {
        /// Node address.
        node: u8,
        /// First slot the node is eligible again.
        until_slot: u64,
    },
    /// The MAC quarantined `node` (erasure streak) until `until_slot`.
    Quarantine {
        /// Node address.
        node: u8,
        /// First slot the node will be re-probed.
        until_slot: u64,
        /// Re-probes that have failed so far.
        probes_failed: u32,
    },
    /// The MAC permanently evicted `node`.
    Eviction {
        /// Node address.
        node: u8,
    },
    /// The closed-loop rate ladder moved for `node`.
    RateStep {
        /// Node address.
        node: u8,
        /// The newly commanded FM0 uplink rate, bps.
        rate_bps: f64,
        /// Ladder rung after the step (0 = fastest).
        level: u32,
    },
    /// `node`'s link entered a fault window of `kind`.
    FaultEnter {
        /// Node address.
        node: u8,
        /// Impairment class.
        kind: FaultKind,
    },
    /// `node`'s link left a fault window of `kind`.
    FaultExit {
        /// Node address.
        node: u8,
        /// Impairment class.
        kind: FaultKind,
    },
    /// Per-exchange energy sample for `node` (the Fig. 9 observables).
    EnergySample {
        /// Node address.
        node: u8,
        /// Energy turned over by the node during the exchange, joules.
        harvested_j: f64,
        /// Average node power during the exchange, watts.
        power_w: f64,
        /// Peak rectified (harvested) voltage, volts.
        rectified_v: f64,
    },
    /// A broadcast collision slot ran: `participants` concurrent uplinks
    /// separated by zero-forcing over a channel matrix with this
    /// condition number (§8, Fig. 10).
    CollisionSlot {
        /// Concurrent uplink streams in the slot.
        participants: u32,
        /// Condition number of the estimated channel matrix.
        condition_number: f64,
    },
    /// A proposed collision group was abandoned for FDMA because its
    /// trained channel matrix exceeded the conditioning gate.
    CollisionFallback {
        /// Members of the abandoned group.
        participants: u32,
        /// Condition number that tripped the gate (infinite when the
        /// matrix was outright singular).
        condition_number: f64,
    },
    /// Verdict for one zero-forced stream of a collision slot (the
    /// per-stream counterpart of Detection/CrcFail/Erasure, so MAC
    /// accounting for collision participants stays individually visible).
    StreamVerdict {
        /// Node address the separated stream belongs to.
        node: u8,
        /// Whether the stream's packet passed CRC.
        crc_ok: bool,
        /// Decoder SNR estimate for the separated stream, dB.
        snr_db: f64,
    },
}

/// A payload value, typed so each exporter can render it its own way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Value {
    /// A count or index.
    Int(u64),
    /// A measurement.
    Float(f64),
    /// A yes/no verdict.
    Flag(bool),
    /// An impairment class.
    Kind(FaultKind),
}

/// Where a payload field rides in a binary record (see
/// [`binfmt`](crate::binfmt)): the small-integer `aux` slot or one of the
/// three float slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    Aux,
    A,
    B,
    C,
}

/// One payload field of an event, as every exporter names it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Field {
    /// JSONL key.
    pub key: &'static str,
    /// CSV column (one of the payload columns of
    /// [`EVENTS_CSV_HEADER`](crate::export::EVENTS_CSV_HEADER)).
    pub col: &'static str,
    /// Binary record slot.
    pub slot: Slot,
    /// The value.
    pub value: Value,
}

/// Most payload fields any event carries.
const MAX_FIELDS: usize = 3;

/// An event's export layout: its name, node, binary kind code and
/// payload fields (in JSONL key order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Layout {
    pub name: &'static str,
    pub node: Option<u8>,
    /// Binary kind code. Appending new codes is fine; renumbering is a
    /// format break and needs a version bump.
    pub kind: u8,
    fields: [Option<Field>; MAX_FIELDS],
}

impl Layout {
    fn new(name: &'static str, kind: u8, node: Option<u8>) -> Self {
        Layout {
            name,
            node,
            kind,
            fields: [None; MAX_FIELDS],
        }
    }

    fn field(mut self, key: &'static str, col: &'static str, slot: Slot, value: Value) -> Self {
        if let Some(free) = self.fields.iter_mut().find(|f| f.is_none()) {
            *free = Some(Field { key, col, slot, value });
        }
        self
    }

    /// The payload fields, in JSONL key order.
    pub fn fields(&self) -> impl Iterator<Item = &Field> {
        self.fields.iter().flatten()
    }
}

impl Event {
    /// The event's export layout — the one place each variant's name,
    /// node, binary kind code and payload fields (JSONL key, CSV column,
    /// binary slot) are stated. The CSV, JSONL and binary encoders all
    /// loop over it.
    #[inline]
    pub(crate) fn layout(&self) -> Layout {
        use Slot::{Aux, A, B, C};
        use Value::{Flag, Float, Int, Kind};
        let l = Layout::new;
        match *self {
            Event::SlotStart { queries } => {
                l("slot_start", 0, None).field("queries", "detail", Aux, Int(queries.into()))
            }
            Event::SlotEnd { duration_s, bits } => l("slot_end", 1, None)
                .field("duration_s", "duration_s", A, Float(duration_s))
                .field("bits", "bits", B, Int(bits)),
            Event::Detection { node, corr, snr_db } => l("detection", 2, Some(node))
                .field("corr", "corr", A, Float(corr))
                .field("snr_db", "snr_db", B, Float(snr_db)),
            Event::CrcFail { node, corr } => {
                l("crc_fail", 3, Some(node)).field("corr", "corr", A, Float(corr))
            }
            Event::Erasure { node } => l("erasure", 4, Some(node)),
            Event::Retry { node, retries_used } => l("retry", 5, Some(node))
                .field("retries_used", "detail", Aux, Int(retries_used.into())),
            Event::Backoff { node, until_slot } => l("backoff", 6, Some(node))
                .field("until_slot", "until_slot", A, Int(until_slot)),
            Event::Quarantine { node, until_slot, probes_failed } => l("quarantine", 7, Some(node))
                .field("until_slot", "until_slot", A, Int(until_slot))
                .field("probes_failed", "detail", Aux, Int(probes_failed.into())),
            Event::Eviction { node } => l("eviction", 8, Some(node)),
            Event::RateStep { node, rate_bps, level } => l("rate_step", 9, Some(node))
                .field("rate_bps", "rate_bps", A, Float(rate_bps))
                .field("level", "detail", Aux, Int(level.into())),
            Event::FaultEnter { node, kind } => {
                l("fault_enter", 10, Some(node)).field("kind", "detail", Aux, Kind(kind))
            }
            Event::FaultExit { node, kind } => {
                l("fault_exit", 11, Some(node)).field("kind", "detail", Aux, Kind(kind))
            }
            Event::EnergySample { node, harvested_j, power_w, rectified_v } => {
                l("energy_sample", 12, Some(node))
                    .field("harvested_j", "harvested_j", A, Float(harvested_j))
                    .field("power_w", "power_w", B, Float(power_w))
                    .field("rectified_v", "rectified_v", C, Float(rectified_v))
            }
            Event::CollisionSlot { participants, condition_number } => l("collision_slot", 13, None)
                .field("participants", "detail", Aux, Int(participants.into()))
                .field("condition_number", "condition", A, Float(condition_number)),
            Event::CollisionFallback { participants, condition_number } => {
                l("collision_fallback", 14, None)
                    .field("participants", "detail", Aux, Int(participants.into()))
                    .field("condition_number", "condition", A, Float(condition_number))
            }
            Event::StreamVerdict { node, crc_ok, snr_db } => l("stream_verdict", 15, Some(node))
                .field("crc_ok", "detail", Aux, Flag(crc_ok))
                .field("snr_db", "snr_db", A, Float(snr_db)),
        }
    }

    /// Stable lowercase event name used in exports and per-event counters.
    pub fn name(&self) -> &'static str {
        self.layout().name
    }

    /// The node the event is about, when it is about one.
    pub fn node(&self) -> Option<u8> {
        self.layout().node
    }
}

/// An [`Event`] stamped with the recorder's monotonic simulation clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Slot index the event occurred in (0 before the first slot opens).
    pub slot: u64,
    /// Simulation time, seconds (monotonic per recorder).
    pub t_s: f64,
    /// The event.
    pub event: Event,
}

#[cfg(test)]
/// One event of every variant, in kind-code order, with every float
/// payload `x`, every counter `n` (saturated to the field's width) and
/// node 254 — the test corpus of all three exporters.
pub(crate) fn every_variant(x: f64, n: u64) -> [Event; 16] {
    let node = 254;
    let n32 = u32::try_from(n).unwrap_or(u32::MAX);
    let kind = FaultKind::Drift;
    [
        Event::SlotStart { queries: n32 },
        Event::SlotEnd { duration_s: x, bits: n },
        Event::Detection { node, corr: x, snr_db: x },
        Event::CrcFail { node, corr: x },
        Event::Erasure { node },
        Event::Retry { node, retries_used: n32 },
        Event::Backoff { node, until_slot: n },
        Event::Quarantine { node, until_slot: n, probes_failed: n32 },
        Event::Eviction { node },
        Event::RateStep { node, rate_bps: x, level: n32 },
        Event::FaultEnter { node, kind },
        Event::FaultExit { node, kind },
        Event::EnergySample { node, harvested_j: x, power_w: x, rectified_v: x },
        Event::CollisionSlot { participants: n32, condition_number: x },
        Event::CollisionFallback { participants: n32, condition_number: x },
        Event::StreamVerdict { node, crc_ok: n % 2 == 1, snr_db: x },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique() {
        let events = every_variant(0.5, 3);
        let mut names: Vec<&str> = events.iter().map(Event::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), events.len(), "duplicate event name");
    }

    /// Kind codes are the variants' indices in `every_variant`, and within
    /// one event no two fields share a JSONL key, CSV column or binary
    /// slot.
    #[test]
    fn layouts_are_consistent() {
        for (code, event) in every_variant(0.5, 3).iter().enumerate() {
            let layout = event.layout();
            assert_eq!(usize::from(layout.kind), code, "{event:?}");
            let fields: Vec<&Field> = layout.fields().collect();
            for (i, a) in fields.iter().enumerate() {
                for b in &fields[i + 1..] {
                    assert_ne!(a.key, b.key, "{event:?}");
                    assert_ne!(a.col, b.col, "{event:?}");
                    assert_ne!(a.slot, b.slot, "{event:?}");
                }
            }
        }
    }

    #[test]
    fn node_attribution() {
        assert_eq!(Event::SlotStart { queries: 0 }.node(), None);
        assert_eq!(Event::Erasure { node: 9 }.node(), Some(9));
        assert_eq!(
            Event::FaultEnter { node: 3, kind: FaultKind::Fade }.node(),
            Some(3)
        );
        assert_eq!(
            Event::CollisionSlot { participants: 2, condition_number: 4.5 }.node(),
            None
        );
        assert_eq!(
            Event::StreamVerdict { node: 7, crc_ok: false, snr_db: -3.0 }.node(),
            Some(7)
        );
    }

    #[test]
    fn fault_kind_names() {
        assert_eq!(FaultKind::Burst.name(), "burst");
        assert_eq!(FaultKind::Fade.name(), "fade");
        assert_eq!(FaultKind::Dropout.name(), "dropout");
        assert_eq!(FaultKind::Drift.name(), "drift");
    }
}
