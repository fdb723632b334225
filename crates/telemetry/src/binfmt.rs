//! Compact binary trace format: fixed-width little-endian event records.
//!
//! Long fault-injection campaigns retain millions of events, and the
//! text exporters dominate disk and parse time. This module packs each
//! event into one 24-byte record. On the committed fault-resilience
//! trace (1436 events) that is 34 572 bytes against 77 686 of CSV
//! (~54 bytes per row, 2.25×) and 138 121 of JSONL (4.0×). It keeps the
//! text exporters' determinism contract: the bytes are a pure function
//! of recorder contents and recorder order, so parallel and serial
//! sweeps produce identical files.
//!
//! # Layout
//!
//! ```text
//! file    := magic "PABT" | version u16 | record_len u16 | n_sections u32
//!            | section*
//! section := run_id u32 | n_records u32 | record{n_records}
//! record  := kind u8 | node u8 | aux u16 | slot u32 | t_s f32
//!            | a f32 | b f32 | c f32            (24 bytes, little-endian)
//! ```
//!
//! `kind` and the payload slots of each variant are stated once, in the
//! event schema of [`event`](crate::event). `node` is `0xFF` for events
//! with no node attribution. `aux` carries the event's small integer
//! payload (queries, retries, ladder level, fault-kind index, ...),
//! saturating at `u16::MAX`. `a`/`b`/`c` carry float payloads; `f64`
//! values are narrowed to `f32`, and wide counters (`until_slot`,
//! per-slot bits) ride in a float field — exact up to 2^24, far beyond
//! any realistic slot count. The decoder widens back to the [`Event`]
//! variants, so a round trip is lossless whenever the payloads are
//! representable in `f32` (true for every counter the simulator emits;
//! measured floats lose only sub-`f32` precision).

use crate::event::{Event, FaultKind, Slot, Value};
use crate::recorder::Recorder;

/// File magic, first four bytes of every binary trace.
pub const BIN_MAGIC: [u8; 4] = *b"PABT";
/// Format version written by [`events_bin`].
pub const BIN_VERSION: u16 = 1;
/// Bytes per event record.
pub const BIN_RECORD_LEN: usize = 24;

/// Sentinel `node` byte for events with no node attribution.
const NODE_NONE: u8 = 0xFF;

/// Narrow an `f64` payload to the record's `f32` field, saturating at
/// the `f32` range instead of producing infinities.
fn f32_field(x: f64) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    x.clamp(-f64::from(f32::MAX), f64::from(f32::MAX)) as f32
}

/// Saturate the slot counter into the record's 32-bit slot field.
fn slot_field(slot: u64) -> u32 {
    u32::try_from(slot).unwrap_or(u32::MAX)
}

/// Wide counters (`until_slot`, bits) ride in a float payload field:
/// exact up to 2^24, saturating far above any realistic simulation.
fn counter_field(x: u64) -> f32 {
    f32_field(x as f64)
}

fn fault_kind_code(kind: FaultKind) -> u16 {
    match kind {
        FaultKind::Burst => 0,
        FaultKind::Fade => 1,
        FaultKind::Dropout => 2,
        FaultKind::Drift => 3,
    }
}

fn fault_kind_from_code(code: u16) -> Option<FaultKind> {
    match code {
        0 => Some(FaultKind::Burst),
        1 => Some(FaultKind::Fade),
        2 => Some(FaultKind::Dropout),
        3 => Some(FaultKind::Drift),
        _ => None,
    }
}

/// A payload value in the 16-bit `aux` slot.
fn aux_field(value: Value) -> u16 {
    match value {
        Value::Int(x) => u16::try_from(x).unwrap_or(u16::MAX),
        Value::Float(x) => x.clamp(0.0, f64::from(u16::MAX)).round() as u16,
        Value::Flag(b) => u16::from(b),
        Value::Kind(k) => fault_kind_code(k),
    }
}

/// A payload value in one of the `f32` slots.
fn float_field(value: Value) -> f32 {
    match value {
        Value::Int(x) => counter_field(x),
        Value::Float(x) => f32_field(x),
        Value::Flag(b) => f32::from(u8::from(b)),
        Value::Kind(k) => f32::from(fault_kind_code(k)),
    }
}

/// Encode every retained event of every recorder, recorder order then
/// event (recording) order — the same ordering contract as
/// [`events_csv`](crate::export::events_csv), so parallel and serial
/// sweeps produce byte-identical files.
pub fn events_bin(recorders: &[&Recorder]) -> Vec<u8> {
    let total: usize = recorders.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(12 + recorders.len() * 8 + total * BIN_RECORD_LEN);
    out.extend_from_slice(&BIN_MAGIC);
    out.extend_from_slice(&BIN_VERSION.to_le_bytes());
    const RECORD_LEN_U16: u16 = BIN_RECORD_LEN as u16;
    out.extend_from_slice(&RECORD_LEN_U16.to_le_bytes());
    let n_sections = u32::try_from(recorders.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&n_sections.to_le_bytes());
    // lint: allow(lossy-cast) u32 -> usize widens on every supported target
    for rec in recorders.iter().take(n_sections as usize) {
        out.extend_from_slice(&slot_field(rec.run_id()).to_le_bytes());
        let n_records = u32::try_from(rec.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&n_records.to_le_bytes());
        // lint: allow(lossy-cast) u32 -> usize widens on every supported target
        for te in rec.events().take(n_records as usize) {
            let layout = te.event.layout();
            let (mut aux, mut abc) = (0u16, [0.0f32; 3]);
            for f in layout.fields() {
                match f.slot {
                    Slot::Aux => aux = aux_field(f.value),
                    Slot::A => abc[0] = float_field(f.value),
                    Slot::B => abc[1] = float_field(f.value),
                    Slot::C => abc[2] = float_field(f.value),
                }
            }
            out.push(layout.kind);
            out.push(layout.node.unwrap_or(NODE_NONE));
            out.extend_from_slice(&aux.to_le_bytes());
            out.extend_from_slice(&slot_field(te.slot).to_le_bytes());
            out.extend_from_slice(&f32_field(te.t_s).to_le_bytes());
            for x in abc {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    out
}

/// One decoded record: the originating run plus the reconstructed
/// timed event (payloads widened from their `f32` storage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinRecord {
    /// Run id of the section the record came from.
    pub run: u32,
    /// Slot index the event occurred in.
    pub slot: u32,
    /// Simulation time, seconds (stored as `f32`).
    pub t_s: f32,
    /// The reconstructed event.
    pub event: Event,
}

fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn read_f32(bytes: &[u8], at: usize) -> f32 {
    f32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Reassemble an [`Event`] from record fields — the inverse of the
/// kind codes and slots of the event schema. `None` for an unknown kind
/// code or fault-kind index (a newer writer, or corruption).
fn decode_fields(kind: u8, node: u8, aux: u16, a: f32, b: f32, c: f32) -> Option<Event> {
    let node_or_zero = if node == NODE_NONE { 0 } else { node };
    Some(match kind {
        0 => Event::SlotStart { queries: u32::from(aux) },
        1 => Event::SlotEnd {
            duration_s: f64::from(a),
            bits: f32_counter_to_u64(b),
        },
        2 => Event::Detection {
            node: node_or_zero,
            corr: f64::from(a),
            snr_db: f64::from(b),
        },
        3 => Event::CrcFail { node: node_or_zero, corr: f64::from(a) },
        4 => Event::Erasure { node: node_or_zero },
        5 => Event::Retry {
            node: node_or_zero,
            retries_used: u32::from(aux),
        },
        6 => Event::Backoff {
            node: node_or_zero,
            until_slot: f32_counter_to_u64(a),
        },
        7 => Event::Quarantine {
            node: node_or_zero,
            until_slot: f32_counter_to_u64(a),
            probes_failed: u32::from(aux),
        },
        8 => Event::Eviction { node: node_or_zero },
        9 => Event::RateStep {
            node: node_or_zero,
            rate_bps: f64::from(a),
            level: u32::from(aux),
        },
        10 => Event::FaultEnter {
            node: node_or_zero,
            kind: fault_kind_from_code(aux)?,
        },
        11 => Event::FaultExit {
            node: node_or_zero,
            kind: fault_kind_from_code(aux)?,
        },
        12 => Event::EnergySample {
            node: node_or_zero,
            harvested_j: f64::from(a),
            power_w: f64::from(b),
            rectified_v: f64::from(c),
        },
        13 => Event::CollisionSlot {
            participants: u32::from(aux),
            condition_number: f64::from(a),
        },
        14 => Event::CollisionFallback {
            participants: u32::from(aux),
            condition_number: f64::from(a),
        },
        15 => Event::StreamVerdict {
            node: node_or_zero,
            crc_ok: aux != 0,
            snr_db: f64::from(a),
        },
        _ => return None,
    })
}

/// Widen a counter that rode in a float field back to `u64`.
fn f32_counter_to_u64(x: f32) -> u64 {
    if x.is_finite() && x > 0.0 {
        x.round() as u64
    } else {
        0
    }
}

/// Decode a buffer produced by [`events_bin`] back into records, in
/// file order. Rejects wrong magic/version, truncated buffers, and
/// unknown kind codes with a static description of the problem.
pub fn decode_events_bin(bytes: &[u8]) -> Result<Vec<BinRecord>, &'static str> {
    if bytes.len() < 12 {
        return Err("truncated header");
    }
    if bytes[..4] != BIN_MAGIC {
        return Err("bad magic");
    }
    if read_u16(bytes, 4) != BIN_VERSION {
        return Err("unsupported version");
    }
    if usize::from(read_u16(bytes, 6)) != BIN_RECORD_LEN {
        return Err("unexpected record length");
    }
    let n_sections = read_u32(bytes, 8);
    let mut at = 12usize;
    let mut out = Vec::new();
    for _ in 0..n_sections {
        if bytes.len() < at + 8 {
            return Err("truncated section header");
        }
        let run = read_u32(bytes, at);
        // lint: allow(lossy-cast) u32 -> usize widens on every supported target
        let n_records = read_u32(bytes, at + 4) as usize;
        at += 8;
        let need = n_records
            .checked_mul(BIN_RECORD_LEN)
            .ok_or("section length overflow")?;
        if bytes.len() < at + need {
            return Err("truncated section body");
        }
        out.reserve(n_records);
        for _ in 0..n_records {
            let kind = bytes[at];
            let node = bytes[at + 1];
            let aux = read_u16(bytes, at + 2);
            let slot = read_u32(bytes, at + 4);
            let t_s = read_f32(bytes, at + 8);
            let a = read_f32(bytes, at + 12);
            let b = read_f32(bytes, at + 16);
            let c = read_f32(bytes, at + 20);
            let event = decode_fields(kind, node, aux, a, b, c).ok_or("unknown event kind")?;
            out.push(BinRecord { run, slot, t_s, event });
            at += BIN_RECORD_LEN;
        }
    }
    if at != bytes.len() {
        return Err("trailing bytes after last section");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::every_variant;

    /// Events whose payloads are exactly representable in `f32`, so the
    /// round trip must be lossless, covering every variant.
    fn sample_recorder(run_id: u64) -> Recorder {
        let mut r = Recorder::new(64).with_run_id(run_id);
        r.begin_slot(0, 0.0);
        r.record(Event::SlotStart { queries: 2 });
        r.record(Event::Detection { node: 1, corr: 0.875, snr_db: 12.5 });
        r.record(Event::CrcFail { node: 2, corr: 0.25 });
        r.record(Event::Erasure { node: 2 });
        r.record(Event::Retry { node: 2, retries_used: 1 });
        r.record(Event::Backoff { node: 2, until_slot: 5 });
        r.record(Event::Quarantine { node: 2, until_slot: 9, probes_failed: 3 });
        r.record(Event::Eviction { node: 2 });
        r.record(Event::RateStep { node: 1, rate_bps: 2048.0, level: 1 });
        r.record(Event::FaultEnter { node: 2, kind: FaultKind::Dropout });
        r.record(Event::FaultExit { node: 2, kind: FaultKind::Dropout });
        r.record(Event::EnergySample {
            node: 1,
            harvested_j: 0.5,
            power_w: 0.25,
            rectified_v: 1.25,
        });
        r.record(Event::CollisionSlot { participants: 2, condition_number: 4.5 });
        r.record(Event::CollisionFallback { participants: 2, condition_number: 80.0 });
        r.record(Event::StreamVerdict { node: 1, crc_ok: true, snr_db: 12.5 });
        r.record(Event::StreamVerdict { node: 2, crc_ok: false, snr_db: -2.5 });
        r.begin_slot(1, 0.25);
        r.record(Event::SlotEnd { duration_s: 0.25, bits: 64 });
        r
    }

    #[test]
    fn round_trip_preserves_every_variant() {
        let rec = sample_recorder(7);
        let bytes = events_bin(&[&rec]);
        assert_eq!(&bytes[..4], &BIN_MAGIC);
        assert_eq!(bytes.len(), 12 + 8 + rec.len() * BIN_RECORD_LEN);
        let records = decode_events_bin(&bytes).expect("decodes");
        assert_eq!(records.len(), rec.len());
        for (rec_out, te) in records.iter().zip(rec.events()) {
            assert_eq!(rec_out.run, 7);
            assert_eq!(u64::from(rec_out.slot), te.slot);
            assert_eq!(f64::from(rec_out.t_s), te.t_s);
            assert_eq!(rec_out.event, te.event, "variant mangled in transit");
        }
    }

    #[test]
    fn multi_recorder_sections_keep_order_and_attribution() {
        let a = sample_recorder(0);
        let b = sample_recorder(1);
        let bytes = events_bin(&[&a, &b]);
        let records = decode_events_bin(&bytes).expect("decodes");
        assert_eq!(records.len(), a.len() + b.len());
        assert!(records[..a.len()].iter().all(|r| r.run == 0));
        assert!(records[a.len()..].iter().all(|r| r.run == 1));
        // Caller order is file order.
        assert_ne!(events_bin(&[&a, &b]), events_bin(&[&b, &a]));
        // Same content, same bytes.
        assert_eq!(events_bin(&[&a, &b]), events_bin(&[&sample_recorder(0), &sample_recorder(1)]));
    }

    #[test]
    fn decode_rejects_malformed_input() {
        let rec = sample_recorder(0);
        let good = events_bin(&[&rec]);
        assert_eq!(decode_events_bin(&good[..8]), Err("truncated header"));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_events_bin(&bad_magic), Err("bad magic"));
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert_eq!(decode_events_bin(&bad_version), Err("unsupported version"));
        let mut bad_kind = good.clone();
        bad_kind[12 + 8] = 200;
        assert_eq!(decode_events_bin(&bad_kind), Err("unknown event kind"));
        assert_eq!(
            decode_events_bin(&good[..good.len() - 1]),
            Err("truncated section body")
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode_events_bin(&trailing), Err("trailing bytes after last section"));
    }

    /// Every variant with hostile payloads: `f32` narrowing keeps NaN,
    /// saturates ±inf at ±`f32::MAX` and counters at their slot's width
    /// (`u16::MAX` in `aux`, `u64::MAX` through a float slot).
    #[test]
    fn hostile_payloads_round_trip_every_variant() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut rec = Recorder::new(64);
            for e in every_variant(x, u64::MAX) {
                rec.record(e);
            }
            let records = decode_events_bin(&events_bin(&[&rec])).expect("decodes");
            assert_eq!(records.len(), 16);
            for (got, te) in records.iter().zip(rec.events()) {
                let (want, got) = (te.event.layout(), got.event.layout());
                assert_eq!((got.name, got.node), (want.name, want.node));
                for (g, w) in got.fields().zip(want.fields()) {
                    let ok = match (w.value, g.value) {
                        (Value::Float(a), Value::Float(b)) if a.is_nan() => b.is_nan(),
                        (Value::Float(a), Value::Float(b)) => {
                            b.to_bits() == f64::from(f32::MAX).copysign(a).to_bits()
                        }
                        (Value::Int(_), Value::Int(b)) if w.slot == Slot::Aux => {
                            b == u64::from(u16::MAX)
                        }
                        (a, b) => a == b,
                    };
                    assert!(ok, "{} of {}: {:?} -> {:?}", w.key, want.name, w.value, g.value);
                }
            }
        }
    }

    /// Every truncation of a valid file is an error, never a panic.
    #[test]
    fn every_truncation_is_an_error() {
        let good = events_bin(&[&sample_recorder(0), &sample_recorder(1)]);
        for len in 0..good.len() {
            assert!(decode_events_bin(&good[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    /// Every single-byte corruption of the file header, the section
    /// header and the first record decodes to `Ok` or `Err`, never a
    /// panic; the only corruptions that decode are payload bytes.
    #[test]
    fn every_single_byte_corruption_is_ok_or_an_error() {
        let good = events_bin(&[&sample_recorder(0)]);
        for at in 0..12 + 8 + BIN_RECORD_LEN {
            for byte in 0..=u8::MAX {
                let mut bad = good.clone();
                bad[at] = byte;
                match decode_events_bin(&bad) {
                    Ok(records) => assert_eq!(records.len(), sample_recorder(0).len()),
                    Err(e) => assert!(!e.is_empty()),
                }
            }
        }
    }

    /// Seeded random buffers, bare and behind a valid file header, decode
    /// to `Ok` or `Err`, never a panic.
    #[test]
    fn random_buffers_are_ok_or_an_error() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut random_bytes =
            |n: u64| -> Vec<u8> { (0..n).map(|_| next().to_le_bytes()[0]).collect() };
        let header = events_bin(&[]);
        let mut decoded = 0;
        for i in 0..4096u64 {
            // Even buffers: up to 255 random bytes. Odd ones: a valid
            // header over 1–2 sections of 0–3 random records, with 0–3
            // bytes cut off the end.
            let buf = if i % 2 == 0 {
                let len = random_bytes(1)[0];
                random_bytes(u64::from(len))
            } else {
                let mut buf = header[..8].to_vec();
                let sections = 1 + u32::from(random_bytes(1)[0] % 2);
                buf.extend_from_slice(&sections.to_le_bytes());
                for _ in 0..sections {
                    let records = u32::from(random_bytes(1)[0] % 4);
                    buf.extend(random_bytes(4));
                    buf.extend_from_slice(&records.to_le_bytes());
                    buf.extend(random_bytes(u64::from(records) * 24));
                }
                let cut = buf.len() - usize::from(random_bytes(1)[0] % 4);
                buf.truncate(cut);
                buf
            };
            decoded += usize::from(decode_events_bin(&buf).is_ok());
        }
        // Both outcomes occur, so the corpus reaches the record decoder.
        assert!(decoded > 0 && decoded < 4096, "{decoded} of 4096 decoded");
    }

    #[test]
    fn saturating_fields_stay_in_range() {
        let mut r = Recorder::new(8).with_run_id(u64::MAX);
        r.begin_slot(u64::MAX, 1.0e9);
        r.record(Event::Backoff { node: 3, until_slot: u64::MAX });
        r.record(Event::Retry { node: 3, retries_used: u32::MAX });
        let bytes = events_bin(&[&r]);
        let records = decode_events_bin(&bytes).expect("decodes");
        assert_eq!(records[0].run, u32::MAX);
        assert_eq!(records[0].slot, u32::MAX);
        match records[0].event {
            Event::Backoff { until_slot, .. } => assert!(until_slot > 0),
            ref other => panic!("wrong variant: {other:?}"),
        }
        match records[1].event {
            Event::Retry { retries_used, .. } => assert_eq!(retries_used, u32::from(u16::MAX)),
            ref other => panic!("wrong variant: {other:?}"),
        }
    }
}
