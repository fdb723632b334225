//! Exporters: flatten one or more recorders into CSV / JSONL text.
//!
//! Output is a pure function of the recorder contents and the order in
//! which recorders are passed. The sweep engine passes per-point recorders
//! in point-index order, which is the whole byte-identity argument for
//! parallel vs serial runs: nothing here ever consults a clock, a thread
//! id, or a hash map with randomized iteration order.

use crate::event::Value;
use crate::fmt_f64;
use crate::recorder::Recorder;

/// Column header of [`events_csv`]. Every event type writes the columns
/// it has and leaves the rest empty, so the one file is directly
/// plottable per event type without a join.
pub const EVENTS_CSV_HEADER: &str = "run,slot,t_s,node,event,detail,corr,snr_db,rate_bps,until_slot,duration_s,bits,harvested_j,power_w,rectified_v,condition";

/// Columns of [`EVENTS_CSV_HEADER`] before the payload columns.
const CSV_PREFIX_COLUMNS: usize = 5;

/// A payload value as a CSV cell.
fn csv_value(value: Value) -> String {
    match value {
        Value::Int(x) => x.to_string(),
        Value::Float(x) => fmt_f64(x),
        Value::Flag(b) => u8::from(b).to_string(),
        Value::Kind(k) => k.name().to_string(),
    }
}

/// Render every retained event of every recorder as CSV, recorder order
/// then event (recording) order. Header included.
pub fn events_csv(recorders: &[&Recorder]) -> String {
    let payload: Vec<&str> = EVENTS_CSV_HEADER.split(',').skip(CSV_PREFIX_COLUMNS).collect();
    let mut out = String::with_capacity(
        EVENTS_CSV_HEADER.len() + 1 + recorders.iter().map(|r| r.len() * 48).sum::<usize>(),
    );
    out.push_str(EVENTS_CSV_HEADER);
    out.push('\n');
    for rec in recorders {
        for te in rec.events() {
            let layout = te.event.layout();
            let mut cells = vec![String::new(); payload.len()];
            for f in layout.fields() {
                let col = payload.iter().position(|c| *c == f.col);
                if let Some(cell) = col.and_then(|i| cells.get_mut(i)) {
                    *cell = csv_value(f.value);
                }
            }
            let node = layout.node.map(|n| n.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                rec.run_id(),
                te.slot,
                fmt_f64(te.t_s),
                node,
                layout.name,
                cells.join(","),
            ));
        }
    }
    out
}

/// Format an `f64` as a JSON value: plain number when finite, quoted
/// string otherwise (JSON has no NaN/Infinity literals).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        fmt_f64(x)
    } else {
        format!("\"{}\"", fmt_f64(x))
    }
}

/// A payload value as a JSON value.
fn json_value(value: Value) -> String {
    match value {
        Value::Int(x) => x.to_string(),
        Value::Float(x) => json_f64(x),
        Value::Flag(b) => b.to_string(),
        Value::Kind(k) => format!("\"{}\"", k.name()),
    }
}

/// Render every retained event as one JSON object per line, with only the
/// fields that event carries. Key order is fixed per event type, so the
/// output is byte-stable.
pub fn events_jsonl(recorders: &[&Recorder]) -> String {
    let mut out = String::new();
    for rec in recorders {
        for te in rec.events() {
            let layout = te.event.layout();
            out.push_str(&format!(
                "{{\"run\":{},\"slot\":{},\"t_s\":{},\"event\":\"{}\"",
                rec.run_id(),
                te.slot,
                json_f64(te.t_s),
                layout.name,
            ));
            if let Some(node) = layout.node {
                out.push_str(&format!(",\"node\":{node}"));
            }
            for f in layout.fields() {
                out.push_str(&format!(",\"{}\":{}", f.key, json_value(f.value)));
            }
            out.push_str("}\n");
        }
    }
    out
}

/// Column header of [`summary_csv`].
pub const SUMMARY_CSV_HEADER: &str = "run,kind,name,value";

/// Render the aggregate half of each recorder — counters, ring-overflow
/// and clock accounting, histogram statistics and per-bucket counts — as
/// `run,kind,name,value` rows in a fixed order.
pub fn summary_csv(recorders: &[&Recorder]) -> String {
    let mut out = String::from(SUMMARY_CSV_HEADER);
    out.push('\n');
    for rec in recorders {
        let run = rec.run_id();
        out.push_str(&format!("{run},meta,events_dropped,{}\n", rec.events_dropped()));
        out.push_str(&format!("{run},meta,events_retained,{}\n", rec.len()));
        out.push_str(&format!("{run},meta,clock_regressions,{}\n", rec.clock_regressions()));
        for (name, v) in rec.counters().iter() {
            out.push_str(&format!("{run},counter,{name},{v}\n"));
        }
        for (name, h) in rec.histograms() {
            out.push_str(&format!("{run},hist,{name}.lo,{}\n", fmt_f64(h.lo())));
            out.push_str(&format!("{run},hist,{name}.hi,{}\n", fmt_f64(h.hi())));
            out.push_str(&format!("{run},hist,{name}.total,{}\n", h.total()));
            out.push_str(&format!("{run},hist,{name}.mean,{}\n", fmt_f64(h.mean())));
            out.push_str(&format!("{run},hist,{name}.underflow,{}\n", h.underflow()));
            out.push_str(&format!("{run},hist,{name}.overflow,{}\n", h.overflow()));
            for (i, c) in h.bucket_counts().iter().enumerate() {
                out.push_str(&format!("{run},hist,{name}.bucket{i},{c}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{every_variant, Event, FaultKind};

    fn sample_recorder(run_id: u64) -> Recorder {
        let mut r = Recorder::new(64).with_run_id(run_id);
        r.begin_slot(0, 0.0);
        r.record(Event::SlotStart { queries: 2 });
        r.record(Event::Detection { node: 1, corr: 0.875, snr_db: 12.5 });
        r.record(Event::FaultEnter { node: 2, kind: FaultKind::Dropout });
        r.record(Event::Erasure { node: 2 });
        r.record(Event::Quarantine { node: 2, until_slot: 9, probes_failed: 0 });
        r.record(Event::RateStep { node: 1, rate_bps: 2048.0, level: 1 });
        r.record(Event::EnergySample {
            node: 1,
            harvested_j: 2.5e-6,
            power_w: 1e-5,
            rectified_v: 1.25,
        });
        r.record(Event::CollisionSlot { participants: 2, condition_number: 4.5 });
        r.record(Event::StreamVerdict { node: 1, crc_ok: true, snr_db: 14.5 });
        r.record(Event::CollisionFallback { participants: 2, condition_number: 80.0 });
        r.begin_slot(1, 0.25);
        r.record(Event::SlotEnd { duration_s: 0.25, bits: 64 });
        r.observe("snr_db", 0.0, 30.0, 6, 12.5);
        r
    }

    #[test]
    fn csv_shape_and_determinism() {
        let a = sample_recorder(0);
        let b = sample_recorder(0);
        let csv = events_csv(&[&a]);
        assert_eq!(csv, events_csv(&[&b]), "same content => same bytes");
        assert_eq!(csv.lines().next(), Some(EVENTS_CSV_HEADER));
        // Every variant's row is exactly as wide as the header.
        let all = events_csv(&[&a, &every_variant_recorder(0.5, 3)]);
        assert_eq!(all.lines().count(), 1 + a.len() + 16);
        let cols = EVENTS_CSV_HEADER.split(',').count();
        for line in all.lines() {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(csv.contains("0,0,0,1,detection,,0.875,12.5,,,,,,,"));
        assert!(csv.contains("0,0,0,2,fault_enter,dropout,,,,,,,,,"));
        assert!(csv.contains("0,0,0,1,rate_step,1,,,2048,,,,,,"));
        assert!(csv.contains("0,1,0.25,,slot_end,,,,,,0.25,64,,,,"));
        assert!(csv.contains("0,0,0,,collision_slot,2,,,,,,,,,,4.5"));
        assert!(csv.contains("0,0,0,1,stream_verdict,1,,14.5,,,,,,,,"));
        assert!(csv.contains("0,0,0,,collision_fallback,2,,,,,,,,,,80"));
    }

    /// Every variant, hostile payloads included, as one recorder.
    fn every_variant_recorder(x: f64, n: u64) -> Recorder {
        let mut r = Recorder::new(64);
        for e in every_variant(x, n) {
            r.record(e);
        }
        r
    }

    /// Parse an exported cell back into a value of `like`'s type (JSON
    /// quotes non-finite floats and fault kinds).
    fn parse_like(like: Value, text: &str) -> Option<Value> {
        let bare = text.trim_matches('"');
        Some(match like {
            Value::Int(_) => Value::Int(bare.parse().ok()?),
            Value::Float(_) => Value::Float(bare.parse().ok()?),
            Value::Flag(_) => Value::Flag(matches!(bare, "1" | "true")),
            Value::Kind(_) => Value::Kind(
                [FaultKind::Burst, FaultKind::Fade, FaultKind::Dropout, FaultKind::Drift]
                    .into_iter()
                    .find(|k| k.name() == bare)?,
            ),
        })
    }

    /// Value equality with NaN equal to itself.
    fn same(a: Value, b: Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan(),
            _ => a == b,
        }
    }

    /// NaN, ±inf and saturated counters of all 16 variants survive the
    /// CSV and JSONL exporters: every field parses back to its value.
    #[test]
    fn hostile_payloads_round_trip_through_the_text_exporters() {
        let header: Vec<&str> = EVENTS_CSV_HEADER.split(',').collect();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rec = every_variant_recorder(x, u64::MAX);
            let csv = events_csv(&[&rec]);
            let jsonl = events_jsonl(&[&rec]);
            let rows = csv.lines().skip(1).zip(jsonl.lines());
            for (te, (row, line)) in rec.events().zip(rows) {
                let cells: Vec<&str> = row.split(',').collect();
                for f in te.event.layout().fields() {
                    let col = header.iter().position(|c| *c == f.col).expect("known column");
                    let got = parse_like(f.value, cells[col]);
                    assert!(got.is_some_and(|v| same(v, f.value)), "csv {}: {row}", f.key);
                    let key = format!("\"{}\":", f.key);
                    let at = line.find(&key).expect("json key present") + key.len();
                    let text = line[at..].split([',', '}']).next().unwrap_or_default();
                    let got = parse_like(f.value, text);
                    assert!(got.is_some_and(|v| same(v, f.value)), "jsonl {}: {line}", f.key);
                }
            }
        }
    }

    #[test]
    fn jsonl_lines_are_balanced_objects() {
        let a = sample_recorder(3);
        let jsonl = events_jsonl(&[&a]);
        assert_eq!(jsonl.lines().count(), a.len());
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced braces: {line}"
            );
            assert!(line.contains("\"run\":3"));
        }
        assert!(jsonl.contains("\"event\":\"energy_sample\""));
        assert!(jsonl.contains("\"harvested_j\":0.0000025"));
        assert!(jsonl.contains("\"event\":\"collision_slot\",\"participants\":2,\"condition_number\":4.5"));
        assert!(jsonl.contains("\"event\":\"stream_verdict\",\"node\":1,\"crc_ok\":true,\"snr_db\":14.5"));
        assert!(jsonl.contains("\"event\":\"collision_fallback\""));
    }

    #[test]
    fn recorder_order_is_export_order() {
        let a = sample_recorder(0);
        let b = sample_recorder(1);
        let ab = events_csv(&[&a, &b]);
        let ba = events_csv(&[&b, &a]);
        assert_ne!(ab, ba, "caller-supplied order must be honored");
        let first_data_row = ab.lines().nth(1).unwrap();
        assert!(first_data_row.starts_with("0,"), "run 0 first");
    }

    #[test]
    fn summary_covers_counters_and_histograms() {
        let a = sample_recorder(0);
        let s = summary_csv(&[&a]);
        assert!(s.starts_with(SUMMARY_CSV_HEADER));
        assert!(s.contains("0,meta,events_dropped,0\n"));
        assert!(s.contains("0,counter,detection,1\n"));
        assert!(s.contains("0,hist,snr_db.total,1\n"));
        assert!(s.contains("0,hist,snr_db.bucket2,1\n"), "12.5 in [10,15) of 6x5-wide: {s}");
    }
}
