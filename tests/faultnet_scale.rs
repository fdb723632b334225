//! N-node slot-engine determinism suite: the fault-injected network must
//! produce byte-identical results whatever `parallel_slots` says (it no
//! longer has an effect: a slot's exchanges are time-shared and run in
//! order), and whether or not a trace recorder is attached; and a link's
//! cached slot engine must reproduce its uncached reference exchange bit
//! for bit. These are the
//! load-bearing invariants behind the slot engine's perf work — a cache
//! or a thread pool that changed a single bit would silently invalidate
//! every sweep result.

use pab_channel::{BroadbandBurst, DriftRamp, DropoutWindow, FaultSchedule, PathFade};
use pab_core::faultnet::{FaultNetConfig, FaultNetReport, FaultNetSimulator};
use pab_core::link::{LinkConfig, LinkSimulator};
use pab_net::packet::{Command, SensorKind};
use pab_telemetry::export::{events_csv, events_jsonl, summary_csv};
use pab_telemetry::{events_bin, Recorder};

/// An N-node network with enough impairment to exercise every slot-engine
/// path: a burst over the first exchanges (CRC failures, retries), one
/// permanently browned-out node (erasures, quarantine, eviction), and
/// healthy nodes in between (cache hits).
fn scale_cfg(n: usize) -> FaultNetConfig {
    let mut cfg = FaultNetConfig::with_nodes(n).expect("valid node count");
    cfg.per_node_packets = 1;
    cfg.max_slots = 6 * n as u64;
    cfg.fs_hz = 96_000.0;
    cfg.seed = 29;
    cfg.nodes[1].faults = FaultSchedule::new(29)
        .with_burst(BroadbandBurst {
            start_s: 0.0,
            duration_s: 0.7,
            rms_pa: 1_500.0,
        })
        .expect("valid burst");
    cfg.nodes[n - 1].faults = FaultSchedule::new(31)
        .with_dropout(DropoutWindow {
            start_s: 0.0,
            duration_s: f64::INFINITY,
        })
        .expect("valid dropout");
    cfg
}

fn run_traced(mut cfg: FaultNetConfig, parallel: bool) -> (FaultNetReport, Recorder) {
    cfg.parallel_slots = parallel;
    let mut tel = Recorder::new(4096).with_run_id(0);
    let report = FaultNetSimulator::new(cfg)
        .expect("valid config")
        .run_with_recorder(Some(&mut tel))
        .expect("run succeeds");
    (report, tel)
}

/// Both `parallel_slots` settings must agree bit-for-bit — on the
/// report, on the packet digest, and on every telemetry export format
/// (CSV, JSONL, summary, binary) — at both N=4 and N=8.
#[test]
fn parallel_matches_serial_at_n4_and_n8() {
    for n in [4usize, 8] {
        let (rep_par, tel_par) = run_traced(scale_cfg(n), true);
        let (rep_ser, tel_ser) = run_traced(scale_cfg(n), false);

        assert_eq!(rep_par, rep_ser, "n={n}: parallel report != serial report");
        assert_eq!(
            rep_par.bit_digest, rep_ser.bit_digest,
            "n={n}: packet digests diverged"
        );

        let csv_par = events_csv(&[&tel_par]);
        let csv_ser = events_csv(&[&tel_ser]);
        assert!(!csv_par.trim().is_empty());
        assert_eq!(csv_par, csv_ser, "n={n}: trace CSV not byte-identical");
        assert_eq!(
            events_jsonl(&[&tel_par]),
            events_jsonl(&[&tel_ser]),
            "n={n}: trace JSONL not byte-identical"
        );
        assert_eq!(
            summary_csv(&[&tel_par]),
            summary_csv(&[&tel_ser]),
            "n={n}: counter/histogram summary not byte-identical"
        );
        assert_eq!(
            events_bin(&[&tel_par]),
            events_bin(&[&tel_ser]),
            "n={n}: binary trace not byte-identical"
        );

        // The run must actually have exercised the interesting paths:
        // every node polled, the dead node erased, the burst retried.
        assert_eq!(rep_par.per_node.len(), n);
        let names: Vec<&str> = tel_par.events().map(|e| e.event.name()).collect();
        assert!(names.contains(&"erasure"), "n={n}: no erasures recorded");
        assert!(names.contains(&"slot_end"), "n={n}: no slot boundaries");
    }
}

/// The link's memo is a pure memoisation: a link's slot engine must
/// decode, exchange for exchange, exactly what an identical link's
/// uncached reference (`run_query_to_faulted`) decodes. The sequence
/// runs a saturating drift ramp (new oscillator offsets, then a steady
/// one), a burst, a fade (cache bypass, twice on one wave key, so the
/// bypass's own memo both fills and hits), a dropout (erasure), a second
/// fade overlapping a second dropout (browned-out bypasses, one of them
/// filling a new wave key's fade legs) and `ReadSensor` queries, so memo
/// misses, memo hits and bypasses all occur.
#[test]
fn waveform_cache_is_bitwise_transparent() {
    let faults = FaultSchedule::new(17)
        .with_drift(DriftRamp {
            rate_hz_per_s: 2.0,
            max_abs_hz: 10.0,
        })
        .and_then(|f| {
            f.with_burst(BroadbandBurst {
                start_s: 10.0,
                duration_s: 1.0,
                rms_pa: 0.5,
            })
        })
        .and_then(|f| {
            f.with_fade(PathFade {
                start_s: 20.0,
                duration_s: 2.0,
                floor_ratio: 0.3,
            })
        })
        .and_then(|f| {
            f.with_dropout(DropoutWindow {
                start_s: 30.0,
                duration_s: 1.0,
            })
        })
        .and_then(|f| {
            f.with_fade(PathFade {
                start_s: 50.0,
                duration_s: 2.0,
                floor_ratio: 0.3,
            })
        })
        .and_then(|f| {
            f.with_dropout(DropoutWindow {
                start_s: 50.5,
                duration_s: 1.0,
            })
        })
        .expect("valid schedule");
    let ph = Command::ReadSensor(SensorKind::Ph);
    let sequence = [
        (0.0, Command::Ping),
        (6.0, Command::Ping),
        (7.0, Command::Ping),
        (8.0, ph),
        (9.0, ph),
        (10.2, Command::Ping),
        (20.5, Command::Ping),
        // Same wave key inside the fade: the bypass reuses the incident
        // field and direct pressure the exchange above memoized.
        (20.8, Command::Ping),
        (21.0, ph),
        (30.2, Command::Ping),
        (30.5, Command::Ping),
        (40.0, Command::Ping),
        // Inside both the second fade and the second dropout: browned-out
        // bypasses, the last on a wave key no fade has seen yet.
        (50.6, Command::Ping),
        (50.9, Command::Ping),
        (51.2, Command::ReadSensor(SensorKind::Temperature)),
    ];
    let mut cached = LinkSimulator::new(LinkConfig::default()).expect("valid config");
    let mut reference = LinkSimulator::new(LinkConfig::default()).expect("valid config");
    let mut erasures = 0;
    for (t_start_s, command) in sequence {
        let (got, exchange_samples) = cached
            .slot_exchange(7, command, &faults, t_start_s, None)
            .expect("slot exchange");
        let want = reference
            .run_query_to_faulted(7, command, &faults, t_start_s)
            .expect("reference exchange");
        let tag = format!("{command:?} at {t_start_s} s");
        assert_eq!(got.packet, want.packet, "{tag}");
        assert_eq!(got.crc_ok, want.crc_ok, "{tag}");
        assert_eq!(got.preamble_found, want.preamble_found, "{tag}");
        assert_eq!(got.preamble_corr.to_bits(), want.preamble_corr.to_bits(), "{tag}");
        assert_eq!(got.snr_db.to_bits(), want.snr_db.to_bits(), "{tag}");
        assert_eq!(got.power_w.to_bits(), want.node_power_w.to_bits(), "{tag}");
        assert_eq!(got.rectified_v.to_bits(), want.node_rectified_v.to_bits(), "{tag}");
        assert_eq!(exchange_samples, want.received.len(), "{tag}");
        erasures += usize::from(!got.preamble_found);
    }
    assert!(erasures >= 1, "the dropout must erase");
    let stats = cached.slot_stats();
    assert!(stats.exchange_hits > 0 && stats.wave_hits > 0, "{stats:?}");
    assert!(stats.exchange_misses > 0 && stats.wave_misses > 0, "{stats:?}");
    assert_eq!(stats.bypasses, 6, "{stats:?}");
}

/// Untraced runs must not depend on tracing either: attaching a recorder
/// is observation, not perturbation.
#[test]
fn tracing_does_not_perturb_the_network() {
    let (rep_traced, _tel) = run_traced(scale_cfg(4), true);
    let rep_plain = FaultNetSimulator::new(scale_cfg(4))
        .expect("valid config")
        .run()
        .expect("run succeeds");
    assert_eq!(rep_traced, rep_plain, "recorder perturbed the run");
}
