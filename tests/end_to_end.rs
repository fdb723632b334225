//! Cross-crate integration tests: the full stack — projector waveform →
//! pool acoustics → recto-piezo front end → MCU firmware → FM0
//! backscatter → hydrophone decoding — exercised end to end.

use pab_core::link::{LinkConfig, LinkSimulator};
use pab_net::packet::{Command, SensorKind, UplinkKind};
use pab_sensors::WaterSample;

#[test]
fn sensor_value_survives_the_whole_stack() {
    // The ground-truth water conditions must come back out of the
    // acoustic link within sensor accuracy.
    let mut water = WaterSample::bench();
    water.ph = 8.1;
    water.temperature_c = 25.0;
    let cfg = LinkConfig {
        water,
        ..Default::default()
    };
    let mut sim = LinkSimulator::new(cfg).unwrap();

    let ph = sim
        .run_query(Command::ReadSensor(SensorKind::Ph))
        .unwrap()
        .packet
        .expect("pH packet")
        .sensor_value()
        .expect("pH value");
    assert!((ph - 8.1).abs() < 0.05, "ph={ph}");

    let temp = sim
        .run_query(Command::ReadSensor(SensorKind::Temperature))
        .unwrap()
        .packet
        .expect("temperature packet")
        .sensor_value()
        .expect("temperature value");
    assert!((temp - 25.0).abs() < 0.1, "temp={temp}");

    let pressure = sim
        .run_query(Command::ReadSensor(SensorKind::Pressure))
        .unwrap()
        .packet
        .expect("pressure packet")
        .sensor_value()
        .expect("pressure value");
    assert!((pressure - 1013.25).abs() < 2.0, "pressure={pressure}");
}

#[test]
fn sequence_resets_on_each_power_cycle() {
    // A battery-free node cold-starts on every illumination, so its RAM
    // (including the sequence counter) resets: two independent exchanges
    // both carry seq 0. Retransmission bookkeeping therefore lives at the
    // reader (the MAC's retry policy), exactly as in RFID systems.
    let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
    let seq0 = sim
        .run_query(Command::Ping)
        .unwrap()
        .packet
        .expect("first ack")
        .seq;
    let seq1 = sim
        .run_query(Command::Ping)
        .unwrap()
        .packet
        .expect("second ack")
        .seq;
    assert_eq!(seq0, 0);
    assert_eq!(seq1, 0);
}

#[test]
fn bitrate_command_changes_the_uplink_rate() {
    // Commanding a new divider over the air must change the next
    // response's rate — and the ACK itself already uses the new rate.
    let cfg = LinkConfig {
        bitrate_target_bps: 2_048.0,
        ..Default::default()
    };
    let mut sim = LinkSimulator::new(cfg).unwrap();
    let report = sim.run_query(Command::SetBitrateDivider(16)).unwrap();
    // divider 16 → 1024 bps; the link sim tracks the commanded divider
    // for its decode only via config, so decode the *node's* actual rate:
    assert!(
        (report.node_output.bitrate_bps - 1024.0).abs() < 0.5,
        "node bitrate {}",
        report.node_output.bitrate_bps
    );
}

#[test]
fn acks_have_ack_kind_and_empty_payload() {
    let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
    let packet = sim
        .run_query(Command::Ping)
        .unwrap()
        .packet
        .expect("ack packet");
    assert_eq!(packet.kind, UplinkKind::Ack);
    assert!(packet.payload.is_empty());
    assert_eq!(packet.sensor_value(), None);
}

#[test]
fn more_ambient_noise_reduces_snr() {
    // Raising the ambient noise floor must lower the measured uplink SNR
    // (multipath makes distance comparisons at single positions
    // fluctuate, so noise is the controlled variable here).
    let quiet = LinkConfig::default();
    let loud = LinkConfig {
        noise_scale: 100_000.0,
        ..Default::default()
    };
    let snr_quiet = LinkSimulator::new(quiet)
        .unwrap()
        .run_query(Command::Ping)
        .unwrap()
        .snr_db;
    let snr_loud = LinkSimulator::new(loud)
        .unwrap()
        .run_query(Command::Ping)
        .unwrap()
        .snr_db;
    // At 100,000x the tank's ambient floor, the link is noise-limited
    // (at quiet-tank levels it is ISI/multipath-limited instead).
    assert!(
        snr_quiet > snr_loud + 3.0,
        "quiet {snr_quiet} dB should exceed loud {snr_loud} dB"
    );
}

#[test]
fn inventory_round_over_real_acoustics() {
    // MAC + PHY together: a fixed-retry MAC polls two nodes on the
    // paper's two channels, one uplink per slot; every scheduled query is
    // carried over the full acoustic simulation.
    use pab_net::mac::{ChannelPlan, MacPolicy, NodeEntry, ResilientMac, RxObservation};

    let policy = MacPolicy::FixedRetry { max_retries: 1 };
    let mut mac = ResilientMac::new(ChannelPlan::paper_two_channel(), policy, 2).unwrap();
    mac.register(NodeEntry { addr: 1, channel: 0 }).unwrap();
    mac.register(NodeEntry { addr: 2, channel: 1 }).unwrap();

    // One link simulator per node (each node sits on its own channel).
    let mut sims: std::collections::BTreeMap<u8, LinkSimulator> =
        std::collections::BTreeMap::new();
    for (addr, f) in [(1u8, 15_000.0), (2u8, 18_000.0)] {
        let cfg = LinkConfig {
            node_addr: addr,
            carrier_hz: f,
            f_match_hz: f,
            ..Default::default()
        };
        sims.insert(addr, LinkSimulator::new(cfg).unwrap());
    }

    while !mac.is_complete() {
        assert!(mac.slots_used() < 20, "inventory did not converge");
        for q in mac.next_slot_plan(Command::Ping, |_| true).queries {
            let sim = sims.get_mut(&q.query.dest).unwrap();
            let report = sim.run_query(Command::Ping).unwrap();
            let obs = if report.crc_ok {
                RxObservation::Delivered {
                    margin: report.preamble_corr,
                }
            } else {
                RxObservation::CrcFailed {
                    margin: report.preamble_corr,
                }
            };
            mac.record(q.query.dest, obs).unwrap();
        }
    }
    assert_eq!(mac.stats(1).0, 2);
    assert_eq!(mac.stats(2).0, 2);
}

#[test]
fn node_power_is_under_a_milliwatt() {
    // The headline claim: near-zero-power communication. The node's
    // average draw during a full exchange stays well under 1 mW.
    let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
    let report = sim.run_query(Command::Ping).unwrap();
    assert!(report.crc_ok);
    assert!(
        report.node_power_w < 1e-3,
        "node power {} W",
        report.node_power_w
    );
    // And above the LPM3 floor, since it did decode and transmit.
    assert!(report.node_power_w > 100e-6);
}
