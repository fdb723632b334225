//! Integration tests pinning the paper's headline claims — each test is a
//! miniature version of one evaluation figure, asserting the *shape* the
//! paper reports (who wins, what grows, where the knee is).

use pab_analog::RectoPiezo;
use pab_channel::{Pool, Position};
use pab_core::baseline::{compare, ActiveAcousticNode, BackscatterEnergyModel};
use pab_core::collision_group::{CollisionGroupSimulator, MultiNodeConfig, SinrReport};
use pab_core::link::{LinkConfig, LinkSimulator};
use pab_core::powerup::max_powerup_distance_m;
use pab_core::node::PabNode;
use pab_core::CoreError;
use pab_mcu::{PowerProfile, PowerState};
use pab_net::packet::Command;
use pab_piezo::Transducer;

/// Fig. 3: recto-piezos matched at different frequencies have
/// complementary harvesting bands crossing the 2.5 V threshold.
#[test]
fn claim_rectopiezo_fdma_bands() {
    let n15 = RectoPiezo::design(Transducer::pab_node(), 15_000.0).unwrap();
    let n18 = RectoPiezo::design(Transducer::pab_node(), 18_000.0).unwrap();
    let p = 1_020.0;
    // Each node exceeds the power-up threshold on its own channel...
    assert!(n15.rectified_voltage_v(p, 15_000.0, 1e6) > 2.5);
    assert!(n18.rectified_voltage_v(p, 18_000.0, 1e6) > 2.5);
    // ...and each node's own channel beats the other's there.
    assert!(
        n15.rectified_voltage_v(p, 15_000.0, 1e6) > n18.rectified_voltage_v(p, 15_000.0, 1e6)
    );
    assert!(
        n18.rectified_voltage_v(p, 18_000.0, 1e6) > n15.rectified_voltage_v(p, 18_000.0, 1e6)
    );
}

/// Fig. 8: SNR declines as bitrate rises, with a sharp drop past ~3 kbps.
#[test]
fn claim_snr_declines_with_bitrate() {
    let snr_at = |bps: f64| {
        let cfg = LinkConfig {
            bitrate_target_bps: bps,
            ..Default::default()
        };
        LinkSimulator::new(cfg)
            .unwrap()
            .run_query(Command::Ping)
            .unwrap()
            .snr_db
    };
    let low = snr_at(819.2);
    let mid = snr_at(2_048.0);
    let beyond = snr_at(5_461.0); // past the paper's 3 kbps knee
    assert!(low > mid, "low-rate {low} dB should exceed mid-rate {mid} dB");
    assert!(
        mid - beyond > 3.0,
        "no cliff past 3 kbps: mid {mid} dB vs beyond {beyond} dB"
    );
}

/// Fig. 9: power-up range grows with drive voltage, and the corridor
/// (Pool B) outranges Pool A once voltage is high enough.
#[test]
fn claim_range_vs_voltage_and_corridor_gain() {
    let node = PabNode::new(1, 15_000.0).unwrap();
    let proj_b = Position::new(0.2, 0.6, 0.5);
    let pool_b = Pool::pool_b();
    let r50 =
        max_powerup_distance_m(&pool_b, &node, &proj_b, 50.0, 15_000.0, 4, 0.1).unwrap();
    let r350 =
        max_powerup_distance_m(&pool_b, &node, &proj_b, 350.0, 15_000.0, 4, 0.1).unwrap();
    assert!(r350 > r50, "no growth: {r50} -> {r350}");
    // At 350 V the corridor approaches the paper's 10 m.
    assert!(r350 > 6.0, "corridor range only {r350} m");
    // Pool A is capped by its 4 m length.
    let pool_a = Pool::pool_a();
    let proj_a = Position::new(0.2, 1.5, 0.6);
    let ra350 =
        max_powerup_distance_m(&pool_a, &node, &proj_a, 350.0, 15_000.0, 4, 0.1).unwrap();
    assert!(r350 > ra350, "corridor should outrange pool A at 350 V");
}

/// Fig. 11: idle 124 µW, backscattering ~500 µW, rate-independent.
#[test]
fn claim_power_figures() {
    let p = PowerProfile::pab_node();
    let idle = p.state_power_w(PowerState::LowPower3);
    let active = p.state_power_w(PowerState::Active);
    assert!((idle - 124e-6).abs() < 5e-6, "idle {idle}");
    assert!((450e-6..600e-6).contains(&active), "active {active}");
    // Switching energy at 3 kbps adds well under 5% (rate-independence).
    let toggle_power = p.toggle_energy_j() * 2.0 * 3_000.0;
    assert!(toggle_power < 0.05 * active);
}

/// §2: backscatter beats the carrier-generating baseline by 2–3 orders of
/// magnitude in energy per bit and throughput.
#[test]
fn claim_orders_of_magnitude_over_active_baseline() {
    let cmp = compare(
        &ActiveAcousticNode::fish_tag(),
        &BackscatterEnergyModel::pab_node(),
        535e-6,
    );
    assert!((100.0..100_000.0).contains(&cmp.energy_per_bit_ratio));
    assert!((100.0..100_000.0).contains(&cmp.throughput_ratio));
}

/// Abstract: single-link throughputs "up to 3 kbps" — the quantized
/// 2.73 kbps divider-6 rate decodes end to end at short range.
#[test]
fn claim_three_kbps_class_link_works() {
    let cfg = LinkConfig {
        bitrate_target_bps: 2_730.0,
        ..Default::default()
    };
    let mut sim = LinkSimulator::new(cfg).unwrap();
    let report = sim.run_query(Command::Ping).unwrap();
    assert!((report.bitrate_bps - 2730.67).abs() < 1.0);
    assert!(report.crc_ok, "2.7 kbps link failed (snr {})", report.snr_db);
}

/// The Fig. 10 experiment at `cfg`: train both nodes, then collide their
/// addressed queries.
fn fig10_report(cfg: &MultiNodeConfig) -> SinrReport {
    CollisionGroupSimulator::with_config(cfg)
        .unwrap()
        .run(&cfg.addressed_queries(Command::Ping))
        .unwrap()
}

/// Fig. 10: at a low-interference placement zero-forcing mainly costs a
/// little noise enhancement; both packets decode and SINR stays > 3 dB.
#[test]
fn claim_fig10_benign_placement_decodes_collision() {
    let report = fig10_report(&MultiNodeConfig::fig10_pair());
    for i in 0..2 {
        let (before, after) = (report.sinr_before_db[i], report.sinr_after_db[i]);
        assert!(after > 3.0, "stream {i} after-projection SINR {after}");
        assert!(after > before - 2.0, "ZF lost more than noise-enhancement margin");
    }
    assert!(report.crc_ok.iter().all(|&ok| ok), "crc {:?}", report.crc_ok);
    assert!(report.condition_number.is_finite());
}

/// Fig. 10: at an interference-heavy placement the naive per-band decoder
/// sees the worst stream below the paper's 3 dB line; projection improves
/// it and both collided packets decode.
#[test]
fn claim_fig10_projection_rescues_interference_heavy_placement() {
    let mut cfg = MultiNodeConfig::fig10_pair();
    cfg.nodes[0].position = Position::new(1.0, 1.3, 0.6);
    cfg.nodes[1].position = Position::new(1.7, 1.8, 0.5);
    cfg.hydrophone_pos = Position::new(1.3, 2.0, 0.7);
    let report = fig10_report(&cfg);
    let worst = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let worst_before = worst(&report.sinr_before_db);
    let worst_after = worst(&report.sinr_after_db);
    assert!(worst_before < 3.0, "placement not interference-heavy: {worst_before}");
    // Projection rescues the interference-limited stream (the clean
    // stream may pay a small noise-enhancement tax).
    assert!(
        worst_after > worst_before,
        "worst stream not improved: {worst_after} <= {worst_before}"
    );
    assert!(report.crc_ok.iter().all(|&ok| ok), "crc {:?}", report.crc_ok);
}

/// §8 + footnote 7: three nodes on per-channel ceramics give a finite,
/// invertible 3×3 matrix and a 3-way broadcast collision decodes.
#[test]
fn claim_three_ceramics_decode_three_way_collision() {
    let cfg = MultiNodeConfig::default();
    let report = CollisionGroupSimulator::with_config(&cfg)
        .unwrap()
        .run(&cfg.broadcast_queries(Command::Ping))
        .unwrap();
    assert_eq!(report.crc_ok.len(), 3);
    for (i, &ok) in report.crc_ok.iter().enumerate() {
        assert!(ok, "stream {i} failed (after-ZF SINR {:.1} dB)", report.sinr_after_db[i]);
    }
    assert!(report.condition_number.is_finite());
}

/// §8 tunability limit: the same three channels pulled to 13/15.5/18 kHz
/// on one ~16.5 kHz ceramic type leave a node unable to complete an
/// exchange.
#[test]
fn claim_one_ceramic_cannot_host_three_channels() {
    let mut cfg = MultiNodeConfig::default();
    for n in &mut cfg.nodes {
        n.ceramic_resonance_hz = None;
    }
    cfg.nodes[0].carrier_hz = 13_000.0;
    cfg.nodes[2].carrier_hz = 18_000.0;
    let result = CollisionGroupSimulator::with_config(&cfg)
        .unwrap()
        .run(&cfg.broadcast_queries(Command::Ping));
    assert!(
        matches!(result, Err(CoreError::NodeNotPoweredUp)),
        "expected NodeNotPoweredUp, got {result:?}"
    );
}
