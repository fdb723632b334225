//! Decode-level regression for the decimating front-end: the
//! mix→decimate→filter pipeline must decode exactly what the pinned
//! digests record.
//!
//! Two layers of evidence:
//!
//! * The lean [`decode_uplink_verdict`] and the diagnostic
//!   [`decode_uplink`] must agree bit-for-bit across the full FM0 rate
//!   ladder at both 96 kHz and 192 kHz, through the one polyphase
//!   kernel at every factor the ladder reaches (the 256 bps rung at
//!   192 kHz reaches decimation 23).
//! * The canonical faultnet and collision workloads at N ∈ {2, 4, 8}
//!   must reproduce their pinned packet digests — the same values
//!   `dump_identity` snapshots, so any numerical drift in the front-end
//!   shows up as a digest mismatch here before it reaches a byte-diff.
//!
//! [`decode_uplink`]: pab_core::receiver::Receiver::decode_uplink
//! [`decode_uplink_verdict`]: pab_core::receiver::Receiver::decode_uplink_verdict

use pab_channel::{BroadbandBurst, DropoutWindow, FaultSchedule};
use pab_core::faultnet::{FaultNetConfig, FaultNetSimulator};
use pab_core::receiver::Receiver;
use pab_net::mac::{AdaptiveConfig, CollisionPolicy, Concurrency, MacPolicy, RateLadder};
use pab_net::packet::UplinkPacket;
use pab_net::fm0;

/// Synthesise a clean backscatter waveform for one packet (the same
/// construction the receiver's unit tests use).
fn synth_waveform(
    packet: &UplinkPacket,
    bitrate: f64,
    fs_hz: f64,
    carrier: f64,
) -> Vec<f64> {
    let halves = fm0::encode(&packet.to_bits().unwrap(), false);
    let spb = fs_hz / (2.0 * bitrate);
    let lead = (0.01 * fs_hz) as usize;
    let n = lead + (halves.len() as f64 * spb) as usize + lead;
    let mut w = Vec::with_capacity(n);
    let mut nco = pab_dsp::mix::Nco::new(carrier, fs_hz);
    for i in 0..n {
        let amp = if i < lead {
            0.4
        } else {
            let k = ((i - lead) as f64 / spb) as usize;
            if k < halves.len() && halves[k] {
                1.0
            } else {
                0.4
            }
        };
        w.push(amp * nco.next_sample());
    }
    w
}

#[test]
fn verdict_and_decoded_paths_agree_across_the_rate_ladder() {
    let p = UplinkPacket::sensor_reading(7, 3, pab_net::packet::SensorKind::Ph, 7.012);
    for fs_hz in [96_000.0, 192_000.0] {
        let rx = Receiver::new(1.0e-3, fs_hz);
        // The FM0 default ladder (RateLadder::fm0_default's rungs).
        for bitrate in [32_768.0 / 12.0, 2048.0, 1024.0, 512.0, 256.0] {
            let w = synth_waveform(&p, bitrate, fs_hz, 15_000.0);
            let d = rx
                .decode_uplink(&w, 15_000.0, bitrate)
                .unwrap_or_else(|e| panic!("decode failed at {bitrate} bps / {fs_hz} Hz: {e}"));
            let v = rx.decode_uplink_verdict(&w, 15_000.0, bitrate).unwrap();
            assert_eq!(
                d.packet.as_ref().unwrap(),
                &p,
                "wrong packet at {bitrate} bps / {fs_hz} Hz"
            );
            assert_eq!(d.packet.unwrap(), v.packet.unwrap());
            assert_eq!(d.start_sample, v.start_sample);
            assert_eq!(d.snr_db.to_bits(), v.snr_db.to_bits());
            assert_eq!(d.preamble_corr.to_bits(), v.preamble_corr.to_bits());
            // Decoding again must reproduce the same bits exactly — the
            // scratch arena and front-end cache hold no decode-to-decode
            // state that leaks into results.
            let d2 = rx.decode_uplink(&w, 15_000.0, bitrate).unwrap();
            assert_eq!(d.bits, d2.bits);
            assert_eq!(d.soft, d2.soft);
        }
    }
}

/// The `tests/faultnet_scale.rs` workload: burst on node 1, permanent
/// brown-out on the last node, everything else healthy.
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

/// The collision identity workload: a collision-enabled round on the
/// canonical N-node plan.
fn collision_cfg(n: usize) -> FaultNetConfig {
    let mut cfg = FaultNetConfig::with_nodes(n).expect("valid node count");
    cfg.policy = MacPolicy::Adaptive(AdaptiveConfig {
        ladder: RateLadder::new(vec![1_024.0, 512.0, 256.0]).expect("valid ladder"),
        ..Default::default()
    });
    cfg.bitrate_target_bps = 1_024.0;
    cfg.per_node_packets = 1;
    cfg.max_slots = 80;
    cfg.fs_hz = 96_000.0;
    cfg.concurrency = Concurrency::Collision(CollisionPolicy::default());
    cfg
}

#[test]
fn faultnet_and_collision_digests_are_pinned() {
    // Digests recorded from the pre-front-end pipeline; the fused
    // decoder must not move a single packet bit in any workload. The
    // faultnet N = 4 / 8 pins moved once, when time-shared (serialized)
    // FDMA became the default concurrency: with one uplink per slot the
    // burst and brown-out windows overlap different exchanges.
    let expected: [(&str, FaultNetConfig, u64); 6] = [
        ("faultnet_n2", scale_cfg(2), 0xd0a6fd18672a1435),
        ("collision_n2", collision_cfg(2), 0x19573df1c2d0d90f),
        ("faultnet_n4", scale_cfg(4), 0x2a2d43a062b78c7f),
        ("collision_n4", collision_cfg(4), 0x6258f0e5bd056ccd),
        ("faultnet_n8", scale_cfg(8), 0xcbc0444576a0e6cf),
        ("collision_n8", collision_cfg(8), 0x6e0ee1e53c1bb235),
    ];
    for (tag, cfg, digest) in expected {
        let report = FaultNetSimulator::new(cfg)
            .expect("valid config")
            .run()
            .expect("run succeeds");
        assert_eq!(
            report.bit_digest, digest,
            "{tag}: digest moved to {:#018x}",
            report.bit_digest
        );
    }
}
