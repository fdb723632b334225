//! Property-based tests for the protocol layer: every codec must
//! round-trip arbitrary data, and every checksum must catch single-bit
//! corruption.

use pab_net::bits::{bits_to_bytes, bytes_to_bits, read_uint};
use pab_net::crc::{crc16_ccitt, crc8};
use pab_net::packet::{
    Command, DownlinkQuery, SensorKind, UplinkKind, UplinkPacket, DOWNLINK_PREAMBLE,
    UPLINK_PREAMBLE,
};
use pab_net::mac::{
    AdaptiveConfig, ChannelPlan, CollisionPolicy, Concurrency, MacPolicy, NodeEntry,
    ResilientMac, RxObservation, SlotPlan, ThroughputMeter, TxOutcome,
};
use pab_net::pwm::{self, PwmTiming};
use pab_net::{fm0, manchester, NetError};
use proptest::prelude::*;

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Ping),
        (1u16..1000).prop_map(Command::SetBitrateDivider),
        any::<u8>().prop_map(Command::SelectRectoPiezo),
        prop_oneof![
            Just(SensorKind::Ph),
            Just(SensorKind::Temperature),
            Just(SensorKind::Pressure)
        ]
        .prop_map(Command::ReadSensor),
    ]
}

fn arb_uplink() -> impl Strategy<Value = UplinkPacket> {
    (
        any::<u8>(),
        any::<u8>(),
        prop_oneof![
            Just(UplinkKind::Ack),
            Just(UplinkKind::Sensor(SensorKind::Ph)),
            Just(UplinkKind::Sensor(SensorKind::Temperature)),
            Just(UplinkKind::Sensor(SensorKind::Pressure)),
        ],
        proptest::collection::vec(any::<u8>(), 0..=UplinkPacket::MAX_PAYLOAD),
    )
        .prop_map(|(src, seq, kind, payload)| UplinkPacket {
            src,
            seq,
            kind,
            payload,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bytes_bits_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn read_uint_matches_pushed_bits(v in any::<u64>(), n in 1usize..=64) {
        let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
        let mut bits = Vec::new();
        pab_net::bits::push_uint(&mut bits, masked, n);
        prop_assert_eq!(read_uint(&bits, 0, n), Some(masked));
    }

    #[test]
    fn fm0_roundtrips_any_bits(
        bits in proptest::collection::vec(any::<bool>(), 0..512),
        init in any::<bool>(),
    ) {
        let enc = fm0::encode(&bits, init);
        prop_assert_eq!(enc.len(), bits.len() * 2);
        prop_assert_eq!(fm0::decode(&enc, init).unwrap(), bits.clone());
        prop_assert_eq!(fm0::decode_lenient(&enc), bits);
        prop_assert_eq!(fm0::count_violations(&enc, init), 0);
    }

    #[test]
    fn manchester_roundtrips_any_bits(bits in proptest::collection::vec(any::<bool>(), 0..512)) {
        prop_assert_eq!(manchester::decode(&manchester::encode(&bits)).unwrap(), bits);
    }

    #[test]
    fn crc8_catches_any_single_bit_flip(
        data in proptest::collection::vec(any::<u8>(), 1..64),
        byte_idx in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut corrupted = data.clone();
        let i = byte_idx.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        prop_assert_ne!(crc8(&data), crc8(&corrupted));
    }

    #[test]
    fn crc16_catches_any_single_bit_flip(
        data in proptest::collection::vec(any::<u8>(), 1..64),
        byte_idx in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut corrupted = data.clone();
        let i = byte_idx.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        prop_assert_ne!(crc16_ccitt(&data), crc16_ccitt(&corrupted));
    }

    #[test]
    fn query_roundtrips(dest in any::<u8>(), cmd in arb_command()) {
        let q = DownlinkQuery { dest, command: cmd };
        let bits = q.to_bits();
        prop_assert_eq!(bits.len(), DownlinkQuery::BITS);
        prop_assert_eq!(DownlinkQuery::from_bits(&bits).unwrap(), q);
    }

    #[test]
    fn query_rejects_any_single_bit_corruption(
        dest in any::<u8>(),
        cmd in arb_command(),
        flip in any::<proptest::sample::Index>(),
    ) {
        let q = DownlinkQuery { dest, command: cmd };
        let mut bits = q.to_bits();
        let i = flip.index(bits.len());
        bits[i] = !bits[i];
        // Either the preamble breaks, the CRC fails, or (for flips inside
        // the opcode that land on another valid encoding) the CRC must
        // still catch it — a flipped query never parses to the original.
        if let Ok(parsed) = DownlinkQuery::from_bits(&bits) { prop_assert_ne!(parsed, q) }
    }

    #[test]
    fn uplink_roundtrips(p in arb_uplink()) {
        let bits = p.to_bits().unwrap();
        prop_assert_eq!(bits.len(), UplinkPacket::bits_len(p.payload.len()));
        prop_assert_eq!(UplinkPacket::from_bits(&bits).unwrap(), p);
    }

    #[test]
    fn uplink_rejects_any_single_bit_corruption(
        p in arb_uplink(),
        flip in any::<proptest::sample::Index>(),
    ) {
        let mut bits = p.to_bits().unwrap();
        let i = flip.index(bits.len());
        bits[i] = !bits[i];
        if let Ok(parsed) = UplinkPacket::from_bits(&bits) { prop_assert_ne!(parsed, p) }
    }

    #[test]
    fn sensor_fixed_point_roundtrips(v in -2_000_000.0f64..2_000_000.0) {
        let p = UplinkPacket::sensor_reading(1, 1, SensorKind::Pressure, v);
        let back = p.sensor_value().unwrap();
        prop_assert!((back - v).abs() <= 5e-4 + 1e-12 * v.abs());
    }

    #[test]
    fn pwm_roundtrips_any_bits(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
        let timing = PwmTiming::pab_default();
        // Reference pulse then data, as the projector transmits.
        let mut keyed = vec![false];
        keyed.extend(&bits);
        let wave = pwm::rasterize(&pwm::encode(&keyed, &timing), 48_000.0);
        prop_assert_eq!(pwm::decode_waveform(&wave, 48_000.0, &timing).unwrap(), bits);
    }

    #[test]
    fn pwm_duration_is_sum_of_bits(bits in proptest::collection::vec(any::<bool>(), 0..64)) {
        let timing = PwmTiming::pab_default();
        let segs = pwm::encode(&bits, &timing);
        let total: f64 = segs.iter().map(|s| s.duration_s).sum();
        prop_assert!((total - timing.total_duration_s(&bits)).abs() < 1e-12);
    }

    /// Hostile input, not a corrupted valid packet: any bit string of 0 to
    /// 400 bits, half of them behind the right preamble so the length,
    /// kind and checksum paths run too. Both parsers return a packet or a
    /// typed error and never panic; a parsed uplink re-encodes to the
    /// bits it came from, and a truncation reports what it got.
    #[test]
    fn hostile_bit_strings_parse_or_fail_typed(
        mut bits in proptest::collection::vec(any::<bool>(), 0..400),
        preamble in any::<bool>(),
    ) {
        let n = bits.len();
        let check_truncated = |e: &NetError| match *e {
            NetError::Truncated { needed, got } => needed > got && got == n,
            _ => true,
        };
        let mut up = bits.clone();
        if preamble && up.len() >= UPLINK_PREAMBLE.len() {
            up[..UPLINK_PREAMBLE.len()].copy_from_slice(&UPLINK_PREAMBLE);
        }
        match UplinkPacket::from_bits(&up) {
            Ok(p) => {
                let enc = p.to_bits().unwrap();
                prop_assert_eq!(&enc[..], &up[..enc.len()]);
            }
            Err(e) => prop_assert!(check_truncated(&e), "{e}"),
        }
        if preamble && bits.len() >= DOWNLINK_PREAMBLE.len() {
            bits[..DOWNLINK_PREAMBLE.len()].copy_from_slice(&DOWNLINK_PREAMBLE);
        }
        if let Err(e) = DownlinkQuery::from_bits(&bits) {
            prop_assert!(check_truncated(&e), "{e}");
        }
    }
}

/// A margin from the hostile set: finite in [0, 1], NaN, ±∞, ±1e308 or
/// subnormal.
fn arb_margin() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e308),
        Just(-1e308),
        Just(f64::MIN_POSITIVE / 2.0),
        Just(-f64::MIN_POSITIVE / 4.0),
    ]
}

fn arb_observation() -> impl Strategy<Value = RxObservation> {
    prop_oneof![
        arb_margin().prop_map(|margin| RxObservation::Delivered { margin }),
        arb_margin().prop_map(|margin| RxObservation::CrcFailed { margin }),
        Just(RxObservation::Erasure),
    ]
}

/// Everything the MAC exposes about its state for the registered nodes
/// 1 and 2 and the unregistered 9: the next plan (planned on a clone),
/// each node's quality, rate, counters and eviction, and the slot count.
fn mac_view(mac: &ResilientMac) -> (SlotPlan, Vec<(u64, u64, (u64, u64), bool)>, u64) {
    let plan = mac.clone().next_slot_plan(Command::Ping, |_| true);
    let nodes = [1u8, 2, 9]
        .iter()
        .map(|&a| {
            let (quality, rate) = (mac.quality(a).to_bits(), mac.rate_bps(a).to_bits());
            (quality, rate, mac.stats(a), mac.is_evicted(a))
        })
        .collect();
    (plan, nodes, mac.slots_used())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hostile observations for known and unknown addresses never panic
    /// the MAC. A non-finite margin, or an address the MAC never
    /// registered, is a typed `InvalidField` that leaves the MAC exactly
    /// as a twin that never saw the observation; every other observation
    /// moves both alike. Quality, rate and goodput stay finite.
    #[test]
    fn hostile_observations_are_rejected_without_a_trace(
        steps in proptest::collection::vec(
            (prop_oneof![Just(1u8), Just(2u8), Just(9u8)], arb_observation(), any::<bool>()),
            1..60,
        ),
        collision in any::<bool>(),
    ) {
        let mut mac = ResilientMac::new(
            ChannelPlan::paper_two_channel(),
            MacPolicy::Adaptive(AdaptiveConfig::default()),
            4,
        ).unwrap();
        if collision {
            mac.set_concurrency(Concurrency::Collision(CollisionPolicy::default())).unwrap();
        }
        mac.register(NodeEntry { addr: 1, channel: 0 }).unwrap();
        mac.register(NodeEntry { addr: 2, channel: 1 }).unwrap();
        let mut twin = mac.clone();
        let mut meter = ThroughputMeter::new();
        for (addr, obs, plan_first) in steps {
            if plan_first {
                let plan = mac.next_slot_plan(Command::Ping, |_| true);
                prop_assert_eq!(plan, twin.next_slot_plan(Command::Ping, |_| true));
            }
            let margin = match obs {
                RxObservation::Delivered { margin } | RxObservation::CrcFailed { margin } => margin,
                RxObservation::Erasure => 0.0,
            };
            match mac.record(addr, obs) {
                Ok(outcome) => {
                    prop_assert!(margin.is_finite() && addr != 9);
                    prop_assert_eq!(Ok(outcome), twin.record(addr, obs));
                    if outcome == TxOutcome::Delivered {
                        meter.record(8 * 6, 0.05).unwrap();
                    }
                }
                Err(e) => {
                    prop_assert!(matches!(e, NetError::InvalidField(_)), "{e:?}");
                    prop_assert!(!margin.is_finite() || addr == 9);
                }
            }
            prop_assert_eq!(mac_view(&mac), mac_view(&twin));
            for a in [1u8, 2] {
                prop_assert!((0.0..=1.0).contains(&mac.quality(a)), "quality {}", mac.quality(a));
                prop_assert!(mac.rate_bps(a).is_finite() && mac.rate_bps(a) > 0.0);
            }
            prop_assert!(meter.goodput_bps().is_finite());
        }
    }
}
