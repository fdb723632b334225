//! Robustness properties: the receiver and node pipelines must never
//! panic, whatever garbage the water throws at them.

use pab_core::node::{IncidentComponent, PabNode};
use pab_core::receiver::Receiver;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decoding arbitrary noise returns an error or a CRC failure — never
    /// a panic, and (statistically) never a falsely valid packet.
    #[test]
    fn decoder_never_panics_on_noise(
        seed in any::<u64>(),
        len in 2_000usize..40_000,
        sigma in 0.0f64..10.0,
        bitrate in 100.0f64..6_000.0,
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let noise = pab_channel::noise::awgn(len, sigma.max(1e-6), &mut rng);
        let rx = Receiver::default();
        if let Ok(d) = rx.decode_uplink(&noise, 15_000.0, bitrate) { prop_assert!(d.packet.is_err(), "noise decoded as a valid packet") }
    }

    /// The node front end accepts arbitrary (even absurd) incident
    /// waveforms without panicking.
    #[test]
    fn node_never_panics_on_garbage(
        seed in any::<u64>(),
        len in 1_000usize..20_000,
        scale in 0.0f64..1e5,
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let samples = pab_channel::noise::awgn(len, scale.max(1e-9), &mut rng);
        let node = PabNode::new(1, 15_000.0).unwrap();
        let out = node
            .process(
                &[IncidentComponent {
                    carrier_hz: 15_000.0,
                    samples,
                }],
                192_000.0,
                None,
            )
            .unwrap();
        // Whatever happened, the outputs stay structurally sane.
        prop_assert_eq!(out.backscatter.len(), 1);
        prop_assert_eq!(out.backscatter[0].len(), out.switch_wave.len());
        prop_assert!(out.backscatter[0].iter().all(|x| x.is_finite()));
    }

    /// Decoding a *truncated* packet waveform fails cleanly.
    #[test]
    fn truncated_packets_fail_cleanly(cut in 0.05f64..0.95) {
        use pab_net::fm0;
        use pab_net::packet::{SensorKind, UplinkPacket};
        let rx = Receiver::default();
        let p = UplinkPacket::sensor_reading(3, 1, SensorKind::Ph, 7.0);
        let halves = fm0::encode(&p.to_bits().unwrap(), false);
        let spb = rx.fs_hz / (2.0 * 1_024.0);
        let lead = (0.01 * rx.fs_hz) as usize;
        let n = lead + (halves.len() as f64 * spb) as usize + lead;
        let mut nco = pab_dsp::mix::Nco::new(15_000.0, rx.fs_hz);
        let w: Vec<f64> = (0..n)
            .map(|i| {
                let amp = if i < lead || i >= n - lead {
                    0.4
                } else {
                    let k = (((i - lead) as f64) / spb) as usize;
                    if k < halves.len() && halves[k] { 1.0 } else { 0.4 }
                };
                amp * nco.next_sample()
            })
            .collect();
        let keep = (w.len() as f64 * cut) as usize;
        if let Ok(d) = rx.decode_uplink(&w[..keep.max(100)], 15_000.0, 1_024.0) {
            // If anything parsed, it must not be a *wrong* packet
            // passing CRC.
            if let Ok(parsed) = d.packet {
                prop_assert_eq!(parsed, p);
            }
        }
    }
}

/// A hostile-input verdict is either a typed error or a detection whose
/// correlation is a finite number in the detection range [0.3, 1].
fn assert_sane(tag: &str, r: Result<pab_core::receiver::DecodeVerdict, pab_core::CoreError>) {
    if let Ok(v) = r {
        assert!(
            v.preamble_corr.is_finite() && (0.3..=1.0).contains(&v.preamble_corr),
            "{tag}: preamble_corr {}",
            v.preamble_corr
        );
    }
}

/// The full-rate coherent path (96 kHz, 2731 bps: decimation 1) and the
/// envelope decoder on inputs no hydrophone should produce.
#[test]
fn hostile_inputs_give_typed_errors_or_sane_verdicts() {
    let rx = Receiver::new(1.0e-3, 96_000.0);
    let bitrate = 32_768.0 / 12.0;
    let n = 20_000;
    let mut nco = pab_dsp::mix::Nco::new(15_000.0, 96_000.0);
    let carrier: Vec<f64> = (0..n).map(|_| nco.next_sample()).collect();
    let square: Vec<f64> = (0..n)
        .map(|i| if (i / 7) % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let cases: [(&str, Vec<f64>); 6] = [
        ("zeros", vec![0.0; n]),
        ("dc", vec![0.75; n]),
        ("clipped square", square),
        ("+inf", vec![f64::INFINITY; n]),
        ("-inf", vec![f64::NEG_INFINITY; n]),
        ("64 samples", carrier[..64].to_vec()),
    ];
    for (tag, w) in cases {
        assert_sane(tag, rx.decode_uplink_verdict(&w, 15_000.0, bitrate));
    }
    let mut one_inf = carrier.clone();
    one_inf[n / 2] = f64::NEG_INFINITY;
    assert_sane(
        "one -inf sample",
        rx.decode_uplink_verdict(&one_inf, 15_000.0, bitrate),
    );

    // The envelope decoder (the collision path's), at 192 kHz: on a
    // separated stream none of these is a packet, so each is an error.
    let rx = Receiver::new(1.0e-3, 192_000.0);
    let packet = envelope_packet();
    assert!(
        rx.decode_envelope(&packet, 1_024.0).unwrap().packet.is_ok(),
        "the clean packet itself must decode"
    );
    let n = packet.len();
    let cases: [(&str, Vec<f64>); 8] = [
        ("NaN", vec![f64::NAN; n]),
        ("+inf", vec![f64::INFINITY; n]),
        ("-inf", vec![f64::NEG_INFINITY; n]),
        ("zeros", vec![0.0; n]),
        ("dc", vec![0.75; n]),
        ("64 samples", packet[..64].to_vec()),
        ("empty", Vec::new()),
        ("inverted packet", packet.iter().map(|x| -x).collect()),
    ];
    for (tag, w) in cases {
        let r = rx.decode_envelope(&w, 1_024.0);
        assert!(r.is_err(), "{tag}: {:?}", r.map(|v| v.preamble_corr));
    }
}

/// A clean 1024 bps packet as the amplitude stream zero-forcing hands
/// [`Receiver::decode_envelope`]: FM0 levels 1.0 / 0.4 with 50 ms of the
/// low level on either side, at 192 kHz (decimation 5).
fn envelope_packet() -> Vec<f64> {
    use pab_net::fm0;
    use pab_net::packet::{SensorKind, UplinkPacket};
    let p = UplinkPacket::sensor_reading(3, 1, SensorKind::Ph, 7.0);
    let halves = fm0::encode(&p.to_bits().unwrap(), false);
    let spb = 192_000.0 / (2.0 * 1_024.0);
    let lead = 9_600;
    let mut w = vec![0.4; lead];
    for (k, &h) in halves.iter().enumerate() {
        let len = ((k + 1) as f64 * spb) as usize - (k as f64 * spb) as usize;
        w.extend(std::iter::repeat_n(if h { 1.0 } else { 0.4 }, len));
    }
    w.extend(std::iter::repeat_n(0.4, lead));
    w
}

/// A NaN anywhere in the recording must never produce a detection.
#[test]
fn a_nan_sample_is_never_a_detection() {
    let rx = Receiver::new(1.0e-3, 96_000.0);
    let bitrate = 32_768.0 / 12.0;
    let n = 20_000;
    let mut nco = pab_dsp::mix::Nco::new(15_000.0, 96_000.0);
    let carrier: Vec<f64> = (0..n).map(|_| 0.4 * nco.next_sample()).collect();
    for at in [0, n / 3, n - 1] {
        let mut w = carrier.clone();
        w[at] = f64::NAN;
        assert!(
            rx.decode_uplink_verdict(&w, 15_000.0, bitrate).is_err(),
            "NaN at {at} was detected as a packet"
        );
    }
    assert!(rx
        .decode_uplink_verdict(&vec![f64::NAN; n], 15_000.0, bitrate)
        .is_err());
    // The envelope decoder, on a clean packet stream at 192 kHz: a NaN
    // the decimator reads spreads through the whole stream by way of the
    // trend filter, so even the real packet must not be detected.
    let rx = Receiver::new(1.0e-3, 192_000.0);
    let packet = envelope_packet();
    for at in [0, packet.len() / 3, 2 * packet.len() / 3] {
        let mut w = packet.clone();
        w[at] = f64::NAN;
        assert!(
            rx.decode_envelope(&w, 1_024.0).is_err(),
            "NaN at {at} of the envelope was detected as a packet"
        );
    }
}

/// A 10⁷-sample recording (52 s at 192 kHz) decodes without trouble:
/// the per-tile prefix sums keep the matched filter's rounding bounded.
#[test]
fn ten_million_samples_give_a_sane_verdict() {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let mut w = pab_channel::noise::awgn(10_000_000, 0.05, &mut rng);
    let mut nco = pab_dsp::mix::Nco::new(15_000.0, 192_000.0);
    for x in w.iter_mut() {
        *x += 0.4 * nco.next_sample();
    }
    let rx = Receiver::new(1.0e-3, 192_000.0);
    assert_sane("1e7 samples", rx.decode_uplink_verdict(&w, 15_000.0, 256.0));
}
