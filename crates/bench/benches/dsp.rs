//! Benchmarks for the DSP primitives on the receiver hot path;
//! `scripts/bench.sh` parses them into a JSON map.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use num_complex::Complex64;
use pab_dsp::correlate::RunLengthTemplate;
use pab_dsp::fir::{Fir, FoldedHilbert};
use pab_dsp::goertzel::tone_amplitude;
use pab_dsp::iir::butter_lowpass;
use pab_dsp::mix::{downconvert, tone, Nco};
use pab_dsp::polyphase::PolyphaseDecimator;
use pab_dsp::window::Window;

const FS: f64 = 192_000.0;
const N: usize = 96_000; // 0.5 s

fn signal() -> Vec<f64> {
    tone(15_000.0, FS, 0.0, N)
}

fn bench_downconvert(c: &mut Criterion) {
    let s = signal();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("downconvert_500ms", |b| {
        b.iter(|| downconvert(&s, 15_000.0, FS))
    });
    g.finish();
}

fn bench_butterworth(c: &mut Criterion) {
    let s = signal();
    let lp = butter_lowpass(4, 2_000.0, FS).unwrap();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("butterworth4_filtfilt_500ms", |b| b.iter(|| lp.filtfilt(&s)));
    g.finish();
}

fn bench_fir(c: &mut Criterion) {
    let s = signal();
    let f = Fir::lowpass(127, 2_000.0, FS, Window::Hamming).unwrap();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("fir127_filter_500ms", |b| b.iter(|| f.filter(&s)));
    g.finish();
}

/// The node's quadrature kernel: the 127-tap Hamming Hilbert design run
/// folded, 32 tap pairs per output, into a reused buffer as the node
/// runs it.
fn bench_hilbert(c: &mut Criterion) {
    let s = signal();
    let h = FoldedHilbert::new(127, Window::Hamming).unwrap();
    let mut out = Vec::new();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("hilbert127_500ms", |b| b.iter(|| h.filter_into(&s, &mut out)));
    g.finish();
}

/// The receiver's two zero-phase baseband filters on a 60k-sample
/// complex decode window: the order-2 detrend trend filter and the
/// order-4 Butterworth (one and two biquad sections).
fn bench_filtfilt_complex(c: &mut Criterion) {
    const LEN: usize = 60_000;
    let x: Vec<Complex64> = (0..LEN)
        .map(|i| Complex64::from_polar(1.0, i as f64 * 0.01))
        .collect();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(LEN as u64));
    for order in [2, 4] {
        let lp = butter_lowpass(order, 2_000.0, FS).unwrap();
        let pad = lp.filtfilt_pad(LEN);
        let mut ext = vec![Complex64::new(0.0, 0.0); LEN + 2 * pad];
        g.bench_function(&format!("filtfilt_complex_order{order}_60k"), |b| {
            b.iter(|| {
                ext[pad..pad + LEN].copy_from_slice(&x);
                lp.filtfilt_complex_in_place(&mut ext, pad, LEN);
            })
        });
    }
    g.finish();
}

/// The receiver's fused anti-alias decimator on 0.5 s of complex
/// baseband: the kept-output loop, whose cost falls as 1/decim.
fn bench_polyphase(c: &mut Criterion) {
    let x: Vec<Complex64> = signal().iter().map(|&v| Complex64::new(v, -v)).collect();
    let mut out = Vec::new();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    for decim in [2usize, 3, 5, 11, 23] {
        let fir = Fir::lowpass(127, 0.8 * FS / (2.0 * decim as f64), FS, Window::Hamming).unwrap();
        let pd = PolyphaseDecimator::new(fir, decim).unwrap();
        g.bench_function(&format!("polyphase_decim{decim}_500ms"), |b| {
            b.iter(|| pd.decimate_complex_scaled_into(&x, 2.0, &mut out))
        });
    }
    g.finish();
}

fn bench_goertzel(c: &mut Criterion) {
    let s = signal();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("goertzel_500ms", |b| {
        b.iter(|| tone_amplitude(&s, 15_000.0, FS))
    });
    g.finish();
}

fn bench_nco(c: &mut Criterion) {
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("nco_fill_500ms", |b| {
        b.iter(|| {
            let mut nco = Nco::new(15_000.0, FS);
            let mut buf = vec![0.0; N];
            nco.fill(&mut buf);
            buf
        })
    });
    g.finish();
}

/// The receiver's preamble search kernel at its `fdma_n4` size: the
/// 563-tap ±1 FM0 template of a 2731 bps node at 96 kHz over one
/// 60k-sample decode, by the run-length (prefix-sum) matched filter both
/// decoders run.
fn bench_preamble_search(c: &mut Criterion) {
    let n = 60_212;
    let d: Vec<Complex64> = tone(700.0, 96_000.0, 0.0, n)
        .iter()
        .zip(tone(1_300.0, 96_000.0, 0.5, n))
        .map(|(&a, b)| Complex64::new(a, b))
        .collect();
    let tpl = pab_core::receiver::preamble_template(32_768.0 / 12.0, 96_000.0);
    let rl = RunLengthTemplate::new(&tpl);
    let (mut prefix, mut out) = (Vec::new(), Vec::new());
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("xcorr_complex_563tap_60k_runlength", |b| {
        b.iter(|| rl.correlate_into(&d, &mut prefix, &mut out))
    });
    g.finish();
}

/// The collision path's per-stream decoder: `decode_envelope` on a
/// zero-forced-like amplitude stream at 192 kHz — a 1024 bps sensor
/// packet (decimation 5) with 50 ms of the low level either side.
fn bench_decode_envelope(c: &mut Criterion) {
    use pab_net::fm0;
    use pab_net::packet::{SensorKind, UplinkPacket};
    let p = UplinkPacket::sensor_reading(3, 1, SensorKind::Ph, 7.0);
    let halves = fm0::encode(&p.to_bits().unwrap(), false);
    let spb = FS / (2.0 * 1024.0);
    let lead = (0.05 * FS) as usize;
    let mut env = vec![0.4; lead];
    for (k, &h) in halves.iter().enumerate() {
        let len = ((k + 1) as f64 * spb) as usize - (k as f64 * spb) as usize;
        env.extend(std::iter::repeat_n(if h { 1.0 } else { 0.4 }, len));
    }
    env.extend(std::iter::repeat_n(0.4, lead));
    let rx = pab_core::receiver::Receiver::new(1.0e-3, FS);
    assert!(rx.decode_envelope(&env, 1024.0).unwrap().packet.is_ok());
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(env.len() as u64));
    g.bench_function("decode_envelope_1024bps_192k", |b| {
        b.iter(|| rx.decode_envelope(&env, 1024.0).unwrap())
    });
    g.finish();
}

/// The coherent decoder, `decode_uplink_verdict`, on a clean sensor
/// packet keyed onto a 15 kHz carrier with 50 ms of the low level either
/// side: at 256 bps and 192 kHz (decimation 23, where the Butterworth
/// runs at the decimated rate) and at 2731 bps and 96 kHz (decimation
/// 1, the full-rate control).
fn bench_decode_verdict(c: &mut Criterion) {
    use pab_net::fm0;
    use pab_net::packet::{SensorKind, UplinkPacket};
    let p = UplinkPacket::sensor_reading(3, 1, SensorKind::Ph, 7.0);
    let halves = fm0::encode(&p.to_bits().unwrap(), false);
    let mut g = c.benchmark_group("dsp");
    for (name, bitrate, fs) in [
        ("decode_verdict_256bps_192k", 256.0, 192_000.0),
        ("decode_verdict_2731bps_96k", 32_768.0 / 12.0, 96_000.0),
    ] {
        let spb = fs / (2.0 * bitrate);
        let lead = (0.05 * fs) as usize;
        let n = 2 * lead + (halves.len() as f64 * spb) as usize;
        let mut nco = Nco::new(15_000.0, fs);
        let w: Vec<f64> = (0..n)
            .map(|i| {
                let k = i.checked_sub(lead).map(|j| (j as f64 / spb) as usize);
                let hi = k.and_then(|k| halves.get(k)) == Some(&true);
                (if hi { 1.0 } else { 0.4 }) * nco.next_sample()
            })
            .collect();
        let rx = pab_core::receiver::Receiver::new(1.0e-3, fs);
        let v = rx.decode_uplink_verdict(&w, 15_000.0, bitrate).unwrap();
        assert!(v.packet.is_ok(), "{name}: the packet must decode");
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(name, |b| {
            b.iter(|| rx.decode_uplink_verdict(&w, 15_000.0, bitrate).unwrap())
        });
    }
    g.finish();
}

fn bench_image_method(c: &mut Criterion) {
    use pab_channel::{Pool, Position};
    let pool = Pool::pool_a();
    let a = Position::new(0.5, 1.5, 0.6);
    let b_pos = Position::new(3.0, 2.0, 0.7);
    c.bench_function("image_method_order4", |b| {
        b.iter(|| pool.channel(&a, &b_pos, 4, 15_000.0).unwrap())
    });
}

fn bench_channel_apply(c: &mut Criterion) {
    use pab_channel::{Pool, Position};
    let pool = Pool::pool_a();
    let ch = pool
        .channel(
            &Position::new(0.5, 1.5, 0.6),
            &Position::new(3.0, 2.0, 0.7),
            3,
            15_000.0,
        )
        .unwrap();
    let s = signal();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("multipath_apply_order3_500ms", |b| b.iter(|| ch.apply(&s, FS)));
    g.finish();
    // The same channel on a PWM query: the keyed-off stretches are exact
    // zeros, which the kernel skips.
    let mut projector = pab_core::projector::Projector::new(100.0).unwrap();
    projector.fs_hz = FS;
    let query = pab_net::packet::DownlinkQuery {
        dest: 2,
        command: pab_net::packet::Command::Ping,
    };
    let (q, _) = projector.query_waveform(&query, 15_000.0, 0.1).unwrap();
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(q.len() as u64));
    g.bench_function("multipath_apply_query_192k", |b| b.iter(|| ch.apply(&q, FS)));
    g.finish();
    // The default faultnet node's node→hydrophone channel over a dense
    // backscatter-length waveform, the shape of a collision chain's
    // uplink leg.
    let cfg = pab_core::faultnet::FaultNetConfig::default();
    let node = &cfg.nodes[0];
    let up = cfg
        .pool
        .channel(&node.position, &cfg.hydrophone_pos, cfg.max_reflections, node.carrier_hz)
        .unwrap();
    let backscatter = tone(node.carrier_hz, cfg.fs_hz, 0.3, 131_072);
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(backscatter.len() as u64));
    g.bench_function("multipath_apply_backscatter_192k", |b| {
        b.iter(|| up.apply(&backscatter, cfg.fs_hz))
    });
    g.finish();
}

fn bench_awgn(c: &mut Criterion) {
    use pab_channel::noise::add_awgn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    // One second of hydrophone samples at FS, the AWGN stage of a slot.
    const AWGN_N: usize = 192_000;
    let mut y = vec![0.0; AWGN_N];
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(AWGN_N as u64));
    g.bench_function("awgn_192k", |b| b.iter(|| add_awgn(&mut y, 1e-3, &mut rng)));
    g.finish();
}

/// One million raw draws, the RNG under the AWGN stage (two ChaCha8
/// words per draw).
fn bench_chacha8(c: &mut Criterion) {
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    const DRAWS: usize = 1_000_000;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut g = c.benchmark_group("dsp");
    g.throughput(Throughput::Elements(DRAWS as u64));
    g.bench_function("chacha8_next_u64_1m", |b| {
        b.iter(|| (0..DRAWS).fold(0u64, |acc, _| acc ^ rng.next_u64()))
    });
    g.finish();
}

criterion_group!(
    dsp,
    bench_downconvert,
    bench_butterworth,
    bench_filtfilt_complex,
    bench_fir,
    bench_hilbert,
    bench_polyphase,
    bench_goertzel,
    bench_nco,
    bench_preamble_search,
    bench_decode_envelope,
    bench_decode_verdict,
    bench_image_method,
    bench_channel_apply,
    bench_awgn,
    bench_chacha8
);
criterion_main!(dsp);
