//! Fig. 7 — BER vs SNR (log-log).
//!
//! Paper claims: the decoder starts decoding around 2 dB SNR (typical for
//! biphase codes like FM0) and BER falls to 1e-5 above ~11 dB (floored at
//! 1e-5 because packets are shorter than 1e5 bits).
//!
//! Methodology mirrors §6.1: many trials across bitrates and noise
//! levels; each trial's SNR is the receiver's own estimate (squared
//! channel estimate over residual noise power); BER is the fraction of
//! wrong bits against the known transmitted packet.
//!
//! The (bitrate × sigma) grid fans out across cores on the deterministic
//! sweep engine: every cell runs its trials on a private RNG seeded by
//! `derive_seed(BASE_SEED, cell_index)`, so the binned totals are
//! bit-identical whether the sweep ran on one thread or sixteen.

use pab_core::receiver::Receiver;
use pab_channel::noise::add_awgn;
use pab_experiments::{banner, write_csv};
use pab_net::packet::{SensorKind, UplinkPacket};
use pab_net::{bits, fm0};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Synthesise a backscatter waveform for `packet` with modulation levels
/// `amp_hi`/`amp_lo` at `bitrate` on a 15 kHz carrier.
fn synth(
    packet: &UplinkPacket,
    bitrate: f64,
    fs_hz: f64,
    amp_hi: f64,
    amp_lo: f64,
) -> Vec<f64> {
    let halves = fm0::encode(&packet.to_bits().unwrap(), false);
    let spb = fs_hz / (2.0 * bitrate);
    let lead = (0.008 * fs_hz) as usize;
    let n = lead + (halves.len() as f64 * spb) as usize + lead;
    let mut nco = pab_dsp::mix::Nco::new(15_000.0, fs_hz);
    (0..n)
        .map(|i| {
            let amp = if i < lead || i >= n - lead {
                amp_lo
            } else {
                let k = (((i - lead) as f64) / spb) as usize;
                if k < halves.len() && halves[k] {
                    amp_hi
                } else {
                    amp_lo
                }
            };
            amp * nco.next_sample()
        })
        .collect()
}

/// 1-dB bins from 0 to 18 dB.
const BINS: usize = 19;
const BASE_SEED: u64 = 42;

/// Run one (bitrate, sigma) grid cell: all its trials on a derived-seed
/// RNG, returning per-bin (error, total) counts.
fn run_cell(index: usize, bitrate: f64, sigma: f64) -> ([u64; BINS], [u64; BINS]) {
    let rx = Receiver::default();
    let fs_hz = rx.fs_hz;
    let mut rng = ChaCha8Rng::seed_from_u64(pab_sweep::derive_seed(BASE_SEED, index as u64));
    let mut errors = [0u64; BINS];
    let mut total = [0u64; BINS];
    let trials_per_cell = 18;
    for t in 0..trials_per_cell {
        let value = rng.gen_range(-20.0..20.0);
        let packet =
            UplinkPacket::sensor_reading((t % 250) as u8, t as u8, SensorKind::Ph, value);
        let expected = packet.to_bits().unwrap();
        let mut w = synth(&packet, bitrate, fs_hz, 1.0, 0.4);
        add_awgn(&mut w, sigma, &mut rng);
        let Ok(d) = rx.decode_uplink(&w, 15_000.0, bitrate) else {
            continue; // detection failure: not binnable by SNR
        };
        let snr = d.snr_db;
        if !snr.is_finite() || snr < -0.5 {
            continue;
        }
        let bin = (snr.round().max(0.0) as usize).min(BINS - 1);
        let n = expected.len().min(d.bits.len());
        let errs =
            bits::hamming_distance(&expected[..n], &d.bits[..n]) + (expected.len() - n);
        errors[bin] += errs as u64;
        total[bin] += expected.len() as u64;
    }
    (errors, total)
}

fn main() -> std::io::Result<()> {
    banner(
        "Fig. 7 — BER vs SNR",
        "decodable from ~2 dB; BER ~1e-5 above ~11 dB (packet-size floor)",
    );

    let bitrates = [512.0, 1024.0, 2048.0, 2730.67];
    let sigmas = [
        0.3, 0.5, 0.7, 0.9, 1.1, 1.4, 1.7, 2.0, 2.4, 2.8, 3.3,
    ];
    let cells = pab_sweep::grid2(&bitrates, &sigmas);
    let per_cell = pab_sweep::run(cells, |i, (bitrate, sigma)| run_cell(i, bitrate, sigma));

    // Merge cell histograms in point order.
    let mut errors = [0u64; BINS];
    let mut total = [0u64; BINS];
    for (e, t) in per_cell {
        for b in 0..BINS {
            errors[b] += e[b];
            total[b] += t[b];
        }
    }

    println!("{:>8} {:>12} {:>10}", "SNR (dB)", "bits", "BER");
    let mut rows = Vec::new();
    for b in 0..BINS {
        if total[b] == 0 {
            continue;
        }
        // Floor at 1e-5 like the paper (packets < 1e5 bits).
        let ber = (errors[b] as f64 / total[b] as f64).clamp(1e-5, 1.0);
        rows.push(format!("{b},{},{ber:.2e}", total[b]));
        println!("{b:>8} {:>12} {ber:>10.2e}", total[b]);
    }
    let path = write_csv("fig7_ber_snr.csv", "snr_db,total_bits,ber", &rows)?;
    println!();
    println!("csv: {}", path.display());
    Ok(())
}
