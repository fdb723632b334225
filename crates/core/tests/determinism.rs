//! Determinism audit regression tests.
//!
//! The entire simulation is seed-driven: every stochastic component
//! (ambient noise realisation, any future mobility jitter) draws from a
//! `ChaCha8Rng` seeded from the config's explicit `seed: u64`. These
//! tests pin that property *bitwise* — two runs with the same seed must
//! produce identical floating-point streams and identical reports, down
//! to the last ULP. The `pab-lint` `no-wallclock-no-threadrng` lint
//! keeps ambient entropy from creeping back in; this test catches any
//! other source of nondeterminism (iteration-order, uninitialised
//! buffers, accidental global state).

use pab_channel::noise::{awgn, NoiseEnvironment};
use pab_core::link::{LinkConfig, LinkSimulator};
use pab_net::packet::Command;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Bitwise equality for f64 slices — `==` would accept -0.0 vs 0.0 and
/// reject NaN vs NaN, neither of which is what "same realisation" means.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn same_seed_noise_is_bit_identical() {
    let mut a = ChaCha8Rng::seed_from_u64(0xDEAD_BEEF);
    let mut b = ChaCha8Rng::seed_from_u64(0xDEAD_BEEF);
    let na = awgn(4_096, 0.3, &mut a);
    let nb = awgn(4_096, 0.3, &mut b);
    assert_eq!(bits(&na), bits(&nb), "same seed must give the same stream");
}

#[test]
fn different_seeds_give_different_noise() {
    let mut a = ChaCha8Rng::seed_from_u64(1);
    let mut b = ChaCha8Rng::seed_from_u64(2);
    let na = awgn(256, 0.3, &mut a);
    let nb = awgn(256, 0.3, &mut b);
    assert_ne!(bits(&na), bits(&nb), "different seeds must decorrelate");
}

#[test]
fn same_seed_link_runs_are_bit_identical() {
    let run = |seed: u64| {
        let cfg = LinkConfig {
            seed,
            noise: NoiseEnvironment::quiet_tank(),
            noise_scale: 4.0, // make the noise realisation actually matter
            ..LinkConfig::default()
        };
        let mut sim = LinkSimulator::new(cfg).expect("valid default config");
        sim.run_query(Command::Ping).expect("link run")
    };

    let r1 = run(42);
    let r2 = run(42);
    assert_eq!(r1.crc_ok, r2.crc_ok);
    assert_eq!(r1.packet, r2.packet);
    assert_eq!(
        r1.snr_db.to_bits(),
        r2.snr_db.to_bits(),
        "SNR must match bitwise"
    );
    assert_eq!(
        r1.node_rectified_v.to_bits(),
        r2.node_rectified_v.to_bits(),
        "harvested voltage must match bitwise"
    );
    assert_eq!(r1.node_powered_up, r2.node_powered_up);
    assert_eq!(r1.bitrate_bps.to_bits(), r2.bitrate_bps.to_bits());
}

#[test]
fn seed_changes_the_noise_realisation_not_the_physics() {
    let run = |seed: u64| {
        let cfg = LinkConfig {
            seed,
            noise_scale: 4.0,
            ..LinkConfig::default()
        };
        let mut sim = LinkSimulator::new(cfg).expect("valid default config");
        sim.run_query(Command::Ping).expect("link run")
    };
    let r1 = run(1);
    let r2 = run(999);
    // Physics (deterministic given geometry) is unchanged...
    assert_eq!(r1.bitrate_bps.to_bits(), r2.bitrate_bps.to_bits());
    assert_eq!(r1.node_powered_up, r2.node_powered_up);
    // ...but the noise draw differs, so the soft metrics move.
    assert_ne!(
        r1.snr_db.to_bits(),
        r2.snr_db.to_bits(),
        "different seeds should give a different noise realisation"
    );
}
