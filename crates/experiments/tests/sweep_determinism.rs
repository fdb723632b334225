//! Acceptance test for the sweep engine's determinism contract: a
//! same-seed sweep must produce **byte-identical** results whether it
//! runs on the parallel path or the serial reference path, with real
//! end-to-end link simulations as the per-point workload (the binaries'
//! actual usage, not a toy closure).

use pab_core::link::{LinkConfig, LinkSimulator};
use pab_net::packet::Command;

/// Run one link point and return every float as raw bits so the
/// comparison is exact, not approximate.
fn link_point(index: usize, bitrate: f64) -> (u64, u64, bool, Vec<u64>) {
    let cfg = LinkConfig {
        bitrate_target_bps: bitrate,
        seed: pab_sweep::derive_seed(99, index as u64),
        ..Default::default()
    };
    let mut sim = LinkSimulator::new(cfg).expect("link");
    let report = sim.run_query(Command::Ping).expect("run");
    (
        report.snr_db.to_bits(),
        report.node_rectified_v.to_bits(),
        report.crc_ok,
        report.envelope.iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn parallel_and_serial_link_sweeps_are_byte_identical() {
    let bitrates = vec![1_024.0, 2_048.0, 2_730.67];
    let par = pab_sweep::run(bitrates.clone(), link_point);
    let ser = pab_sweep::run_serial(bitrates, link_point);
    assert_eq!(par, ser, "parallel sweep diverged from serial reference");
}

#[test]
fn rerunning_the_same_sweep_reproduces_it() {
    let bitrates = vec![1_024.0];
    let a = pab_sweep::run(bitrates.clone(), link_point);
    let b = pab_sweep::run(bitrates, link_point);
    assert_eq!(a, b);
}
