//! §8 scaling extension: three-node FDMA with N×N collision decoding,
//! plus the footnote-7 conditioning ablation.
//!
//! The paper argues (a) "the gain from FDMA scales as the number of nodes
//! with different resonance frequencies increases", (b) tunability "will
//! be limited by the efficiency and bandwidth of the piezoelectric
//! transducer design", which "motivates novel transducer designs", and
//! (footnote 7) that recto-piezos make the collision-decoding matrix
//! "better conditioned". This experiment shows all three with a 3-way
//! collision:
//!
//! 1. three nodes on differently-sized ceramics (12.5/15.5/19 kHz
//!    channels): well-conditioned matrix, all three packets decode;
//! 2. the same three channels crammed onto one ceramic type: the matrix
//!    conditioning degrades and streams fail — the transducer-bandwidth
//!    limit.

use pab_core::collision_group::{CollisionGroupSimulator, MultiNodeConfig};
use pab_experiments::{banner, write_csv};
use pab_net::packet::Command;

fn run_and_print(label: &str, cfg: MultiNodeConfig, rows: &mut Vec<String>) {
    println!("--- {label}");
    let mut sim = match CollisionGroupSimulator::with_config(&cfg) {
        Ok(s) => s,
        Err(e) => {
            println!("    setup failed: {e}");
            return;
        }
    };
    // One broadcast ping keyed identically on every carrier — the
    // paper's own Fig. 10 procedure ("transmits a downlink signal at both
    // frequencies"). Every node's selectivity-weighted envelope then sees
    // one clean PWM query however much it hears of its neighbours'
    // channels, and all nodes answer at once: a genuine N-way collision.
    match sim.run(&cfg.broadcast_queries(Command::Ping)) {
        Ok(r) => {
            println!(
                "    condition number of the 3x3 channel matrix: {:.2}",
                r.condition_number
            );
            let mut delivered = 0;
            for i in 0..r.crc_ok.len() {
                if r.crc_ok[i] {
                    delivered += 1;
                }
                println!(
                    "    stream {}: SINR before {:6.1} dB -> after {:6.1} dB | packet {}",
                    i + 1,
                    r.sinr_before_db[i],
                    r.sinr_after_db[i],
                    if r.crc_ok[i] { "decoded" } else { "lost" }
                );
                rows.push(format!(
                    "{label},{},{:.2},{:.2},{}",
                    i + 1,
                    r.sinr_before_db[i],
                    r.sinr_after_db[i],
                    r.crc_ok[i]
                ));
            }
            println!(
                "    slot goodput: {delivered}x packets per collision slot ({}x a single channel)",
                delivered
            );
        }
        Err(pab_core::CoreError::NodeNotPoweredUp) => {
            println!(
                "    FAILED: a node never completed a query/response \
                 exchange — three channels spread 13-18 kHz exceed one \
                 ~16.5 kHz ceramic's usable band (the §8 tunability limit)"
            );
            rows.push(format!("{label},-,,,false"));
        }
        Err(e) => println!("    run failed: {e}"),
    }
    println!();
}

fn main() -> std::io::Result<()> {
    banner(
        "§8 extension — three-channel FDMA and matrix conditioning",
        "N-way collisions decode when the channel matrix is well \
         conditioned; one ceramic's bandwidth cannot host three channels",
    );

    // Case 1: per-channel ceramics (the paper's 'novel transducer
    // designs' remedy) — the crate default.
    let mut rows = Vec::new();
    run_and_print(
        "three ceramics (13/16/19.5 kHz) on channels 12.5/15.5/19 kHz",
        MultiNodeConfig::default(),
        &mut rows,
    );

    // Case 2: the same channels forced onto the paper's single ~16.5 kHz
    // ceramic type: recto-piezo tuning alone cannot separate three
    // channels this far apart.
    let mut same = MultiNodeConfig::default();
    for n in &mut same.nodes {
        n.ceramic_resonance_hz = None;
    }
    // Pull the outer channels into the single ceramic's usable band.
    same.nodes[0].carrier_hz = 13_000.0;
    same.nodes[2].carrier_hz = 18_000.0;
    run_and_print(
        "one ceramic type (~16.5 kHz) on channels 13/15.5/18 kHz",
        same,
        &mut rows,
    );

    let path = write_csv(
        "ext_three_channels.csv",
        "case,stream,sinr_before_db,sinr_after_db,crc_ok",
        &rows,
    )?;
    println!("csv: {}", path.display());
    Ok(())
}
