//! Range survey: plan a deployment by mapping where battery-free nodes
//! can power up in a tank before committing hardware, and estimate
//! cold-start time at each range (Fig. 9's machinery as a planning tool).
//!
//! Each drive voltage is one point on the deterministic sweep engine, so
//! the three image-method surveys run concurrently and still print in
//! voltage order.
//!
//! ```sh
//! cargo run --release -p pab-experiments --example range_survey
//! ```

use pab_channel::{Pool, Position};
use pab_core::node::PabNode;
use pab_core::powerup::{carrier_amplitude_at, cold_start_time_s, max_powerup_distance_m};

/// One surveyed checkpoint distance.
enum Checkpoint {
    OutOfRange,
    ColdStart(Option<f64>),
}

fn main() {
    let pool = Pool::pool_b();

    println!(
        "tank: {:.0} m x {:.1} m x {:.1} m corridor | 15 kHz node, 2.5 V power-up threshold",
        pool.length_m, pool.width_m, pool.depth_m
    );
    println!();
    println!("{:>10} {:>12} | distance -> cold-start", "drive (V)", "max range");

    let drives = [50.0, 150.0, 350.0];
    let checkpoints = [1.0f64, 3.0, 6.0, 9.0];
    let surveys = pab_sweep::run(drives.to_vec(), |_i, drive| {
        let pool = Pool::pool_b();
        let proj = Position::new(0.2, 0.6, 0.5);
        let node = PabNode::new(1, 15_000.0).expect("node");
        let fe = node.frontend(0);
        let range =
            max_powerup_distance_m(&pool, &node, &proj, drive, 15_000.0, 4, 0.1).expect("sweep");
        let points: Vec<Checkpoint> = checkpoints
            .iter()
            .map(|&d| {
                if d > range {
                    return Checkpoint::OutOfRange;
                }
                let dst = Position::new(proj.x_m + d, proj.y_m, proj.z_m);
                let amp = carrier_amplitude_at(&pool, &proj, &dst, drive, 15_000.0, 4)
                    .expect("amplitude");
                Checkpoint::ColdStart(cold_start_time_s(fe, amp, 15_000.0, 2.5))
            })
            .collect();
        (range, points)
    });

    for (&drive, (range, points)) in drives.iter().zip(&surveys) {
        print!("{drive:>10.0} {range:>10.1} m |");
        for (&d, cp) in checkpoints.iter().zip(points) {
            match cp {
                Checkpoint::OutOfRange => print!("  {d:.0} m: out-of-range"),
                Checkpoint::ColdStart(Some(t)) => print!("  {d:.0} m: {t:.1} s"),
                Checkpoint::ColdStart(None) => print!("  {d:.0} m: never"),
            }
        }
        println!();
    }
    println!();
    println!(
        "(cold start = time for the 1000 µF supercapacitor to charge from\n\
         empty to the 2.5 V power-up threshold at that range)"
    );
}
