//! Fig. 9 — maximum power-up distance vs projector drive voltage.
//!
//! Paper claims: range grows with drive voltage in both pools; at the
//! same voltage Pool B (the 1.2 m × 10 m corridor) gives longer range
//! than Pool A because the corridor focuses the projector's signal.
//! Measurements cap at each pool's usable length (5 m for A, 10 m for B).

use pab_channel::{Pool, Position};
use pab_core::node::PabNode;
use pab_core::powerup::max_powerup_distance_m;
use pab_experiments::{banner, write_csv};

fn main() -> std::io::Result<()> {
    banner(
        "Fig. 9 — max power-up distance vs transmit voltage",
        "distance grows with voltage; Pool B (corridor) outranges Pool A",
    );
    let voltages = [25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0];
    println!(
        "{:>10} {:>12} {:>12}",
        "drive (V)", "Pool A (m)", "Pool B (m)"
    );
    // Each voltage point runs two full image-method distance sweeps; the
    // sweep is deterministic (no RNG), so points need no derived seeds.
    let results = pab_sweep::run(voltages.to_vec(), |_i, v| {
        let node = PabNode::new(1, 15_000.0).expect("node");
        let da = max_powerup_distance_m(
            &Pool::pool_a(),
            &node,
            &Position::new(0.2, 1.5, 0.6),
            v,
            15_000.0,
            4,
            0.1,
        )
        .expect("pool A sweep");
        let db = max_powerup_distance_m(
            &Pool::pool_b(),
            &node,
            &Position::new(0.2, 0.6, 0.5),
            v,
            15_000.0,
            4,
            0.1,
        )
        .expect("pool B sweep");
        (da, db)
    });
    let mut rows = Vec::new();
    for (&v, &(da, db)) in voltages.iter().zip(&results) {
        rows.push(format!("{v},{da:.2},{db:.2}"));
        println!("{v:>10.0} {da:>12.2} {db:>12.2}");
    }
    let pool_a = Pool::pool_a();
    let pool_b = Pool::pool_b();
    let path = write_csv(
        "fig9_range.csv",
        "drive_voltage_v,pool_a_max_distance_m,pool_b_max_distance_m",
        &rows,
    )?;
    println!();
    println!(
        "pool limits: A usable ≈ {:.1} m, B usable ≈ {:.1} m",
        pool_a.length_m - 0.3,
        pool_b.length_m - 0.3
    );
    println!("csv: {}", path.display());
    Ok(())
}
