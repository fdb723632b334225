//! Energy-harvesting range analysis: the machinery behind Fig. 3
//! (rectified voltage vs frequency) and Fig. 9 (maximum power-up distance
//! vs projector drive voltage).

use crate::node::PabNode;
use crate::CoreError;
use pab_analog::{RectoPiezo, Supercap};
use pab_channel::{Pool, Position};
use pab_piezo::Transducer;

/// Steady-state carrier pressure amplitude at a receiver position for a
/// projector at `src` driven with `drive_voltage_v` at `carrier_hz`
/// (coherent sum over multipath).
pub fn carrier_amplitude_at(
    pool: &Pool,
    src: &Position,
    dst: &Position,
    drive_voltage_v: f64,
    carrier_hz: f64,
    max_reflections: usize,
) -> Result<f64, CoreError> {
    let tx = Transducer::pab_projector();
    let source_pa = tx.tx_sensitivity_pa_m_per_v * drive_voltage_v;
    let ch = pool.channel(src, dst, max_reflections, carrier_hz)?;
    // The downlink is not a zero-bandwidth tone (PWM keying spreads it a
    // few hundred Hz) and the node has finite size, so deep single-
    // frequency fading nulls are smoothed: average the channel gain over
    // a small band around the carrier.
    let offsets = [-300.0, -150.0, 0.0, 150.0, 300.0];
    let gain = offsets
        .iter()
        .map(|&df| ch.coherent_gain_at(carrier_hz + df))
        .sum::<f64>()
        / offsets.len() as f64;
    Ok(source_pa * gain)
}

/// Rectified DC voltage a recto-piezo builds at a position (Fig. 3 /
/// Fig. 9 quantity, measured into a light 1 MΩ load).
fn rectified_voltage_at(
    pool: &Pool,
    frontend: &RectoPiezo,
    src: &Position,
    dst: &Position,
    drive_voltage_v: f64,
    carrier_hz: f64,
    max_reflections: usize,
) -> Result<f64, CoreError> {
    let amp = carrier_amplitude_at(pool, src, dst, drive_voltage_v, carrier_hz, max_reflections)?;
    Ok(frontend.rectified_voltage_v(amp, carrier_hz, 1e6))
}

/// Sweep positions along the pool's long axis and return the maximum
/// distance from the projector at which the node's rectified voltage
/// reaches the power-up threshold. Returns 0.0 if it never powers up.
///
/// The sweep starts 0.5 m from the projector and steps by `step_m`; like
/// the paper's measurements, the result is capped by the pool length.
pub fn max_powerup_distance_m(
    pool: &Pool,
    node: &PabNode,
    projector_pos: &Position,
    drive_voltage_v: f64,
    carrier_hz: f64,
    max_reflections: usize,
    step_m: f64,
) -> Result<f64, CoreError> {
    if !(step_m > 0.0) {
        return Err(CoreError::InvalidConfig("step_m"));
    }
    let fe = node.frontend(0);
    let mut best = 0.0f64;
    let mut dead_span = 0.0f64;
    let mut d = 0.5;
    loop {
        let x = projector_pos.x_m + d;
        if x > pool.length_m - 0.05 {
            break;
        }
        let dst = Position::new(x, projector_pos.y_m, projector_pos.z_m);
        let v = rectified_voltage_at(
            pool,
            fe,
            projector_pos,
            &dst,
            drive_voltage_v,
            carrier_hz,
            max_reflections,
        )?;
        if v >= node.powerup_threshold_v {
            best = d;
            dead_span = 0.0;
        } else {
            // Like the paper's procedure, the sensor is moved away until
            // it stops powering up. A narrow fading null is not the end
            // of coverage (nudging the node recovers it); a dead zone
            // wider than ~0.6 m is.
            dead_span += step_m;
            if dead_span > 0.6 {
                break;
            }
        }
        d += step_m;
    }
    Ok(best)
}

/// Cold-start time: seconds for the 1000 µF supercapacitor to charge from
/// empty to the power-up threshold given the carrier amplitude at the
/// node. `None` if the harvested voltage can never reach the threshold.
pub fn cold_start_time_s(
    frontend: &RectoPiezo,
    carrier_amplitude_pa: f64,
    carrier_hz: f64,
    threshold_v: f64,
) -> Option<f64> {
    let v_in = frontend.rectifier_input_v(carrier_amplitude_pa, carrier_hz);
    let v_open = frontend.rectifier.open_circuit_dc_v(v_in);
    let cap = Supercap::pab_node();
    cap.time_to_reach(threshold_v, v_open, frontend.rectifier.output_resistance_ohms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node15() -> PabNode {
        PabNode::new(1, 15_000.0).unwrap()
    }

    #[test]
    fn range_grows_with_drive_voltage() {
        let pool = Pool::pool_b();
        let node = node15();
        let proj = Position::new(0.3, 0.6, 0.5);
        let d_low = max_powerup_distance_m(&pool, &node, &proj, 50.0, 15_000.0, 3, 0.25).unwrap();
        let d_high =
            max_powerup_distance_m(&pool, &node, &proj, 300.0, 15_000.0, 3, 0.25).unwrap();
        assert!(d_high >= d_low, "{d_high} < {d_low}");
        assert!(d_high > 0.0);
    }

    #[test]
    fn corridor_pool_b_outranges_pool_a_at_same_drive() {
        let node = node15();
        let drive = 140.0;
        let da = max_powerup_distance_m(
            &Pool::pool_a(),
            &node,
            &Position::new(0.3, 1.5, 0.6),
            drive,
            15_000.0,
            4,
            0.25,
        )
        .unwrap();
        let db = max_powerup_distance_m(
            &Pool::pool_b(),
            &node,
            &Position::new(0.3, 0.6, 0.5),
            drive,
            15_000.0,
            4,
            0.25,
        )
        .unwrap();
        // Pool A caps at its 4 m length anyway; the corridor either matches
        // or beats it per meter of available range.
        let da_norm = da / (4.0 - 0.35);
        let db_norm = db / (10.0 - 0.35);
        assert!(
            db >= da || db_norm >= da_norm * 0.8,
            "pool A {da} m vs pool B {db} m"
        );
    }

    #[test]
    fn zero_drive_never_powers_up() {
        let pool = Pool::pool_a();
        let node = node15();
        let proj = Position::new(0.3, 1.5, 0.6);
        let d = max_powerup_distance_m(&pool, &node, &proj, 0.5, 15_000.0, 3, 0.25).unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn rectified_voltage_declines_with_distance_on_average() {
        let pool = Pool::pool_b();
        let node = node15();
        let fe = node.frontend(0);
        let proj = Position::new(0.3, 0.6, 0.5);
        // Multipath makes it non-monotone point-to-point; compare coarse
        // averages near vs far.
        let sample = |lo: f64, hi: f64| -> f64 {
            let mut acc = 0.0;
            let mut count = 0;
            let mut d = lo;
            while d < hi {
                let dst = Position::new(proj.x_m + d, proj.y_m, proj.z_m);
                acc += rectified_voltage_at(&pool, fe, &proj, &dst, 140.0, 15_000.0, 3)
                    .unwrap();
                count += 1;
                d += 0.2;
            }
            acc / count as f64
        };
        let near = sample(0.5, 2.0);
        let far = sample(7.0, 9.0);
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn cold_start_finite_when_strong_and_none_when_weak() {
        let fe = RectoPiezo::design(Transducer::pab_node(), 15_000.0).unwrap();
        let t = cold_start_time_s(&fe, 1800.0, 15_000.0, 2.5);
        assert!(t.is_some());
        assert!(t.unwrap() > 0.0 && t.unwrap() < 600.0, "t={:?}", t);
        assert!(cold_start_time_s(&fe, 5.0, 15_000.0, 2.5).is_none());
    }

    #[test]
    fn step_must_be_positive() {
        let pool = Pool::pool_a();
        let node = node15();
        let proj = Position::new(0.3, 1.5, 0.6);
        assert!(
            max_powerup_distance_m(&pool, &node, &proj, 100.0, 15_000.0, 3, 0.0).is_err()
        );
    }
}
