//! Sensing mission: a season of ocean-condition monitoring.
//!
//! The paper's motivating application (§1) is long-term ocean sensing:
//! battery-free nodes measuring acidity, temperature and pressure for
//! climate studies. This example simulates a moored node being polled
//! daily as the water column changes, with the MAC's retransmission
//! machinery handling bad days.
//!
//! ```sh
//! cargo run --release -p pab-core --example sensing_mission
//! ```

use pab_core::link::{LinkConfig, LinkSimulator};
use pab_net::mac::{ChannelPlan, MacPolicy, NodeEntry, ResilientMac, RxObservation, TxOutcome};
use pab_net::packet::{Command, SensorKind};
use pab_sensors::WaterSample;

fn main() {
    println!("day | truth (pH, °C, mbar) | decoded | SNR dB | outcome");
    println!("----+----------------------+---------------------------+--------+--------");
    // Two retries per packet; 14 days × 3 readings is the whole target.
    const NODE: u8 = 7;
    let plan = ChannelPlan::new(vec![15_000.0]).expect("valid plan");
    let policy = MacPolicy::FixedRetry { max_retries: 2 };
    let mut mac = ResilientMac::new(plan, policy, 14 * 3).expect("valid policy");
    mac.register(NodeEntry {
        addr: NODE,
        channel: 0,
    })
    .expect("fresh address");
    let mut delivered = 0u32;
    for day in 0..14u32 {
        // Seasonal drift + a storm (elevated noise) mid-mission.
        let t = day as f64;
        let water = WaterSample::at_depth(
            8.05 + 0.01 * (t / 3.0).sin(),
            14.0 - 0.25 * t / 7.0,
            2.5,
            1025.0,
        );
        let stormy = (6..=8).contains(&day);
        let cfg = LinkConfig {
            water,
            seed: 1000 + day as u64,
            noise_scale: if stormy { 60_000.0 } else { 1.0 },
            ..Default::default()
        };
        let mut sim = LinkSimulator::new(cfg).expect("config");
        // Poll all three quantities; retry per the MAC policy on CRC
        // failure.
        let mut day_ok = true;
        let mut readings = Vec::new();
        let mut snr = f64::NEG_INFINITY;
        for kind in [SensorKind::Ph, SensorKind::Temperature, SensorKind::Pressure] {
            let mut attempts = 0;
            loop {
                attempts += 1;
                let report = sim.run_query(Command::ReadSensor(kind)).expect("query");
                snr = snr.max(report.snr_db);
                let obs = if report.crc_ok {
                    RxObservation::Delivered {
                        margin: report.preamble_corr,
                    }
                } else if report.preamble_found {
                    RxObservation::CrcFailed {
                        margin: report.preamble_corr,
                    }
                } else {
                    RxObservation::Erasure
                };
                let outcome = mac.record(NODE, obs).expect("registered node");
                match outcome {
                    TxOutcome::Delivered => {
                        readings.push(report.packet.and_then(|p| p.sensor_value()));
                        break;
                    }
                    TxOutcome::Retry if attempts < 4 => continue,
                    _ => {
                        readings.push(None);
                        day_ok = false;
                        break;
                    }
                }
            }
        }
        if day_ok {
            delivered += 1;
        }
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:8.2}"),
            None => "    --- ".to_string(),
        };
        println!(
            "{day:3} | {:5.2} {:5.2} {:7.1} | {} {} {} | {:6.1} | {}",
            water.ph,
            water.temperature_c,
            water.pressure_mbar,
            fmt(readings[0]),
            fmt(readings[1]),
            fmt(readings[2]),
            snr,
            if day_ok {
                "delivered"
            } else if stormy {
                "lost (storm)"
            } else {
                "lost"
            }
        );
    }
    let (ok, dropped) = mac.stats(NODE);
    println!();
    println!(
        "mission summary: {delivered}/14 days complete | packets delivered {ok}, dropped {dropped}"
    );
}
