//! FDMA network: two recto-piezo nodes sharing the tank on different
//! acoustic channels, queried concurrently, with the MIMO collision
//! decoder separating their simultaneous backscatter (§3.3 / Fig. 10).
//!
//! ```sh
//! cargo run --release -p pab-core --example fdma_network
//! ```

use pab_channel::Position;
use pab_core::collision_group::{CollisionGroupSimulator, MultiNodeConfig};
use pab_net::mac::{
    ChannelPlan, CollisionPolicy, Concurrency, MacPolicy, NodeEntry, ResilientMac, RxObservation,
    ThroughputMeter,
};
use pab_net::packet::Command;

fn main() {
    // MAC layer: the paper's two-channel plan (15 kHz / 18 kHz), with
    // collision slots enabled so both healthy nodes share one slot.
    let plan = ChannelPlan::paper_two_channel();
    let mut mac = ResilientMac::new(plan, MacPolicy::NoRetry, 1).expect("valid policy");
    mac.set_concurrency(Concurrency::Collision(CollisionPolicy::default()))
        .expect("valid collision gate");
    mac.register(NodeEntry { addr: 1, channel: 0 }).unwrap();
    mac.register(NodeEntry { addr: 2, channel: 1 }).unwrap();
    let slot = mac.next_slot_plan(Command::Ping, |_| true);
    println!(
        "MAC slot ({:?}): {} concurrent queries",
        slot.kind,
        slot.queries.len()
    );
    for s in &slot.queries {
        println!(
            "  channel {} @ {:.0} kHz -> node {}",
            s.channel,
            s.frequency_hz / 1e3,
            s.query.dest
        );
    }
    println!();

    // Physical layer: run the full three-slot concurrent experiment, the
    // collision slot carrying each node's addressed query.
    let mut cfg = MultiNodeConfig::fig10_pair();
    cfg.nodes[0].position = Position::new(1.0, 1.3, 0.6);
    cfg.nodes[1].position = Position::new(1.7, 1.8, 0.5);
    cfg.hydrophone_pos = Position::new(1.3, 2.0, 0.7);
    let mut sim = CollisionGroupSimulator::with_config(&cfg).expect("config");
    let bitrate = sim.bitrate_bps();
    let report = sim
        .run(&cfg.addressed_queries(Command::Ping))
        .expect("both nodes must power up");
    println!("concurrent collision at the hydrophone:");
    for i in 0..2 {
        println!(
            "  stream {}: SINR before projection {:6.1} dB -> after {:6.1} dB | packet {}",
            i + 1,
            report.sinr_before_db[i],
            report.sinr_after_db[i],
            if report.crc_ok[i] { "decoded" } else { "lost" }
        );
    }
    println!(
        "  channel-matrix condition number: {:.2}",
        report.condition_number
    );
    // Close the loop: each separated stream's verdict goes back to the MAC.
    for (i, q) in slot.queries.iter().enumerate() {
        let obs = if report.crc_ok[i] {
            RxObservation::Delivered { margin: 1.0 }
        } else {
            RxObservation::CrcFailed { margin: 0.0 }
        };
        mac.record(q.query.dest, obs)
            .expect("scheduled node is registered");
    }
    println!(
        "  inventory complete after {} slot(s): {}",
        mac.slots_used(),
        mac.is_complete()
    );
    println!();

    // Throughput accounting: both packets in one slot = doubled goodput.
    let mut single = ThroughputMeter::new();
    let mut fdma = ThroughputMeter::new();
    let packet_bits = 56u64; // ACK packet
    let slot_s = packet_bits as f64 / bitrate;
    single
        .record(packet_bits, slot_s)
        .expect("slot duration is positive");
    let both_ok = report.crc_ok[0] && report.crc_ok[1];
    fdma.record(if both_ok { 2 * packet_bits } else { packet_bits }, slot_s)
        .expect("slot duration is positive");
    println!(
        "network goodput: single-channel {:.0} bps -> two-node collision slot {:.0} bps ({}x)",
        single.goodput_bps(),
        fdma.goodput_bps(),
        (fdma.goodput_bps() / single.goodput_bps()).round()
    );
}
