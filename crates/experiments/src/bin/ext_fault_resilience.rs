//! Fault-resilience extension: sweep fault intensity × MAC policy and
//! measure what each policy salvages.
//!
//! The paper's MAC story (§5.1(b)) is "request retransmissions of
//! corrupted packets"; this experiment asks what happens when a fault is
//! *not* a corrupted packet but a silent node — a supercap brown-out
//! below the Fig. 9 power-up threshold, a deep fade, a noise burst. Three
//! policies face the same seeded fault schedules:
//!
//! * `no-retry`   — every failure drops the packet (and a dead node is
//!   polled forever);
//! * `fixed-retry`— bounded immediate retries, still no eviction;
//! * `adaptive`   — retry budget + exponential backoff, erasure-triggered
//!   quarantine with doubling re-probes, permanent eviction, and the
//!   closed-loop FM0 rate ladder (Fig. 8, driven by link quality).
//!
//! Each (intensity, policy) point runs a full sample-level inventory
//! round via `pab_core::faultnet` with a seed derived per point, so the
//! whole sweep is bit-reproducible. CSV: `results/ext_fault_resilience.csv`.

use pab_channel::{BroadbandBurst, DropoutWindow, DriftRamp, FaultSchedule, PathFade};
use pab_core::faultnet::{FaultNetConfig, FaultNetReport, FaultNetSimulator};
use pab_net::mac::{AdaptiveConfig, MacPolicy};
use pab_sweep::{derive_seed, grid2, run, run_recorded};
use pab_experiments::{banner, write_bytes, write_csv, write_text};
use pab_telemetry::events_bin;
use pab_telemetry::export::{events_csv, events_jsonl, summary_csv};
use pab_telemetry::{Event, Recorder};

/// Fault schedules for the two nodes at a given intensity step.
///
/// * 0 — healthy tank (control);
/// * 1 — broadband bursts corrupt early exchanges (CRC failures);
/// * 2 — bursts + a deep fade on node 1, and node 2 browns out forever
///   (the dead-node case the eviction machinery exists for);
/// * 3 — all of the above, heavier, plus carrier drift.
fn schedules(intensity: u32, seed: u64) -> (FaultSchedule, FaultSchedule) {
    let mut node1 = FaultSchedule::new(seed);
    let mut node2 = FaultSchedule::new(seed ^ 0x5bd1_e995);
    if intensity >= 1 {
        let burst = BroadbandBurst {
            start_s: 0.0,
            duration_s: 2.0,
            rms_pa: 1_000.0 * intensity as f64,
        };
        node1 = node1.with_burst(burst).expect("valid burst");
        node2 = node2.with_burst(burst).expect("valid burst");
    }
    if intensity >= 2 {
        node1 = node1
            .with_fade(PathFade {
                start_s: 2.0,
                duration_s: 4.0,
                floor_ratio: 0.05,
            })
            .expect("valid fade");
        node2 = node2
            .with_dropout(DropoutWindow {
                start_s: 0.0,
                duration_s: f64::INFINITY,
            })
            .expect("valid dropout");
    }
    if intensity >= 3 {
        node1 = node1
            .with_drift(DriftRamp {
                rate_hz_per_s: 2.0,
                max_abs_hz: 30.0,
            })
            .expect("valid drift");
    }
    (node1, node2)
}

fn policy_for(name: &str) -> MacPolicy {
    match name {
        "no-retry" => MacPolicy::NoRetry,
        "fixed-retry" => MacPolicy::FixedRetry { max_retries: 2 },
        // Tightened quarantine so eviction lands well inside the slot
        // budget (the default config is tuned for longer campaigns).
        "adaptive" => MacPolicy::Adaptive(AdaptiveConfig {
            quarantine_after: 2,
            quarantine_slots: 2,
            max_probes: 2,
            ..AdaptiveConfig::default()
        }),
        other => unreachable!("unknown policy {other}"),
    }
}

/// One sweep point: build the faulted network for `(intensity, policy)`
/// and run a full inventory round, optionally narrating into `tel`.
fn run_point(
    idx: usize,
    intensity: u32,
    policy_name: &'static str,
    per_node: u64,
    max_slots: u64,
    tel: Option<&mut Recorder>,
) -> (u32, &'static str, FaultNetReport) {
    let seed = derive_seed(7, idx as u64);
    let (f1, f2) = schedules(intensity, seed);
    let mut cfg = FaultNetConfig {
        policy: policy_for(policy_name),
        per_node_packets: per_node,
        max_slots,
        fs_hz: 96_000.0,
        seed,
        ..Default::default()
    };
    cfg.nodes[0].faults = f1;
    cfg.nodes[1].faults = f2;
    let report = FaultNetSimulator::new(cfg)
        .expect("config is valid by construction")
        .run_with_recorder(tel)
        .expect("simulation error");
    (intensity, policy_name, report)
}

/// Fig. 8-style rate-ladder report from one sweep point's trace: which
/// FM0 rates the closed loop visited and what drove it down there.
fn print_trace_report(points: &[(u32, &str)], recorders: &[Recorder]) {
    println!();
    println!("rate-ladder / recovery trace (from telemetry)");
    println!(
        "{:>9}  {:<12} {:>7} {:>9} {:>7} {:>10} {:>7} {:>12} {:>9}",
        "intensity", "policy", "steps", "min_bps", "retries", "backoffs", "quaran", "evictions", "dropped"
    );
    for (rec, (intensity, policy)) in recorders.iter().zip(points) {
        let count = |name: &str| rec.counters().get(name);
        // The slowest rung the closed loop reached (paper Fig. 8: SNR
        // drives the usable FM0 bitrate; faults push the ladder down).
        let min_bps = rec
            .events()
            .filter_map(|te| match te.event {
                Event::RateStep { rate_bps, .. } => Some(rate_bps),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        let min_bps = if min_bps.is_finite() {
            format!("{min_bps:.0}")
        } else {
            "-".to_string()
        };
        println!(
            "{:>9}  {:<12} {:>7} {:>9} {:>7} {:>10} {:>7} {:>12} {:>9}",
            intensity,
            policy,
            count("rate_step"),
            min_bps,
            count("retry"),
            count("backoff"),
            count("quarantine"),
            count("eviction"),
            rec.events_dropped(),
        );
    }
}

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let trace = std::env::args().any(|a| a == "--trace");
    banner(
        "extension — fault injection × MAC policy",
        "who survives a silent node: no-retry vs fixed-retry vs adaptive \
         (timeout/backoff/quarantine/eviction + rate ladder)",
    );
    if quick {
        println!("(--quick: reduced per-node packet target and slot cap)\n");
    }
    if trace {
        println!("(--trace: narrating every slot into results/fault_trace.csv)\n");
    }

    let intensities: Vec<u32> = vec![0, 1, 2, 3];
    let policies: Vec<&'static str> = vec!["no-retry", "fixed-retry", "adaptive"];
    let points = grid2(&intensities, &policies);
    let per_node = if quick { 1 } else { 2 };
    let max_slots = if quick { 30 } else { 60 };

    // Traced and untraced sweeps produce bit-identical reports (the
    // recorder is an observer, not a participant); `--trace` just keeps
    // the per-point recorders for export.
    let (results, recorders) = if trace {
        let (results, recorders) = run_recorded(
            points.clone(),
            pab_telemetry::DEFAULT_CAPACITY,
            |idx, (intensity, policy_name), rec| {
                run_point(idx, intensity, policy_name, per_node, max_slots, Some(rec))
            },
        );
        (results, Some(recorders))
    } else {
        let results = run(points.clone(), |idx, (intensity, policy_name)| {
            run_point(idx, intensity, policy_name, per_node, max_slots, None)
        });
        (results, None)
    };

    let mut rows = Vec::new();
    println!(
        "{:>9}  {:<12} {:>5} {:>8} {:>12} {:>6} {:>8}",
        "intensity", "policy", "pdr", "goodput", "slots", "done", "evicted"
    );
    for (intensity, policy, r) in &results {
        let evicted = r.per_node.iter().filter(|n| n.evicted).count();
        println!(
            "{:>9}  {:<12} {:>5.2} {:>7.2}b {:>12} {:>6} {:>8}",
            intensity, policy, r.pdr, r.goodput_bps, r.slots_used, r.completed, evicted
        );
        rows.push(format!(
            "{},{},{:.4},{:.3},{},{},{},{},{},{:.3}",
            intensity,
            policy,
            r.pdr,
            r.goodput_bps,
            r.slots_used,
            r.completed,
            evicted,
            r.delivered_total,
            r.dropped_total,
            r.elapsed_s
        ));
    }

    // The headline comparison: at the dead-node intensities the adaptive
    // policy must beat fixed-retry on goodput (it evicts and finishes;
    // fixed-retry burns slots on a node that will never answer).
    for intensity in [2u32, 3] {
        let gp = |name: &str| {
            results
                .iter()
                .find(|(i, p, _)| *i == intensity && *p == name)
                .map(|(_, _, r)| r.goodput_bps)
                .unwrap_or(0.0)
        };
        let (fixed, adaptive) = (gp("fixed-retry"), gp("adaptive"));
        println!(
            "\nintensity {intensity}: adaptive {adaptive:.2} bps vs fixed-retry {fixed:.2} bps ({})",
            if adaptive > fixed {
                "adaptive wins"
            } else {
                "ADAPTIVE DID NOT WIN"
            }
        );
    }

    let path = write_csv(
        "ext_fault_resilience.csv",
        "intensity,policy,pdr,goodput_bps,slots_used,completed,evicted,delivered,dropped,elapsed_s",
        &rows,
    )?;
    println!("\ncsv: {}", path.display());

    if let Some(recorders) = recorders {
        print_trace_report(&points, &recorders);
        let refs: Vec<&Recorder> = recorders.iter().collect();
        let trace_path = write_text("fault_trace.csv", &events_csv(&refs))?;
        let jsonl_path = write_text("fault_trace.jsonl", &events_jsonl(&refs))?;
        let summary_path = write_text("fault_trace_summary.csv", &summary_csv(&refs))?;
        let bin_path = write_bytes("fault_trace.bin", &events_bin(&refs))?;
        println!("\ntrace: {}", trace_path.display());
        println!("trace: {}", jsonl_path.display());
        println!("trace: {}", summary_path.display());
        println!("trace: {} (binary, see pab_telemetry::binfmt)", bin_path.display());
        println!("plot:  python3 scripts/plot_trace.py {}", trace_path.display());
    }
    Ok(())
}
