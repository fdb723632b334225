//! `pab_bench` — slot benchmark for the fault-injected network simulator,
//! with end-to-end metrics measured untraced and a separate traced run
//! that attributes the wall time to layers.
//!
//! ```text
//! cargo run --release -q --manifest-path crates/experiments/src/bin/pab_bench/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
//! ```
//!
//! With `--workload` it runs one workload and prints every metric with its
//! unit, then one JSON line `{"correct","attempted","failed","metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` it runs the whole set, each workload
//! in a child process of its own, and prints (and with `--out` writes) the
//! combined JSON. It exits non-zero, naming the workload, when an output
//! check fails.
//!
//! # Load model
//!
//! One client in a closed loop: a round is one inventory (collect a fixed
//! number of packets from every node), run on one thread. A run does one
//! untimed warm-up round, then fixed-size timed rounds until `--seconds`
//! have been measured (at least three), each on a freshly built simulator
//! with only `run()` timed, and reports medians. `setup_s` is the median
//! of ten fresh processes, spread over the run, each timing simulator
//! construction plus the first slot, because the FFT plan cache is
//! thread-local and would hide set-up work inside one process. Around
//! each round and each set-up probe a fixed reference computation gauges
//! the host's speed, and the end-to-end times are scaled by it to the
//! baseline machine unloaded (see `host.rs`): on a shared host that cuts
//! the drift between runs minutes apart. Every config and fault seed
//! derives from `--seed`. A traced run first traces one round, then
//! interleaves its untraced rounds with batches of per-layer spans (see
//! `layers.rs`); spans and shares stay in wall time.
//!
//! # Workloads
//!
//! * `fdma_n4` — four nodes at 96 kHz on the adaptive ladder, serialized
//!   FDMA, sensor reads, no faults: the slot engine's cache-hit steady
//!   state, where each exchange costs AWGN plus a verdict decode at
//!   decimation 1, so the receiver and MAC dominate.
//! * `rung256_192k` — two nodes at 192 kHz pinned to 256 bps: the same
//!   receiver at decimation 23, on the far side of the polyphase front
//!   end's direct-mode threshold from `fdma_n4`, so a front-end change
//!   shows on one and not the other.
//! * `faulted_n2` — node 1 fades 3 s of every 4 s, node 2's carrier
//!   drifts, both take a noise burst: the slot engine used the other way,
//!   with cache bypasses and misses, so the node, propagation, fade and
//!   diagnostic-decode paths and the MAC's retries all do real work.
//! * `collision_n2` — a 14/19 kHz pair decoded by §8 zero-forcing at
//!   192 kHz: never touches the link caches or the verdict decoder; every
//!   slot synthesises, propagates, runs nodes, demodulates full-rate
//!   bands, zero-forces and decodes envelopes.
//!
//! # Comparing two commits
//!
//! Build the benchmark on each commit into its own target directory and
//! run the same command on both, alternating which goes first, for at
//! least ten pairs with a different `--seed` per pair (the seed moves
//! only noise draws, never the amount of work). A metric improved
//! only when the change wins nine pairs in ten and the medians differ by
//! more than the parent's own interquartile range. `NOTES.md` beside this
//! file lists which layer metric should move which end-to-end metric.

mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::Instant;

use pab_core::faultnet::{FaultNetConfig, FaultNetReport, FaultNetSimulator};
use pab_telemetry::Recorder;

use layers::{Harness, Layers, SpanCalls};
use trace::{Call, Trace};
use workloads::Workload;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Timed rounds per run, at the least.
const MIN_ROUNDS: usize = 3;

/// How much work one run measures.
#[derive(Debug, Clone, Copy)]
struct Budget {
    packets: u64,
    seconds: f64,
    min_rounds: usize,
    /// An untraced run times set-up this many times, one after each
    /// stretch of rounds.
    setup_probes: usize,
    /// A traced run times its spans in this many batches, one after each
    /// stretch of rounds.
    span_batches: usize,
    /// Spans per batch.
    spans: SpanCalls,
}

impl Budget {
    fn full(w: Workload, seconds: f64) -> Budget {
        Budget {
            packets: w.per_node_packets(),
            seconds,
            min_rounds: MIN_ROUNDS,
            setup_probes: 10,
            span_batches: 5,
            spans: SpanCalls {
                per_call: 6,
                slot_exchange: 40,
                group: 1,
            },
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured and whether the program's outputs held.
struct Outcome {
    attempted: u64,
    /// One line per failed output check, each naming the workload.
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> BenchResult<String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value).into());
            }
            metrics.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.problems.len(),
            metrics.join(",")
        ))
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    setup_probe: bool,
}

fn parse_args() -> BenchResult<Args> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 16.0,
        trace: false,
        out: None,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse()?,
            "--seconds" => {
                args.seconds = value.parse()?;
                if !(0.0..=f64::MAX).contains(&args.seconds) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(value),
            _ => return Err(format!("unknown argument {flag}").into()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pab_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> BenchResult<ExitCode> {
    let args = parse_args()?;
    let Some(w) = args.workload else {
        return run_set(&args);
    };
    if args.setup_probe {
        println!(
            "{}",
            setup_once(&w.config(args.seed, w.per_node_packets()))?
        );
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = run_workload(
        w,
        args.seed,
        args.trace,
        Budget::full(w, args.seconds),
        || Timed::measure(|| setup_in_fresh_process(w, args.seed)),
    )?;
    for m in &outcome.metrics {
        println!("{} {} = {} {}", w.name(), m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("pab_bench: check failed: {p}");
    }
    let json = outcome.json()?;
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n"))?;
    }
    println!("{json}");
    Ok(if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each in a child process.
fn run_set(args: &Args) -> BenchResult<ExitCode> {
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    let mut correct = true;
    for w in Workload::ALL {
        let mut halves = Vec::new();
        for (trace, key) in [("0", "e2e"), ("1", "layers")] {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output()?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8(out.stdout)?;
            let (human, json) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{human}");
            if !out.status.success() || !json.starts_with('{') {
                eprintln!("pab_bench: {} (--trace {trace}) failed", w.name());
                correct = false;
                continue;
            }
            halves.push(format!("\"{key}\":{json}"));
        }
        runs.push(format!("\"{}\":{{{}}}", w.name(), halves.join(",")));
    }
    let json = format!(
        "{{\"seed\":{},\"seconds\":{},\"correct\":{correct},\"runs\":{{{}}}}}",
        args.seed,
        args.seconds,
        runs.join(",")
    );
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n"))?;
    }
    println!("{json}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A host time, with the reference's time around it.
#[derive(Debug, Clone, Copy)]
struct Timed {
    wall_s: f64,
    reference_s: f64,
}

impl Timed {
    /// Times `f` between two reference measurements and keeps the faster
    /// one: a transient stall can slow a 20 ms reference far more than it
    /// slows the measurement, and the faster reading tracked the host's
    /// load between runs better than either the first or the mean.
    fn measure(f: impl FnOnce() -> BenchResult<f64>) -> BenchResult<Timed> {
        let before_s = host::reference_s();
        let wall_s = f()?;
        Ok(Timed {
            wall_s,
            reference_s: before_s.min(host::reference_s()),
        })
    }

    /// The wall time as it would read on the baseline machine unloaded.
    fn normalised_s(self) -> f64 {
        host::normalise(self.wall_s, self.reference_s)
    }
}

/// `FaultNetSimulator::new` plus the first slot, in seconds.
fn setup_once(cfg: &FaultNetConfig) -> BenchResult<f64> {
    let t0 = Instant::now();
    let mut sim = FaultNetSimulator::new(FaultNetConfig {
        max_slots: 1,
        ..cfg.clone()
    })?;
    black_box(sim.run()?);
    Ok(t0.elapsed().as_secs_f64())
}

fn setup_in_fresh_process(w: Workload, seed: u64) -> BenchResult<f64> {
    let out = Command::new(std::env::current_exe()?)
        .args([
            "--setup-probe",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("setup probe failed: {err}").into());
    }
    Ok(String::from_utf8(out.stdout)?.trim().parse()?)
}

/// One round on a fresh simulator; only `run()` is timed.
fn timed_round(cfg: &FaultNetConfig) -> BenchResult<(Timed, FaultNetReport)> {
    let mut sim = FaultNetSimulator::new(cfg.clone())?;
    let mut report = None;
    let timed = Timed::measure(|| {
        let t0 = Instant::now();
        report = Some(black_box(sim.run()?));
        Ok(t0.elapsed().as_secs_f64())
    })?;
    Ok((timed, report.ok_or("round gave no report")?))
}

/// The output checks, one line per failing round: every round completed,
/// a healthy workload delivered every packet, and every round matches
/// the first bit for bit.
fn check_rounds(w: Workload, cfg: &FaultNetConfig, reports: &[FaultNetReport]) -> Vec<String> {
    let name = w.name();
    let want = cfg.per_node_packets * cfg.nodes.len() as u64;
    let first = &reports[0];
    reports
        .iter()
        .filter_map(|r| {
            if !r.completed {
                Some(format!(
                    "{name}: round did not complete within {} slots",
                    cfg.max_slots
                ))
            } else if w.healthy() && (r.delivered_total != want || r.dropped_total != 0) {
                Some(format!(
                    "{name}: delivered {} and dropped {} of {want} packets",
                    r.delivered_total, r.dropped_total
                ))
            } else if (r.bit_digest, r.slots_used, r.elapsed_s.to_bits())
                != (
                    first.bit_digest,
                    first.slots_used,
                    first.elapsed_s.to_bits(),
                )
            {
                Some(format!(
                    "{name}: round gave digest {:#018x} in {} slots, the first gave {:#018x} in {}",
                    r.bit_digest, r.slots_used, first.bit_digest, first.slots_used
                ))
            } else {
                None
            }
        })
        .collect()
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Fixed-size untraced rounds until `budget.seconds` of them are timed
/// (and at least `budget.min_rounds`), in `stretches` equal stretches
/// with `between` called after each.
fn timed_rounds(
    cfg: &FaultNetConfig,
    budget: &Budget,
    stretches: usize,
    mut between: impl FnMut() -> BenchResult<()>,
) -> BenchResult<(Vec<Timed>, Vec<FaultNetReport>)> {
    let (mut rounds, mut reports) = (Vec::<Timed>::new(), Vec::new());
    for k in 1..=stretches {
        let until_s = budget.seconds * k as f64 / stretches as f64;
        let until_n = (budget.min_rounds * k).div_ceil(stretches);
        while rounds.len() < until_n || rounds.iter().map(|r| r.wall_s).sum::<f64>() < until_s {
            let (timed, report) = timed_round(cfg)?;
            rounds.push(timed);
            reports.push(report);
        }
        between()?;
    }
    Ok((rounds, reports))
}

fn run_workload(
    w: Workload,
    seed: u64,
    traced: bool,
    budget: Budget,
    mut setup: impl FnMut() -> BenchResult<Timed>,
) -> BenchResult<Outcome> {
    let cfg = w.config(seed, budget.packets);
    // A full-size warm-up round: a process's first round grows the heap
    // and fills the FFT plan cache, and runs markedly slower than the rest.
    timed_round(&cfg)?;
    if !traced {
        // Set-up is timed between stretches of rounds, so its median
        // samples the host over the whole run, as the rounds' does.
        let mut setups = Vec::new();
        let (rounds, reports) = timed_rounds(&cfg, &budget, budget.setup_probes, || {
            setups.push(setup()?);
            Ok(())
        })?;
        let first = &reports[0];
        let slots = first.slots_used as f64;
        let slots_per_s: Vec<f64> = rounds.iter().map(|r| slots / r.normalised_s()).collect();
        let rtf: Vec<f64> = rounds
            .iter()
            .map(|r| first.elapsed_s / r.normalised_s())
            .collect();
        let slots_per_wall_s: Vec<f64> = rounds.iter().map(|r| slots / r.wall_s).collect();
        let setup_s: Vec<f64> = setups.iter().map(|s| s.normalised_s()).collect();
        let setup_wall_s: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
        let host_speed: Vec<f64> = rounds
            .iter()
            .chain(&setups)
            .map(|r| host::NOMINAL_S / r.reference_s)
            .collect();
        eprintln!(
            "{}: {} rounds of {} slots; slots_per_s {:.3} (IQR {:.3}), unnormalised {:.3}; \
             setup_s {:.4} (IQR {:.4}) over {}, unnormalised {:.4}; host speed {:.3} of nominal",
            w.name(),
            rounds.len(),
            first.slots_used,
            stats::median(&slots_per_s),
            stats::iqr(&slots_per_s),
            stats::median(&slots_per_wall_s),
            stats::median(&setup_s),
            stats::iqr(&setup_s),
            setups.len(),
            stats::median(&setup_wall_s),
            stats::median(&host_speed),
        );
        return Ok(Outcome {
            attempted: rounds.len() as u64,
            problems: check_rounds(w, &cfg, &reports),
            metrics: vec![
                metric("setup_s", stats::median(&setup_s), "s"),
                metric("slots_per_s", stats::median(&slots_per_s), "slots/s"),
                metric("rtf", stats::median(&rtf), "s/s"),
                metric("peak_rss_mb", peak_rss_mb()?, "MB"),
                metric("goodput_bps", first.goodput_bps, "bit/s"),
            ],
        });
    }

    // The traced round comes first: its exchanges are the spans' inputs.
    let mut rec = Recorder::new(pab_telemetry::DEFAULT_CAPACITY);
    let mut sim = FaultNetSimulator::new(cfg.clone())?;
    let t0 = Instant::now();
    let traced = sim.run_with_recorder(Some(&mut rec))?;
    let traced_wall_s = t0.elapsed().as_secs_f64();
    let trace = Trace::derive(&cfg, &sim, &rec)?;
    let mut harness = Harness::new(&cfg, &trace)?;
    let (rounds, reports) = timed_rounds(&cfg, &budget, budget.span_batches, || {
        harness.batch(budget.spans)
    })?;
    let mut problems = check_rounds(w, &cfg, &reports);
    let first = &reports[0];
    if traced.bit_digest != first.bit_digest || traced.slots_used != first.slots_used {
        problems.push(format!(
            "{}: traced round gave digest {:#018x}, untraced {:#018x}",
            w.name(),
            traced.bit_digest,
            first.bit_digest
        ));
    }
    // Spans are wall time, so their shares are of the rounds' wall time.
    let wall_s = stats::median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    Ok(Outcome {
        attempted: rounds.len() as u64 + 1,
        problems,
        metrics: layer_metrics(&cfg, &trace, &harness.finish(), wall_s, traced_wall_s)?,
    })
}

fn layer_metrics(
    cfg: &FaultNetConfig,
    t: &Trace,
    l: &Layers,
    wall_s: f64,
    traced_wall_s: f64,
) -> BenchResult<Vec<Metric>> {
    let shares = l.shares(t, wall_s)?;
    let share = |layer: &str| shares.get(layer).copied().unwrap_or(0.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let count = |c: Call| t.count(c) as f64;
    let tap_macs: f64 = t
        .calls()
        .into_iter()
        .filter(|&(c, _, _)| c == Call::Propagate)
        .map(|(_, path, n)| n as f64 * l.tap_macs_per_call.get(&path).copied().unwrap_or(0.0))
        .sum();
    let (fe, link) = (&t.frontend, &t.link);
    let e = t.link_exchanges();
    Ok(vec![
        metric("projector.calls", count(Call::QueryWaveform), "count"),
        metric(
            "projector.query_waveform_us",
            l.median_us(Call::QueryWaveform),
            "us",
        ),
        metric("projector.share", share("projector"), "frac"),
        metric(
            "pool.channels_designed",
            t.channels_designed(cfg.nodes.len()) as f64,
            "count",
        ),
        metric("pool.channel_us", stats::median(&l.channel_us), "us"),
        metric("propagation.calls", count(Call::Propagate), "count"),
        metric("propagation.apply_us", l.median_us(Call::Propagate), "us"),
        metric("propagation.tap_macs", tap_macs, "count"),
        metric("propagation.share", share("propagation"), "frac"),
        metric("node.calls", count(Call::NodeProcess), "count"),
        metric("node.process_us", l.median_us(Call::NodeProcess), "us"),
        metric("node.share", share("node"), "frac"),
        metric("faults.fade_us", l.median_us(Call::FadeGain), "us"),
        metric("faults.share", share("faults"), "frac"),
        metric("noise.samples", t.noise_samples as f64, "count"),
        metric("noise.awgn_us", l.median_us(Call::Awgn), "us"),
        metric("noise.burst_us", l.median_us(Call::Burst), "us"),
        metric("noise.share", share("noise"), "frac"),
        metric(
            "receiver.decodes",
            (fe.decodes + t.count(Call::DecodeEnvelope)) as f64,
            "count",
        ),
        metric(
            "receiver.decode_verdict_us",
            l.median_us(Call::DecodeVerdict),
            "us",
        ),
        metric("receiver.decode_us", l.median_us(Call::Decode), "us"),
        metric(
            "receiver.demodulate_complex_us",
            l.median_us(Call::DemodulateComplex),
            "us",
        ),
        metric(
            "receiver.decode_envelope_us",
            l.median_us(Call::DecodeEnvelope),
            "us",
        ),
        metric("receiver.samples_in", fe.samples_in as f64, "count"),
        metric("receiver.samples_out", fe.samples_out as f64, "count"),
        metric("receiver.macs_saved", fe.macs_saved as f64, "count"),
        metric(
            "receiver.design_hit_ratio",
            ratio(fe.design_hits, fe.design_hits + fe.design_misses),
            "ratio",
        ),
        metric("receiver.share", share("receiver"), "frac"),
        metric(
            "collision.zero_force_us",
            l.median_us(Call::ZeroForce),
            "us",
        ),
        metric(
            "collision.estimate_channel_us",
            l.median_us(Call::EstimateChannel),
            "us",
        ),
        metric("collision.share", share("collision"), "frac"),
        metric("collision_group.trainings", t.trainings as f64, "count"),
        metric("collision_group.train_ms", stats::median(&l.train_ms), "ms"),
        metric("collision_group.slots", t.collision_slots as f64, "count"),
        metric("collision_group.slot_ms", stats::median(&l.slot_ms), "ms"),
        metric("collision_group.fallbacks", t.fallbacks as f64, "count"),
        metric("link.exchanges", e as f64, "count"),
        metric(
            "link.slot_exchange_us",
            stats::median(&l.slot_exchange_us),
            "us",
        ),
        metric(
            "link.slot_exchange_us_p95",
            stats::quantile(&l.slot_exchange_us, 0.95),
            "us",
        ),
        metric(
            "link.exchange_hit_ratio",
            ratio(link.exchange_hits, e),
            "ratio",
        ),
        metric("link.wave_hit_ratio", ratio(link.wave_hits, e), "ratio"),
        metric("link.bypasses", link.bypasses as f64, "count"),
        metric(
            "link.scratch_pool_misses",
            link.scratch_pool_misses as f64,
            "count",
        ),
        metric(
            "mac.next_slot_plan_us",
            l.median_us(Call::NextSlotPlan),
            "us",
        ),
        metric("mac.record_us", l.median_us(Call::Record), "us"),
        metric("mac.retries", t.retries as f64, "count"),
        metric("mac.backoffs", t.backoffs as f64, "count"),
        metric("mac.rate_steps", t.rate_steps as f64, "count"),
        metric("mac.idle_slots", t.idle_slots as f64, "count"),
        metric("mac.share", share("mac"), "frac"),
        metric("faultnet.failed_frac", ratio(t.failed, t.records), "frac"),
        metric(
            "faultnet.trace_overhead_frac",
            traced_wall_s / wall_s - 1.0,
            "frac",
        ),
        metric(
            "faultnet.unattributed_frac",
            1.0 - shares.values().sum::<f64>(),
            "frac",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// The `"name"` values of one array-valued section of BENCHMARK.json.
    fn names_in(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    /// Every workload, in-process at one packet per node and one round:
    /// every metric BENCHMARK.json names is present and finite.
    #[test]
    fn every_workload_reports_every_pinned_metric() {
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names_in("workloads"), workloads);
        let smoke = Budget {
            packets: 1,
            seconds: 0.0,
            min_rounds: 1,
            setup_probes: 1,
            span_batches: 1,
            spans: SpanCalls {
                per_call: 2,
                slot_exchange: 2,
                group: 1,
            },
        };
        for w in Workload::ALL {
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = run_workload(w, 5, traced, smoke, || {
                    Timed::measure(|| setup_once(&w.config(5, 1)))
                })
                .unwrap();
                assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
                let json = outcome.json().unwrap();
                for name in names_in(section) {
                    let m = outcome
                        .metrics
                        .iter()
                        .find(|m| m.name == name)
                        .unwrap_or_else(|| panic!("{}: no metric {name}", w.name()));
                    assert!(m.value.is_finite(), "{}: {name} = {}", w.name(), m.value);
                    assert!(json.contains(&format!("\"{name}\":{{\"value\":")));
                }
                assert_eq!(
                    outcome.metrics.len(),
                    names_in(section).len(),
                    "{}",
                    w.name()
                );
            }
        }
    }
}
