//! Per-layer spans. Each layer's public function is timed, span by span,
//! on inputs composed from the workload's own configuration and its
//! traced exchanges; the spans stay in memory, and the traced round's
//! call counts weight them into shares of the untraced wall time.
//!
//! The inputs come from rebuilding the simulator's slots out of the same
//! public calls it makes (`LinkParts`, `GroupParts`); the tests below pin
//! that the rebuilt slots decode bit for bit what the simulator decodes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use pab_channel::noise::add_awgn;
use pab_channel::{FaultSchedule, MultipathChannel, Position};
use pab_core::collision::{estimate_channel_complex, zero_force_n_complex, ComplexAffineChannel};
use pab_core::collision_group::CollisionGroupSimulator;
use pab_core::faultnet::{FaultNetConfig, FaultNodeSpec};
use pab_core::link::{LinkConfig, LinkSimulator};
use pab_core::node::{IncidentComponent, PabNode};
use pab_core::projector::Projector;
use pab_core::receiver::Receiver;
use pab_core::{margin_samples, CoreError};
use pab_dsp::Complex64;
use pab_mcu::Clock;
use pab_net::mac::{NodeEntry, ResilientMac};
use pab_net::packet::{Command, DownlinkQuery, UplinkPacket, BROADCAST_ADDR};
use pab_sensors::WaterSample;
use pab_sweep::derive_seed;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::{Call, ExchangeAt, Path, Trace};
use crate::workloads::{link_config, top_rate_bps};
use crate::BenchResult;

/// Calls discarded before each span series.
const WARMUP: usize = 3;

/// Traced exchanges rebuilt as span inputs, spread over the round.
const COMPOSED_EXCHANGES: usize = 8;

/// How many spans to keep per series, in each batch.
#[derive(Debug, Clone, Copy)]
pub struct SpanCalls {
    /// Per layer function.
    pub per_call: usize,
    /// `LinkSimulator::slot_exchange`, whose 95th percentile is reported.
    pub slot_exchange: usize,
    /// Whole group trainings and collision slots (hundreds of ms each).
    pub group: usize,
}

/// Every span of the traced workload, in microseconds unless named
/// otherwise.
#[derive(Debug, Default)]
pub struct Layers {
    pub spans: BTreeMap<(Call, Path), Vec<f64>>,
    /// Mean channel taps × input samples per propagation call, per path.
    pub tap_macs_per_call: BTreeMap<Path, f64>,
    pub channel_us: Vec<f64>,
    pub slot_exchange_us: Vec<f64>,
    pub train_ms: Vec<f64>,
    pub slot_ms: Vec<f64>,
}

impl Layers {
    fn series(
        &mut self,
        call: Call,
        path: Path,
        batch: Batch,
        one: impl FnMut(usize) -> BenchResult<f64>,
    ) -> BenchResult<()> {
        let spans = series(batch, one)?;
        self.spans.entry((call, path)).or_default().extend(spans);
        Ok(())
    }

    /// Median span of `call` over both paths (0 when it never ran).
    pub fn median_us(&self, call: Call) -> f64 {
        let all: Vec<f64> = self
            .spans
            .iter()
            .filter(|((c, _), _)| *c == call)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        crate::stats::median(&all)
    }

    /// Each layer's share of the untraced wall time: calls × median span.
    pub fn shares(&self, trace: &Trace, wall_s: f64) -> BenchResult<BTreeMap<&'static str, f64>> {
        let mut shares: BTreeMap<&'static str, f64> =
            SHARE_LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (call, path, n) in trace.calls() {
            if n == 0 {
                continue;
            }
            let spans = self.spans.get(&(call, path)).ok_or_else(|| {
                format!("{call:?} ran {n} times on the {path:?} path but has no spans")
            })?;
            *shares.entry(layer_of(call)).or_default() +=
                n as f64 * crate::stats::median(spans) / (wall_s * 1e6);
        }
        Ok(shares)
    }
}

/// The layers that own wall time in a slot, by the module that owns
/// each function.
pub const SHARE_LAYERS: [&str; 8] = [
    "projector",
    "propagation",
    "node",
    "faults",
    "noise",
    "receiver",
    "collision",
    "mac",
];

pub fn layer_of(call: Call) -> &'static str {
    match call {
        Call::QueryWaveform => "projector",
        Call::Propagate => "propagation",
        Call::NodeProcess => "node",
        Call::FadeGain => "faults",
        Call::Awgn | Call::Burst => "noise",
        Call::DecodeVerdict | Call::Decode | Call::DemodulateComplex | Call::DecodeEnvelope => {
            "receiver"
        }
        Call::ZeroForce | Call::EstimateChannel => "collision",
        Call::NextSlotPlan | Call::Record => "mac",
    }
}

/// One batch of a span series: `warmup` discarded calls, then `calls`
/// kept ones, their inputs indexed from `start` so that successive
/// batches cycle on through the inputs.
#[derive(Debug, Clone, Copy)]
struct Batch {
    warmup: usize,
    start: usize,
    calls: usize,
}

/// Run `one` for the batch's calls, keeping the spans it returns after
/// the warm-up.
fn series(b: Batch, mut one: impl FnMut(usize) -> BenchResult<f64>) -> BenchResult<Vec<f64>> {
    let mut spans = Vec::with_capacity(b.calls);
    for i in 0..b.warmup + b.calls {
        let span = one(b.start + i)?;
        if i >= b.warmup {
            spans.push(span);
        }
    }
    Ok(spans)
}

/// Run `f` once, returning its result and its span in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// [`timed`] for a call that must succeed: its span, or its error.
fn timed_ok<T, E: Into<Box<dyn std::error::Error>>>(
    f: impl FnOnce() -> Result<T, E>,
) -> BenchResult<f64> {
    let (r, us) = timed(f);
    r.map(|_| us).map_err(Into::into)
}

/// Per-node link parts, and traced exchanges rebuilt on them.
struct LinkInputs {
    parts: Vec<LinkParts>,
    exchanges: Vec<(usize, Exchange)>,
}

/// A collision group rebuilt from public calls, and the simulator's own.
struct GroupInputs {
    parts: GroupParts,
    training: Vec<GroupSlot>,
    collision: Collision,
    channels: Vec<ComplexAffineChannel>,
    sim: CollisionGroupSimulator,
}

/// The span inputs of one traced workload, built once, then timed in
/// batches that the caller interleaves with untraced rounds, so spans
/// and the rounds they are shares of run under the same host load.
pub struct Harness<'a> {
    cfg: &'a FaultNetConfig,
    trace: &'a Trace,
    link: Option<LinkInputs>,
    group: Option<GroupInputs>,
    designs: Vec<(Position, Position, f64)>,
    /// The first node's link simulator and its traced exchanges.
    slot_sim: LinkSimulator,
    slot_exchanges: Vec<ExchangeAt>,
    batches: usize,
    layers: Layers,
}

impl<'a> Harness<'a> {
    /// Rebuild the traced round's exchanges (up to
    /// [`COMPOSED_EXCHANGES`], spread over the round) and its collision
    /// group as span inputs.
    pub fn new(cfg: &'a FaultNetConfig, trace: &'a Trace) -> BenchResult<Harness<'a>> {
        let link = if trace.exchanges.is_empty() {
            None
        } else {
            let mut parts = cfg
                .nodes
                .iter()
                .map(|s| LinkParts::new(link_config(cfg, s)))
                .collect::<BenchResult<Vec<_>>>()?;
            let step = trace.exchanges.len().div_ceil(COMPOSED_EXCHANGES);
            let mut xs = Vec::new();
            for at in trace.exchanges.iter().step_by(step) {
                let i = cfg
                    .nodes
                    .iter()
                    .position(|s| s.addr == at.addr)
                    .ok_or("traced exchange from an unknown node")?;
                let spec = &cfg.nodes[i];
                let x = parts[i].exchange(
                    spec.addr,
                    cfg.command,
                    &spec.faults,
                    at.t_start_s,
                    at.rate_bps,
                )?;
                xs.push((i, x));
            }
            Some(LinkInputs {
                parts,
                exchanges: xs,
            })
        };
        let group = match trace.group_rate_bps {
            None => None,
            Some(rate_bps) => {
                let mut parts = GroupParts::new(cfg, rate_bps)?;
                let (training, channels) = parts.train(cfg.command)?;
                let collision = parts.collision(cfg.command, &channels)?;
                let addrs: Vec<u8> = parts.members.iter().map(|m| m.addr).collect();
                let mut sim = CollisionGroupSimulator::new(cfg, &addrs)?;
                sim.set_bitrate_target(rate_bps)?;
                Some(GroupInputs {
                    parts,
                    training,
                    collision,
                    channels,
                    sim,
                })
            }
        };
        let first = &cfg.nodes[0];
        Ok(Harness {
            cfg,
            trace,
            link,
            group,
            designs: channel_designs(cfg, trace.groups_built > 0),
            slot_sim: LinkSimulator::new(link_config(cfg, first))?,
            slot_exchanges: trace
                .exchanges
                .iter()
                .copied()
                .filter(|x| x.addr == first.addr)
                .collect(),
            batches: 0,
            layers: Layers::default(),
        })
    }

    /// Time one more batch of every series (the first batch also runs
    /// each series' warm-up calls).
    pub fn batch(&mut self, calls: SpanCalls) -> BenchResult<()> {
        let warmup = if self.batches == 0 { WARMUP } else { 0 };
        let n = self.batches;
        self.batches += 1;
        let each = |calls: usize| Batch {
            warmup,
            start: n * (WARMUP + calls),
            calls,
        };
        let (cfg, layers) = (self.cfg, &mut self.layers);
        if let Some(link) = &mut self.link {
            time_link(layers, link, &cfg.nodes, each(calls.per_call))?;
        }
        if let Some(g) = &mut self.group {
            time_group(layers, g, cfg.command, each(calls.per_call))?;
            let sim = &mut g.sim;
            layers.train_ms.extend(series(each(calls.group), |_| {
                Ok(timed_ok(|| sim.train(cfg.command))? / 1e3)
            })?);
            layers.slot_ms.extend(series(each(calls.group), |_| {
                Ok(timed_ok(|| sim.collision_slot(cfg.command))? / 1e3)
            })?);
        }
        time_mac(layers, cfg, self.trace, each(calls.per_call))?;

        let designs = &self.designs;
        layers.channel_us.extend(series(each(calls.per_call), |i| {
            let (a, b, f_hz) = designs[i % designs.len()];
            timed_ok(|| cfg.pool.channel(&a, &b, cfg.max_reflections, f_hz))
        })?);

        // `slot_exchange` on the first node's link at its traced exchange
        // times (a healthy cadence when it had none).
        let (sim, mine, spec) = (&mut self.slot_sim, &self.slot_exchanges, &cfg.nodes[0]);
        layers
            .slot_exchange_us
            .extend(series(each(calls.slot_exchange), |i| {
                let (t_start_s, rate_bps) = match mine.get(i % mine.len().max(1)) {
                    Some(x) => (x.t_start_s, x.rate_bps),
                    None => (0.25 * i as f64, top_rate_bps(cfg)),
                };
                sim.set_bitrate_target(rate_bps)?;
                timed_ok(|| {
                    sim.slot_exchange(spec.addr, cfg.command, &spec.faults, t_start_s, None)
                })
            })?);
        Ok(())
    }

    pub fn finish(self) -> Layers {
        self.layers
    }
}

/// Every `(from, to, carrier)` channel the round designs.
fn channel_designs(cfg: &FaultNetConfig, group: bool) -> Vec<(Position, Position, f64)> {
    let (p, h) = (cfg.projector_pos, cfg.hydrophone_pos);
    let mut designs = Vec::new();
    for s in &cfg.nodes {
        designs.extend([
            (p, s.position, s.carrier_hz),
            (p, h, s.carrier_hz),
            (s.position, h, s.carrier_hz),
        ]);
    }
    if group {
        for m in &cfg.nodes {
            for c in &cfg.nodes {
                designs.extend([(p, m.position, c.carrier_hz), (m.position, h, c.carrier_hz)]);
            }
        }
        designs.extend(cfg.nodes.iter().map(|c| (p, h, c.carrier_hz)));
    }
    designs
}

/// The divider the MCU programs for `rate_bps`, and the quantized rate.
fn divider_for(rate_bps: f64) -> BenchResult<(u16, f64)> {
    let clock = Clock::watch_crystal();
    let divider = clock.divider_for_bitrate(rate_bps)?;
    Ok((u16::try_from(divider)?, clock.bitrate_for_divider(divider)?))
}

/// The fade's per-sample path gain, applied as the simulator applies it
/// (a multiply by exactly 1.0 outside fade windows).
fn fade(samples: &mut [f64], faults: &FaultSchedule, t_start_s: f64, fs_hz: f64) {
    if !faults.is_quiet() {
        for (i, s) in samples.iter_mut().enumerate() {
            *s *= faults.gain_at(t_start_s + i as f64 / fs_hz);
        }
    }
}

/// One link simulator's layer objects, built as `LinkSimulator::new`
/// builds them.
pub struct LinkParts {
    cfg: LinkConfig,
    projector: Projector,
    node: PabNode,
    receiver: Receiver,
    rng: ChaCha8Rng,
    ch_pn: MultipathChannel,
    ch_ph: MultipathChannel,
    ch_nh: MultipathChannel,
    sigma_pa: f64,
}

/// One exchange composed from public calls, keeping each call's input.
pub struct Exchange {
    query: DownlinkQuery,
    cfo_hz: f64,
    cw_tail_s: f64,
    divider: u16,
    bitrate_bps: f64,
    t_start_s: f64,
    tx: Vec<f64>,
    incident: Vec<IncidentComponent>,
    backscatter: Vec<f64>,
    y_clean: Vec<f64>,
    /// The recorded voltage the decoders take.
    y_rx: Vec<f64>,
}

impl LinkParts {
    pub fn new(cfg: LinkConfig) -> BenchResult<LinkParts> {
        let mut projector = Projector::new(cfg.drive_voltage_v)?;
        projector.fs_hz = cfg.fs_hz;
        let mut node = PabNode::new(cfg.node_addr, cfg.f_match_hz)?;
        node.battery_assisted = cfg.battery_assisted;
        node.default_divider = divider_for(cfg.bitrate_target_bps)?.0;
        let channel = |from: &Position, to: &Position| {
            cfg.pool
                .channel(from, to, cfg.max_reflections, cfg.carrier_hz)
        };
        let ch_pn = channel(&cfg.projector_pos, &cfg.node_pos)?;
        let ch_ph = channel(&cfg.projector_pos, &cfg.hydrophone_pos)?;
        let ch_nh = channel(&cfg.node_pos, &cfg.hydrophone_pos)?;
        let sigma_pa =
            cfg.noise.rms_pressure_pa(cfg.carrier_hz, cfg.fs_hz / 2.0)? * cfg.noise_scale;
        Ok(LinkParts {
            projector,
            node,
            receiver: Receiver::new(1.0e-3, cfg.fs_hz),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            ch_pn,
            ch_ph,
            ch_nh,
            sigma_pa,
            cfg,
        })
    }

    /// One exchange at `rate_bps`, composed as
    /// `LinkSimulator::run_query_to_faulted` composes it up to the
    /// decoder: query waveform → downlink propagation → node → both
    /// uplink legs → AWGN → burst → hydrophone scaling.
    pub fn exchange(
        &mut self,
        dest: u8,
        command: Command,
        faults: &FaultSchedule,
        t_start_s: f64,
        rate_bps: f64,
    ) -> BenchResult<Exchange> {
        let (fs_hz, carrier_hz) = (self.cfg.fs_hz, self.cfg.carrier_hz);
        let (divider, bitrate_bps) = divider_for(rate_bps)?;
        self.node.default_divider = divider;
        let payload_len = if matches!(command, Command::ReadSensor(_)) {
            4
        } else {
            0
        };
        let cw_tail_s = 5e-3 + UplinkPacket::bits_len(payload_len) as f64 / bitrate_bps + 30e-3;
        let query = DownlinkQuery { dest, command };
        let cfo_hz = self.projector.cfo_hz + faults.drift_at_hz(t_start_s);
        let tx = self.query_waveform(&query, cfo_hz, cw_tail_s)?;
        if faults.node_down_during(t_start_s, t_start_s + tx.len() as f64 / fs_hz) {
            return Err("dropout windows are not composed".into());
        }
        let mut samples = self.ch_pn.apply(&tx, fs_hz);
        fade(&mut samples, faults, t_start_s, fs_hz);
        let incident = vec![IncidentComponent {
            carrier_hz,
            samples,
        }];
        let out = self.node.process(&incident, fs_hz, Some(self.cfg.water))?;
        let mut backscatter = out.backscatter[0].clone();
        fade(&mut backscatter, faults, t_start_s, fs_hz);
        let mut y = vec![0.0; backscatter.len() + margin_samples(fs_hz)?];
        self.ch_ph.apply_into(&mut y, &tx, fs_hz);
        self.ch_nh.apply_into(&mut y, &backscatter, fs_hz);
        let y_clean = y.clone();
        add_awgn(&mut y, self.sigma_pa, &mut self.rng);
        faults.add_burst_noise(&mut y, t_start_s, fs_hz);
        let y_rx = self.receiver.record(&y);
        Ok(Exchange {
            query,
            cfo_hz,
            cw_tail_s,
            divider,
            bitrate_bps,
            t_start_s,
            tx,
            incident,
            backscatter,
            y_clean,
            y_rx,
        })
    }

    fn query_waveform(
        &mut self,
        query: &DownlinkQuery,
        cfo_hz: f64,
        cw_tail_s: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let saved_cfo_hz = self.projector.cfo_hz;
        self.projector.cfo_hz = cfo_hz;
        let wave = self
            .projector
            .query_waveform(query, self.cfg.carrier_hz, cw_tail_s);
        self.projector.cfo_hz = saved_cfo_hz;
        Ok(wave?.0)
    }
}

fn time_link(
    layers: &mut Layers,
    inputs: &mut LinkInputs,
    specs: &[FaultNodeSpec],
    batch: Batch,
) -> BenchResult<()> {
    let LinkInputs {
        parts,
        exchanges: xs,
    } = inputs;
    let pick = |i: usize| &xs[i % xs.len()];
    layers.series(Call::QueryWaveform, Path::Link, batch, |i| {
        let (p, x) = pick(i);
        let part = &mut parts[*p];
        timed_ok(|| part.query_waveform(&x.query, x.cfo_hz, x.cw_tail_s))
    })?;
    // The three propagation legs of each exchange in turn.
    layers.series(Call::Propagate, Path::Link, batch, |i| {
        let (p, x) = pick(i / 3);
        let part = &parts[*p];
        let fs_hz = part.cfg.fs_hz;
        let mut y = vec![0.0; x.y_clean.len()];
        Ok(match i % 3 {
            0 => timed(|| part.ch_pn.apply(&x.tx, fs_hz)).1,
            1 => timed(|| part.ch_ph.apply_into(&mut y, &x.tx, fs_hz)).1,
            _ => timed(|| part.ch_nh.apply_into(&mut y, &x.backscatter, fs_hz)).1,
        })
    })?;
    layers.series(Call::NodeProcess, Path::Link, batch, |i| {
        let (p, x) = pick(i);
        let part = &mut parts[*p];
        part.node.default_divider = x.divider;
        timed_ok(|| {
            part.node
                .process(&x.incident, part.cfg.fs_hz, Some(part.cfg.water))
        })
    })?;
    // The fade's per-sample gain, on the exchanges of nodes that fade:
    // the incident, then the backscattered waveform.
    let faded: Vec<&(usize, Exchange)> = xs
        .iter()
        .filter(|(p, _)| specs[*p].faults.fade_active_during(0.0, f64::INFINITY))
        .collect();
    if !faded.is_empty() {
        layers.series(Call::FadeGain, Path::Link, batch, |i| {
            let (p, x) = faded[(i / 2) % faded.len()];
            let mut y = if i % 2 == 0 {
                x.incident[0].samples.clone()
            } else {
                x.backscatter.clone()
            };
            let fs_hz = parts[*p].cfg.fs_hz;
            Ok(timed(|| fade(&mut y, &specs[*p].faults, x.t_start_s, fs_hz)).1)
        })?;
    }
    layers.series(Call::Awgn, Path::Link, batch, |i| {
        let (p, x) = pick(i);
        let part = &mut parts[*p];
        let mut y = x.y_clean.clone();
        Ok(timed(|| add_awgn(&mut y, part.sigma_pa, &mut part.rng)).1)
    })?;
    layers.series(Call::Burst, Path::Link, batch, |i| {
        let (p, x) = pick(i);
        let mut y = x.y_clean.clone();
        Ok(timed(|| {
            specs[*p]
                .faults
                .add_burst_noise(&mut y, x.t_start_s, parts[*p].cfg.fs_hz)
        })
        .1)
    })?;
    // Erasures are legitimate verdicts here, so decode errors are kept
    // as results rather than raised.
    layers.series(Call::DecodeVerdict, Path::Link, batch, |i| {
        let (p, x) = pick(i);
        let part = &parts[*p];
        Ok(timed(|| {
            part.receiver
                .decode_uplink_verdict(&x.y_rx, part.cfg.carrier_hz, x.bitrate_bps)
        })
        .1)
    })?;
    layers.series(Call::Decode, Path::Link, batch, |i| {
        let (p, x) = pick(i);
        let part = &parts[*p];
        Ok(timed(|| {
            part.receiver
                .decode_uplink(&x.y_rx, part.cfg.carrier_hz, x.bitrate_bps)
        })
        .1)
    })?;

    let macs: Vec<f64> = xs
        .iter()
        .flat_map(|(p, x)| {
            let part = &parts[*p];
            [
                (part.ch_pn.taps().len() * x.tx.len()) as f64,
                (part.ch_ph.taps().len() * x.tx.len()) as f64,
                (part.ch_nh.taps().len() * x.backscatter.len()) as f64,
            ]
        })
        .collect();
    layers
        .tap_macs_per_call
        .insert(Path::Link, crate::stats::mean(&macs));
    Ok(())
}

struct Member {
    addr: u8,
    carrier_hz: f64,
    node: PabNode,
    /// Projector→member and member→hydrophone channels per member carrier.
    ch_down: Vec<MultipathChannel>,
    ch_up: Vec<MultipathChannel>,
}

/// A collision group's layer objects, built as
/// `CollisionGroupSimulator::new` builds them, at one commanded rate.
pub struct GroupParts {
    members: Vec<Member>,
    projector: Projector,
    receiver: Receiver,
    rng: ChaCha8Rng,
    ch_direct: Vec<MultipathChannel>,
    fs_hz: f64,
    sigma_pa: f64,
    bitrate_bps: f64,
}

/// One group slot composed from public calls, keeping each call's input.
pub struct GroupSlot {
    waves: Vec<Vec<f64>>,
    incident: Vec<Vec<IncidentComponent>>,
    backscatter: Vec<Vec<Vec<f64>>>,
    y_clean: Vec<f64>,
    recorded: Vec<f64>,
    baseband: Vec<Vec<Complex64>>,
    truths: Vec<Vec<f64>>,
    responded: Vec<bool>,
    active: (usize, usize),
}

/// A composed collision slot, zero-forced into per-member streams.
pub struct Collision {
    slot: GroupSlot,
    bands: Vec<Vec<Complex64>>,
    streams: Vec<Vec<f64>>,
}

impl GroupParts {
    /// The group of every node of `cfg`, in channel order.
    pub fn new(cfg: &FaultNetConfig, rate_bps: f64) -> BenchResult<GroupParts> {
        let mut specs: Vec<&FaultNodeSpec> = cfg.nodes.iter().collect();
        specs.sort_by_key(|s| s.channel);
        let mut projector = Projector::new(cfg.drive_voltage_v)?;
        projector.fs_hz = cfg.fs_hz;
        let (divider, bitrate_bps) = divider_for(rate_bps)?;
        let channel = |from: &Position, to: &Position, f_hz: f64| {
            cfg.pool.channel(from, to, cfg.max_reflections, f_hz)
        };
        let mut members = Vec::with_capacity(specs.len());
        for spec in &specs {
            let mut node = PabNode::new(spec.addr, spec.carrier_hz)?;
            node.default_divider = divider;
            let (mut ch_down, mut ch_up) = (Vec::new(), Vec::new());
            for c in &specs {
                ch_down.push(channel(&cfg.projector_pos, &spec.position, c.carrier_hz)?);
                ch_up.push(channel(&spec.position, &cfg.hydrophone_pos, c.carrier_hz)?);
            }
            members.push(Member {
                addr: spec.addr,
                carrier_hz: spec.carrier_hz,
                node,
                ch_down,
                ch_up,
            });
        }
        let ch_direct = specs
            .iter()
            .map(|c| channel(&cfg.projector_pos, &cfg.hydrophone_pos, c.carrier_hz))
            .collect::<Result<Vec<_>, _>>()?;
        let sigma_pa = cfg
            .noise
            .rms_pressure_pa(specs[0].carrier_hz, cfg.fs_hz / 2.0)?
            * cfg.noise_scale;
        let mut seed = derive_seed(cfg.seed, 0x636f_6c6c);
        for spec in &specs {
            seed = derive_seed(seed, u64::from(spec.addr));
        }
        Ok(GroupParts {
            members,
            projector,
            receiver: Receiver::new(1.0e-3, cfg.fs_hz),
            rng: ChaCha8Rng::seed_from_u64(seed),
            ch_direct,
            fs_hz: cfg.fs_hz,
            sigma_pa,
            bitrate_bps,
        })
    }

    fn tail_s(&self) -> f64 {
        5e-3 + UplinkPacket::bits_len(0) as f64 / self.bitrate_bps + 40e-3
    }

    fn cutoff_hz(&self) -> f64 {
        (2.0 * self.bitrate_bps).clamp(200.0, 0.4 * self.fs_hz)
    }

    /// Every member hears every carrier through its own channels and
    /// backscatters all of them; the hydrophone demodulates each band.
    fn run_slot(&mut self, waves: Vec<Vec<f64>>) -> BenchResult<GroupSlot> {
        let fs_hz = self.fs_hz;
        let margin = margin_samples(fs_hz)?;
        let n_rx = waves.iter().map(Vec::len).max().unwrap_or(0) + 4 * margin;
        let mut incident = Vec::with_capacity(self.members.len());
        let mut outs = Vec::with_capacity(self.members.len());
        for m in &self.members {
            let components: Vec<IncidentComponent> = waves
                .iter()
                .zip(&self.members)
                .zip(&m.ch_down)
                .map(|((w, c), ch)| IncidentComponent {
                    carrier_hz: c.carrier_hz,
                    samples: ch.apply(w, fs_hz),
                })
                .collect();
            outs.push(
                m.node
                    .process(&components, fs_hz, Some(WaterSample::bench()))?,
            );
            incident.push(components);
        }
        let mut y = vec![0.0; n_rx];
        for (w, ch) in waves.iter().zip(&self.ch_direct) {
            ch.apply_into(&mut y, w, fs_hz);
        }
        let mut truths = Vec::with_capacity(outs.len());
        for (out, m) in outs.iter().zip(&self.members) {
            for (ch, b) in m.ch_up.iter().zip(&out.backscatter) {
                ch.apply_into(&mut y, b, fs_hz);
            }
            let delay = (m.ch_up[0].direct().delay_s * fs_hz).floor() as usize;
            let mut truth = vec![0.0; n_rx];
            for (t, &on) in out.switch_wave.iter().enumerate() {
                if let Some(s) = truth.get_mut(t + delay) {
                    *s = if on { 1.0 } else { 0.0 };
                }
            }
            truths.push(truth);
        }
        let y_clean = y.clone();
        add_awgn(&mut y, self.sigma_pa, &mut self.rng);
        let recorded = self.receiver.record(&y);
        let baseband = self
            .members
            .iter()
            .map(|m| {
                self.receiver
                    .demodulate_complex(&recorded, m.carrier_hz, self.cutoff_hz())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let len = baseband.iter().map(Vec::len).min().unwrap_or(0);
        let active = active_range(&truths, (0.005 * fs_hz).floor() as usize, len);
        Ok(GroupSlot {
            waves,
            incident,
            responded: outs.iter().map(|o| o.responses_sent > 0).collect(),
            backscatter: outs.into_iter().map(|o| o.backscatter).collect(),
            y_clean,
            recorded,
            baseband,
            truths,
            active,
        })
    }

    /// The k training slots (one member queried, continuous wave on the
    /// other carriers) and the band-major channel matrix fitted to them.
    pub fn train(
        &mut self,
        command: Command,
    ) -> BenchResult<(Vec<GroupSlot>, Vec<ComplexAffineChannel>)> {
        let k = self.members.len();
        let mut offsets = vec![Complex64::new(0.0, 0.0); k];
        let mut gains = vec![vec![Complex64::new(0.0, 0.0); k]; k];
        let mut slots = Vec::with_capacity(k);
        for j in 0..k {
            let query = DownlinkQuery {
                dest: self.members[j].addr,
                command,
            };
            let (wq, _) =
                self.projector
                    .query_waveform(&query, self.members[j].carrier_hz, self.tail_s())?;
            let dur_s = wq.len() as f64 / self.fs_hz;
            let mut waves: Vec<Vec<f64>> = (0..k)
                .map(|ci| {
                    if ci == j {
                        Vec::new()
                    } else {
                        self.projector
                            .continuous_wave(self.members[ci].carrier_hz, dur_s)
                    }
                })
                .collect();
            waves[j] = wq;
            let slot = self.run_slot(waves)?;
            if !slot.responded[j] {
                return Err(CoreError::NodeNotPoweredUp.into());
            }
            let (a0, a1) = slot.active;
            for b in 0..k {
                let ch = estimate_channel_complex(
                    &slot.baseband[b][a0..a1],
                    &[&slot.truths[j][a0..a1]],
                )?;
                offsets[b] += ch.offset / k as f64;
                gains[b][j] = ch.gains[0];
            }
            slots.push(slot);
        }
        let channels = offsets
            .into_iter()
            .zip(gains)
            .map(|(offset, gains)| ComplexAffineChannel { offset, gains })
            .collect();
        Ok((slots, channels))
    }

    /// One broadcast collision slot, zero-forced into per-member streams.
    pub fn collision(
        &mut self,
        command: Command,
        channels: &[ComplexAffineChannel],
    ) -> BenchResult<Collision> {
        let query = DownlinkQuery {
            dest: BROADCAST_ADDR,
            command,
        };
        let waves = self
            .members
            .iter()
            .map(|m| {
                Ok(self
                    .projector
                    .query_waveform(&query, m.carrier_hz, self.tail_s())?
                    .0)
            })
            .collect::<BenchResult<Vec<_>>>()?;
        let slot = self.run_slot(waves)?;
        let (c0, c1) = slot.active;
        let bands: Vec<Vec<Complex64>> = slot.baseband.iter().map(|b| b[c0..c1].to_vec()).collect();
        let streams = zero_force_n_complex(&bands, channels)?;
        Ok(Collision {
            slot,
            bands,
            streams,
        })
    }
}

/// First/last sample where any member's switching stream is on, padded
/// and clamped (as the group simulator windows its fits).
fn active_range(truths: &[Vec<f64>], pad: usize, len: usize) -> (usize, usize) {
    let mut first = len;
    let mut last = 0;
    for s in truths {
        if let Some(i) = s.iter().position(|&v| v > 0.5) {
            first = first.min(i);
        }
        if let Some(i) = s.iter().rposition(|&v| v > 0.5) {
            last = last.max(i);
        }
    }
    if first >= last {
        return (0, len);
    }
    (first.saturating_sub(pad), (last + pad).min(len))
}

fn time_group(
    layers: &mut Layers,
    inputs: &mut GroupInputs,
    command: Command,
    batch: Batch,
) -> BenchResult<()> {
    let GroupInputs {
        parts: g,
        training,
        collision: c,
        channels,
        ..
    } = inputs;
    let k = g.members.len();
    let fs_hz = g.fs_hz;
    let query = DownlinkQuery {
        dest: BROADCAST_ADDR,
        command,
    };
    let tail_s = g.tail_s();
    layers.series(Call::QueryWaveform, Path::Group, batch, |i| {
        timed_ok(|| {
            g.projector
                .query_waveform(&query, g.members[i % k].carrier_hz, tail_s)
        })
    })?;
    // The slot's propagations in order: k² down, k direct, k² up.
    let legs = 2 * k * k + k;
    layers.series(Call::Propagate, Path::Group, batch, |i| {
        let j = i % legs;
        let mut y = vec![0.0; c.slot.y_clean.len()];
        Ok(if j < k * k {
            let (m, ci) = (j / k, j % k);
            timed(|| g.members[m].ch_down[ci].apply(&c.slot.waves[ci], fs_hz)).1
        } else if j < k * k + k {
            let ci = j - k * k;
            timed(|| g.ch_direct[ci].apply_into(&mut y, &c.slot.waves[ci], fs_hz)).1
        } else {
            let (m, ci) = ((j - k * k - k) / k, (j - k * k - k) % k);
            timed(|| g.members[m].ch_up[ci].apply_into(&mut y, &c.slot.backscatter[m][ci], fs_hz)).1
        })
    })?;
    layers.series(Call::NodeProcess, Path::Group, batch, |i| {
        let m = i % k;
        timed_ok(|| {
            g.members[m]
                .node
                .process(&c.slot.incident[m], fs_hz, Some(WaterSample::bench()))
        })
    })?;
    layers.series(Call::Awgn, Path::Group, batch, |_| {
        let mut y = c.slot.y_clean.clone();
        Ok(timed(|| add_awgn(&mut y, g.sigma_pa, &mut g.rng)).1)
    })?;
    let cutoff_hz = g.cutoff_hz();
    layers.series(Call::DemodulateComplex, Path::Group, batch, |i| {
        timed_ok(|| {
            g.receiver
                .demodulate_complex(&c.slot.recorded, g.members[i % k].carrier_hz, cutoff_hz)
        })
    })?;
    layers.series(Call::EstimateChannel, Path::Group, batch, |i| {
        let (j, b) = ((i / k) % k, i % k);
        let t = &training[j];
        let (a0, a1) = t.active;
        timed_ok(|| estimate_channel_complex(&t.baseband[b][a0..a1], &[&t.truths[j][a0..a1]]))
    })?;
    layers.series(Call::ZeroForce, Path::Group, batch, |_| {
        timed_ok(|| zero_force_n_complex(&c.bands, channels))
    })?;
    layers.series(Call::DecodeEnvelope, Path::Group, batch, |i| {
        Ok(timed(|| g.receiver.decode_envelope(&c.streams[i % k], g.bitrate_bps)).1)
    })?;

    let mut macs = Vec::with_capacity(legs);
    for (m, member) in g.members.iter().enumerate() {
        for (ci, ch) in member.ch_down.iter().enumerate() {
            macs.push((ch.taps().len() * c.slot.waves[ci].len()) as f64);
        }
        for (ci, ch) in member.ch_up.iter().enumerate() {
            macs.push((ch.taps().len() * c.slot.backscatter[m][ci].len()) as f64);
        }
    }
    for (ci, ch) in g.ch_direct.iter().enumerate() {
        macs.push((ch.taps().len() * c.slot.waves[ci].len()) as f64);
    }
    layers
        .tap_macs_per_call
        .insert(Path::Group, crate::stats::mean(&macs));
    Ok(())
}

/// Replay the traced round's slot plans and observations through a fresh
/// MAC, timing every `next_slot_plan` and `record`.
fn time_mac(layers: &mut Layers, cfg: &FaultNetConfig, trace: &Trace, b: Batch) -> BenchResult<()> {
    if trace.records == 0 {
        return Err("the traced round recorded no observation".into());
    }
    let (mut plans, mut records) = (Vec::new(), Vec::new());
    while plans.len() < b.warmup + b.calls || records.len() < b.warmup + b.calls {
        let mut mac =
            ResilientMac::new(cfg.plan.clone(), cfg.policy.clone(), cfg.per_node_packets)?;
        mac.set_concurrency(cfg.concurrency.clone())?;
        for s in &cfg.nodes {
            mac.register(NodeEntry {
                addr: s.addr,
                channel: s.channel,
            })?;
        }
        for slot in &trace.slot_log {
            let (_, us) = timed(|| mac.next_slot_plan(cfg.command, |_: &[u8]| slot.collision));
            plans.push(us);
            for &(addr, obs) in &slot.observations {
                records.push(timed_ok(|| mac.record(addr, obs))?);
            }
        }
        if mac.slots_used() != trace.slots || !mac.is_complete() {
            return Err("the MAC replay diverged from the traced round".into());
        }
    }
    for (call, spans) in [(Call::NextSlotPlan, plans), (Call::Record, records)] {
        layers
            .spans
            .entry((call, Path::Link))
            .or_default()
            .extend(&spans[b.warmup..]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use pab_core::faultnet::FaultNetSimulator;
    use pab_telemetry::{Event, Recorder};

    /// Decode a composed exchange with the verdict decoder, as the slot
    /// engine does.
    fn verdict(
        cfg: &FaultNetConfig,
        spec: &FaultNodeSpec,
        x: &Exchange,
    ) -> (Option<UplinkPacket>, f64) {
        match Receiver::new(1.0e-3, cfg.fs_hz).decode_uplink_verdict(
            &x.y_rx,
            spec.carrier_hz,
            x.bitrate_bps,
        ) {
            Ok(v) => (v.packet.ok(), v.preamble_corr),
            Err(_) => (None, 0.0),
        }
    }

    /// A composed exchange must decode exactly what the link simulator
    /// decodes, and what faultnet's first slot decodes, at the same seed.
    #[test]
    fn composed_exchange_matches_the_link_simulator() {
        // fdma_n4 at t = 0; faulted_n2 inside a fade window (node 1), and
        // on a drifting carrier inside the noise burst, which erases the
        // exchange, and after it (node 2).
        for (w, node, t_start_s, delivers) in [
            (Workload::FdmaN4, 0, 0.0, true),
            (Workload::FaultedN2, 0, 2.5, true),
            (Workload::FaultedN2, 1, 1.0, false),
            (Workload::FaultedN2, 1, 6.5, true),
        ] {
            let cfg = w.config(7, 1);
            let spec = &cfg.nodes[node];
            let rate_bps = top_rate_bps(&cfg);
            let mut sim = LinkSimulator::new(link_config(&cfg, spec)).unwrap();
            sim.set_bitrate_target(rate_bps).unwrap();
            let want = sim
                .run_query_to_faulted(spec.addr, cfg.command, &spec.faults, t_start_s)
                .unwrap();
            let x = LinkParts::new(link_config(&cfg, spec))
                .unwrap()
                .exchange(spec.addr, cfg.command, &spec.faults, t_start_s, rate_bps)
                .unwrap();
            let (packet, corr) = verdict(&cfg, spec, &x);
            let tag = format!("{} node {} at {t_start_s} s", w.name(), spec.addr);
            assert_eq!(want.packet.is_some(), delivers, "{tag}");
            assert_eq!(x.y_rx, want.received, "{tag}: recorded waveforms differ");
            assert_eq!(packet, want.packet, "{tag}");
            assert_eq!(corr.to_bits(), want.preamble_corr.to_bits(), "{tag}");
        }

        // Faultnet's first slot queries node 1 at t = 0 through its slot
        // engine; the verdict's correlation is on the trace.
        let cfg = Workload::FdmaN4.config(7, 1);
        let mut rec = Recorder::new(64);
        FaultNetSimulator::new(FaultNetConfig {
            max_slots: 1,
            ..cfg.clone()
        })
        .unwrap()
        .run_with_recorder(Some(&mut rec))
        .unwrap();
        let traced = rec
            .events()
            .find_map(|e| match e.event {
                Event::Detection { node: 1, corr, .. } => Some(corr),
                _ => None,
            })
            .expect("node 1 delivers in the first slot");
        let spec = &cfg.nodes[0];
        let x = LinkParts::new(link_config(&cfg, spec))
            .unwrap()
            .exchange(
                spec.addr,
                cfg.command,
                &spec.faults,
                0.0,
                top_rate_bps(&cfg),
            )
            .unwrap();
        assert_eq!(verdict(&cfg, spec, &x).1.to_bits(), traced.to_bits());
    }

    /// The composed training and collision slot must separate the same
    /// streams the group simulator separates.
    #[test]
    fn composed_collision_matches_the_group_simulator() {
        let cfg = Workload::CollisionN2.config(7, 1);
        let rate_bps = top_rate_bps(&cfg);
        let mut sim = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        sim.set_bitrate_target(rate_bps).unwrap();
        sim.train(cfg.command).unwrap();
        let want = sim.collision_slot(cfg.command).unwrap();

        let mut g = GroupParts::new(&cfg, rate_bps).unwrap();
        let (_, channels) = g.train(cfg.command).unwrap();
        let got = g.collision(cfg.command, &channels).unwrap();
        assert_eq!(got.streams.len(), want.verdicts.len());
        for (stream, v) in got.streams.iter().zip(&want.verdicts) {
            assert!(v.crc_ok, "stream {} must decode", v.addr);
            let d = Receiver::new(1.0e-3, cfg.fs_hz)
                .decode_envelope(stream, g.bitrate_bps)
                .unwrap();
            assert_eq!(d.packet.ok(), v.packet, "stream {}", v.addr);
            assert_eq!(
                d.preamble_corr.to_bits(),
                v.preamble_corr.to_bits(),
                "stream {}",
                v.addr
            );
        }
    }
}
