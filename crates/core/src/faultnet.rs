//! Fault-injected network simulation: the [`ResilientMac`] driving real
//! sample-level acoustics through one link per node, all heard by one
//! hydrophone [`Receiver`], with a [`FaultSchedule`] composed onto every
//! link.
//!
//! This is where the retransmission machinery finally meets the physics:
//! each scheduled query runs the full projector → pool → node → pool →
//! hydrophone → decoder chain, the receiver's verdict (delivered /
//! CRC-failed / erased) feeds the MAC, and the MAC's reactions — retries
//! with backoff, quarantine, eviction, rate-ladder steps — feed back into
//! the next slot's physical parameters (the commanded FM0 divider).
//! Everything is keyed on seeds and absolute simulation time, so a run is
//! bit-reproducible.

use crate::collision_group::CollisionGroupSimulator;
use crate::link::{Link, LinkConfig, SlotEngineStats};
use crate::receiver::{Receiver, StreamVerdict};
use crate::{CoreError, DEFAULT_SAMPLE_RATE_HZ};
use pab_channel::noise::NoiseEnvironment;
use pab_channel::{FaultSchedule, Pool, Position};
use pab_sweep::derive_seed;
use pab_net::mac::{
    fm0_main_lobe_hz, ChannelPlan, Concurrency, MacPolicy, NodeEntry, ResilientMac,
    RxObservation, ScheduledQuery, SlotKind, ThroughputMeter,
};
use pab_net::packet::{Command, UplinkPacket};
use pab_telemetry::{Event, FaultKind, Recorder};
use std::collections::{BTreeMap, BTreeSet};

/// One node in the fault-injected network.
#[derive(Debug, Clone)]
pub struct FaultNodeSpec {
    /// Node address.
    pub addr: u8,
    /// Channel index in the [`ChannelPlan`].
    pub channel: usize,
    /// Downlink carrier / recto-piezo match frequency, Hz.
    pub carrier_hz: f64,
    /// Node position in the pool.
    pub position: Position,
    /// The impairments scheduled onto this node's link.
    pub faults: FaultSchedule,
}

/// Configuration of a fault-injected inventory run.
#[derive(Debug, Clone)]
pub struct FaultNetConfig {
    /// The tank.
    pub pool: Pool,
    /// Projector position.
    pub projector_pos: Position,
    /// Hydrophone position.
    pub hydrophone_pos: Position,
    /// The FDMA channel plan.
    pub plan: ChannelPlan,
    /// The nodes.
    pub nodes: Vec<FaultNodeSpec>,
    /// The coordinator's loss-handling policy.
    pub policy: MacPolicy,
    /// Packets to collect from each node.
    pub per_node_packets: u64,
    /// Hard cap on slots (the watchdog against policies that livelock on
    /// dead nodes — which the baselines do, by design).
    pub max_slots: u64,
    /// The query issued every slot.
    pub command: Command,
    /// Target uplink bitrate at the top of the ladder, bps.
    pub bitrate_target_bps: f64,
    /// Ambient noise.
    pub noise: NoiseEnvironment,
    /// Extra multiplier on ambient noise sigma.
    // lint: unitless multiplier on ambient noise sigma
    pub noise_scale: f64,
    /// Base RNG seed; per-node link seeds derive from it.
    pub seed: u64,
    /// Sample rate, Hz.
    pub fs_hz: f64,
    /// Projector drive voltage, volts.
    pub drive_voltage_v: f64,
    /// Image-method reflection order.
    pub max_reflections: usize,
    /// Has no effect. It used to fan a slot's per-node exchanges out
    /// through the parallel sweep engine, but only a collision slot that
    /// falls back to FDMA carries more than one, and those exchanges are
    /// time-shared: each starts where the previous one ended, so they run
    /// in order.
    pub parallel_slots: bool,
    /// How concurrent uplinks are scheduled and modelled (see
    /// [`Concurrency`]). The default [`Concurrency::Serialized`] time-shares
    /// the medium one uplink at a time; [`Concurrency::Collision`] adds
    /// opportunistic §8 zero-forced collision slots over it.
    pub concurrency: Concurrency,
}

impl Default for FaultNetConfig {
    fn default() -> Self {
        FaultNetConfig {
            pool: Pool::pool_a(),
            projector_pos: Position::new(0.5, 1.5, 0.6),
            hydrophone_pos: Position::new(1.0, 1.2, 0.6),
            plan: ChannelPlan::paper_two_channel(),
            nodes: vec![
                FaultNodeSpec {
                    addr: 1,
                    channel: 0,
                    carrier_hz: 15_000.0,
                    position: Position::new(1.5, 1.5, 0.6),
                    faults: FaultSchedule::default(),
                },
                FaultNodeSpec {
                    addr: 2,
                    channel: 1,
                    carrier_hz: 18_000.0,
                    position: Position::new(1.5, 1.8, 0.6),
                    faults: FaultSchedule::default(),
                },
            ],
            policy: MacPolicy::Adaptive(Default::default()),
            per_node_packets: 2,
            max_slots: 200,
            command: Command::Ping,
            bitrate_target_bps: 2_048.0,
            noise: NoiseEnvironment::quiet_tank(),
            noise_scale: 1.0,
            seed: 1,
            fs_hz: DEFAULT_SAMPLE_RATE_HZ,
            drive_voltage_v: 100.0,
            max_reflections: 3,
            parallel_slots: true,
            concurrency: Concurrency::default(),
        }
    }
}

impl FaultNetConfig {
    /// A fault-free N-node network: carriers evenly spaced across the
    /// 14–20 kHz band (one FDMA channel per node), nodes strung along a
    /// line at x = 1.5 m, everything else at defaults. This is the
    /// canonical scaling configuration — the N-node determinism tests and
    /// the `pab_bench` link workloads build exactly this, so keep the
    /// formula frozen.
    pub fn with_nodes(n: usize) -> Result<Self, CoreError> {
        if n == 0 || n > 64 {
            return Err(CoreError::InvalidConfig("node count must be in 1..=64"));
        }
        let plan = if n == 1 {
            ChannelPlan::new(vec![15_000.0])
        } else {
            ChannelPlan::evenly_spaced(n, 14_000.0, 20_000.0)
        }
        .map_err(CoreError::Net)?;
        // A plan is only usable if adjacent carriers stay main-lobe
        // separated at least at the rate ladder's *terminal* rung — below
        // that spacing, even the slowest FM0 rate smears into the next
        // channel and decodes degrade silently (at N = 64 over 14–20 kHz
        // the spacing is ~95 Hz against a 512 Hz floor-rung main lobe;
        // the 2731 bps top rung needs 5.5 kHz and relies on the ladder
        // backing off under measured interference, see DESIGN.md).
        let floor_bps = pab_net::mac::RateLadder::fm0_default().floor_bps();
        if plan.min_spacing_hz() < pab_net::mac::fm0_main_lobe_hz(floor_bps) {
            return Err(CoreError::InvalidConfig(
                "channel spacing below FM0 floor-rung main lobe",
            ));
        }
        let mut nodes = Vec::with_capacity(n);
        for (i, &carrier_hz) in plan.centers_hz().iter().enumerate() {
            let y_m = if n == 1 {
                1.5
            } else {
                1.0 + 1.6 * i as f64 / (n - 1) as f64
            };
            // Addresses are 1-based; refuse to alias two nodes onto one
            // address if the node-count cap is ever raised past u8 range
            // (the old `unwrap_or(u8::MAX)` silently did exactly that).
            let addr = u8::try_from(i + 1)
                .map_err(|_| CoreError::InvalidConfig("node address overflows u8"))?;
            nodes.push(FaultNodeSpec {
                addr,
                channel: i,
                carrier_hz,
                position: Position::new(1.5, y_m, 0.6),
                faults: FaultSchedule::default(),
            });
        }
        Ok(FaultNetConfig {
            plan,
            nodes,
            ..Default::default()
        })
    }
}

/// Outcome for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutcome {
    /// Node address.
    pub addr: u8,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (retry budget or eviction).
    pub dropped: u64,
    /// Whether the MAC permanently evicted the node.
    pub evicted: bool,
    /// The FM0 rate the node ended the run at, bps.
    pub final_rate_bps: f64,
    /// Final link-quality estimate in [0, 1].
    // lint: unitless link-quality estimate in [0, 1]
    pub quality: f64,
}

/// Outcome of one fault-injected inventory run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultNetReport {
    /// Slots consumed (including idle backoff slots).
    pub slots_used: u64,
    /// Whether the round completed (every non-evicted node met the
    /// target) before `max_slots`.
    pub completed: bool,
    /// Simulated elapsed time, seconds.
    pub elapsed_s: f64,
    /// Total packets delivered.
    pub delivered_total: u64,
    /// Total packets dropped.
    pub dropped_total: u64,
    /// Packet delivery ratio: delivered / (delivered + dropped), 1.0 when
    /// nothing was attempted.
    // lint: unitless packet delivery ratio in [0, 1]
    pub pdr: f64,
    /// Delivered packet bits per simulated second.
    pub goodput_bps: f64,
    /// FNV-1a digest over every delivered packet's bytes, in slot order —
    /// two same-seed runs must agree bit for bit.
    pub bit_digest: u64,
    /// Per-node outcomes, ascending by address.
    pub per_node: Vec<NodeOutcome>,
}

/// The fault-injected network simulator: one link per node (each node
/// owns its channel frequency, fault schedule, noise stream and slot
/// caches) and one hydrophone [`Receiver`] that decodes every link's
/// exchanges, orchestrated by a [`ResilientMac`] over a shared slotted
/// clock.
#[derive(Debug)]
pub struct FaultNetSimulator {
    cfg: FaultNetConfig,
    mac: ResilientMac,
    links: BTreeMap<u8, Link>,
    /// The network's one hydrophone: every link's slot exchange decodes
    /// on it, so the network holds one decode workspace, sized by its
    /// longest exchange, whatever its node count.
    receiver: Receiver,
    faults: BTreeMap<u8, FaultSchedule>,
    /// Collision-group simulators, built lazily per member set and kept
    /// so training survives across slots (keyed by addresses in channel
    /// order).
    groups: BTreeMap<Vec<u8>, CollisionGroupSimulator>,
    /// Member sets whose trained channel matrix tripped the conditioning
    /// gate: never proposed again this run.
    bad_groups: BTreeSet<Vec<u8>>,
    t_now_s: f64,
}

impl FaultNetSimulator {
    /// Build the network: a resilient MAC over the channel plan, one
    /// acoustic link per node and the hydrophone's receiver.
    pub fn new(cfg: FaultNetConfig) -> Result<Self, CoreError> {
        if cfg.nodes.is_empty() {
            return Err(CoreError::InvalidConfig("no nodes"));
        }
        if cfg.max_slots == 0 {
            return Err(CoreError::InvalidConfig("max_slots must be >= 1"));
        }
        let mut mac = ResilientMac::new(
            cfg.plan.clone(),
            cfg.policy.clone(),
            cfg.per_node_packets,
        )
        .map_err(CoreError::Net)?;
        mac.set_concurrency(cfg.concurrency.clone()).map_err(CoreError::Net)?;
        let mut links = BTreeMap::new();
        let mut faults = BTreeMap::new();
        for spec in &cfg.nodes {
            mac.register(NodeEntry {
                addr: spec.addr,
                channel: spec.channel,
            })
            .map_err(CoreError::Net)?;
            let link_cfg = LinkConfig {
                pool: cfg.pool,
                projector_pos: cfg.projector_pos,
                node_pos: spec.position,
                hydrophone_pos: cfg.hydrophone_pos,
                carrier_hz: spec.carrier_hz,
                f_match_hz: spec.carrier_hz,
                node_addr: spec.addr,
                bitrate_target_bps: cfg.bitrate_target_bps,
                drive_voltage_v: cfg.drive_voltage_v,
                max_reflections: cfg.max_reflections,
                noise: cfg.noise,
                noise_scale: cfg.noise_scale,
                seed: derive_seed(cfg.seed, spec.addr as u64),
                fs_hz: cfg.fs_hz,
                ..Default::default()
            };
            links.insert(spec.addr, Link::new(link_cfg)?);
            faults.insert(spec.addr, spec.faults.clone());
        }
        Ok(FaultNetSimulator {
            receiver: Receiver::new(1.0e-3, cfg.fs_hz),
            cfg,
            mac,
            links,
            faults,
            groups: BTreeMap::new(),
            bad_groups: BTreeSet::new(),
            t_now_s: 0.0,
        })
    }

    /// Run the inventory round to completion or `max_slots`, whichever
    /// comes first, and report.
    pub fn run(&mut self) -> Result<FaultNetReport, CoreError> {
        self.run_with_recorder(None)
    }

    /// Like [`run`](Self::run), but narrating the round into an optional
    /// telemetry recorder: slot boundaries, per-node fault-window
    /// entry/exit transitions, harvested-energy samples, the receiver's
    /// aggregate verdict counters, and every MAC decision (via
    /// [`ResilientMac::record_traced`]). The recorder does not perturb the
    /// simulation: a traced run and an untraced same-seed run produce the
    /// same [`FaultNetReport`] bit for bit.
    pub fn run_with_recorder(
        &mut self,
        mut tel: Option<&mut Recorder>,
    ) -> Result<FaultNetReport, CoreError> {
        // Per-node fault-window activity from the previous slot, keyed by
        // (node, kind index): transitions emit FaultEnter/FaultExit.
        let mut fault_state: BTreeMap<u8, [bool; 4]> = BTreeMap::new();
        let mut meter = ThroughputMeter::new();
        let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        // Nominal slot length while every eligible node backs off: no
        // acoustics run, the channel just idles. Updated to the longest
        // exchange seen so the idle clock stays consistent with traffic.
        let mut nominal_slot_s = 0.25;

        while !self.mac.is_complete() && self.mac.slots_used() < self.cfg.max_slots {
            let plan = {
                // The physical-layer veto over proposed collision groups
                // needs per-node data while the MAC holds `&mut self`, so
                // borrow the fields it reads up front.
                let faults = &self.faults;
                let bad_groups = &self.bad_groups;
                let t_start_s = self.t_now_s;
                let horizon_s = nominal_slot_s;
                let rates: BTreeMap<u8, f64> = self
                    .cfg
                    .nodes
                    .iter()
                    .map(|s| (s.addr, self.mac.rate_bps(s.addr)))
                    .collect();
                let carriers: BTreeMap<u8, f64> =
                    self.cfg.nodes.iter().map(|s| (s.addr, s.carrier_hz)).collect();
                self.mac.next_slot_plan(self.cfg.command, |group| {
                    group_viable(group, bad_groups, &rates, &carriers, faults, t_start_s, horizon_s)
                })
            };
            let slot = self.mac.slots_used();
            if let Some(t) = tel.as_deref_mut() {
                t.begin_slot(slot, self.t_now_s);
                t.record(Event::SlotStart {
                    queries: u32::try_from(plan.queries.len()).unwrap_or(u32::MAX),
                });
            }
            if plan.queries.is_empty() {
                self.t_now_s += nominal_slot_s;
                meter.record(0, nominal_slot_s).map_err(CoreError::Net)?;
                if let Some(t) = tel.as_deref_mut() {
                    t.record(Event::SlotEnd {
                        duration_s: nominal_slot_s,
                        bits: 0,
                    });
                    t.advance_clock(self.t_now_s);
                }
                continue;
            }
            let (slot_s, slot_bits) = match plan.kind {
                SlotKind::Collision => self.run_collision_slot(
                    plan.queries,
                    tel.as_deref_mut(),
                    &mut fault_state,
                    &mut digest,
                )?,
                SlotKind::Fdma => self.run_fdma_queries(
                    plan.queries,
                    self.t_now_s,
                    tel.as_deref_mut(),
                    &mut fault_state,
                    &mut digest,
                )?,
            };
            nominal_slot_s = nominal_slot_s.max(slot_s);
            self.t_now_s += slot_s;
            meter.record(slot_bits, slot_s).map_err(CoreError::Net)?;
            if let Some(t) = tel.as_deref_mut() {
                t.record(Event::SlotEnd {
                    duration_s: slot_s,
                    bits: slot_bits,
                });
                t.advance_clock(self.t_now_s);
            }
        }

        let completed = self.mac.is_complete();
        let per_node: Vec<NodeOutcome> = self
            .mac
            .registered_addresses()
            .iter()
            .map(|&addr| {
                let (delivered, dropped) = self.mac.stats(addr);
                NodeOutcome {
                    addr,
                    delivered,
                    dropped,
                    evicted: self.mac.is_evicted(addr),
                    final_rate_bps: self.mac.rate_bps(addr),
                    quality: self.mac.quality(addr),
                }
            })
            .collect();
        let delivered_total: u64 = per_node.iter().map(|n| n.delivered).sum();
        let dropped_total: u64 = per_node.iter().map(|n| n.dropped).sum();
        let attempts = delivered_total + dropped_total;
        let pdr = if attempts == 0 {
            1.0
        } else {
            delivered_total as f64 / attempts as f64
        };
        let goodput_bps = meter.goodput_bps();
        Ok(FaultNetReport {
            slots_used: self.mac.slots_used(),
            completed,
            elapsed_s: self.t_now_s,
            delivered_total,
            dropped_total,
            pdr,
            goodput_bps,
            bit_digest: digest,
            per_node,
        })
    }

    /// Run one slot's FDMA queries through the per-node links,
    /// starting at `t_start_s`, and return `(slot_duration_s,
    /// delivered_bits)`.
    ///
    /// The medium is time-shared, so a multi-query slot (the collision
    /// fallback path) runs its exchanges one after another: each starts
    /// where the previous one ended, its fault windows are tested over
    /// its own interval, and the slot costs the *sum* of its exchanges.
    /// Each exchange is narrated and accounted before the next runs.
    fn run_fdma_queries(
        &mut self,
        queries: Vec<ScheduledQuery>,
        t_start_s: f64,
        mut tel: Option<&mut Recorder>,
        fault_state: &mut BTreeMap<u8, [bool; 4]>,
        digest: &mut u64,
    ) -> Result<(f64, u64), CoreError> {
        // Actuate the rate ladder first: command every node's divider
        // from the MAC state at the start of the slot.
        for q in &queries {
            let addr = q.query.dest;
            let rate_bps = self.mac.rate_bps(addr);
            self.links
                .get_mut(&addr)
                .ok_or(CoreError::InvalidConfig("scheduled unknown address"))?
                .set_bitrate_target(rate_bps)?;
        }
        let mut slot_s = 0.0f64;
        let mut slot_bits = 0u64;
        for q in &queries {
            let addr = q.query.dest;
            let t_s = t_start_s + slot_s;
            let schedule = self
                .faults
                .get(&addr)
                .ok_or(CoreError::InvalidConfig("missing fault schedule"))?;
            let link = self
                .links
                .get_mut(&addr)
                .ok_or(CoreError::InvalidConfig("scheduled unknown address"))?;
            let (heard, exchange_samples) = link.slot_exchange(
                &self.receiver,
                addr,
                q.query.command,
                schedule,
                t_s,
                tel.as_deref_mut(),
            )?;
            let exchange_s = exchange_samples as f64 / self.cfg.fs_hz;
            slot_s += exchange_s;
            if let Some(t) = tel.as_deref_mut() {
                let active = faults_active(schedule, t_s, t_s + exchange_s);
                let prev = fault_state.entry(addr).or_default();
                for (k, kind) in FAULT_KINDS.into_iter().enumerate() {
                    match (prev[k], active[k]) {
                        (false, true) => t.record(Event::FaultEnter { node: addr, kind }),
                        (true, false) => t.record(Event::FaultExit { node: addr, kind }),
                        _ => {}
                    }
                }
                *prev = active;
            }
            slot_bits += self.account(&heard, exchange_s, false, tel.as_deref_mut(), digest)?;
        }
        Ok((slot_s, slot_bits))
    }

    /// Run one broadcast collision slot (§8): train the group's channel
    /// matrix if needed, gate on its condition number, zero-force the
    /// concurrent uplinks and account every separated stream's verdict to
    /// the MAC individually. Falls back to FDMA — and blacklists the
    /// group — when the trained matrix trips the conditioning gate or
    /// turns out singular at inversion time.
    fn run_collision_slot(
        &mut self,
        queries: Vec<ScheduledQuery>,
        mut tel: Option<&mut Recorder>,
        fault_state: &mut BTreeMap<u8, [bool; 4]>,
        digest: &mut u64,
    ) -> Result<(f64, u64), CoreError> {
        let addrs: Vec<u8> = queries.iter().map(|q| q.query.dest).collect();
        let max_condition = match self.mac.concurrency() {
            Concurrency::Collision(pol) => pol.max_condition,
            _ => {
                return Err(CoreError::InvalidConfig(
                    "collision slot without a collision policy",
                ))
            }
        };
        let rate_bps = self.mac.rate_bps(addrs[0]);
        if !self.groups.contains_key(&addrs) {
            let group = CollisionGroupSimulator::new(&self.cfg, &addrs)?;
            self.groups.insert(addrs.clone(), group);
        }
        // Training slots are addressed queries too, so their time is
        // charged to the slot whether the group survives the gate or not.
        let mut slot_s = 0.0f64;
        let condition_number = {
            let group = self
                .groups
                .get_mut(&addrs)
                .ok_or(CoreError::InvalidConfig("collision group missing"))?;
            group.set_bitrate_target(rate_bps)?;
            if !group.is_trained() {
                slot_s += group.train(self.cfg.command)?.elapsed_s;
            }
            group.condition_number()
        };
        // `!(a <= b)` rather than `a > b`: a NaN condition number must
        // also take the fallback, never the collision.
        if !(condition_number <= max_condition) {
            return self
                .collision_fallback(queries, tel, fault_state, digest, slot_s, condition_number);
        }
        let outcome = {
            let group = self
                .groups
                .get_mut(&addrs)
                .ok_or(CoreError::InvalidConfig("collision group missing"))?;
            group.collision_slot(self.cfg.command)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(CoreError::SingularChannel { condition_number }) => {
                return self.collision_fallback(
                    queries,
                    tel,
                    fault_state,
                    digest,
                    slot_s,
                    condition_number,
                );
            }
            Err(e) => return Err(e),
        };
        slot_s += outcome.elapsed_s;
        if let Some(t) = tel.as_deref_mut() {
            t.record(Event::CollisionSlot {
                participants: u32::try_from(addrs.len()).unwrap_or(u32::MAX),
                condition_number,
            });
        }
        let mut slot_bits = 0u64;
        for v in &outcome.verdicts {
            slot_bits += self.account(v, outcome.elapsed_s, true, tel.as_deref_mut(), digest)?;
        }
        Ok((slot_s, slot_bits))
    }

    /// Narrate and account one node's verdict, from an FDMA exchange or a
    /// separated `collision` stream, heard over `duration_s`: its energy
    /// sample (and, for a collision stream, its `StreamVerdict` event),
    /// the detection / CRC-fail / erasure event, the MAC's observation,
    /// and a delivered packet's digest. Returns the delivered bits.
    fn account(
        &mut self,
        v: &StreamVerdict,
        duration_s: f64,
        collision: bool,
        mut tel: Option<&mut Recorder>,
        digest: &mut u64,
    ) -> Result<u64, CoreError> {
        if let Some(t) = tel.as_deref_mut() {
            t.record(Event::EnergySample {
                node: v.addr,
                harvested_j: v.power_w * duration_s,
                power_w: v.power_w,
                rectified_v: v.rectified_v,
            });
            if collision {
                t.record(Event::StreamVerdict {
                    node: v.addr,
                    crc_ok: v.crc_ok,
                    snr_db: v.snr_db,
                });
            }
            t.record(match (v.preamble_found, v.crc_ok) {
                (true, true) => Event::Detection {
                    node: v.addr,
                    corr: v.preamble_corr,
                    snr_db: v.snr_db,
                },
                (true, false) => Event::CrcFail {
                    node: v.addr,
                    corr: v.preamble_corr,
                },
                (false, _) => Event::Erasure { node: v.addr },
            });
        }
        let obs = match (v.preamble_found, v.crc_ok) {
            (true, true) => RxObservation::Delivered {
                margin: v.preamble_corr,
            },
            (true, false) => RxObservation::CrcFailed {
                margin: v.preamble_corr,
            },
            (false, _) => RxObservation::Erasure,
        };
        self.mac
            .record_traced(v.addr, obs, tel)
            .map_err(CoreError::Net)?;
        Ok(match &v.packet {
            Some(packet) => {
                *digest = fnv1a_packet(*digest, v.addr, packet);
                UplinkPacket::bits_len(packet.payload.len()) as u64
            }
            None => 0,
        })
    }

    /// Abandon a proposed collision: blacklist the group so it is never
    /// proposed again, narrate the fallback, and run the already-scheduled
    /// queries as (time-shared) FDMA so every query still feeds the MAC an
    /// observation. The exchanges start after the `spent_s` of training
    /// already charged to the slot.
    fn collision_fallback(
        &mut self,
        queries: Vec<ScheduledQuery>,
        mut tel: Option<&mut Recorder>,
        fault_state: &mut BTreeMap<u8, [bool; 4]>,
        digest: &mut u64,
        spent_s: f64,
        condition_number: f64,
    ) -> Result<(f64, u64), CoreError> {
        if let Some(t) = tel.as_deref_mut() {
            t.record(Event::CollisionFallback {
                participants: u32::try_from(queries.len()).unwrap_or(u32::MAX),
                condition_number,
            });
        }
        self.bad_groups
            .insert(queries.iter().map(|q| q.query.dest).collect());
        let t_start_s = self.t_now_s + spent_s;
        let (fdma_s, bits) = self.run_fdma_queries(queries, t_start_s, tel, fault_state, digest)?;
        Ok((spent_s + fdma_s, bits))
    }

    /// The MAC driving the round (inspection).
    pub fn mac(&self) -> &ResilientMac {
        &self.mac
    }

    /// Slot-engine cache/arena counters summed across every node's link
    /// (see [`SlotEngineStats`]).
    pub fn slot_stats(&self) -> SlotEngineStats {
        let mut total = SlotEngineStats::default();
        for link in self.links.values() {
            total.merge(&link.slot_stats());
        }
        total
    }

    /// Decimating front-end counters of the network's one hydrophone
    /// receiver, which decodes every link's exchanges (the collision
    /// groups' own receivers are not counted).
    pub fn frontend_stats(&self) -> crate::receiver::FrontEndStats {
        self.receiver.frontend_stats()
    }
}

/// The physical layer's veto over a proposed collision group, checked
/// before the MAC commits the slot:
///
/// * the member set must not already be blacklisted by a conditioning
///   fallback;
/// * every pair of member carriers must be separated by at least *twice*
///   the FM0 main lobe at the commanded rate — the demodulation low-pass
///   opens to 2× the bitrate, and a neighbour band inside it leaks into
///   baseband as a time-varying rotation that breaks the constant-gain
///   affine channel model zero-forcing relies on;
/// * no member may sit in a fault window over the slot horizon — the
///   group simulator models the clean concurrent physics only, so a
///   faulted member must take the per-link (fault-composed) path.
fn group_viable(
    group: &[u8],
    bad_groups: &BTreeSet<Vec<u8>>,
    rates: &BTreeMap<u8, f64>,
    carriers: &BTreeMap<u8, f64>,
    faults: &BTreeMap<u8, FaultSchedule>,
    t_start_s: f64,
    horizon_s: f64,
) -> bool {
    if bad_groups.contains(group) {
        return false;
    }
    let Some(&rate_bps) = group.first().and_then(|a| rates.get(a)) else {
        return false;
    };
    let min_spacing_hz = 2.0 * fm0_main_lobe_hz(rate_bps);
    for (i, a) in group.iter().enumerate() {
        let Some(&fa) = carriers.get(a) else {
            return false;
        };
        // lint: allow(panic-path) i < group.len(), so i + 1 <= len and the tail slice is in range
        for b in &group[i + 1..] {
            let Some(&fb) = carriers.get(b) else {
                return false;
            };
            if (fa - fb).abs() < min_spacing_hz {
                return false;
            }
        }
    }
    group.iter().all(|a| {
        faults
            .get(a)
            .is_some_and(|s| faults_active(s, t_start_s, t_start_s + horizon_s) == [false; 4])
    })
}

/// The fault kinds in the order [`faults_active`] reports them.
const FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::Burst,
    FaultKind::Fade,
    FaultKind::Dropout,
    FaultKind::Drift,
];

/// Which of `schedule`'s fault kinds touch `[start_s, end_s)`, in
/// [`FAULT_KINDS`] order.
fn faults_active(schedule: &FaultSchedule, start_s: f64, end_s: f64) -> [bool; 4] {
    [
        schedule.burst_active_during(start_s, end_s),
        schedule.fade_active_during(start_s, end_s),
        schedule.node_down_during(start_s, end_s),
        schedule.drift_active_during(start_s, end_s),
    ]
}

/// Fold one delivered packet into an FNV-1a digest: address, kind, seq,
/// then every payload byte — enough to catch any bit-level divergence
/// between two same-seed runs.
fn fnv1a_packet(mut digest: u64, addr: u8, packet: &UplinkPacket) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut eat = |b: u8| {
        digest ^= b as u64;
        digest = digest.wrapping_mul(PRIME);
    };
    eat(addr);
    eat(packet.src);
    eat(packet.seq);
    for &b in &packet.payload {
        eat(b);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision_group::GroupSlotStats;

    impl FaultNetSimulator {
        /// Collision-group slot counters (training slots, collision slots,
        /// clean-slot memo hits/misses) summed across every group built so
        /// far. Kept apart from [`slot_stats`](Self::slot_stats), which counts
        /// the per-node link engines only.
        fn group_stats(&self) -> GroupSlotStats {
            let mut total = GroupSlotStats::default();
            for group in self.groups.values() {
                total.merge(&group.stats());
            }
            total
        }
    }

    fn small_cfg() -> FaultNetConfig {
        FaultNetConfig {
            per_node_packets: 1,
            max_slots: 40,
            fs_hz: 96_000.0,
            ..Default::default()
        }
    }

    #[test]
    fn healthy_network_completes_quickly() {
        let mut net = FaultNetSimulator::new(small_cfg()).unwrap();
        let report = net.run().unwrap();
        assert!(report.completed, "{report:?}");
        assert_eq!(report.delivered_total, 2);
        assert_eq!(report.dropped_total, 0);
        assert!((report.pdr - 1.0).abs() < 1e-12);
        assert!(report.goodput_bps > 0.0);
        assert!(report.per_node.iter().all(|n| !n.evicted));
    }

    /// `group_stats` counts what the collision groups did: one training
    /// pass (k slots) per group and rate, every collision slot the trace
    /// narrates, and all but the first collision slot at a rate served
    /// from the clean-slot memo.
    #[test]
    fn group_stats_count_trainings_collisions_and_memo_hits() {
        let mut cfg = small_cfg();
        cfg.plan = ChannelPlan::new(vec![14_000.0, 19_000.0]).unwrap();
        cfg.nodes[0].carrier_hz = 14_000.0;
        cfg.nodes[1].carrier_hz = 19_000.0;
        cfg.bitrate_target_bps = 1_024.0;
        cfg.policy = MacPolicy::Adaptive(pab_net::mac::AdaptiveConfig {
            ladder: pab_net::mac::RateLadder::new(vec![1_024.0, 512.0, 256.0]).unwrap(),
            ..Default::default()
        });
        cfg.per_node_packets = 3;
        cfg.concurrency = Concurrency::Collision(Default::default());
        let mut net = FaultNetSimulator::new(cfg).unwrap();
        assert_eq!(net.group_stats(), GroupSlotStats::default());
        let mut tel = Recorder::new(16_384);
        let report = net.run_with_recorder(Some(&mut tel)).unwrap();
        assert!(report.completed, "{report:?}");
        let g = net.group_stats();
        assert_eq!(g.collision_slots, tel.counters().get("collision_slot"));
        assert_eq!(g.clean_hits + g.clean_misses, g.collision_slots);
        assert!(g.collision_slots >= 2, "{g:?}");
        assert_eq!(g.training_slots, 2, "one training pass of the pair: {g:?}");
        assert_eq!(g.clean_misses, 1, "one rate, one broadcast query set: {g:?}");
    }

    #[test]
    fn traced_run_is_transparent_and_narrates_slots() {
        let report_plain = FaultNetSimulator::new(small_cfg()).unwrap().run().unwrap();
        let mut tel = Recorder::new(16_384);
        let report_traced = FaultNetSimulator::new(small_cfg())
            .unwrap()
            .run_with_recorder(Some(&mut tel))
            .unwrap();
        assert_eq!(
            report_plain.bit_digest, report_traced.bit_digest,
            "recording must not perturb the simulation"
        );
        assert_eq!(report_plain.slots_used, report_traced.slots_used);
        let c = tel.counters();
        assert_eq!(c.get("slot_start"), report_traced.slots_used);
        assert_eq!(c.get("slot_end"), report_traced.slots_used);
        assert_eq!(c.get("detection"), report_traced.delivered_total);
        assert_eq!(c.get("rx.detections"), report_traced.delivered_total);
        assert!(c.get("energy_sample") >= report_traced.delivered_total);
        assert_eq!(tel.clock_regressions(), 0, "sim time must be monotonic");
        // Events carry increasing slot stamps.
        let slots: Vec<u64> = tel.events().map(|e| e.slot).collect();
        assert!(slots.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn traced_run_reports_fault_windows_on_dead_node() {
        // Node 2 permanently browned out: expect FaultEnter{Dropout} once,
        // never an exit, and the MAC narration ending in its eviction.
        let mut cfg = small_cfg();
        cfg.nodes[1].faults = FaultSchedule::new(5)
            .with_dropout(pab_channel::DropoutWindow {
                start_s: 0.0,
                duration_s: f64::INFINITY,
            })
            .unwrap();
        cfg.max_slots = 120;
        let mut tel = Recorder::new(16_384);
        let report = FaultNetSimulator::new(cfg)
            .unwrap()
            .run_with_recorder(Some(&mut tel))
            .unwrap();
        assert!(report.completed, "{report:?}");
        assert!(report.per_node[1].evicted);
        let enters: Vec<_> = tel
            .events()
            .filter(|e| matches!(e.event, Event::FaultEnter { node: 2, kind: FaultKind::Dropout }))
            .collect();
        assert_eq!(enters.len(), 1, "one dropout entry for the dead node");
        assert!(!tel
            .events()
            .any(|e| matches!(e.event, Event::FaultExit { node: 2, .. })));
        assert_eq!(tel.counters().get("eviction"), 1);
        assert!(tel.counters().get("erasure") >= 1);
        assert_eq!(
            tel.counters().get("erasure"),
            tel.counters().get("rx.erasures"),
            "simulator and receiver must agree on erasure counts"
        );
    }

    /// The network's one hydrophone decodes every link's exchanges on
    /// one workspace, so a 96 kHz FDMA network (2048 bps, decimation 1)
    /// holds exactly what its longest exchange needs, whatever its node
    /// count. Exchange lengths differ by node (query keying, geometry),
    /// so over the eight nodes of `with_nodes(8)` the workspace grows,
    /// exchange by exchange, to the longest one's need and no further;
    /// and a two-node network of that layout's node 1 and its
    /// longest-exchange node ends with the same byte count.
    #[test]
    fn the_decode_workspace_does_not_grow_with_the_node_count() {
        let fs_hz = 96_000.0;
        // The workspace bytes and each node's exchange length in samples:
        // every slot runs one node's exchange, whose verdict names the
        // node and whose end gives the length.
        let run = |cfg: FaultNetConfig| {
            let n = cfg.nodes.len();
            let mut net = FaultNetSimulator::new(cfg).unwrap();
            let mut tel = Recorder::new(16_384);
            let report = net.run_with_recorder(Some(&mut tel)).unwrap();
            assert!(report.completed, "N = {n}: {report:?}");
            assert_eq!(net.frontend_stats().decodes, report.slots_used, "N = {n}");
            let (mut node_of, mut len_of) = (BTreeMap::new(), BTreeMap::new());
            for e in tel.events() {
                match e.event {
                    Event::Detection { node, .. }
                    | Event::CrcFail { node, .. }
                    | Event::Erasure { node } => {
                        node_of.insert(e.slot, node);
                    }
                    Event::SlotEnd { duration_s, .. } => {
                        len_of.insert(e.slot, (duration_s * fs_hz).round() as usize);
                    }
                    _ => {}
                }
            }
            let lengths: BTreeMap<u8, usize> =
                node_of.iter().map(|(slot, &node)| (node, len_of[slot])).collect();
            let longest = lengths.values().copied().max().unwrap();
            let bytes = net.receiver.workspace_bytes();
            assert_eq!(bytes, crate::receiver::decim1_workspace_need(longest), "N = {n}");
            (bytes, lengths)
        };
        let eight = FaultNetConfig {
            fs_hz,
            per_node_packets: 1,
            ..FaultNetConfig::with_nodes(8).unwrap()
        };
        let (bytes8, lengths) = run(eight.clone());
        assert_eq!(lengths.len(), 8);
        let distinct: BTreeSet<usize> = lengths.values().copied().collect();
        assert!(distinct.len() > 1, "exchanges of one length: {lengths:?}");
        let (&longest, _) = lengths.iter().max_by_key(|&(_, &len)| len).unwrap();
        let pair = [1, if longest == 1 { 2 } else { longest }];
        let two = FaultNetConfig {
            nodes: eight.nodes.iter().filter(|s| pair.contains(&s.addr)).cloned().collect(),
            ..eight
        };
        assert_eq!(run(two).0, bytes8);
    }

    /// The links borrow the network's receiver rather than share it
    /// through an `Rc`, so every simulator still moves across threads
    /// (the sweep engine runs them on its workers).
    #[test]
    fn simulators_and_the_receiver_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::link::LinkSimulator>();
        assert_send::<FaultNetSimulator>();
        assert_send::<CollisionGroupSimulator>();
        assert_send::<Receiver>();
    }

    #[test]
    fn with_nodes_addresses_are_unique_and_sequential() {
        // The old path aliased addresses via `unwrap_or(u8::MAX)` past the
        // u8 range; every address must now be distinct and 1-based.
        let cfg = FaultNetConfig::with_nodes(12).unwrap();
        let addrs: Vec<u8> = cfg.nodes.iter().map(|s| s.addr).collect();
        let expect: Vec<u8> = (1..=12).collect();
        assert_eq!(addrs, expect);
        let mut unique = addrs.clone();
        unique.dedup();
        assert_eq!(unique.len(), addrs.len());
    }

    #[test]
    fn with_nodes_rejects_spacing_below_fm0_floor_lobe() {
        // 14–20 kHz split 12 ways gives 545 Hz spacing (≥ the 512 Hz
        // floor-rung main lobe); 13 ways gives 500 Hz and must be refused
        // instead of silently degrading decodes.
        assert!(FaultNetConfig::with_nodes(12).is_ok());
        let err = FaultNetConfig::with_nodes(13);
        assert!(
            matches!(err, Err(CoreError::InvalidConfig(msg)) if msg.contains("spacing")),
            "{err:?}"
        );
        // The old silent-degradation case from the issue: N = 64 packs
        // carriers ~95 Hz apart.
        assert!(FaultNetConfig::with_nodes(64).is_err());
        assert!(FaultNetConfig::with_nodes(0).is_err());
        assert!(FaultNetConfig::with_nodes(65).is_err());
    }

    #[test]
    fn config_validation() {
        let cfg = FaultNetConfig {
            nodes: Vec::new(),
            ..Default::default()
        };
        assert!(FaultNetSimulator::new(cfg).is_err());
        let cfg = FaultNetConfig {
            max_slots: 0,
            ..Default::default()
        };
        assert!(FaultNetSimulator::new(cfg).is_err());
    }

    /// NaN, infinite and negative noise scales, and non-finite ambient
    /// levels, are typed config errors; zero stays the noiseless case.
    #[test]
    fn hostile_noise_config_is_a_typed_error() {
        for noise_scale in [f64::NAN, f64::INFINITY, -2.0] {
            let cfg = FaultNetConfig {
                noise_scale,
                ..small_cfg()
            };
            assert!(
                matches!(
                    FaultNetSimulator::new(cfg),
                    Err(CoreError::InvalidConfig(_))
                ),
                "noise_scale={noise_scale}"
            );
        }
        let cfg = FaultNetConfig {
            noise: pab_channel::noise::NoiseEnvironment::Tank { level_db: f64::NAN },
            ..small_cfg()
        };
        assert!(matches!(
            FaultNetSimulator::new(cfg),
            Err(CoreError::InvalidConfig(_))
        ));
        let quiet = FaultNetConfig {
            noise_scale: 0.0,
            ..small_cfg()
        };
        assert!(FaultNetSimulator::new(quiet).is_ok());
    }
}
