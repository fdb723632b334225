//! One traced round turned into per-layer call counts.
//!
//! The per-link counts come from the simulator's own counters
//! (`slot_stats`, `frontend_stats`); the collision-group counts, which
//! those counters omit, are derived from the structure of each training
//! and collision slot; the MAC counts come from the recorder.

use pab_core::faultnet::{FaultNetConfig, FaultNetSimulator};
use pab_core::link::SlotEngineStats;
use pab_core::receiver::FrontEndStats;
use pab_net::mac::{Concurrency, RxObservation};
use pab_telemetry::{Event, Recorder};
use std::collections::BTreeMap;

use crate::workloads::top_rate_bps;

/// Which slot engine a call ran in: the per-node link simulators
/// (FDMA exchanges) or a collision group's shared medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Path {
    Link,
    Group,
}

/// The public layer functions a slot calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    QueryWaveform,
    Propagate,
    NodeProcess,
    FadeGain,
    Awgn,
    Burst,
    DecodeVerdict,
    Decode,
    DemodulateComplex,
    DecodeEnvelope,
    ZeroForce,
    EstimateChannel,
    NextSlotPlan,
    Record,
}

/// One FDMA exchange as the trace shows it: who, when, at what rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeAt {
    pub addr: u8,
    pub t_start_s: f64,
    pub rate_bps: f64,
}

/// What the MAC planned and observed in one slot, for replaying it.
#[derive(Debug, Clone, Default)]
pub struct SlotLog {
    pub collision: bool,
    pub observations: Vec<(u8, RxObservation)>,
}

#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub slots: u64,
    pub idle_slots: u64,
    /// Σ `SlotStart.queries`.
    pub queries: u64,
    /// Observations the MAC recorded, and how many of them failed (CRC
    /// failure or erasure).
    pub records: u64,
    pub failed: u64,
    pub retries: u64,
    pub backoffs: u64,
    pub rate_steps: u64,
    /// Samples that received ambient noise: every non-idle slot's length.
    pub noise_samples: u64,
    pub group_size: u64,
    pub groups_built: u64,
    pub trainings: u64,
    pub collision_slots: u64,
    pub fallbacks: u64,
    /// Fallbacks raised by a singular matrix at zero-forcing time, after
    /// the collision slot had already run.
    pub singular_fallbacks: u64,
    /// The rate the collision group first ran at.
    pub group_rate_bps: Option<f64>,
    pub link: SlotEngineStats,
    pub frontend: FrontEndStats,
    pub exchanges: Vec<ExchangeAt>,
    pub slot_log: Vec<SlotLog>,
}

impl Trace {
    /// Read a finished traced round.
    pub fn derive(
        cfg: &FaultNetConfig,
        sim: &FaultNetSimulator,
        rec: &Recorder,
    ) -> Result<Trace, String> {
        if cfg
            .nodes
            .iter()
            .any(|s| s.faults.node_down_during(0.0, f64::INFINITY))
        {
            return Err("the call counts do not model dropout windows".into());
        }
        if rec.events_dropped() > 0 {
            return Err("the recorder ring overflowed; counts would be partial".into());
        }
        let max_condition = match &cfg.concurrency {
            Concurrency::Collision(pol) => pol.max_condition,
            _ => f64::INFINITY,
        };
        let mut by_channel: Vec<_> = cfg.nodes.iter().collect();
        by_channel.sort_by_key(|s| s.channel);
        let first_member = by_channel[0].addr;

        let counters = rec.counters();
        let mut t = Trace {
            retries: counters.get("retry"),
            backoffs: counters.get("backoff"),
            rate_steps: counters.get("rate_step"),
            link: sim.slot_stats(),
            frontend: sim.frontend_stats(),
            ..Default::default()
        };
        let mut rate: BTreeMap<u8, f64> = cfg
            .nodes
            .iter()
            .map(|s| (s.addr, top_rate_bps(cfg)))
            .collect();
        let mut trained_rate: Option<u64> = None;
        let mut slot_queries = 0u32;
        let mut in_collision = false;
        for te in rec.events() {
            match te.event {
                Event::SlotStart { queries } => {
                    t.slots += 1;
                    t.queries += u64::from(queries);
                    t.idle_slots += u64::from(queries == 0);
                    slot_queries = queries;
                    in_collision = false;
                    t.slot_log.push(SlotLog::default());
                }
                Event::SlotEnd { duration_s, .. } if slot_queries > 0 => {
                    t.noise_samples += (duration_s * cfg.fs_hz).round() as u64;
                }
                Event::CollisionSlot { participants, .. }
                | Event::CollisionFallback { participants, .. } => {
                    if let Event::CollisionSlot { .. } = te.event {
                        t.collision_slots += 1;
                        in_collision = true;
                    } else {
                        t.fallbacks += 1;
                    }
                    if let Event::CollisionFallback {
                        condition_number, ..
                    } = te.event
                    {
                        t.singular_fallbacks += u64::from(condition_number <= max_condition);
                    }
                    if cfg.nodes.len() != participants as usize {
                        return Err("the call counts assume one group of every node".into());
                    }
                    t.group_size = u64::from(participants);
                    t.groups_built = 1;
                    // A group trains on its first slot and again whenever
                    // the commanded rate has moved since.
                    let r = rate[&first_member];
                    if trained_rate != Some(r.to_bits()) {
                        t.trainings += 1;
                        trained_rate = Some(r.to_bits());
                    }
                    t.group_rate_bps.get_or_insert(r);
                    if let Some(s) = t.slot_log.last_mut() {
                        s.collision = true;
                    }
                }
                Event::EnergySample { node, .. } if !in_collision => {
                    t.exchanges.push(ExchangeAt {
                        addr: node,
                        t_start_s: te.t_s,
                        rate_bps: rate[&node],
                    });
                }
                Event::Detection { node, corr, .. } => {
                    t.observe(node, RxObservation::Delivered { margin: corr })
                }
                Event::CrcFail { node, corr } => {
                    t.observe(node, RxObservation::CrcFailed { margin: corr })
                }
                Event::Erasure { node } => t.observe(node, RxObservation::Erasure),
                Event::RateStep { node, rate_bps, .. } => {
                    rate.insert(node, rate_bps);
                }
                _ => {}
            }
        }
        Ok(t)
    }

    fn observe(&mut self, addr: u8, obs: RxObservation) {
        self.records += 1;
        self.failed += u64::from(!matches!(obs, RxObservation::Delivered { .. }));
        if let Some(s) = self.slot_log.last_mut() {
            s.observations.push((addr, obs));
        }
    }

    /// FDMA exchanges run by the per-link simulators.
    pub fn link_exchanges(&self) -> u64 {
        self.link.wave_hits + self.link.wave_misses
    }

    /// Channels the round designed: three per link simulator plus, per
    /// collision group of k, k² down, k² up and k direct channels.
    pub fn channels_designed(&self, nodes: usize) -> u64 {
        let k = self.group_size;
        3 * nodes as u64 + self.groups_built * (2 * k * k + k)
    }

    /// How many times the round called each layer function, per path.
    ///
    /// A link exchange that misses the clean-exchange cache propagates
    /// three times and runs the node once; a fade bypass fades the
    /// incident and backscattered waveforms and runs the node and the two
    /// uplink propagations (plus a downlink propagation on the first
    /// bypass per cache key, which no counter records). Every
    /// exchange adds noise and decodes: the verdict decoder on the cached
    /// path, the diagnostic one on a bypass. A group slot of k members
    /// propagates k² down, k direct and k² up, runs k nodes and k
    /// demodulators; a training is k such slots and k² channel fits.
    pub fn calls(&self) -> Vec<(Call, Path, u64)> {
        use Call::*;
        let e = self.link_exchanges();
        let (misses, bypasses) = (self.link.exchange_misses, self.link.bypasses);
        let k = self.group_size;
        let collisions = self.collision_slots + self.singular_fallbacks;
        let group_slots = k * self.trainings + collisions;
        vec![
            (QueryWaveform, Path::Link, self.link.wave_misses),
            (Propagate, Path::Link, 3 * misses + 2 * bypasses),
            (NodeProcess, Path::Link, misses + bypasses),
            (FadeGain, Path::Link, 2 * bypasses),
            (Awgn, Path::Link, e),
            (Burst, Path::Link, e),
            (DecodeVerdict, Path::Link, e - bypasses),
            (Decode, Path::Link, bypasses),
            (NextSlotPlan, Path::Link, self.slots),
            (Record, Path::Link, self.records),
            (
                QueryWaveform,
                Path::Group,
                k * self.trainings + k * collisions,
            ),
            (Propagate, Path::Group, group_slots * (2 * k * k + k)),
            (NodeProcess, Path::Group, group_slots * k),
            (Awgn, Path::Group, group_slots),
            (DemodulateComplex, Path::Group, group_slots * k),
            (EstimateChannel, Path::Group, self.trainings * k * k),
            (ZeroForce, Path::Group, collisions),
            (DecodeEnvelope, Path::Group, self.collision_slots * k),
        ]
    }

    /// Total calls of one function over both paths.
    pub fn count(&self, call: Call) -> u64 {
        self.calls()
            .into_iter()
            .filter(|&(c, _, _)| c == call)
            .map(|(_, _, n)| n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// The derived counts must agree with every counter the simulator and
    /// the receiver keep themselves.
    #[test]
    fn traced_counts_match_the_simulators_own_counters() {
        for w in Workload::ALL {
            let cfg = w.config(3, 2);
            let mut sim = FaultNetSimulator::new(cfg.clone()).unwrap();
            let mut rec = Recorder::new(pab_telemetry::DEFAULT_CAPACITY);
            let report = sim.run_with_recorder(Some(&mut rec)).unwrap();
            let t = Trace::derive(&cfg, &sim, &rec).unwrap();
            let c = rec.counters();
            let name = w.name();

            assert_eq!(t.slots, report.slots_used, "{name}");
            assert_eq!(t.count(Call::NextSlotPlan), report.slots_used, "{name}");
            assert_eq!(t.link_exchanges(), t.frontend.decodes, "{name}");
            assert_eq!(t.exchanges.len() as u64, t.link_exchanges(), "{name}");
            assert_eq!(
                t.count(Call::DecodeVerdict) + t.count(Call::Decode),
                c.get("rx.detections") + c.get("rx.crc_fails") + c.get("rx.erasures"),
                "{name}"
            );
            assert_eq!(
                t.records,
                c.get("detection") + c.get("crc_fail") + c.get("erasure"),
                "{name}"
            );
            assert_eq!(t.collision_slots, c.get("collision_slot"), "{name}");
            assert_eq!(
                t.count(Call::DecodeEnvelope),
                c.get("stream_verdict"),
                "{name}"
            );
            assert_eq!(
                t.queries,
                t.link_exchanges() + t.group_size * t.collision_slots,
                "{name}"
            );
            assert_eq!(
                t.link.exchange_hits + t.link.exchange_misses + t.link.bypasses,
                t.link_exchanges(),
                "{name}"
            );
            if t.group_size == 0 {
                // Every noisy sample of an FDMA-only round enters a decoder.
                assert_eq!(t.noise_samples, t.frontend.samples_in, "{name}");
            } else {
                assert!(
                    t.trainings >= 1,
                    "{name}: a collision slot implies a training"
                );
            }
        }
    }
}
