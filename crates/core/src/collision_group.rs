//! The k-node collision slot of §3.3.2 / Fig. 10 and §8: every powered
//! member backscatters every carrier (backscatter is frequency-agnostic),
//! per-member training slots fit a band-major complex affine channel
//! matrix, and zero-forcing ([`crate::collision`]) separates the
//! collision. [`CollisionGroupSimulator`] is the one engine for this
//! slot, whoever drives it:
//!
//! * **faultnet groups** ([`CollisionGroupSimulator::new`]) are drawn
//!   from a [`FaultNetConfig`](crate::faultnet::FaultNetConfig) so the
//!   fault-injected MAC round can schedule collision slots
//!   opportunistically;
//! * **standalone experiments** ([`CollisionGroupSimulator::with_config`])
//!   place their nodes with a [`MultiNodeConfig`] — the Fig. 10 pair
//!   ([`MultiNodeConfig::fig10_pair`]) and the §8 three-channel run
//!   ([`MultiNodeConfig::default`]) — and [`CollisionGroupSimulator::run`]
//!   reports SINR before and after projection.
//!
//! The slot procedure:
//!
//! * **training** runs one addressed slot per member (query on its own
//!   carrier, continuous wave on the others) and estimates the k×k
//!   band-major complex affine channel matrix;
//! * **conditioning** is checked against the MAC's
//!   [`CollisionPolicy`](pab_net::mac::CollisionPolicy) gate before any
//!   collision is attempted — an ill-conditioned geometry reports its
//!   condition number and the round falls back to FDMA;
//! * **collision slots** ([`CollisionGroupSimulator::collide`]) transmit
//!   one [`DownlinkQuery`] per member carrier — a broadcast on every
//!   carrier for faultnet groups and the three-channel run, each member's
//!   addressed query for Fig. 10 — every powered member answers
//!   concurrently, and the k separated streams each run the normal
//!   envelope decode + CRC so the MAC can account per-stream verdicts
//!   individually.
//!
//! Determinism: the engine owns a ChaCha8 RNG seeded from
//! [`MultiNodeConfig::seed`] (a faultnet group derives it from the network
//! seed and the member addresses), every slot runs inline, and AWGN is
//! drawn in slot order — so same-seed runs are bit-identical.
//!
//! Cost: everything before the noise (query synthesis, k² downlink
//! propagations, k node pipelines, the hydrophone superposition) is a
//! pure function of the queries and the members' divider, so the engine
//! keeps the last collision slot's noiseless part in a single-entry memo
//! keyed on `(divider, queries)`. A repeated collision slot only copies
//! it, draws fresh AWGN and decodes; the noise is drawn after the memo,
//! in slot order, so hits and misses produce the same bits.

use crate::collision::{
    aligned_sinr_db, condition_number_n, estimate_channel_complex, naive_stream_estimate,
    zero_force_n_complex, ComplexAffineChannel,
};
use crate::faultnet::FaultNetConfig;
use crate::medium::Medium;
use crate::node::PabNode;
use crate::projector::Projector;
use crate::receiver::{Receiver, StreamVerdict};
use crate::{hydrophone_sigma_pa, CoreError, DEFAULT_SAMPLE_RATE_HZ};
use num_complex::Complex64;
use pab_channel::noise::{add_awgn, NoiseEnvironment};
use pab_channel::{Pool, Position};
use pab_mcu::Clock;
use pab_net::packet::{Command, DownlinkQuery, UplinkPacket, BROADCAST_ADDR};
use pab_sweep::derive_seed;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// One member of a collision group.
#[derive(Debug, Clone)]
pub struct NodePlacement {
    /// Node address (also used as its identity in reports).
    pub addr: u8,
    /// Recto-piezo match frequency = its FDMA channel, Hz.
    pub carrier_hz: f64,
    /// Position in the pool.
    pub position: Position,
    /// Geometric (ceramic) resonance for this node, Hz. `None` uses the
    /// paper's standard ~16.5 kHz cylinder; setting it per node models
    /// differently sized ceramics (the §8 scaling remedy).
    pub ceramic_resonance_hz: Option<f64>,
}

/// Geometry, members and seed of one collision group.
#[derive(Debug, Clone)]
pub struct MultiNodeConfig {
    /// The tank.
    pub pool: Pool,
    /// Projector position.
    pub projector_pos: Position,
    /// Hydrophone position.
    pub hydrophone_pos: Position,
    /// The members, in channel order (one per FDMA channel).
    pub nodes: Vec<NodePlacement>,
    /// Projector drive voltage per carrier, volts.
    pub drive_voltage_v: f64,
    /// Target uplink bitrate, bps.
    pub bitrate_target_bps: f64,
    /// Image-method reflection order.
    pub max_reflections: usize,
    /// Ambient noise.
    pub noise: NoiseEnvironment,
    /// Noise sigma multiplier.
    // lint: unitless multiplier on ambient noise sigma
    pub noise_scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Sample rate, Hz.
    pub fs_hz: f64,
}

impl Default for MultiNodeConfig {
    /// The §8 three-channel group: 12.5/15.5/19 kHz channels, each node on
    /// a ceramic sized for its channel.
    fn default() -> Self {
        MultiNodeConfig {
            pool: Pool::pool_a(),
            projector_pos: Position::new(0.5, 1.5, 0.6),
            hydrophone_pos: Position::new(1.3, 1.5, 0.7),
            nodes: vec![
                NodePlacement {
                    addr: 1,
                    carrier_hz: 12_500.0,
                    position: Position::new(1.6, 1.0, 0.6),
                    ceramic_resonance_hz: Some(13_000.0),
                },
                NodePlacement {
                    addr: 2,
                    carrier_hz: 15_500.0,
                    position: Position::new(1.4, 2.0, 0.7),
                    ceramic_resonance_hz: Some(16_000.0),
                },
                NodePlacement {
                    addr: 3,
                    carrier_hz: 19_000.0,
                    position: Position::new(1.8, 1.8, 0.6),
                    ceramic_resonance_hz: Some(19_500.0),
                },
            ],
            drive_voltage_v: 160.0,
            bitrate_target_bps: 1_024.0,
            max_reflections: 3,
            noise: NoiseEnvironment::quiet_tank(),
            noise_scale: 1.0,
            seed: 11,
            fs_hz: DEFAULT_SAMPLE_RATE_HZ,
        }
    }
}

impl MultiNodeConfig {
    /// The Fig. 10 pair: 15 kHz- and 18 kHz-matched recto-piezos on the
    /// standard ceramic, driven at 140 V per carrier in pool A.
    pub fn fig10_pair() -> Self {
        MultiNodeConfig {
            hydrophone_pos: Position::new(1.0, 1.5, 0.5),
            nodes: vec![
                NodePlacement {
                    addr: 1,
                    carrier_hz: 15_000.0,
                    position: Position::new(1.6, 1.0, 0.6),
                    ceramic_resonance_hz: None,
                },
                NodePlacement {
                    addr: 2,
                    carrier_hz: 18_000.0,
                    position: Position::new(1.4, 2.0, 0.7),
                    ceramic_resonance_hz: None,
                },
            ],
            drive_voltage_v: 140.0,
            seed: 7,
            ..Default::default()
        }
    }

    /// One `command` query per member, each addressed to that member.
    pub fn addressed_queries(&self, command: Command) -> Vec<DownlinkQuery> {
        self.nodes
            .iter()
            .map(|n| DownlinkQuery {
                dest: n.addr,
                command,
            })
            .collect()
    }

    /// One `command` query per member, each addressed to
    /// [`BROADCAST_ADDR`].
    pub fn broadcast_queries(&self, command: Command) -> Vec<DownlinkQuery> {
        let q = DownlinkQuery {
            dest: BROADCAST_ADDR,
            command,
        };
        vec![q; self.nodes.len()]
    }
}

/// Outcome of the per-member training pass.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// Condition number of the estimated k×k channel matrix.
    // lint: unitless condition number (ratio of singular values)
    pub condition_number: f64,
    /// Simulated time the k training slots consumed, seconds.
    pub elapsed_s: f64,
}

/// Outcome of one collision slot.
#[derive(Debug, Clone)]
pub struct CollisionOutcome {
    /// Per-member verdicts, in member (channel) order.
    pub verdicts: Vec<StreamVerdict>,
    /// Simulated duration of the slot, seconds.
    pub elapsed_s: f64,
}

/// SINR before and after projection from one standalone experiment
/// ([`CollisionGroupSimulator::run`]), per member in channel order.
#[derive(Debug)]
pub struct SinrReport {
    /// SINR of each stream before projection (naive per-band envelope), dB.
    pub sinr_before_db: Vec<f64>,
    /// SINR of each stream after k×k zero-forcing, dB.
    pub sinr_after_db: Vec<f64>,
    /// Whether each member's concurrent packet decoded with a valid CRC.
    pub crc_ok: Vec<bool>,
    /// Condition number of the trained channel matrix.
    // lint: unitless condition number (ratio of singular values)
    pub condition_number: f64,
}

#[derive(Debug)]
struct GroupMember {
    addr: u8,
    carrier_hz: f64,
}

/// The noiseless part of one group slot: everything up to the
/// hydrophone, before AWGN. A pure function of the per-carrier transmit
/// waveforms (and so of the queries and the members' divider).
#[derive(Debug)]
struct CleanSlot {
    /// Noiseless hydrophone pressure, Pa; its length is the number of
    /// samples the slot occupied at the hydrophone.
    pressure: Vec<f64>,
    /// Ground-truth switching streams, hydrophone-aligned, per member.
    truths: Vec<Vec<f64>>,
    /// Whether each member sent a complete response.
    responded: Vec<bool>,
    /// Node-side power summaries, per member.
    power_w: Vec<f64>,
    rectified_v: Vec<f64>,
}

/// Everything one group slot produced at the receiver.
struct SlotOutput {
    clean: Arc<CleanSlot>,
    /// Complex baseband per band.
    baseband: Vec<Vec<Complex64>>,
}

/// What a collision slot's clean part depends on that can change between
/// slots: the members' FM0 divider (through the response window) and the
/// per-carrier queries.
type CleanKey = (u16, Vec<DownlinkQuery>);

/// Slot counters of one collision group (or, from
/// [`FaultNetSimulator::group_stats`](crate::faultnet::FaultNetSimulator::group_stats),
/// of every group of a network).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupSlotStats {
    /// Addressed training slots run (k per training pass).
    pub training_slots: u64,
    /// Collision slots run.
    pub collision_slots: u64,
    /// Collision slots whose noiseless part came from the memo (query
    /// synthesis, propagation and the nodes skipped).
    pub clean_hits: u64,
    /// Collision slots that ran the full noiseless chain.
    pub clean_misses: u64,
}

impl GroupSlotStats {
    /// Accumulate another group's counters, for network-level totals.
    pub fn merge(&mut self, other: &GroupSlotStats) {
        self.training_slots += other.training_slots;
        self.collision_slots += other.collision_slots;
        self.clean_hits += other.clean_hits;
        self.clean_misses += other.clean_misses;
    }
}

/// A zero-forced collision slot, before its streams are decoded.
struct Separated {
    slot: SlotOutput,
    /// Sample window `[start, end)` where the collision happens.
    window: (usize, usize),
    /// The separated real switching streams over `window`, per member.
    streams: Vec<Vec<f64>>,
}

/// A k-node concurrent-uplink simulator for one collision group: a
/// k-node, k-carrier `Medium` (member `i` is medium node `i` and
/// carrier `i`).
#[derive(Debug)]
pub struct CollisionGroupSimulator {
    members: Vec<GroupMember>,
    medium: Medium,
    projector: Projector,
    receiver: Receiver,
    rng: ChaCha8Rng,
    fs_hz: f64,
    noise_sigma_pa: f64,
    /// Band-major channel matrix from the last training pass, and the
    /// bitrate it was trained at (estimates are re-used until the
    /// commanded rate changes).
    channels: Option<Vec<ComplexAffineChannel>>,
    trained_divider: u16,
    /// The last collision slot's noiseless part and its key. Repeated
    /// collision slots (a broadcast every round) reuse it and only draw
    /// fresh noise, so the RNG stream and every bit are unchanged.
    clean_memo: Option<(CleanKey, Arc<CleanSlot>)>,
    stats: GroupSlotStats,
}

impl CollisionGroupSimulator {
    /// Build the group simulator for `addrs` (all of which must exist in
    /// `cfg.nodes`), seeded from the network seed and the member
    /// addresses so two groups (or a group and the per-link sims) never
    /// share a noise stream.
    pub fn new(cfg: &FaultNetConfig, addrs: &[u8]) -> Result<Self, CoreError> {
        let nodes = addrs
            .iter()
            .map(|&addr| {
                let spec = cfg
                    .nodes
                    .iter()
                    .find(|s| s.addr == addr)
                    .ok_or(CoreError::InvalidConfig("collision member not in config"))?;
                Ok(NodePlacement {
                    addr,
                    carrier_hz: spec.carrier_hz,
                    position: spec.position,
                    ceramic_resonance_hz: None,
                })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        let mut seed = derive_seed(cfg.seed, 0x636f_6c6c);
        for &addr in addrs {
            seed = derive_seed(seed, u64::from(addr));
        }
        Self::with_config(&MultiNodeConfig {
            pool: cfg.pool,
            projector_pos: cfg.projector_pos,
            hydrophone_pos: cfg.hydrophone_pos,
            nodes,
            drive_voltage_v: cfg.drive_voltage_v,
            bitrate_target_bps: cfg.bitrate_target_bps,
            max_reflections: cfg.max_reflections,
            noise: cfg.noise,
            noise_scale: cfg.noise_scale,
            seed,
            fs_hz: cfg.fs_hz,
        })
    }

    /// Build the simulator for `cfg`'s members, seeded from `cfg.seed`:
    /// designs one recto-piezo per member and the medium's k² propagation
    /// channels per hop (the geometry is fixed for the simulator's
    /// lifetime, so every slot reuses the same tap sets).
    pub fn with_config(cfg: &MultiNodeConfig) -> Result<Self, CoreError> {
        if cfg.nodes.len() < 2 {
            return Err(CoreError::InvalidConfig(
                "collision group needs >= 2 members",
            ));
        }
        let noise_sigma_pa = hydrophone_sigma_pa(
            &cfg.noise,
            cfg.nodes[0].carrier_hz,
            cfg.fs_hz,
            cfg.noise_scale,
        )?;
        let mut projector = Projector::new(cfg.drive_voltage_v)?;
        projector.fs_hz = cfg.fs_hz;
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(cfg.bitrate_target_bps)
            .map_err(CoreError::Mcu)? as u16;
        let mut nodes = Vec::with_capacity(cfg.nodes.len());
        for p in &cfg.nodes {
            let mut node = match p.ceramic_resonance_hz {
                Some(f_res) => {
                    let t = pab_piezo::TransducerBuilder::new()
                        .resonance_hz(f_res)
                        .build()
                        .map_err(pab_analog::AnalogError::Piezo)?;
                    PabNode::with_transducer(p.addr, t, p.carrier_hz)?
                }
                None => PabNode::new(p.addr, p.carrier_hz)?,
            };
            node.default_divider = divider;
            nodes.push((node, p.position));
        }
        let members = cfg
            .nodes
            .iter()
            .map(|p| GroupMember {
                addr: p.addr,
                carrier_hz: p.carrier_hz,
            })
            .collect();
        let medium = Medium::new(
            &cfg.pool,
            &cfg.projector_pos,
            &cfg.hydrophone_pos,
            cfg.max_reflections,
            cfg.fs_hz,
            cfg.nodes.iter().map(|p| p.carrier_hz).collect(),
            nodes,
        )?;
        Ok(CollisionGroupSimulator {
            members,
            medium,
            projector,
            receiver: Receiver::new(1.0e-3, cfg.fs_hz),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            fs_hz: cfg.fs_hz,
            noise_sigma_pa,
            channels: None,
            trained_divider: 0,
            clean_memo: None,
            stats: GroupSlotStats::default(),
        })
    }

    /// The member addresses, in channel order.
    pub fn addrs(&self) -> Vec<u8> {
        self.members.iter().map(|m| m.addr).collect()
    }

    /// Command every member's FM0 divider for `bitrate_bps` (the MAC's
    /// rate-ladder actuation). Invalidates training if the rate changed —
    /// the channel estimate is re-fit at the new waveform timing.
    pub fn set_bitrate_target(&mut self, bitrate_bps: f64) -> Result<(), CoreError> {
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(bitrate_bps)
            .map_err(CoreError::Mcu)? as u16;
        for node in &mut self.medium.nodes {
            node.default_divider = divider;
        }
        Ok(())
    }

    /// Forget the memoised clean slot, so the next collision slot runs
    /// the full chain (the memo's transparency tests compare against it).
    #[cfg(test)]
    fn clear_clean_memo(&mut self) {
        self.clean_memo = None;
    }

    /// Training, collision and memo counters of this group.
    pub fn stats(&self) -> GroupSlotStats {
        self.stats
    }

    /// Quantized uplink bitrate the members will use.
    pub fn bitrate_bps(&self) -> f64 {
        Clock::watch_crystal()
            .bitrate_for_divider(self.medium.nodes[0].default_divider as u64)
            // lint: allow(no-unwrap-in-lib) default_divider is validated non-zero at construction
            .expect("divider >= 1")
    }

    /// Whether the current channel estimate is valid for the commanded
    /// bitrate (training is re-run when the rate rung moves).
    pub fn is_trained(&self) -> bool {
        self.channels.is_some() && self.trained_divider == self.medium.nodes[0].default_divider
    }

    /// Condition number of the current channel estimate (infinite when
    /// untrained).
    // lint: unitless condition number (ratio of singular values)
    pub fn condition_number(&self) -> f64 {
        match &self.channels {
            Some(ch) => condition_number_n(ch),
            None => f64::INFINITY,
        }
    }

    /// The noiseless part of one slot: the medium hears the per-carrier
    /// transmit waveforms over `n_tx + 4·margin` samples, plus each
    /// member's hydrophone-aligned ground-truth switching stream.
    fn clean_slot(&self, waves: &[Vec<f64>]) -> Result<CleanSlot, CoreError> {
        let k = self.members.len();
        let n_tx = waves.iter().map(Vec::len).max().unwrap_or(0);
        let n_rx = n_tx + 4 * crate::margin_samples(self.fs_hz)?;
        let water = pab_sensors::WaterSample::bench();
        let (pressure, node_outs) = self.medium.hear(waves, water, n_rx)?;
        let mut truths = Vec::with_capacity(k);
        let mut responded = Vec::with_capacity(k);
        let mut power_w = Vec::with_capacity(k);
        let mut rectified_v = Vec::with_capacity(k);
        for (i, out) in node_outs.iter().enumerate() {
            responded.push(out.responses_sent > 0);
            power_w.push(out.average_power_w);
            rectified_v.push(out.rectified_v);
            // Hydrophone-aligned ground-truth switching stream.
            let delay = self.medium.uplink_delay_samples(i);
            let mut s = vec![0.0; n_rx];
            for (t, &b) in out.switch_wave.iter().enumerate() {
                if t + delay < n_rx {
                    // lint: allow(panic-path) t + delay < n_rx checked by the enclosing branch
                    s[t + delay] = if b { 1.0 } else { 0.0 };
                }
            }
            truths.push(s);
        }
        Ok(CleanSlot {
            pressure,
            truths,
            responded,
            power_w,
            rectified_v,
        })
    }

    /// The receiving half of a slot: add fresh AWGN to a copy of the
    /// clean pressure (drawn in slot order from the group's RNG), scale
    /// it to volts in place, and demodulate every band to complex
    /// baseband.
    fn receive(&mut self, clean: Arc<CleanSlot>) -> Result<SlotOutput, CoreError> {
        let mut y = clean.pressure.clone();
        add_awgn(&mut y, self.noise_sigma_pa, &mut self.rng);
        let sensitivity = self.receiver.sensitivity_v_per_pa;
        for s in y.iter_mut() {
            *s *= sensitivity;
        }
        let cutoff = (2.0 * self.bitrate_bps()).clamp(200.0, 0.4 * self.fs_hz);
        let mut baseband = Vec::with_capacity(self.members.len());
        for m in &self.members {
            baseband.push(self.receiver.demodulate_complex(&y, m.carrier_hz, cutoff)?);
        }
        Ok(SlotOutput { clean, baseband })
    }

    /// Response window for one ping-sized exchange, seconds.
    fn response_tail_s(&self) -> f64 {
        let bits = UplinkPacket::bits_len(0) as f64;
        5e-3 + bits / self.bitrate_bps() + 40e-3
    }

    /// Padded window `[start, end)` where any member's ground truth is
    /// active in `slot`.
    fn active_window(&self, slot: &SlotOutput) -> (usize, usize) {
        let pad = (0.005 * self.fs_hz).floor() as usize;
        let len = slot.baseband.iter().map(Vec::len).min().unwrap_or(0);
        active_range(&slot.clean.truths, pad, len)
    }

    /// Run the k training slots (addressed query on each member's own
    /// carrier, continuous wave on the rest) and fit the band-major k×k
    /// complex affine channel matrix.
    pub fn train(&mut self, command: Command) -> Result<TrainingOutcome, CoreError> {
        let fs = self.fs_hz;
        let k = self.members.len();
        let tail = self.response_tail_s();
        let mut elapsed_s = 0.0;
        // offsets[band] averaged across slots; gains[band][member].
        let mut offsets = vec![Complex64::new(0.0, 0.0); k];
        let mut gains = vec![vec![Complex64::new(0.0, 0.0); k]; k];
        for j in 0..k {
            let q = DownlinkQuery {
                dest: self.members[j].addr,
                command,
            };
            let (wq, _) = self
                .projector
                .query_waveform(&q, self.members[j].carrier_hz, tail)?;
            let dur = wq.len() as f64 / fs;
            let mut waves = Vec::with_capacity(k);
            for (ci, m) in self.members.iter().enumerate() {
                if ci == j {
                    waves.push(Vec::new()); // placeholder, replaced below
                } else {
                    waves.push(self.projector.continuous_wave(m.carrier_hz, dur));
                }
            }
            waves[j] = wq;
            let slot = self.receive(Arc::new(self.clean_slot(&waves)?))?;
            self.stats.training_slots += 1;
            elapsed_s += slot.clean.pressure.len() as f64 / fs;
            if !slot.clean.responded[j] {
                return Err(CoreError::NodeNotPoweredUp);
            }
            let (a0, a1) = self.active_window(&slot);
            for b in 0..k {
                let ch = estimate_channel_complex(
                    &slot.baseband[b][a0..a1],
                    &[&slot.clean.truths[j][a0..a1]],
                )?;
                offsets[b] += ch.offset / k as f64;
                gains[b][j] = ch.gains[0];
            }
        }
        let channels: Vec<ComplexAffineChannel> = (0..k)
            .map(|b| ComplexAffineChannel {
                offset: offsets[b],
                gains: gains[b].clone(),
            })
            .collect();
        let condition_number = condition_number_n(&channels);
        self.channels = Some(channels);
        self.trained_divider = self.medium.nodes[0].default_divider;
        Ok(TrainingOutcome {
            condition_number,
            elapsed_s,
        })
    }

    /// Transmit `queries[i]` on member `i`'s carrier, let every powered
    /// member answer concurrently, and zero-force the per-band basebands.
    fn separate(&mut self, queries: &[DownlinkQuery]) -> Result<Separated, CoreError> {
        if queries.len() != self.members.len() {
            return Err(CoreError::InvalidConfig("one collision query per member"));
        }
        let channels = self
            .channels
            .clone()
            .ok_or(CoreError::InvalidConfig("collision slot before training"))?;
        let key = (self.medium.nodes[0].default_divider, queries.to_vec());
        let clean = match self.clean_memo.take() {
            Some((memo_key, clean)) if memo_key == key => {
                self.stats.clean_hits += 1;
                clean
            }
            _ => {
                self.stats.clean_misses += 1;
                let tail = self.response_tail_s();
                let mut waves = Vec::with_capacity(queries.len());
                for (m, q) in self.members.iter().zip(queries) {
                    let (w, _) = self.projector.query_waveform(q, m.carrier_hz, tail)?;
                    waves.push(w);
                }
                Arc::new(self.clean_slot(&waves)?)
            }
        };
        self.clean_memo = Some((key, Arc::clone(&clean)));
        let slot = self.receive(clean)?;
        self.stats.collision_slots += 1;
        let (c0, c1) = self.active_window(&slot);
        let bands: Vec<Vec<Complex64>> = slot
            .baseband
            .iter()
            .map(|b| b[c0..c1].to_vec())
            .collect();
        let streams = zero_force_n_complex(&bands, &channels)?;
        Ok(Separated {
            slot,
            window: (c0, c1),
            streams,
        })
    }

    /// Decode each separated stream independently.
    fn verdicts(&self, sep: &Separated) -> Vec<StreamVerdict> {
        let bitrate = self.bitrate_bps();
        let slot = &sep.slot.clean;
        let members = self.members.iter().zip(&sep.streams).enumerate();
        members
            .map(|(i, (m, stream))| {
                // A member that never responded cannot have delivered: any
                // decode of its stream would be an accident, so it is the
                // erasure it physically is.
                let decoded = if slot.responded[i] {
                    self.receiver.decode_envelope(stream, bitrate)
                } else {
                    Err(CoreError::NoPacketDetected)
                };
                StreamVerdict::new(m.addr, decoded, slot.power_w[i], slot.rectified_v[i])
            })
            .collect()
    }

    /// Run one collision slot carrying `queries[i]` on member `i`'s
    /// carrier; zero-force the per-band basebands and decode each
    /// separated stream independently.
    ///
    /// Requires a valid training pass ([`train`](Self::train)); surfaces
    /// [`CoreError::SingularChannel`] when the estimated matrix is too
    /// ill-conditioned to invert.
    pub fn collide(&mut self, queries: &[DownlinkQuery]) -> Result<CollisionOutcome, CoreError> {
        let sep = self.separate(queries)?;
        Ok(CollisionOutcome {
            verdicts: self.verdicts(&sep),
            elapsed_s: sep.slot.clean.pressure.len() as f64 / self.fs_hz,
        })
    }

    /// [`collide`](Self::collide) with one query addressed to
    /// [`BROADCAST_ADDR`] on every member carrier, so every member
    /// answers concurrently.
    pub fn collision_slot(&mut self, command: Command) -> Result<CollisionOutcome, CoreError> {
        let q = DownlinkQuery {
            dest: BROADCAST_ADDR,
            command,
        };
        self.collide(&vec![q; self.members.len()])
    }

    /// The standalone experiment: train every member with a ping, run one
    /// collision slot carrying `queries`, and measure each stream's SINR
    /// before projection (the naive per-band envelope) and after it.
    /// Fails with [`CoreError::NodeNotPoweredUp`] unless every member
    /// answers both its training slot and the collision.
    pub fn run(&mut self, queries: &[DownlinkQuery]) -> Result<SinrReport, CoreError> {
        self.train(Command::Ping)?;
        let sep = self.separate(queries)?;
        if sep.slot.clean.responded.contains(&false) {
            return Err(CoreError::NodeNotPoweredUp);
        }
        let fs = self.fs_hz;
        let bitrate = self.bitrate_bps();
        let max_lag = (0.002 * fs).floor() as usize;
        let (c0, c1) = sep.window;
        let mut sinr_before_db = Vec::with_capacity(sep.streams.len());
        let mut sinr_after_db = Vec::with_capacity(sep.streams.len());
        for (i, stream) in sep.streams.iter().enumerate() {
            let truth = &sep.slot.clean.truths[i][c0..c1];
            let envelope: Vec<f64> = sep.slot.baseband[i][c0..c1]
                .iter()
                .map(|c| c.norm())
                .collect();
            sinr_before_db.push(aligned_sinr_db(
                &naive_stream_estimate(&envelope),
                truth,
                fs,
                bitrate,
                max_lag,
            ));
            sinr_after_db.push(aligned_sinr_db(stream, truth, fs, bitrate, max_lag));
        }
        Ok(SinrReport {
            sinr_before_db,
            sinr_after_db,
            crc_ok: self.verdicts(&sep).iter().map(|v| v.crc_ok).collect(),
            condition_number: self.condition_number(),
        })
    }
}

/// First/last sample where any ground-truth stream is active, padded by
/// `pad` samples and clamped to `len`.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair whose carrier spacing clears the FM0 main lobe at the
    /// commanded rate (5 kHz spacing ≥ 2 × 2 × 1024 Hz), which is the same
    /// viability gate the faultnet MAC applies before scheduling a
    /// collision slot. At the default 15/18 kHz @ 2048 bps geometry the
    /// demodulation low-pass admits the neighboring band and the affine
    /// channel model no longer holds.
    fn wide_pair_cfg() -> FaultNetConfig {
        let mut cfg = FaultNetConfig::default();
        cfg.plan = pab_net::mac::ChannelPlan::new(vec![14_000.0, 19_000.0]).unwrap();
        cfg.nodes[0].carrier_hz = 14_000.0;
        cfg.nodes[1].carrier_hz = 19_000.0;
        cfg.bitrate_target_bps = 1024.0;
        cfg
    }

    #[test]
    fn wide_pair_trains_and_decodes_collision() {
        let cfg = wide_pair_cfg();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        assert!(!group.is_trained());
        let training = group.train(Command::Ping).unwrap();
        assert!(group.is_trained());
        assert!(
            training.condition_number.is_finite() && training.condition_number > 1.0,
            "condition number {}",
            training.condition_number
        );
        assert!(training.elapsed_s > 0.0);
        let out = group.collision_slot(Command::Ping).unwrap();
        assert_eq!(out.verdicts.len(), 2);
        for v in &out.verdicts {
            assert!(v.preamble_found, "stream {} lost", v.addr);
            assert!(v.crc_ok, "stream {} CRC failed", v.addr);
            let p = v.packet.as_ref().unwrap();
            assert_eq!(p.src, v.addr, "stream decoded the wrong node");
        }
        assert!(out.elapsed_s > 0.0);
    }

    #[test]
    fn group_rejects_unknown_member_and_singletons() {
        let cfg = FaultNetConfig::default();
        assert!(CollisionGroupSimulator::new(&cfg, &[1]).is_err());
        assert!(CollisionGroupSimulator::new(&cfg, &[1, 99]).is_err());
    }

    /// NaN, infinite and negative noise scales, and non-finite ambient
    /// levels, are typed config errors; zero stays the noiseless case.
    #[test]
    fn hostile_noise_config_is_a_typed_error() {
        let base = MultiNodeConfig::default();
        let mut bad: Vec<MultiNodeConfig> = [f64::NAN, f64::INFINITY, -0.5]
            .into_iter()
            .map(|noise_scale| MultiNodeConfig {
                noise_scale,
                ..base.clone()
            })
            .collect();
        bad.push(MultiNodeConfig {
            noise: NoiseEnvironment::Tank { level_db: f64::NAN },
            ..base.clone()
        });
        bad.push(MultiNodeConfig {
            noise: NoiseEnvironment::Tank {
                level_db: f64::INFINITY,
            },
            ..base.clone()
        });
        for cfg in &bad {
            assert!(
                matches!(
                    CollisionGroupSimulator::with_config(cfg),
                    Err(CoreError::InvalidConfig(_))
                ),
                "noise={:?} scale={}",
                cfg.noise,
                cfg.noise_scale
            );
        }
        let quiet = MultiNodeConfig {
            noise_scale: 0.0,
            ..base
        };
        let group = CollisionGroupSimulator::with_config(&quiet).unwrap();
        assert_eq!(group.noise_sigma_pa, 0.0);
    }

    #[test]
    fn empty_node_list_rejected() {
        let cfg = MultiNodeConfig {
            nodes: vec![],
            ..Default::default()
        };
        assert!(CollisionGroupSimulator::with_config(&cfg).is_err());
    }

    #[test]
    fn collision_before_training_is_refused() {
        let cfg = FaultNetConfig::default();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        assert!(matches!(
            group.collision_slot(Command::Ping),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn collision_needs_one_query_per_member() {
        let cfg = wide_pair_cfg();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        group.train(Command::Ping).unwrap();
        let q = DownlinkQuery {
            dest: BROADCAST_ADDR,
            command: Command::Ping,
        };
        assert!(matches!(
            group.collide(&[q]),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    /// Every bit a caller can see of a collision outcome.
    fn outcome_bits(
        out: &CollisionOutcome,
    ) -> Vec<(u8, bool, bool, u64, u64, Option<UplinkPacket>, u64, u64)> {
        out.verdicts
            .iter()
            .map(|v| {
                (
                    v.addr,
                    v.preamble_found,
                    v.crc_ok,
                    v.preamble_corr.to_bits(),
                    v.snr_db.to_bits(),
                    v.packet.clone(),
                    v.power_w.to_bits(),
                    v.rectified_v.to_bits(),
                )
            })
            .collect()
    }

    /// Repeated collision slots served from the clean-slot memo decode
    /// bit for bit what a twin group that recomputes every slot decodes:
    /// the memo skips work, never an RNG draw.
    #[test]
    fn clean_memo_is_transparent() {
        let cfg = wide_pair_cfg();
        let mut memo = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        let mut fresh = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        memo.train(Command::Ping).unwrap();
        fresh.train(Command::Ping).unwrap();
        for slot in 0..3 {
            let a = memo.collision_slot(Command::Ping).unwrap();
            fresh.clear_clean_memo();
            let b = fresh.collision_slot(Command::Ping).unwrap();
            assert_eq!(outcome_bits(&a), outcome_bits(&b), "slot {slot}");
            assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits(), "slot {slot}");
            assert!(a.verdicts.iter().all(|v| v.crc_ok), "slot {slot}");
        }
        let want = |hits, misses| GroupSlotStats {
            training_slots: 2,
            collision_slots: 3,
            clean_hits: hits,
            clean_misses: misses,
        };
        assert_eq!(memo.stats(), want(2, 1));
        assert_eq!(fresh.stats(), want(0, 3));
    }

    /// A rate step (new divider) and a different query set each miss
    /// the memo; repeating the new slot hits it again.
    #[test]
    fn clean_memo_misses_on_rate_step_and_new_queries() {
        let cfg = wide_pair_cfg();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        group.train(Command::Ping).unwrap();
        group.collision_slot(Command::Ping).unwrap();
        group.collision_slot(Command::Ping).unwrap();
        assert_eq!(
            (group.stats().clean_hits, group.stats().clean_misses),
            (1, 1)
        );

        group.set_bitrate_target(512.0).unwrap();
        group.train(Command::Ping).unwrap();
        group.collision_slot(Command::Ping).unwrap();
        assert_eq!(
            (group.stats().clean_hits, group.stats().clean_misses),
            (1, 2)
        );

        let addressed: Vec<DownlinkQuery> = group
            .addrs()
            .into_iter()
            .map(|dest| DownlinkQuery {
                dest,
                command: Command::Ping,
            })
            .collect();
        group.collide(&addressed).unwrap();
        assert_eq!(
            (group.stats().clean_hits, group.stats().clean_misses),
            (1, 3)
        );
        group.collide(&addressed).unwrap();
        assert_eq!(
            (group.stats().clean_hits, group.stats().clean_misses),
            (2, 3)
        );
        assert_eq!(group.stats().training_slots, 4);
        assert_eq!(group.stats().collision_slots, 5);
    }

    #[test]
    fn rate_change_invalidates_training() {
        let cfg = FaultNetConfig::default();
        let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        group.train(Command::Ping).unwrap();
        assert!(group.is_trained());
        group.set_bitrate_target(512.0).unwrap();
        assert!(!group.is_trained(), "rung change must force retraining");
    }
}
