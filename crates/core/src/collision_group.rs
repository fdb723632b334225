//! The k-node collision slot of §3.3.2 / Fig. 10 and §8: every powered
//! member backscatters every carrier (backscatter is frequency-agnostic),
//! per-member training slots fit a band-major complex affine channel
//! matrix, and zero-forcing ([`crate::collision`]) separates the
//! collision. [`CollisionGroupSimulator`] is the one engine for this
//! slot, whoever drives it:
//!
//! * **faultnet groups** ([`CollisionGroupSimulator::new`]) are drawn
//!   from a [`FaultNetConfig`] so the
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
//! * **collision slots** (`CollisionGroupSimulator::collide`) transmit
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
//! in slot order, so hits and misses produce the same bits. Every stage
//! of a training or collision slot — the query synthesis, the medium's
//! fields, the nodes' temporaries, the noisy pressure, the per-band
//! basebands, the ground-truth windows and the zero-forced streams —
//! runs on buffers from the group's own pool, returned when the slot
//! ends, so a warm group re-runs its chain without allocating them
//! again.

use crate::collision::{
    aligned_sinr_db, condition_number_n, estimate_channel_complex, naive_stream_estimate,
    zero_force_into, ComplexAffineChannel,
};
use crate::faultnet::FaultNetConfig;
use crate::medium::Medium;
use crate::node::PabNode;
use crate::projector::Projector;
use crate::receiver::{demod_cutoff_hz, Receiver, StreamVerdict, H2A_SENSITIVITY_V_PER_PA};
use crate::scratch::Scratch;
use crate::{
    hydrophone_sigma_pa, margin_samples, response_window_s, CoreError, DEFAULT_SAMPLE_RATE_HZ,
};
use num_complex::Complex64;
use pab_channel::noise::NoiseEnvironment;
use pab_channel::{Pool, Position};
use pab_net::packet::{Command, DownlinkQuery, BROADCAST_ADDR};
use pab_sweep::derive_seed;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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
/// waveforms (and so of the queries and the members' divider). Its
/// buffers come from the group's pool.
#[derive(Debug)]
struct CleanSlot {
    /// Noiseless hydrophone pressure, Pa; its length is the number of
    /// samples the slot occupied at the hydrophone.
    pressure: Vec<f64>,
    /// Each member's switch raster (true = reflective) and its uplink
    /// delay in samples: its hydrophone-aligned ground-truth stream is
    /// 1.0 where the delayed raster is true and 0.0 elsewhere in the
    /// slot. Only windows of it are ever read ([`CleanSlot::truth_into`]),
    /// so it is never stored at the slot's full length.
    switches: Vec<(Vec<bool>, usize)>,
    /// Whether each member sent a complete response.
    responded: Vec<bool>,
    /// Node-side power summaries, per member.
    power_w: Vec<f64>,
    rectified_v: Vec<f64>,
}

impl CleanSlot {
    /// Member `i`'s raster samples that land inside the slot, and their
    /// delay.
    fn visible_switch(&self, i: usize) -> (&[bool], usize) {
        let Some((switch, delay)) = self.switches.get(i) else {
            return (&[], 0);
        };
        let n = switch.len().min(self.pressure.len().saturating_sub(*delay));
        (switch.get(..n).unwrap_or(&[]), *delay)
    }

    /// Member `i`'s ground-truth stream over the window `[a0, a1)`,
    /// written into `out`.
    fn truth_into(&self, i: usize, (a0, a1): (usize, usize), out: &mut Vec<f64>) {
        let (switch, delay) = self.visible_switch(i);
        out.clear();
        out.extend((a0..a1).map(|x| {
            let on = x.checked_sub(delay).and_then(|t| switch.get(t));
            if on == Some(&true) {
                1.0
            } else {
                0.0
            }
        }));
    }
}

/// The per-band complex basebands of one slot, each left in the padded
/// workspace the receiver filtered it in (never compacted): band `b` is
/// `bufs[b].0[pad..pad + len]` with `pad = bufs[b].1`.
struct Basebands {
    bufs: Vec<(Vec<Complex64>, usize)>,
    /// Samples per band: the slot's length at the hydrophone.
    len: usize,
}

impl Basebands {
    /// Band `b`'s samples.
    fn band(&self, b: usize) -> &[Complex64] {
        let band = self.bufs.get(b).and_then(|(buf, pad)| buf.get(*pad..pad + self.len));
        band.unwrap_or(&[])
    }
}

/// What a collision slot's clean part depends on that can change between
/// slots: the members' FM0 divider (through the response window) and the
/// per-carrier queries.
type CleanKey = (u16, Vec<DownlinkQuery>);

/// Slot counters of one collision group (the faultnet tests sum them
/// over every group of a network).
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

/// A zero-forced collision slot, before its streams are decoded. Its
/// clean part is the group's memo.
struct Separated {
    bands: Basebands,
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
    clean_memo: Option<(CleanKey, CleanSlot)>,
    /// The buffers every stage of a slot runs on. Every training and
    /// miss slot re-runs the whole chain, so the group keeps them; slot
    /// lengths vary with the queries, so the pool allocates headroom.
    pool: Scratch,
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
        margin_samples(cfg.fs_hz)?;
        let noise_sigma_pa = hydrophone_sigma_pa(
            &cfg.noise,
            cfg.nodes[0].carrier_hz,
            cfg.fs_hz,
            cfg.noise_scale,
        )?;
        let mut projector = Projector::new(cfg.drive_voltage_v)?;
        projector.fs_hz = cfg.fs_hz;
        let mut nodes = Vec::with_capacity(cfg.nodes.len());
        for p in &cfg.nodes {
            let node = match p.ceramic_resonance_hz {
                Some(f_res) => {
                    let t = pab_piezo::TransducerBuilder::new()
                        .resonance_hz(f_res)
                        .build()
                        .map_err(pab_analog::AnalogError::Piezo)?;
                    PabNode::with_transducer(p.addr, t, p.carrier_hz)?
                }
                None => PabNode::new(p.addr, p.carrier_hz)?,
            };
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
        let mut medium = Medium::new(
            &cfg.pool,
            &cfg.projector_pos,
            &cfg.hydrophone_pos,
            cfg.max_reflections,
            cfg.fs_hz,
            cfg.nodes.iter().map(|p| p.carrier_hz).collect(),
            nodes,
        )?;
        medium.set_bitrate_target(cfg.bitrate_target_bps)?;
        Ok(CollisionGroupSimulator {
            members,
            medium,
            projector,
            receiver: Receiver::new(H2A_SENSITIVITY_V_PER_PA, cfg.fs_hz),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            fs_hz: cfg.fs_hz,
            noise_sigma_pa,
            channels: None,
            trained_divider: 0,
            clean_memo: None,
            pool: Scratch::with_headroom(),
            stats: GroupSlotStats::default(),
        })
    }

    /// Command every member's FM0 divider for `bitrate_bps` (the MAC's
    /// rate-ladder actuation). Invalidates training if the rate changed —
    /// the channel estimate is re-fit at the new waveform timing.
    pub fn set_bitrate_target(&mut self, bitrate_bps: f64) -> Result<(), CoreError> {
        self.medium.set_bitrate_target(bitrate_bps)
    }

    /// Forget the memoised clean slot, so the next collision slot runs
    /// the full chain (the memo's transparency tests compare against it).
    #[cfg(test)]
    fn clear_clean_memo(&mut self) {
        self.clean_memo = None;
    }

    /// Drop every pooled buffer, so the next slot allocates afresh (the
    /// pool's transparency test compares against it).
    #[cfg(test)]
    fn empty_pool(&mut self) {
        self.pool = Scratch::with_headroom();
    }

    /// Training, collision and memo counters of this group.
    pub fn stats(&self) -> GroupSlotStats {
        self.stats
    }

    /// Quantized uplink bitrate the members will use.
    pub fn bitrate_bps(&self) -> f64 {
        self.medium.bitrate_bps()
    }

    /// Whether the current channel estimate is valid for the commanded
    /// bitrate (training is re-run when the rate rung moves).
    pub fn is_trained(&self) -> bool {
        self.channels.is_some() && self.trained_divider == self.medium.divider()
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
    /// member's switch raster and uplink delay (its ground truth). The
    /// waveforms go back to the pool once heard.
    fn clean_slot(&mut self, waves: Vec<Vec<f64>>) -> Result<CleanSlot, CoreError> {
        let k = self.members.len();
        let n_tx = waves.iter().map(Vec::len).max().unwrap_or(0);
        let n_rx = n_tx + 4 * margin_samples(self.fs_hz)?;
        let water = pab_sensors::WaterSample::bench();
        let medium = &self.medium;
        let heard = medium.hear(&waves, n_rx, &mut self.pool, |i, incident, pool| {
            medium.respond(i, incident, None, false, water, pool)
        });
        self.pool.put_all(waves);
        let (pressure, node_outs) = heard?;
        let mut switches = Vec::with_capacity(k);
        let mut responded = Vec::with_capacity(k);
        let mut power_w = Vec::with_capacity(k);
        let mut rectified_v = Vec::with_capacity(k);
        for (i, out) in node_outs.into_iter().enumerate() {
            responded.push(out.responses_sent > 0);
            power_w.push(out.average_power_w);
            rectified_v.push(out.rectified_v);
            switches.push((out.switch_wave, self.medium.uplink_delay_samples(i)));
        }
        Ok(CleanSlot {
            pressure,
            switches,
            responded,
            power_w,
            rectified_v,
        })
    }

    /// Return a clean slot's pooled buffer to the pool.
    fn recycle_clean(&mut self, clean: CleanSlot) {
        self.pool.put(clean.pressure);
    }

    /// Return a slot's basebands to the pool.
    fn recycle_bands(&mut self, bands: Basebands) {
        self.pool.put_all(bands.bufs.into_iter().map(|(buf, _)| buf));
    }

    /// The receiving half of a slot: record a pooled copy of the clean
    /// pressure at the hydrophone (fresh AWGN drawn in slot order from
    /// the group's RNG; no burst reaches a group slot) and demodulate
    /// every band to complex baseband.
    fn receive(&mut self, pressure: &[f64]) -> Result<Basebands, CoreError> {
        let mut y = self.pool.take_copy(pressure);
        self.receiver.record_in_place(&mut y, self.noise_sigma_pa, &mut self.rng, None);
        let cutoff = demod_cutoff_hz(self.bitrate_bps(), self.fs_hz);
        let mut bufs = Vec::with_capacity(self.members.len());
        for m in &self.members {
            let pool = &mut self.pool;
            bufs.push(self.receiver.demodulate_complex_in(&y, m.carrier_hz, cutoff, pool)?);
        }
        let len = y.len();
        self.pool.put(y);
        Ok(Basebands { bufs, len })
    }

    /// The memoised clean part of the last collision slot.
    fn memo(&self) -> Result<&CleanSlot, CoreError> {
        self.clean_memo
            .as_ref()
            .map(|(_, clean)| clean)
            .ok_or(CoreError::InvalidConfig("collision slot without its clean part"))
    }

    /// The carrier tail after a `command` query, seconds: the members'
    /// response window with the group's 40 ms of slack.
    fn response_tail_s(&self, command: Command) -> f64 {
        response_window_s(command, self.bitrate_bps(), 40e-3)
    }

    /// Padded window `[start, end)` where any member's ground truth in
    /// `clean` is active, within a slot of `len` samples.
    fn active_window(&self, clean: &CleanSlot, len: usize) -> (usize, usize) {
        let pad = (0.005 * self.fs_hz).floor() as usize;
        active_range(clean, pad, len)
    }

    /// Run the k training slots (addressed query on each member's own
    /// carrier, continuous wave on the rest) and fit the band-major k×k
    /// complex affine channel matrix.
    ///
    /// The rate's divider keys the clean-slot memo, so a memo left from
    /// another rate can never hit again: its buffers go back to the pool
    /// first, for the training slots to run on. Fails with
    /// [`CoreError::NodeNotPoweredUp`] at the first member that does not
    /// answer its training slot.
    // lint: allow(dead-pub) api crates/experiments/src/bin/pab_bench/layers.rs the benchmark times a training pass; faultnet trains through train_charging
    pub fn train(&mut self, command: Command) -> Result<TrainingOutcome, CoreError> {
        let mut elapsed_s = 0.0;
        let condition_number = self.train_charging(command, &mut elapsed_s)?;
        Ok(TrainingOutcome {
            condition_number,
            elapsed_s,
        })
    }

    /// [`train`](Self::train), adding each training slot's time to
    /// `elapsed_s` as the slot runs, so a pass that fails part-way still
    /// reports the slots it spent; returns the condition number.
    pub(crate) fn train_charging(
        &mut self,
        command: Command,
        elapsed_s: &mut f64,
    ) -> Result<f64, CoreError> {
        let divider = self.medium.divider();
        if let Some(((memo_divider, _), _)) = &self.clean_memo {
            if *memo_divider != divider {
                if let Some((_, stale)) = self.clean_memo.take() {
                    self.recycle_clean(stale);
                }
            }
        }
        let fs = self.fs_hz;
        let k = self.members.len();
        let tail = self.response_tail_s(command);
        // offsets[band] averaged across slots; gains[band][member].
        let mut offsets = vec![Complex64::new(0.0, 0.0); k];
        let mut gains = vec![vec![Complex64::new(0.0, 0.0); k]; k];
        for j in 0..k {
            let q = DownlinkQuery {
                dest: self.members[j].addr,
                command,
            };
            let carrier_hz = self.members[j].carrier_hz;
            let (wq, _) = self.projector.query_waveform_in(&q, carrier_hz, tail, &mut self.pool)?;
            let dur = wq.len() as f64 / fs;
            let mut waves = Vec::with_capacity(k);
            for (ci, m) in self.members.iter().enumerate() {
                if ci == j {
                    waves.push(Vec::new()); // placeholder, replaced below
                } else {
                    let cw = self.projector.continuous_wave_in(m.carrier_hz, dur, &mut self.pool);
                    waves.push(cw);
                }
            }
            waves[j] = wq;
            let clean = self.clean_slot(waves)?;
            let bands = self.receive(&clean.pressure)?;
            self.stats.training_slots += 1;
            *elapsed_s += clean.pressure.len() as f64 / fs;
            if !clean.responded[j] {
                return Err(CoreError::NodeNotPoweredUp);
            }
            let (a0, a1) = self.active_window(&clean, bands.len);
            let mut truth = self.pool.take_workspace(a1 - a0);
            clean.truth_into(j, (a0, a1), &mut truth);
            for b in 0..k {
                let ch = estimate_channel_complex(&bands.band(b)[a0..a1], &[&truth])?;
                offsets[b] += ch.offset / k as f64;
                gains[b][j] = ch.gains[0];
            }
            self.pool.put(truth);
            self.recycle_clean(clean);
            self.recycle_bands(bands);
        }
        let channels: Vec<ComplexAffineChannel> = (0..k)
            .map(|b| ComplexAffineChannel {
                offset: offsets[b],
                gains: gains[b].clone(),
            })
            .collect();
        let condition_number = condition_number_n(&channels);
        self.channels = Some(channels);
        self.trained_divider = self.medium.divider();
        Ok(condition_number)
    }

    /// Transmit `queries[i]` on member `i`'s carrier, let every powered
    /// member answer concurrently, and zero-force the per-band basebands.
    /// The slot's clean part is left in the memo.
    fn separate(&mut self, queries: &[DownlinkQuery]) -> Result<Separated, CoreError> {
        if queries.len() != self.members.len() {
            return Err(CoreError::InvalidConfig("one collision query per member"));
        }
        let channels = self
            .channels
            .clone()
            .ok_or(CoreError::InvalidConfig("collision slot before training"))?;
        let key = (self.medium.divider(), queries.to_vec());
        let clean = match self.clean_memo.take() {
            Some((memo_key, clean)) if memo_key == key => {
                self.stats.clean_hits += 1;
                clean
            }
            stale => {
                self.stats.clean_misses += 1;
                if let Some((_, old)) = stale {
                    self.recycle_clean(old);
                }
                let mut waves = Vec::with_capacity(queries.len());
                for (m, q) in self.members.iter().zip(queries) {
                    let tail = self.response_tail_s(q.command);
                    let (w, _) =
                        self.projector.query_waveform_in(q, m.carrier_hz, tail, &mut self.pool)?;
                    waves.push(w);
                }
                self.clean_slot(waves)?
            }
        };
        let received = self.receive(&clean.pressure).map(|bands| {
            let window = self.active_window(&clean, bands.len);
            (bands, window)
        });
        self.clean_memo = Some((key, clean));
        let (bands, (c0, c1)) = received?;
        self.stats.collision_slots += 1;
        let windows: Vec<&[Complex64]> = (0..self.members.len())
            .map(|b| bands.band(b).get(c0..c1).unwrap_or(&[]))
            .collect();
        let mut streams: Vec<Vec<f64>> = windows
            .iter()
            .map(|_| self.pool.take_workspace(c1 - c0))
            .collect();
        zero_force_into(&windows, &channels, &mut streams)?;
        Ok(Separated {
            bands,
            window: (c0, c1),
            streams,
        })
    }

    /// Return a separated slot's basebands and streams to the pool.
    fn recycle_separated(&mut self, sep: Separated) {
        self.recycle_bands(sep.bands);
        self.pool.put_all(sep.streams);
    }

    /// Decode each separated stream independently.
    fn verdicts(&self, sep: &Separated) -> Result<Vec<StreamVerdict>, CoreError> {
        let bitrate = self.bitrate_bps();
        let slot = self.memo()?;
        let members = self.members.iter().zip(&sep.streams).enumerate();
        Ok(members
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
            .collect())
    }

    /// Run one collision slot carrying `queries[i]` on member `i`'s
    /// carrier; zero-force the per-band basebands and decode each
    /// separated stream independently.
    ///
    /// Requires a valid training pass ([`train`](Self::train)); surfaces
    /// [`CoreError::SingularChannel`] when the estimated matrix is too
    /// ill-conditioned to invert.
    fn collide(&mut self, queries: &[DownlinkQuery]) -> Result<CollisionOutcome, CoreError> {
        let sep = self.separate(queries)?;
        let verdicts = self.verdicts(&sep);
        self.recycle_separated(sep);
        Ok(CollisionOutcome {
            verdicts: verdicts?,
            elapsed_s: self.memo()?.pressure.len() as f64 / self.fs_hz,
        })
    }

    /// `collide` with one query addressed to
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
        let clean = self.memo()?;
        if clean.responded.contains(&false) {
            return Err(CoreError::NodeNotPoweredUp);
        }
        let fs = self.fs_hz;
        let bitrate = self.bitrate_bps();
        let max_lag = (0.002 * fs).floor() as usize;
        let (c0, c1) = sep.window;
        let mut sinr_before_db = Vec::with_capacity(sep.streams.len());
        let mut sinr_after_db = Vec::with_capacity(sep.streams.len());
        let mut truth = Vec::new();
        for (i, stream) in sep.streams.iter().enumerate() {
            clean.truth_into(i, (c0, c1), &mut truth);
            let envelope: Vec<f64> = sep.bands.band(i)[c0..c1]
                .iter()
                .map(|c| c.norm())
                .collect();
            sinr_before_db.push(aligned_sinr_db(
                &naive_stream_estimate(&envelope),
                &truth,
                fs,
                bitrate,
                max_lag,
            ));
            sinr_after_db.push(aligned_sinr_db(stream, &truth, fs, bitrate, max_lag));
        }
        let crc_ok = self.verdicts(&sep)?.iter().map(|v| v.crc_ok).collect();
        self.recycle_separated(sep);
        Ok(SinrReport {
            sinr_before_db,
            sinr_after_db,
            crc_ok,
            condition_number: self.condition_number(),
        })
    }
}

/// First/last sample where any of `clean`'s ground-truth streams is
/// active, padded by `pad` samples and clamped to `len`.
fn active_range(clean: &CleanSlot, pad: usize, len: usize) -> (usize, usize) {
    let mut first = len;
    let mut last = 0;
    for i in 0..clean.switches.len() {
        let (switch, delay) = clean.visible_switch(i);
        if let Some(t) = switch.iter().position(|&b| b) {
            first = first.min(t + delay);
        }
        if let Some(t) = switch.iter().rposition(|&b| b) {
            last = last.max(t + delay);
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
    use pab_net::packet::{SensorKind, UplinkPacket};

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

    /// A sensor read keeps the carrier on for its longer response: the
    /// Fig. 10 pair trains on `ReadSensor` at 512 and 256 bps, and a
    /// collision slot delivers both members' readings.
    #[test]
    fn fig10_pair_trains_and_collides_on_sensor_reads() {
        let read = Command::ReadSensor(SensorKind::Temperature);
        for rate_bps in [512.0, 256.0] {
            let mut group = CollisionGroupSimulator::with_config(&MultiNodeConfig::fig10_pair()).unwrap();
            group.set_bitrate_target(rate_bps).unwrap();
            group.train(read).unwrap();
            let out = group.collision_slot(read).unwrap();
            for v in &out.verdicts {
                assert!(v.crc_ok, "{rate_bps} bps: stream {} CRC failed", v.addr);
                let p = v.packet.as_ref().unwrap();
                assert_eq!(p.src, v.addr, "{rate_bps} bps: stream decoded the wrong node");
                assert!(p.sensor_value().is_some(), "{rate_bps} bps: {p:?} is no sensor reading");
            }
        }
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

        let addressed = [1, 2].map(|dest| DownlinkQuery {
            dest,
            command: Command::Ping,
        });
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

    /// A group that keeps its pool decodes bit for bit what a twin whose
    /// pool is emptied before every slot decodes: through training, a
    /// memo miss and hit, a rate step to 512 bps (every buffer grows),
    /// training, a miss, and back to 1024 bps. Once the pool has seen
    /// the longest slot, returning to the shorter one allocates nothing
    /// from it.
    #[test]
    fn pool_is_transparent() {
        let cfg = wide_pair_cfg();
        let mut kept = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        let mut fresh = CollisionGroupSimulator::new(&cfg, &[1, 2]).unwrap();
        let training_bits =
            |t: &TrainingOutcome| (t.condition_number.to_bits(), t.elapsed_s.to_bits());
        let mut misses_at_512 = 0;
        for (step, rate_bps) in [1024.0, 512.0, 1024.0].into_iter().enumerate() {
            kept.set_bitrate_target(rate_bps).unwrap();
            fresh.set_bitrate_target(rate_bps).unwrap();
            fresh.empty_pool();
            let (a, b) = (kept.train(Command::Ping).unwrap(), fresh.train(Command::Ping).unwrap());
            assert_eq!(training_bits(&a), training_bits(&b), "training {step}");
            for slot in 0..2 {
                fresh.empty_pool();
                let a = kept.collision_slot(Command::Ping).unwrap();
                let b = fresh.collision_slot(Command::Ping).unwrap();
                assert_eq!(outcome_bits(&a), outcome_bits(&b), "rate step {step}, slot {slot}");
                assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
            }
            if step == 1 {
                misses_at_512 = kept.pool.pool_misses();
            }
        }
        assert_eq!(kept.pool.pool_misses(), misses_at_512, "1024 bps fits the 512 bps buffers");
        assert_eq!(kept.stats(), fresh.stats());
        assert_eq!(kept.stats().clean_hits, 3);
        let decoded = outcome_bits(&kept.collision_slot(Command::Ping).unwrap());
        assert!(decoded.iter().all(|v| v.2), "the pair still decodes at 1024 bps");
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
