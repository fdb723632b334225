//! End-to-end single-link simulation: projector → pool → node → pool →
//! hydrophone → decoder, on a 1-node, 1-carrier `Medium`. This is the
//! machinery behind Figs. 2, 7 and 8.

use crate::medium::Medium;
use crate::node::{IncidentComponent, NodeOutput, PabNode};
use crate::projector::Projector;
use crate::receiver::{trace_verdict, Decoded, Receiver, StreamVerdict};
use crate::scratch::{self, Scratch};
use crate::{hydrophone_sigma_pa, margin_samples, CoreError, DEFAULT_SAMPLE_RATE_HZ};
use pab_channel::noise::{add_awgn, NoiseEnvironment};
use pab_channel::{FaultSchedule, Pool, Position};
use pab_mcu::Clock;
use pab_net::packet::{Command, DownlinkQuery, SensorKind, UplinkPacket};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of one link experiment.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// The tank.
    pub pool: Pool,
    /// Projector position.
    pub projector_pos: Position,
    /// Node position.
    pub node_pos: Position,
    /// Hydrophone position.
    pub hydrophone_pos: Position,
    /// Downlink carrier, Hz.
    pub carrier_hz: f64,
    /// Projector drive voltage amplitude, volts.
    pub drive_voltage_v: f64,
    /// Target uplink bitrate (quantized to the MCU divider grid), bps.
    pub bitrate_target_bps: f64,
    /// Recto-piezo match frequency, Hz.
    pub f_match_hz: f64,
    /// Node address.
    pub node_addr: u8,
    /// Image-method reflection order.
    pub max_reflections: usize,
    /// Ambient noise.
    pub noise: NoiseEnvironment,
    /// Extra multiplier on the ambient noise sigma (lets experiments sweep
    /// SNR without changing the environment model).
    // lint: unitless multiplier on ambient noise sigma
    pub noise_scale: f64,
    /// RNG seed (noise realisation).
    pub seed: u64,
    /// Sample rate, Hz.
    pub fs_hz: f64,
    /// Water conditions for the node's sensors.
    pub water: pab_sensors::WaterSample,
    /// Battery-assisted node (bypasses the harvesting power-up threshold;
    /// §1's future-work hybrid design).
    pub battery_assisted: bool,
    /// Extra selectable recto-piezo match frequencies on the node
    /// (§3.3.2's multi-matching-circuit extension; select over the air
    /// with `Command::SelectRectoPiezo`).
    pub extra_match_hz: Vec<f64>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            pool: Pool::pool_a(),
            projector_pos: Position::new(0.5, 1.5, 0.6),
            node_pos: Position::new(1.5, 1.5, 0.6),
            hydrophone_pos: Position::new(1.0, 1.2, 0.6),
            carrier_hz: 15_000.0,
            drive_voltage_v: 100.0,
            bitrate_target_bps: 2_048.0,
            f_match_hz: 15_000.0,
            node_addr: 7,
            max_reflections: 3,
            noise: NoiseEnvironment::quiet_tank(),
            noise_scale: 1.0,
            seed: 1,
            fs_hz: DEFAULT_SAMPLE_RATE_HZ,
            water: pab_sensors::WaterSample::bench(),
            battery_assisted: false,
            extra_match_hz: Vec::new(),
        }
    }
}

/// What happened during one link exchange.
#[derive(Debug)]
pub struct LinkReport {
    /// Whether the decoded packet's CRC passed.
    pub crc_ok: bool,
    /// The decoded packet (when CRC passed).
    pub packet: Option<UplinkPacket>,
    /// Receiver-estimated SNR of the backscatter modulation, dB.
    pub snr_db: f64,
    /// Whether the receiver found a packet preamble at all. `false` is an
    /// *erasure* — the MAC-level signal that the node may be dead or
    /// browned out, as opposed to `crc_ok == false` with a preamble
    /// (noisy but alive).
    pub preamble_found: bool,
    /// Peak preamble correlation in [0, 1] (0.0 on erasure) — the margin
    /// the MAC's link-quality estimator consumes.
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
    /// Whether the node powered up.
    pub node_powered_up: bool,
    /// Node's peak rectified voltage, volts.
    pub node_rectified_v: f64,
    /// Quantized uplink bitrate actually used, bps.
    pub bitrate_bps: f64,
    /// The node's average power during the exchange, watts.
    pub node_power_w: f64,
    /// Receiver envelope (diagnostics / Fig. 2-style plots).
    pub envelope: Vec<f64>,
    /// Raw recorded voltage waveform at the hydrophone (diagnostics).
    pub received: Vec<f64>,
    /// Node-side output (diagnostics). Under a fade, its backscatter is
    /// what reached the uplink channel: scaled by the fade's gain.
    pub node_output: NodeOutput,
}

/// Slot-engine cache and arena counters (see
/// [`LinkSimulator::slot_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotEngineStats {
    /// Query-waveform cache hits.
    pub wave_hits: u64,
    /// Query-waveform cache misses (synthesis ran).
    pub wave_misses: u64,
    /// Clean-exchange cache hits (projector/channel/node chain skipped).
    pub exchange_hits: u64,
    /// Clean-exchange cache misses (full chain ran, result stored).
    pub exchange_misses: u64,
    /// Exchanges that bypassed the cache because a fade window overlapped
    /// the exchange (per-sample gains make the waveform time-dependent).
    pub bypasses: u64,
    /// Heap allocations observed across the engine stage of the most
    /// recent cache-hit exchange (scratch take → AWGN → burst → volts
    /// scaling, decode excluded). Reads 0 unless a counting global
    /// allocator feeds [`scratch::ALLOC_PROBE`], and must stay 0 when one
    /// does — that is the zero-allocation claim `tests/slot_engine_alloc.rs`
    /// pins.
    pub engine_allocs_last: u64,
    /// Scratch-arena buffers handed out.
    pub scratch_takes: u64,
    /// Scratch-arena takes that had to allocate (cold pool).
    pub scratch_pool_misses: u64,
}

impl SlotEngineStats {
    /// Accumulate another simulator's counters, for network-level totals
    /// (`engine_allocs_last` takes the max — it is a high-water probe,
    /// not a count).
    pub fn merge(&mut self, other: &SlotEngineStats) {
        self.wave_hits += other.wave_hits;
        self.wave_misses += other.wave_misses;
        self.exchange_hits += other.exchange_hits;
        self.exchange_misses += other.exchange_misses;
        self.bypasses += other.bypasses;
        self.engine_allocs_last = self.engine_allocs_last.max(other.engine_allocs_last);
        self.scratch_takes += other.scratch_takes;
        self.scratch_pool_misses += other.scratch_pool_misses;
    }
}

/// Stable cache identity of a `Command` (the enum carries no explicit
/// discriminants, so spell the mapping out here).
fn command_key(command: Command) -> (u8, u16) {
    match command {
        Command::Ping => (0, 0),
        Command::SetBitrateDivider(d) => (1, d),
        Command::SelectRectoPiezo(i) => (2, u16::from(i)),
        Command::ReadSensor(SensorKind::Ph) => (3, 0),
        Command::ReadSensor(SensorKind::Temperature) => (3, 1),
        Command::ReadSensor(SensorKind::Pressure) => (3, 2),
    }
}

/// Query-waveform cache key: everything the synthesized downlink depends
/// on that can vary between exchanges — destination, *responding node
/// address*, command, the node's commanded FM0 divider (through the
/// response window length) and the projector oscillator offset in force
/// (static CFO + drift), as bits.
///
/// The responder address matters because `dest` alone does not identify
/// the exchange once broadcast queries exist: every node answers
/// `BROADCAST_ADDR`, so entries keyed on the destination only would alias
/// across responders the moment these caches are shared or a simulator is
/// re-addressed.
type WaveKey = (u8, u8, (u8, u16), u16, u64);

/// Clean-exchange cache key: the wave key plus whether the node is
/// browned out for the window (the two variants superpose different
/// signals at the hydrophone).
type ExchKey = (u8, u8, (u8, u16), u16, u64, bool);

/// One memoized clean exchange: the noiseless hydrophone pressure
/// waveform plus the node-side summary the verdict reports. Valid
/// whenever no fade window overlaps the exchange — outside fade windows
/// the schedule's gain is exactly 1.0, so the cached samples are bitwise
/// what the full chain would recompute.
#[derive(Debug)]
struct CachedExchange {
    y_clean: Vec<f64>,
    /// The node's `(average_power_w, rectified_v)`.
    node: (f64, f64),
}

/// What a fade-overlapped exchange reuses for its wave key: the node's
/// clean incident field and the direct projector→hydrophone pressure over
/// the exchange window. The fade scales neither, so only the node and its
/// uplink leg run per faded exchange.
#[derive(Debug)]
struct FadeFreeLegs {
    incident: Vec<IncidentComponent>,
    direct: Vec<f64>,
}

/// Bound on each cache's entry count: past this the whole map is cleared
/// (drift ramps insert one entry per distinct offset; wholesale clearing
/// keeps the worst case bounded without LRU bookkeeping).
const CACHE_CAP: usize = 16;

/// The link simulator: one link's slot engine on a 1-node, 1-carrier
/// `Medium`, and the hydrophone's decoder. A network of links shares one
/// decoder instead, the way the paper's one hydrophone hears every node:
/// [`FaultNetSimulator`](crate::faultnet::FaultNetSimulator) owns one
/// [`Receiver`] and lends it to every node's link.
#[derive(Debug)]
pub struct LinkSimulator {
    link: Link,
    receiver: Receiver,
}

impl LinkSimulator {
    /// Build the simulator, designing the node front end and the
    /// propagation channels.
    pub fn new(cfg: LinkConfig) -> Result<Self, CoreError> {
        let receiver = Receiver::new(1.0e-3, cfg.fs_hz);
        Ok(LinkSimulator {
            link: Link::new(cfg)?,
            receiver,
        })
    }

    /// Slot-engine cache and arena counters (diagnostics; the allocation
    /// test's evidence).
    pub fn slot_stats(&self) -> SlotEngineStats {
        self.link.slot_stats()
    }

    /// The receiver's decimating front-end counters (samples into and
    /// out of the anti-alias decimator, MACs saved, design cache hits).
    pub fn frontend_stats(&self) -> crate::receiver::FrontEndStats {
        self.receiver.frontend_stats()
    }

    /// The quantized bitrate the node will use.
    pub fn bitrate_bps(&self) -> f64 {
        self.link.bitrate_bps()
    }

    /// Retune the node's uplink bitrate to the nearest watch-crystal
    /// divider (the rate-ladder actuation path: the coordinator commands
    /// a slower FM0 rate, the node reprograms its divider).
    pub fn set_bitrate_target(&mut self, bitrate_bps: f64) -> Result<(), CoreError> {
        self.link.set_bitrate_target(bitrate_bps)
    }

    /// Run one query/response exchange with an arbitrary command,
    /// addressed to the configured node.
    pub fn run_query(&mut self, command: Command) -> Result<LinkReport, CoreError> {
        self.run_query_to(self.link.cfg.node_addr, command)
    }

    /// Run one query/response exchange addressed to `dest`: a faulted
    /// exchange under a quiet schedule at t = 0.
    fn run_query_to(&mut self, dest: u8, command: Command) -> Result<LinkReport, CoreError> {
        self.run_query_to_faulted(dest, command, &FaultSchedule::default(), 0.0)
    }

    /// Run one query/response exchange addressed to `dest` with a
    /// [`FaultSchedule`] applied at the sample level, the exchange
    /// starting at absolute simulation time `t_start_s`:
    ///
    /// * **drift** offsets the projector's oscillator for the exchange
    ///   (restored afterwards), on top of any configured static CFO;
    /// * **fades** scale the node's path gain per sample, on both the
    ///   downlink (projector→node) and uplink (node→hydrophone) legs —
    ///   the direct projector→hydrophone path is geometry the fade does
    ///   not model and stays clean;
    /// * **dropouts** brown the node out: it neither decodes nor
    ///   backscatters if the window overlaps the exchange;
    /// * **bursts** add broadband noise at the hydrophone after ambient
    ///   AWGN, keyed on absolute sample index so same-seed runs are
    ///   bit-identical however slots are scheduled.
    ///
    /// This is the uncached reference for
    /// [`slot_exchange`](Self::slot_exchange), returning every
    /// diagnostic buffer.
    // lint: allow(dead-pub) test-oracle inventory_round_retransmits_through_a_lossy_link one exchange under a fault schedule, outside any MAC
    pub fn run_query_to_faulted(
        &mut self,
        dest: u8,
        command: Command,
        faults: &FaultSchedule,
        t_start_s: f64,
    ) -> Result<LinkReport, CoreError> {
        self.link.run_query_to_faulted(&self.receiver, dest, command, faults, t_start_s)
    }

    /// Run one fault-scheduled slot exchange through the caching slot
    /// engine, returning the node's [`StreamVerdict`] and the exchange's
    /// length in samples (duration = samples / `fs_hz`) instead of a full
    /// [`LinkReport`], and folding the receiver's verdict into `tel` (the
    /// `rx.*` counters and histograms).
    ///
    /// Semantics are identical to
    /// [`run_query_to_faulted`](Self::run_query_to_faulted)
    /// — bitwise, including the RNG stream (ambient noise draws exactly
    /// `exchange_samples` normals either way) — but the steady state is
    /// radically cheaper:
    ///
    /// * the **query waveform** is memoized on `(dest, responder address,
    ///   command, divider, oscillator offset)`, so synthesis runs once per
    ///   distinct key. The responder address is part of the key because a
    ///   broadcast `dest` is answered by *every* node — keying on the
    ///   destination alone would let broadcast exchanges alias across
    ///   responders;
    /// * the whole **clean exchange** (downlink propagation → node →
    ///   uplink superposition at the hydrophone, before noise) is
    ///   memoized on the same key plus the brown-out flag. Outside fade
    ///   windows the fault gain is exactly 1.0 and multiplying by 1.0 is
    ///   the identity on every `f64`, so the memo stays valid under any
    ///   schedule whose fade windows miss the exchange. Drift ramps
    ///   participate through the key (the offset in force at the
    ///   exchange start), hitting once a clamped ramp saturates.
    /// * a **fade-overlapped** exchange bypasses that memo, but the fade
    ///   touches only the node's two legs. The node's clean incident
    ///   field and the direct projector→hydrophone pressure are memoized
    ///   on the wave key, so a bypass evaluates the fade gain once per
    ///   sample, scales the incident field and then the node's
    ///   backscatter in place with it, and runs only the node and its
    ///   uplink propagation, added onto a copy of the direct pressure in
    ///   the medium's summation order. The copies of the incident field
    ///   and the direct pressure, the gains, the node's temporaries and
    ///   the received window all come from the link's arena and go back
    ///   to it, so repeated bypasses of one wave key stop allocating
    ///   them.
    /// * On a cache hit, the only per-exchange work before decoding is a
    ///   scratch-arena copy of the memoized waveform, in-place AWGN and
    ///   burst noise, and the in-place pressure→volts scaling — zero
    ///   heap allocations, pinned by `tests/slot_engine_alloc.rs`.
    ///
    /// AWGN is drawn fresh per exchange (never cached), so cached and
    /// uncached runs consume identical RNG streams and produce identical
    /// verdicts.
    pub fn slot_exchange(
        &mut self,
        dest: u8,
        command: Command,
        faults: &FaultSchedule,
        t_start_s: f64,
        tel: Option<&mut pab_telemetry::Recorder>,
    ) -> Result<(StreamVerdict, usize), CoreError> {
        self.link.slot_exchange(&self.receiver, dest, command, faults, t_start_s, tel)
    }

    /// Fig. 2 reproduction: CW downlink, node toggling every
    /// `half_period_s` starting `toggle_start_s` after the projector
    /// begins at `projector_start_s`. Returns the receiver's demodulated
    /// envelope over `total_s`.
    pub fn run_fig2(
        &mut self,
        total_s: f64,
        projector_start_s: f64,
        toggle_start_s: f64,
        half_period_s: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let link = &mut self.link;
        let fs_hz = link.cfg.fs_hz;
        let n = (total_s * fs_hz).floor() as usize;
        let cw = link
            .projector
            .continuous_wave(link.cfg.carrier_hz, total_s - projector_start_s);
        let mut tx = vec![0.0; n];
        let off = ((projector_start_s * fs_hz).floor() as usize).min(n);
        for (t, &s) in tx[off..].iter_mut().zip(&cw) {
            *t = s;
        }
        let incident = link.medium.incident(0, &[&tx]);
        let node_out = link.medium.nodes[0].process_fixed_toggle(
            &incident[0],
            fs_hz,
            toggle_start_s,
            half_period_s,
        )?;
        let mut y = link.medium.superpose(&[&tx], &[&node_out.backscatter], n);
        link.receive(&self.receiver, &mut y, &FaultSchedule::default(), 0.0);
        self.receiver.demodulate(&y, link.cfg.carrier_hz, 60.0)
    }
}

/// One link's transmit side and slot engine: a 1-node, 1-carrier
/// `Medium`, the projector, the link's ambient-noise stream and its
/// caches — everything but the hydrophone's decoder, which its owner
/// lends to every exchange as a `&Receiver`.
///
/// The medium's three propagation channels (projector→node,
/// projector→hydrophone, node→hydrophone) depend only on the
/// configuration, so they are built once here and reused across every
/// query — the image-method search is pure overhead when repeated per
/// packet in a Monte-Carlo sweep. The same reasoning extends to the slot
/// engine's caches: the query waveform and the whole clean (fade-free)
/// exchange are pure functions of the cache keys above, so steady-state
/// slots skip synthesis, both propagation legs and the node's signal
/// chain entirely.
#[derive(Debug)]
pub(crate) struct Link {
    cfg: LinkConfig,
    projector: Projector,
    medium: Medium,
    rng: ChaCha8Rng,
    /// Ambient noise sigma at the carrier (pure function of the config;
    /// hoisted out of the per-exchange path).
    sigma_pa: f64,
    /// The arena the cache-hit and fade-bypass paths run on (a bypass
    /// runs the node too). A cache miss runs on a transient pool that
    /// frees each buffer as its stage ends: its result moves into the
    /// cache, and the arena keeps only what the next hit or bypass
    /// reuses.
    scratch: RefCell<Scratch>,
    wave_cache: BTreeMap<WaveKey, Arc<Vec<f64>>>,
    exch_cache: BTreeMap<ExchKey, CachedExchange>,
    legs_cache: BTreeMap<WaveKey, FadeFreeLegs>,
    stats: SlotEngineStats,
}

impl Link {
    /// Build the link, designing the node front end and the propagation
    /// channels.
    pub(crate) fn new(cfg: LinkConfig) -> Result<Self, CoreError> {
        margin_samples(cfg.fs_hz)?;
        let sigma_pa = hydrophone_sigma_pa(&cfg.noise, cfg.carrier_hz, cfg.fs_hz, cfg.noise_scale)?;
        let mut projector = Projector::new(cfg.drive_voltage_v)?;
        projector.fs_hz = cfg.fs_hz;
        let mut node = PabNode::new(cfg.node_addr, cfg.f_match_hz)?;
        for &f in &cfg.extra_match_hz {
            node = node.with_extra_frontend(f)?;
        }
        node.battery_assisted = cfg.battery_assisted;
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(cfg.bitrate_target_bps)
            .map_err(CoreError::Mcu)?;
        node.default_divider = divider as u16;
        let medium = Medium::new(
            &cfg.pool,
            &cfg.projector_pos,
            &cfg.hydrophone_pos,
            cfg.max_reflections,
            cfg.fs_hz,
            vec![cfg.carrier_hz],
            vec![(node, cfg.node_pos)],
        )?;
        Ok(Link {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            cfg,
            projector,
            medium,
            sigma_pa,
            scratch: RefCell::new(Scratch::new()),
            wave_cache: BTreeMap::new(),
            exch_cache: BTreeMap::new(),
            legs_cache: BTreeMap::new(),
            stats: SlotEngineStats::default(),
        })
    }

    /// Slot-engine cache and arena counters.
    pub(crate) fn slot_stats(&self) -> SlotEngineStats {
        let scratch = self.scratch.borrow();
        SlotEngineStats {
            scratch_takes: scratch.takes(),
            scratch_pool_misses: scratch.pool_misses(),
            ..self.stats
        }
    }

    /// The quantized bitrate the node will use.
    fn bitrate_bps(&self) -> f64 {
        Clock::watch_crystal()
            .bitrate_for_divider(self.medium.nodes[0].default_divider as u64)
            // lint: allow(no-unwrap-in-lib) default_divider is validated non-zero at construction
            .expect("divider >= 1")
    }

    /// Retune the node's uplink bitrate to the nearest watch-crystal
    /// divider.
    pub(crate) fn set_bitrate_target(&mut self, bitrate_bps: f64) -> Result<(), CoreError> {
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(bitrate_bps)
            .map_err(CoreError::Mcu)?;
        self.medium.nodes[0].default_divider = divider as u16;
        Ok(())
    }

    /// The downlink waveform of one query at projector oscillator offset
    /// `cfo_hz` (static CFO plus any drift), with a continuous-wave tail
    /// long enough for the node's response.
    fn query_waveform(
        &mut self,
        dest: u8,
        command: Command,
        cfo_hz: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let payload_len = match command {
            Command::ReadSensor(_) => 4,
            _ => 0,
        };
        // guard + packet + margin
        let bits = UplinkPacket::bits_len(payload_len) as f64;
        let cw_tail = 5e-3 + bits / self.bitrate_bps() + 30e-3;
        let saved_cfo_hz = self.projector.cfo_hz;
        self.projector.cfo_hz = cfo_hz;
        let wave = self.projector.query_waveform(
            &DownlinkQuery { dest, command },
            self.cfg.carrier_hz,
            cw_tail,
        );
        self.projector.cfo_hz = saved_cfo_hz;
        Ok(wave?.0)
    }

    /// [`LinkSimulator::run_query_to_faulted`], decoded by `rx`.
    fn run_query_to_faulted(
        &mut self,
        rx: &Receiver,
        dest: u8,
        command: Command,
        faults: &FaultSchedule,
        t_start_s: f64,
    ) -> Result<LinkReport, CoreError> {
        let cfo_hz = self.projector.cfo_hz + faults.drift_at_hz(t_start_s);
        let tx_wave = self.query_waveform(dest, command, cfo_hz)?;
        let incident = self.medium.incident(0, &[&tx_wave]);
        let window_s = tx_wave.len() as f64 / self.cfg.fs_hz;
        let down = faults.node_down_during(t_start_s, t_start_s + window_s);
        let fade = (!faults.is_quiet()).then_some((faults, t_start_s));
        let pool = &mut Scratch::transient();
        let (mut y, node_out) = self.clean_exchange(pool, &tx_wave, incident, fade, down, None)?;
        self.receive(rx, &mut y, faults, t_start_s);
        let bitrate = self.bitrate_bps();
        let decoded = rx.decode_uplink(&y, self.cfg.carrier_hz, bitrate);
        Ok(build_report(node_out, decoded, bitrate, y))
    }

    /// The noiseless exchange at the hydrophone, from the node's incident
    /// field on: the `fade` gains (schedule, exchange start) on the
    /// node's downlink, the node (or, `down`, its browned-out silence),
    /// the same gains on its backscatter, and the medium's superposition
    /// over `incident_len + margin` samples. The fade's gain is evaluated
    /// once per sample and scales both legs; without a fade nothing is
    /// multiplied. `direct`, when given, is the medium's direct leg over
    /// that window, kept from an earlier exchange with the same wave.
    /// The gains, the node's temporaries and the pressure come from
    /// `pool`, and `incident`'s buffers go back to it.
    fn clean_exchange(
        &self,
        pool: &mut Scratch,
        tx_wave: &[f64],
        mut incident: Vec<IncidentComponent>,
        fade: Option<(&FaultSchedule, f64)>,
        down: bool,
        direct: Option<&[f64]>,
    ) -> Result<(Vec<f64>, NodeOutput), CoreError> {
        let fs_hz = self.cfg.fs_hz;
        let incident_len = incident[0].samples.len();
        let gains: Option<Vec<f64>> = fade.map(|(faults, t_start_s)| {
            let mut gains = pool.take_workspace(incident_len);
            faults.gains_into(t_start_s, fs_hz, &mut gains);
            gains
        });
        let apply_fade = |samples: &mut [f64]| {
            if let Some(gains) = &gains {
                for (s, g) in samples.iter_mut().zip(gains) {
                    *s *= g;
                }
            }
        };
        for c in &mut incident {
            apply_fade(&mut c.samples);
        }
        // A brown-out anywhere in the exchange silences the node: it
        // cannot hold charge through the window, so nothing decodes and
        // nothing backscatters (the receiver will report an erasure).
        let mut node_out = if down {
            NodeOutput {
                powered_up: false,
                rectified_v: 0.0,
                switch_wave: vec![false; incident_len],
                backscatter: vec![vec![0.0; incident_len]],
                powered_at_s: None,
                decoded_query: None,
                responses_sent: 0,
                bitrate_bps: self.bitrate_bps(),
                average_power_w: 0.0,
            }
        } else {
            self.medium.nodes[0].process_in(&incident, fs_hz, Some(self.cfg.water), pool)?
        };
        // Return the incident field before the superposition takes its
        // window, so the window can reuse it.
        pool.put_all(incident.into_iter().map(|c| c.samples));
        for bs in &mut node_out.backscatter {
            apply_fade(bs);
        }
        if let Some(gains) = gains {
            pool.put(gains);
        }
        let rx_len = incident_len + margin_samples(fs_hz)?;
        let mut y = match direct {
            Some(direct) => pool.take_copy(direct),
            None => {
                let mut y = pool.take_zeroed(rx_len);
                self.medium.add_direct(&mut y, &[tx_wave]);
                y
            }
        };
        self.medium.add_backscatter(&mut y, &[&node_out.backscatter]);
        Ok((y, node_out))
    }

    /// The hydrophone `rx`, in place: ambient AWGN from this link's
    /// stream, the schedule's burst noise, then the pressure→volts
    /// scaling.
    fn receive(&mut self, rx: &Receiver, y: &mut [f64], faults: &FaultSchedule, t_start_s: f64) {
        add_awgn(y, self.sigma_pa, &mut self.rng);
        faults.add_burst_noise(y, t_start_s, self.cfg.fs_hz);
        let sensitivity = rx.sensitivity_v_per_pa;
        for s in y.iter_mut() {
            *s *= sensitivity;
        }
    }

    /// [`LinkSimulator::slot_exchange`], decoded by `rx`.
    pub(crate) fn slot_exchange(
        &mut self,
        rx: &Receiver,
        dest: u8,
        command: Command,
        faults: &FaultSchedule,
        t_start_s: f64,
        tel: Option<&mut pab_telemetry::Recorder>,
    ) -> Result<(StreamVerdict, usize), CoreError> {
        let fs_hz = self.cfg.fs_hz;
        let cfo_hz = self.projector.cfo_hz + faults.drift_at_hz(t_start_s);
        let divider = self.medium.nodes[0].default_divider;
        let ck = command_key(command);
        let wkey: WaveKey = (dest, self.cfg.node_addr, ck, divider, cfo_hz.to_bits());

        let tx_wave: Arc<Vec<f64>> = match self.wave_cache.get(&wkey) {
            Some(w) => {
                self.stats.wave_hits += 1;
                Arc::clone(w)
            }
            None => {
                self.stats.wave_misses += 1;
                let w = Arc::new(self.query_waveform(dest, command, cfo_hz)?);
                if self.wave_cache.len() >= CACHE_CAP {
                    self.wave_cache.clear();
                }
                self.wave_cache.insert(wkey, Arc::clone(&w));
                w
            }
        };

        let window_s = tx_wave.len() as f64 / fs_hz;
        let down = faults.node_down_during(t_start_s, t_start_s + window_s);
        let bitrate = self.bitrate_bps();
        if faults.fade_active_during(t_start_s, t_start_s + window_s) {
            // Per-sample fade gains make the exchange time-dependent, so
            // the node and its uplink leg must run in full — but the
            // query waveform above, the clean downlink propagation and
            // the direct path are pure functions of the wave key, so
            // reuse all three and only pay for the fade-dependent stages.
            self.stats.bypasses += 1;
            if !self.legs_cache.contains_key(&wkey) {
                let incident = self.medium.incident(0, &[&tx_wave[..]]);
                let rx_len = incident[0].samples.len() + margin_samples(fs_hz)?;
                let mut direct = vec![0.0; rx_len];
                self.medium.add_direct(&mut direct, &[&tx_wave[..]]);
                if self.legs_cache.len() >= CACHE_CAP {
                    self.legs_cache.clear();
                }
                self.legs_cache.insert(wkey, FadeFreeLegs { incident, direct });
            }
            // lint: allow(no-unwrap-in-lib) inserted above under the same key
            let legs = self.legs_cache.get(&wkey).expect("legs entry just ensured");
            let fade = Some((faults, t_start_s));
            let (mut y, node_out) = {
                let pool = &mut *self.scratch.borrow_mut();
                let incident = legs
                    .incident
                    .iter()
                    .map(|c| IncidentComponent {
                        carrier_hz: c.carrier_hz,
                        samples: pool.take_copy(&c.samples),
                    })
                    .collect();
                let exchange =
                    self.clean_exchange(pool, &tx_wave, incident, fade, down, Some(&legs.direct));
                let (y, mut node_out) = exchange?;
                pool.put_all(std::mem::take(&mut node_out.backscatter));
                (y, node_out)
            };
            self.receive(rx, &mut y, faults, t_start_s);
            let decoded = rx.decode_uplink_verdict(&y, self.cfg.carrier_hz, bitrate);
            trace_verdict(&decoded, tel);
            let (power_w, rectified_v) = (node_out.average_power_w, node_out.rectified_v);
            let verdict = StreamVerdict::new(self.cfg.node_addr, decoded, power_w, rectified_v);
            let exchange_samples = y.len();
            self.scratch.borrow_mut().put(y);
            return Ok((verdict, exchange_samples));
        }

        let ekey: ExchKey = (dest, self.cfg.node_addr, ck, divider, cfo_hz.to_bits(), down);
        if !self.exch_cache.contains_key(&ekey) {
            self.stats.exchange_misses += 1;
            let incident = self.medium.incident(0, &[&tx_wave[..]]);
            let pool = &mut Scratch::transient();
            let (y_clean, out) = self.clean_exchange(pool, &tx_wave, incident, None, down, None)?;
            if self.exch_cache.len() >= CACHE_CAP {
                self.exch_cache.clear();
            }
            let entry = CachedExchange {
                y_clean,
                node: (out.average_power_w, out.rectified_v),
            };
            self.exch_cache.insert(ekey, entry);
        } else {
            self.stats.exchange_hits += 1;
        }

        // ---- engine+decode stage: zero heap allocations once the
        // scratch arena, the receiver's decode scratch and its front-end
        // design cache are warm (untraced; the telemetry recorder may
        // grow its own tables). Pinned by `tests/slot_engine_alloc.rs`.
        let probe0 = scratch::alloc_probe();
        let (mut y, (power_w, rectified_v)) = {
            // lint: allow(no-unwrap-in-lib) inserted above under the same key
            let entry = self.exch_cache.get(&ekey).expect("exchange entry just ensured");
            (self.scratch.borrow_mut().take_copy(&entry.y_clean), entry.node)
        };
        self.receive(rx, &mut y, faults, t_start_s);
        let decoded = rx.decode_uplink_verdict(&y, self.cfg.carrier_hz, bitrate);
        trace_verdict(&decoded, tel);
        let exchange_samples = y.len();
        self.scratch.borrow_mut().put(y);
        self.stats.engine_allocs_last = scratch::alloc_probe().saturating_sub(probe0);
        // ---- end engine+decode stage.

        let verdict = StreamVerdict::new(self.cfg.node_addr, decoded, power_w, rectified_v);
        Ok((verdict, exchange_samples))
    }
}

/// The full diagnostic report of one decoded exchange.
fn build_report(
    node_out: NodeOutput,
    decoded: Result<Decoded, CoreError>,
    bitrate_bps: f64,
    received: Vec<f64>,
) -> LinkReport {
    let lost = LinkReport {
        crc_ok: false,
        packet: None,
        snr_db: f64::NEG_INFINITY,
        preamble_found: false,
        preamble_corr: 0.0,
        node_powered_up: node_out.powered_up,
        node_rectified_v: node_out.rectified_v,
        bitrate_bps,
        node_power_w: node_out.average_power_w,
        envelope: Vec::new(),
        received,
        node_output: node_out,
    };
    match decoded {
        Ok(d) => LinkReport {
            crc_ok: d.packet.is_ok(),
            packet: d.packet.ok(),
            snr_db: d.snr_db,
            preamble_found: true,
            preamble_corr: d.preamble_corr,
            envelope: d.envelope,
            ..lost
        },
        Err(_) => lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LinkSimulator {
        /// The configuration in use.
        fn config(&self) -> &LinkConfig {
            &self.link.cfg
        }

        /// Mutable access to the projector (PWM timing, CFO).
        fn projector_mut(&mut self) -> &mut Projector {
            &mut self.link.projector
        }

        /// Run a pH sensor query addressed to `addr` (the paper's flagship
        /// application). The simulator hosts a single node at
        /// `config().node_addr`; addressing anything else exercises the
        /// firmware's address filter and yields no response.
        fn run_sensor_query(&mut self, addr: u8) -> Result<LinkReport, CoreError> {
            self.run_query_to(addr, Command::ReadSensor(SensorKind::Ph))
        }
    }

    /// NaN, infinite and negative noise scales, and non-finite ambient
    /// levels, are typed config errors; zero stays the noiseless case.
    #[test]
    fn hostile_noise_config_is_a_typed_error() {
        for noise_scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let cfg = LinkConfig {
                noise_scale,
                ..LinkConfig::default()
            };
            assert!(
                matches!(LinkSimulator::new(cfg), Err(CoreError::InvalidConfig(_))),
                "noise_scale={noise_scale}"
            );
        }
        for noise in [
            NoiseEnvironment::Tank { level_db: f64::NAN },
            NoiseEnvironment::Tank {
                level_db: f64::INFINITY,
            },
            NoiseEnvironment::OpenWater {
                wind_m_s: 5.0,
                shipping: f64::NAN,
            },
        ] {
            let cfg = LinkConfig {
                noise,
                ..LinkConfig::default()
            };
            assert!(
                matches!(LinkSimulator::new(cfg), Err(CoreError::InvalidConfig(_))),
                "noise={noise:?}"
            );
        }
        let quiet = LinkConfig {
            noise_scale: 0.0,
            ..LinkConfig::default()
        };
        assert_eq!(LinkSimulator::new(quiet).unwrap().link.sigma_pa, 0.0);
    }

    #[test]
    fn default_link_delivers_a_sensor_packet() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let report = sim.run_sensor_query(7).unwrap();
        assert!(report.node_powered_up, "rect_v={}", report.node_rectified_v);
        assert!(report.crc_ok, "snr={} dB", report.snr_db);
        let packet = report.packet.unwrap();
        assert_eq!(packet.src, 7);
        let ph = packet.sensor_value().unwrap();
        // ADC quantization + Nernst-slope temperature mismatch allow a
        // small deviation around the true pH 7.
        assert!((ph - 7.0).abs() < 0.2, "ph={ph}");
    }

    #[test]
    fn ping_roundtrip() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(report.crc_ok);
        assert_eq!(
            report.packet.unwrap().kind,
            pab_net::packet::UplinkKind::Ack
        );
    }

    #[test]
    fn snr_is_positive_at_one_meter() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(report.snr_db > 5.0, "snr={}", report.snr_db);
    }

    #[test]
    fn heavy_noise_breaks_the_link() {
        let cfg = LinkConfig {
            noise_scale: 100_000.0,
            ..Default::default()
        };
        let mut sim = LinkSimulator::new(cfg).unwrap();
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(!report.crc_ok);
    }

    #[test]
    fn weak_drive_fails_to_power_node() {
        let cfg = LinkConfig {
            drive_voltage_v: 1.0,
            ..Default::default()
        };
        let mut sim = LinkSimulator::new(cfg).unwrap();
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(!report.node_powered_up);
        assert!(!report.crc_ok);
    }

    #[test]
    fn fig2_envelope_shows_projector_then_backscatter() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let env = sim.run_fig2(1.2, 0.2, 0.6, 0.1).unwrap();
        let fs_hz = sim.config().fs_hz;
        // Quiet before the projector starts.
        let before = pab_dsp::stats::mean(&env[..(0.15 * fs_hz) as usize]);
        // Constant after the projector is on but before backscatter.
        let during_cw = pab_dsp::stats::mean(&env[(0.3 * fs_hz) as usize..(0.55 * fs_hz) as usize]);
        assert!(during_cw > 10.0 * before.max(1e-12));
        // Alternation after backscatter begins: std dev rises.
        let bs_region = &env[(0.65 * fs_hz) as usize..(1.15 * fs_hz) as usize];
        let cw_region = &env[(0.3 * fs_hz) as usize..(0.55 * fs_hz) as usize];
        assert!(
            pab_dsp::stats::std_dev(bs_region) > 3.0 * pab_dsp::stats::std_dev(cw_region),
            "bs std {} vs cw std {}",
            pab_dsp::stats::std_dev(bs_region),
            pab_dsp::stats::std_dev(cw_region)
        );
    }

    #[test]
    fn link_survives_projector_cfo() {
        // Footnote 12: the projector and hydrophone run on different
        // oscillators. A 40 Hz offset on a 15 kHz carrier must still
        // decode thanks to the receiver's CFO estimation.
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        sim.projector_mut().cfo_hz = 40.0;
        let report = sim.run_query(Command::Ping).unwrap();
        assert!(report.crc_ok, "CFO broke the link (snr {})", report.snr_db);
    }

    #[test]
    fn run_query_to_other_address_gets_no_response() {
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let report = sim.run_query_to(99, Command::Ping).unwrap();
        assert_eq!(report.node_output.responses_sent, 0);
        assert!(!report.crc_ok);
    }

    #[test]
    fn broadcast_slot_exchange_keys_the_cache_on_the_responder() {
        // Broadcast queries are answered by every node, so the slot-engine
        // cache key must carry the responder's address, not just `dest` —
        // otherwise two responders' broadcast exchanges share a key and a
        // cached entry from one would be replayed for the other. Regression
        // for the key including `node_addr`: each responder must decode its
        // *own* packet on both the cold (miss) and warm (hit) path.
        let faults = pab_channel::FaultSchedule::default();
        for addr in [7u8, 9] {
            let cfg = LinkConfig {
                node_addr: addr,
                ..Default::default()
            };
            let mut sim = LinkSimulator::new(cfg).unwrap();
            let (cold, _) = sim
                .slot_exchange(
                    pab_net::packet::BROADCAST_ADDR,
                    Command::Ping,
                    &faults,
                    0.0,
                    None,
                )
                .unwrap();
            let (warm, _) = sim
                .slot_exchange(
                    pab_net::packet::BROADCAST_ADDR,
                    Command::Ping,
                    &faults,
                    1.0,
                    None,
                )
                .unwrap();
            assert!(cold.crc_ok, "addr {addr}: cold broadcast exchange failed");
            assert!(warm.crc_ok, "addr {addr}: warm broadcast exchange failed");
            assert_eq!(cold.packet.unwrap().src, addr);
            assert_eq!(warm.packet.unwrap().src, addr);
            let stats = sim.slot_stats();
            assert_eq!(stats.wave_misses, 1, "addr {addr}: {stats:?}");
            assert_eq!(stats.wave_hits, 1, "addr {addr}: {stats:?}");
            assert_eq!(stats.exchange_hits, 1, "addr {addr}: {stats:?}");
        }
    }

    #[test]
    fn quiet_fault_schedule_changes_nothing() {
        let faults = pab_channel::FaultSchedule::default();
        let mut a = LinkSimulator::new(LinkConfig::default()).unwrap();
        let mut b = LinkSimulator::new(LinkConfig::default()).unwrap();
        let clean = a.run_query(Command::Ping).unwrap();
        let faulted = b
            .run_query_to_faulted(7, Command::Ping, &faults, 12.5)
            .unwrap();
        assert!(faulted.crc_ok);
        assert!(faulted.preamble_found);
        assert_eq!(clean.received, faulted.received, "bit-identical waveform");
    }

    #[test]
    fn dropout_window_produces_an_erasure() {
        let faults = pab_channel::FaultSchedule::new(3)
            .with_dropout(pab_channel::DropoutWindow {
                start_s: 10.0,
                duration_s: 60.0,
            })
            .unwrap();
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        // Inside the window: erasure (no preamble at all), not a CRC fail.
        let report = sim
            .run_query_to_faulted(7, Command::Ping, &faults, 30.0)
            .unwrap();
        assert!(!report.node_powered_up);
        assert!(!report.preamble_found, "brown-out must erase, corr={}", report.preamble_corr);
        // Outside the window the link is healthy again.
        let report = sim
            .run_query_to_faulted(7, Command::Ping, &faults, 80.0)
            .unwrap();
        assert!(report.crc_ok);
    }

    #[test]
    fn deep_fade_breaks_the_link_only_inside_the_window() {
        let faults = pab_channel::FaultSchedule::new(4)
            .with_fade(pab_channel::PathFade {
                start_s: 0.0,
                duration_s: 1000.0,
                floor_ratio: 1e-4,
            })
            .unwrap();
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        // Mid-fade (gain ~1e-4): the node cannot even power up.
        let report = sim
            .run_query_to_faulted(7, Command::Ping, &faults, 500.0)
            .unwrap();
        assert!(!report.crc_ok);
        // Past the fade: healthy.
        let report = sim
            .run_query_to_faulted(7, Command::Ping, &faults, 1500.0)
            .unwrap();
        assert!(report.crc_ok);
    }

    /// Repeated fade bypasses of one wave key run on the link's arena:
    /// the first fills it, and every later one takes all its buffers
    /// (incident and direct copies, gains, node temporaries, the received
    /// window) without a miss.
    #[test]
    fn repeated_bypasses_reuse_the_arena() {
        let faults = pab_channel::FaultSchedule::new(4)
            .with_fade(pab_channel::PathFade {
                start_s: 0.0,
                duration_s: 1000.0,
                floor_ratio: 0.5,
            })
            .unwrap();
        let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
        let mut misses = Vec::new();
        for i in 0..4 {
            let t_start_s = 100.0 + 7.0 * i as f64;
            sim.slot_exchange(7, Command::Ping, &faults, t_start_s, None).unwrap();
            misses.push(sim.slot_stats().scratch_pool_misses);
        }
        let stats = sim.slot_stats();
        assert_eq!((stats.bypasses, stats.exchange_misses), (4, 0), "{stats:?}");
        assert!(misses[0] > 0, "the first bypass fills the arena");
        assert!(misses.iter().all(|&m| m == misses[0]), "{misses:?}");
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_invocations() {
        let faults = pab_channel::FaultSchedule::new(9)
            .with_burst(pab_channel::BroadbandBurst {
                start_s: 0.0,
                duration_s: 5.0,
                rms_pa: 0.05,
            })
            .unwrap();
        let run = || {
            let mut sim = LinkSimulator::new(LinkConfig::default()).unwrap();
            let r = sim
                .run_query_to_faulted(7, Command::Ping, &faults, 0.5)
                .unwrap();
            r.received
        };
        assert_eq!(run(), run(), "fault layer must honor the determinism contract");
    }

    #[test]
    fn bitrate_quantization_reported() {
        let cfg = LinkConfig {
            bitrate_target_bps: 3_000.0,
            ..Default::default()
        };
        let sim = LinkSimulator::new(cfg).unwrap();
        // 3000 bps quantizes to 32768/(2·6) = 2730.67.
        assert!((sim.bitrate_bps() - 2730.67).abs() < 0.1);
    }
}
