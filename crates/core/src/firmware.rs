//! The node firmware, as described in §4.2.2, running on the emulated MCU.
//!
//! "Upon powering up, the MCU prepares to receive and decode a downlink
//! command by enabling interrupts and initializing a timer to detect a
//! falling edge ... then, it enters LPM3 mode. A falling edge ... raises
//! an interrupt waking up the MCU, which enters active mode to compute
//! the time interval between every edge to decode bit '0' or '1' of the
//! query, before going back to low-power mode. Upon successfully decoding
//! downlink signals from the projector, the MCU prepares for backscatter.
//! It switches the timer to continuous mode to enable controlling the
//! switch at the backscatter frequency and employs FM0 encoding."

use pab_mcu::{Firmware, McuServices, Pin, PinLevel};
use pab_net::fm0;
use pab_net::packet::{Command, DownlinkQuery, SensorKind, UplinkKind, UplinkPacket};
use pab_net::pwm::{self, PwmTiming};
use pab_sensors::ms5837::Ms5837Driver;
use pab_sensors::ph::PhDriver;

/// The downlink PWM timing: the projector keys its queries with it and
/// the firmware decodes them with it.
pub(crate) const DOWNLINK_PWM: PwmTiming = PwmTiming::pab_default();

/// Guard delay between decoding a query and starting backscatter,
/// seconds.
pub(crate) const RESPONSE_GUARD_S: f64 = 5e-3;

/// Firmware phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for (or accumulating) downlink edges.
    Idle,
    /// Guard delay between decoding a query and starting backscatter.
    Guard,
    /// Driving the backscatter switch through an FM0 half-bit sequence.
    Transmitting,
}

/// The PAB node firmware.
#[derive(Debug)]
pub struct PabFirmware {
    /// This node's address.
    pub address: u8,
    /// FM0 timer divider (half-bit period in clock ticks). Set by
    /// `SetBitrateDivider`, defaults to 6 (≈2.73 kbps).
    pub divider: u16,
    /// Currently selected recto-piezo matching circuit (§3.3.2 extension:
    /// "incorporating multiple matching circuits onboard").
    pub rectopiezo_index: u8,
    phase: Phase,
    falling_edges: Vec<f64>,
    tx_halves: Vec<bool>,
    tx_idx: usize,
    seq: u8,
    /// Settings staged by configuration commands, applied after the
    /// acknowledging response finishes (so the ACK itself still uses the
    /// parameters the reader knows).
    pending_divider: Option<u16>,
    pending_select: Option<u8>,
    /// Matching-circuit index in effect for the most recent response (the
    /// acoustic simulation rasterises the switch against this front end).
    pub tx_frontend_index: u8,
    /// Queries successfully decoded (diagnostics).
    pub queries_decoded: u64,
    /// Responses fully transmitted (diagnostics).
    pub responses_sent: u64,
    /// Last decoded query (diagnostics).
    pub last_query: Option<DownlinkQuery>,
}

impl PabFirmware {
    /// New firmware for a node with `address`.
    pub fn new(address: u8) -> Self {
        PabFirmware {
            address,
            divider: 6,
            rectopiezo_index: 0,
            phase: Phase::Idle,
            falling_edges: Vec::new(),
            tx_halves: Vec::new(),
            tx_idx: 0,
            seq: 0,
            pending_divider: None,
            pending_select: None,
            tx_frontend_index: 0,
            queries_decoded: 0,
            responses_sent: 0,
            last_query: None,
        }
    }

    /// Half-bit period for the current divider, seconds.
    fn half_bit_period_s(&self, svc: &McuServices) -> f64 {
        svc.clock().ticks_to_seconds(self.divider.max(1) as u64)
    }

    /// Effective FM0 bitrate for the current divider, bits/second.
    pub fn bitrate_bps(&self, svc: &McuServices) -> f64 {
        svc.clock()
            .bitrate_for_divider(self.divider.max(1) as u64)
            // lint: allow(no-unwrap-in-lib) divider clamped to >= 1 above
            .expect("divider >= 1")
    }

    /// Time after the last falling edge at which the query is considered
    /// complete (longest bit + margin).
    fn query_end_timeout_s(&self) -> f64 {
        DOWNLINK_PWM.gap_s + 2.5 * DOWNLINK_PWM.short_pulse_s
    }

    fn build_response(&mut self, svc: &mut McuServices, query: &DownlinkQuery) -> UplinkPacket {
        let seq = self.seq;
        match query.command {
            Command::Ping => UplinkPacket {
                src: self.address,
                seq,
                kind: UplinkKind::Ack,
                payload: vec![],
            },
            Command::SetBitrateDivider(d) => {
                self.pending_divider = Some(d.max(1));
                UplinkPacket {
                    src: self.address,
                    seq,
                    kind: UplinkKind::Ack,
                    payload: vec![],
                }
            }
            Command::SelectRectoPiezo(i) => {
                self.pending_select = Some(i);
                UplinkPacket {
                    src: self.address,
                    seq,
                    kind: UplinkKind::Ack,
                    payload: vec![],
                }
            }
            Command::ReadSensor(kind) => {
                let value = match kind {
                    SensorKind::Ph => PhDriver::new().read(svc).unwrap_or(f64::NAN),
                    SensorKind::Temperature => Ms5837Driver::measure(&mut svc.i2c)
                        .map(|r| r.temperature_c)
                        .unwrap_or(f64::NAN),
                    SensorKind::Pressure => Ms5837Driver::measure(&mut svc.i2c)
                        .map(|r| r.pressure_mbar)
                        .unwrap_or(f64::NAN),
                };
                // A failed sensor read still answers (value 0 flags it, as
                // NaN cannot be fixed-point encoded).
                let value = if value.is_finite() { value } else { 0.0 };
                UplinkPacket::sensor_reading(self.address, seq, kind, value)
            }
        }
    }

    fn try_decode_and_respond(&mut self, svc: &mut McuServices) {
        let edges = std::mem::take(&mut self.falling_edges);
        // Spurious edges (multipath glitches) shift the bit stream, so
        // search for the preamble instead of assuming the first falling
        // edge was the reference pulse.
        let decoded = pwm::decode_falling_edges(&edges, &DOWNLINK_PWM)
            .ok()
            .and_then(|bits| {
                let mut from = 0;
                while let Some(at) = pab_net::bits::find_pattern(
                    &bits,
                    &pab_net::packet::DOWNLINK_PREAMBLE,
                    from,
                ) {
                    if let Ok(q) = DownlinkQuery::from_bits(&bits[at..]) {
                        // In a time-multiplexed downlink the edge stream
                        // can carry several valid queries (other nodes',
                        // picked up through imperfect channel selectivity)
                        // — keep scanning until one is addressed to us.
                        if q.addressed_to(self.address) {
                            return Some(q);
                        }
                    }
                    from = at + 1;
                }
                None
            });
        match decoded {
            Some(query) if query.addressed_to(self.address) => {
                self.queries_decoded += 1;
                self.last_query = Some(query);
                let packet = self.build_response(svc, &query);
                self.tx_frontend_index = self.rectopiezo_index;
                // lint: allow(no-unwrap-in-lib) build_response caps payload at MAX_PAYLOAD
                let bits = packet.to_bits().expect("payload fits");
                self.tx_halves = fm0::encode(&bits, false);
                // FM0 end-of-signaling: a dummy '1' bit after the packet
                // (as in EPC Gen2) so the final data bit's level is held
                // through its full duration instead of collapsing when
                // the switch releases.
                // lint: allow(no-unwrap-in-lib) fm0::encode of a preamble'd packet is never empty
                let last = *self.tx_halves.last().expect("non-empty packet");
                self.tx_halves.push(!last);
                self.tx_halves.push(!last);
                self.tx_idx = 0;
                self.seq = self.seq.wrapping_add(1);
                self.phase = Phase::Guard;
                // lint: allow(no-unwrap-in-lib) RESPONSE_GUARD_S is a positive constant
                svc.set_timer_oneshot(RESPONSE_GUARD_S).expect("guard > 0");
                svc.enter_low_power();
            }
            _ => {
                // Not decodable yet (a glitch can open a false silence gap
                // mid-query and fire this timeout early): keep the edges
                // and continue accumulating — the timeout after the *real*
                // end of the query sees the whole buffer and the preamble
                // search re-aligns. Cap the buffer so stray edges cannot
                // grow it without bound.
                self.falling_edges = edges;
                if self.falling_edges.len() > 128 {
                    let excess = self.falling_edges.len() - 128;
                    self.falling_edges.drain(..excess);
                }
                self.phase = Phase::Idle;
                svc.enter_low_power();
            }
        }
    }
}

impl Firmware for PabFirmware {
    fn on_reset(&mut self, svc: &mut McuServices) {
        // Cold-start complete: close the pull-down transistor to maximise
        // the downlink envelope swing (§4.2.1, "Decoding").
        svc.set_pin(Pin::PullDown, PinLevel::High);
        svc.enter_low_power();
    }

    fn on_edge(&mut self, svc: &mut McuServices, rising: bool) {
        if self.phase != Phase::Idle || rising {
            // Edges during guard/transmit are the node's own carrier
            // keying view of the CW tail; ignore.
            return;
        }
        self.falling_edges.push(svc.now_s());
        svc.set_timer_oneshot(self.query_end_timeout_s())
            // lint: allow(no-unwrap-in-lib) timeout derives from positive clock constants
            .expect("timeout > 0");
        svc.enter_low_power();
    }

    fn on_timer(&mut self, svc: &mut McuServices) {
        match self.phase {
            Phase::Idle => {
                // Query-end timeout: silence after the last falling edge.
                if self.falling_edges.len() >= 2 {
                    self.try_decode_and_respond(svc);
                } else {
                    self.falling_edges.clear();
                    svc.enter_low_power();
                }
            }
            Phase::Guard => {
                self.phase = Phase::Transmitting;
                svc.stay_active();
                let period = self.half_bit_period_s(svc);
                // lint: allow(no-unwrap-in-lib) half-bit period of a positive bitrate
                svc.set_timer_periodic(period).expect("period > 0");
                // First half-bit goes out immediately.
                self.emit_half(svc);
            }
            Phase::Transmitting => {
                self.emit_half(svc);
            }
        }
    }
}

impl PabFirmware {
    fn emit_half(&mut self, svc: &mut McuServices) {
        if self.tx_idx < self.tx_halves.len() {
            let level = if self.tx_halves[self.tx_idx] {
                PinLevel::High
            } else {
                PinLevel::Low
            };
            svc.set_pin(Pin::BackscatterSwitch, level);
            self.tx_idx += 1;
        } else {
            svc.set_pin(Pin::BackscatterSwitch, PinLevel::Low);
            svc.stop_timer();
            self.phase = Phase::Idle;
            self.responses_sent += 1;
            // Apply staged configuration now that the ACK is out.
            if let Some(d) = self.pending_divider.take() {
                self.divider = d;
            }
            if let Some(i) = self.pending_select.take() {
                self.rectopiezo_index = i;
            }
            svc.enter_low_power();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pab_mcu::{Mcu, PowerProfile};
    use pab_net::pwm::Segment;

    /// Feed a query's falling edges into the MCU and run past the
    /// response; returns the MCU for inspection.
    fn run_query(query: DownlinkQuery) -> Mcu<PabFirmware> {
        let fw = PabFirmware::new(7);
        let mut mcu = Mcu::new(fw, PowerProfile::pab_node());
        mcu.reset();
        // Falling edges of the reference pulse + query bits.
        let mut keyed = vec![false];
        keyed.extend(query.to_bits());
        let segments: Vec<Segment> = pwm::encode(&keyed, &DOWNLINK_PWM);
        let mut t = 0.01; // projector starts at 10 ms
        for seg in segments {
            t += seg.duration_s;
            if seg.on {
                // falling edge at the end of every ON segment
                mcu.inject_edge(t, false);
            }
        }
        mcu.run_until(t + 2.0);
        mcu
    }

    /// The LP5900's ground current lives in two models: the regulator
    /// (`pab_analog`) and the power profile behind Fig. 11's 124 µW idle
    /// figure (`pab_mcu`). They must be one number.
    #[test]
    fn ldo_ground_current_matches_the_power_profile() {
        let ldo = pab_analog::regulator::Ldo::lp5900_1v8();
        let profile = PowerProfile::pab_node();
        assert_eq!(ldo.quiescent_a.to_bits(), profile.ldo_quiescent_a.to_bits());
    }

    #[test]
    fn ping_query_produces_fm0_ack_on_the_pin() {
        let q = DownlinkQuery {
            dest: 7,
            command: Command::Ping,
        };
        let mcu = run_query(q);
        assert_eq!(mcu.firmware.queries_decoded, 1);
        assert_eq!(mcu.firmware.responses_sent, 1);
        let transitions = mcu.services.pin_transitions(Pin::BackscatterSwitch);
        assert!(!transitions.is_empty());
        // Reconstruct halves from the pin log and decode the packet.
        let packet = UplinkPacket {
            src: 7,
            seq: 0,
            kind: UplinkKind::Ack,
            payload: vec![],
        };
        let expect_halves = fm0::encode(&packet.to_bits().unwrap(), false);
        // Sample pin at half-bit midpoints starting from the first
        // transition.
        let t0 = transitions[0].time_s;
        let clock = mcu.services.clock();
        let half = clock.ticks_to_seconds(6);
        let n = expect_halves.len();
        let fs_hz = 192_000.0;
        let wave = mcu.services.rasterize_pin(
            Pin::BackscatterSwitch,
            fs_hz,
            ((t0 + (n as f64 + 2.0) * half) * fs_hz) as usize,
        );
        let halves: Vec<bool> = (0..n)
            .map(|k| {
                let t = t0 + (k as f64 + 0.5) * half;
                wave[(t * fs_hz) as usize]
            })
            .collect();
        assert_eq!(halves, expect_halves);
        let decoded = fm0::decode(&halves, false).unwrap();
        let parsed = UplinkPacket::from_bits(&decoded).unwrap();
        assert_eq!(parsed, packet);
    }

    /// The payload length the projector sizes its carrier tail by is the
    /// length of the response the firmware actually builds, for every
    /// command and every sensor.
    #[test]
    fn response_payload_len_matches_the_built_response() {
        let commands = [
            Command::Ping,
            Command::SetBitrateDivider(16),
            Command::SelectRectoPiezo(1),
            Command::ReadSensor(SensorKind::Ph),
            Command::ReadSensor(SensorKind::Temperature),
            Command::ReadSensor(SensorKind::Pressure),
        ];
        for command in commands {
            let mut mcu = Mcu::new(PabFirmware::new(7), PowerProfile::pab_node());
            mcu.reset();
            let water = pab_sensors::WaterSample::bench();
            mcu.services.attach_adc_source(Box::new(pab_sensors::PhProbe::new(water)));
            mcu.services.i2c.attach(Box::new(pab_sensors::Ms5837::new(water)));
            let query = DownlinkQuery { dest: 7, command };
            let packet = mcu.firmware.build_response(&mut mcu.services, &query);
            let len = UplinkPacket::response_payload_len(command);
            assert_eq!(packet.payload.len(), len, "{command:?}");
            assert_eq!(packet.to_bits().unwrap().len(), UplinkPacket::bits_len(len), "{command:?}");
        }
    }

    #[test]
    fn query_for_other_address_is_ignored() {
        let q = DownlinkQuery {
            dest: 9,
            command: Command::Ping,
        };
        let mcu = run_query(q);
        assert_eq!(mcu.firmware.queries_decoded, 0);
        assert_eq!(mcu.firmware.responses_sent, 0);
        assert!(mcu
            .services
            .pin_transitions(Pin::BackscatterSwitch)
            .is_empty());
    }

    #[test]
    fn broadcast_is_accepted() {
        let q = DownlinkQuery {
            dest: pab_net::packet::BROADCAST_ADDR,
            command: Command::Ping,
        };
        let mcu = run_query(q);
        assert_eq!(mcu.firmware.queries_decoded, 1);
    }

    #[test]
    fn set_bitrate_divider_applies_after_the_ack() {
        let q = DownlinkQuery {
            dest: 7,
            command: Command::SetBitrateDivider(16),
        };
        let mcu = run_query(q);
        // Staged config lands once the ACK completes.
        assert_eq!(mcu.firmware.divider, 16);
        assert_eq!(mcu.firmware.responses_sent, 1);
        // The ACK itself still uses the old divider (6) — the reader
        // must be able to decode the acknowledgement with the rate it
        // already knows.
        let tr = mcu.services.pin_transitions(Pin::BackscatterSwitch);
        let clock = mcu.services.clock();
        let half6 = clock.ticks_to_seconds(6);
        let min_spacing = tr
            .windows(2)
            .map(|w| w[1].time_s - w[0].time_s)
            .fold(f64::MAX, f64::min);
        assert!((min_spacing - half6).abs() < 1e-6, "{min_spacing}");
    }

    #[test]
    fn sensor_query_embeds_ph_reading() {
        let fw = PabFirmware::new(7);
        let mut mcu = Mcu::new(fw, PowerProfile::pab_node());
        mcu.reset();
        // Attach a pH probe at pH 7 / 25 C.
        let mut water = pab_sensors::WaterSample::bench();
        water.temperature_c = 25.0;
        mcu.services
            .attach_adc_source(Box::new(pab_sensors::PhProbe::new(water)));
        let q = DownlinkQuery {
            dest: 7,
            command: Command::ReadSensor(SensorKind::Ph),
        };
        let mut keyed = vec![false];
        keyed.extend(q.to_bits());
        let mut t = 0.01;
        for seg in pwm::encode(&keyed, &DOWNLINK_PWM) {
            t += seg.duration_s;
            if seg.on {
                mcu.inject_edge(t, false);
            }
        }
        mcu.run_until(t + 2.0);
        assert_eq!(mcu.firmware.responses_sent, 1);
        // Decode the response from the pin log.
        let tr = mcu.services.pin_transitions(Pin::BackscatterSwitch);
        let t0 = tr[0].time_s;
        let half = mcu.services.clock().ticks_to_seconds(6);
        let n_bits = UplinkPacket::bits_len(4);
        let fs_hz = 192_000.0;
        let wave = mcu.services.rasterize_pin(
            Pin::BackscatterSwitch,
            fs_hz,
            ((t0 + (2 * n_bits) as f64 * half + 0.01) * fs_hz) as usize,
        );
        let halves: Vec<bool> = (0..2 * n_bits)
            .map(|k| wave[((t0 + (k as f64 + 0.5) * half) * fs_hz) as usize])
            .collect();
        let bits = fm0::decode(&halves, false).unwrap();
        let pkt = UplinkPacket::from_bits(&bits).unwrap();
        let ph = pkt.sensor_value().unwrap();
        assert!((ph - 7.0).abs() < 0.05, "ph={ph}");
    }

    #[test]
    fn corrupted_query_is_dropped_silently() {
        let fw = PabFirmware::new(7);
        let mut mcu = Mcu::new(fw, PowerProfile::pab_node());
        mcu.reset();
        // Garbage edges: random-ish spacing.
        for (i, dt) in [0.003, 0.004, 0.006, 0.004, 0.005].iter().enumerate() {
            mcu.inject_edge(0.01 + i as f64 * 0.01 + dt, false);
        }
        mcu.run_until(1.0);
        assert_eq!(mcu.firmware.queries_decoded, 0);
        assert_eq!(mcu.firmware.responses_sent, 0);
    }

    #[test]
    fn single_edge_times_out_quietly() {
        let fw = PabFirmware::new(7);
        let mut mcu = Mcu::new(fw, PowerProfile::pab_node());
        mcu.reset();
        mcu.inject_edge(0.01, false);
        mcu.run_until(0.5);
        assert_eq!(mcu.firmware.queries_decoded, 0);
        // And the node is back to low power.
        assert_eq!(
            mcu.services.power_state(),
            pab_mcu::PowerState::LowPower3
        );
    }
}
