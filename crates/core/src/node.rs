//! The battery-free PAB node: recto-piezo front end + emulated MCU running
//! the node firmware, exposed as a sample-domain signal processor.
//!
//! Given the incident pressure waveform(s) at the node, [`PabNode::process`]
//! performs the entire §4 chain: rectified-envelope detection and Schmitt
//! discretisation of the downlink, edge interrupts into the MCU firmware
//! (PWM decode → query parse → sensor read → FM0 response scheduling), and
//! finally the backscattered pressure waveform obtained by modulating each
//! incident carrier with the switch-state-dependent reflection gain of
//! Eq. 2.

use crate::firmware::PabFirmware;
use crate::scratch::Scratch;
use crate::CoreError;
use pab_analog::frontend::SwitchState;
use pab_analog::RectoPiezo;
use pab_dsp::envelope::{edges, rectified_envelope_into, SchmittTrigger};
use pab_dsp::fir::FoldedHilbert;
use pab_mcu::{Mcu, Pin, PowerProfile};
use pab_net::packet::DownlinkQuery;
use pab_piezo::Transducer;

/// One incident narrowband component at the node.
#[derive(Debug, Clone)]
pub struct IncidentComponent {
    /// Carrier frequency, Hz.
    pub carrier_hz: f64,
    /// Pressure samples at the node, pascals.
    pub samples: Vec<f64>,
}

/// Everything the node produced during one simulation window.
#[derive(Debug)]
pub struct NodeOutput {
    /// Whether the harvested voltage reached the 2.5 V power-up threshold.
    pub powered_up: bool,
    /// Peak rectified voltage seen during the window, volts.
    pub rectified_v: f64,
    /// The switch waveform (true = reflective), one entry per sample.
    pub switch_wave: Vec<bool>,
    /// Backscattered source pressure (at 1 m) per incident component.
    pub backscatter: Vec<Vec<f64>>,
    /// Time at which the node became operational, seconds (0.0 for a
    /// pre-charged node; the cold-start charge time otherwise).
    pub powered_at_s: Option<f64>,
    /// Query the firmware decoded, if any.
    pub decoded_query: Option<DownlinkQuery>,
    /// Number of complete responses transmitted.
    pub responses_sent: u64,
    /// FM0 bitrate used for the response, bits/s.
    pub bitrate_bps: f64,
    /// Average node power over the window, watts (Fig. 11 quantity).
    pub average_power_w: f64,
}

/// The battery-free node.
#[derive(Debug, Clone)]
pub struct PabNode {
    /// Node address.
    pub address: u8,
    /// Selectable recto-piezo front ends (§3.3.2: multiple onboard
    /// matching circuits). Index 0 is the default.
    pub frontends: Vec<RectoPiezo>,
    /// Minimum rectified voltage to power up, volts (Fig. 3 threshold).
    pub powerup_threshold_v: f64,
    /// Schmitt trigger hysteresis as a fraction of the AC-coupled
    /// envelope swing (the detector is AC-coupled before the trigger, so
    /// a constant out-of-band carrier raises the DC floor without
    /// masking the PWM edges).
    // lint: unitless hysteresis relative to the envelope midpoint
    pub schmitt_hysteresis_rel: f64,
    /// AC-coupling (DC-blocker) corner frequency, Hz.
    pub ac_coupling_hz: f64,
    /// Envelope-detector cutoff, Hz (fast enough for the 2 ms PWM gaps).
    pub envelope_cutoff_hz: f64,
    /// Firmware's initial FM0 timer divider (a deployed node would get
    /// this via `SetBitrateDivider`; preconfiguring avoids simulating an
    /// extra exchange in every experiment).
    pub default_divider: u16,
    /// Battery-assisted operation (§1's future-work hybrid): the digital
    /// section runs from a small battery, so the node works even when the
    /// harvested voltage is below the 2.5 V cold-start threshold. The
    /// uplink still costs only backscatter power.
    pub battery_assisted: bool,
    /// Guard delay between decoding a query and starting backscatter,
    /// seconds. A MAC can assign staggered guards so responses to
    /// time-multiplexed queries still collide (see `collision_group`).
    pub default_guard_s: f64,
    /// Simulate the cold-start transient: the storage capacitor starts
    /// empty and the MCU only boots once it charges past the power-up
    /// threshold (§4.2.1's pull-down/cold-start behaviour). When `false`
    /// (the default) the node is assumed pre-charged, as in the paper's
    /// steady-state experiments.
    pub cold_start: bool,
    /// The storage capacitor used for the cold-start simulation.
    pub supercap: pab_analog::Supercap,
    /// Memoized filter designs and front-end measurements (interior
    /// mutability: [`process`](Self::process) takes `&self`). Designs
    /// are pure functions of their parameters, so reuse is bitwise
    /// transparent.
    caches: std::cell::RefCell<NodeCaches>,
}

/// Per-node design memos: the folded Hilbert quadrature (fixed 127-tap
/// Hamming), the switch-smoothing Butterworth keyed on its exact
/// `(cutoff, fs)` bits, and the numerically-measured modulation
/// bandwidth per front-end index.
#[derive(Debug, Clone, Default)]
struct NodeCaches {
    hilbert: Option<FoldedHilbert>,
    butter: Option<((u64, u64), pab_dsp::iir::Cascade)>,
    mod_bw_hz: std::collections::BTreeMap<usize, f64>,
}

impl PabNode {
    /// A node with a single recto-piezo matched at `f_match_hz`, on the
    /// paper's standard ~16.5 kHz ceramic.
    pub fn new(address: u8, f_match_hz: f64) -> Result<Self, CoreError> {
        Self::with_transducer(address, Transducer::pab_node(), f_match_hz)
    }

    /// A node built on a custom transducer (e.g. a ceramic sized for a
    /// different geometric resonance — the §8 "novel transducer designs"
    /// direction for scaling FDMA beyond one ceramic's bandwidth).
    pub fn with_transducer(
        address: u8,
        transducer: Transducer,
        f_match_hz: f64,
    ) -> Result<Self, CoreError> {
        let fe = RectoPiezo::design(transducer, f_match_hz)?;
        Ok(PabNode {
            address,
            frontends: vec![fe],
            powerup_threshold_v: 2.5,
            schmitt_hysteresis_rel: 0.15,
            ac_coupling_hz: 15.0,
            envelope_cutoff_hz: 800.0,
            default_divider: 6,
            battery_assisted: false,
            default_guard_s: 5e-3,
            cold_start: false,
            supercap: pab_analog::Supercap::pab_node(),
            caches: std::cell::RefCell::new(NodeCaches::default()),
        })
    }

    /// Add an extra selectable recto-piezo matched at `f_match_hz`.
    pub fn with_extra_frontend(mut self, f_match_hz: f64) -> Result<Self, CoreError> {
        self.frontends
            .push(RectoPiezo::design(Transducer::pab_node(), f_match_hz)?);
        Ok(self)
    }

    /// The active front end for a given firmware selection index.
    pub fn frontend(&self, index: u8) -> &RectoPiezo {
        let i = (index as usize).min(self.frontends.len() - 1);
        &self.frontends[i]
    }

    /// Effective modulation bandwidth of a front end: how fast the
    /// reflected amplitude can switch, and hence the Fig. 8 bitrate
    /// ceiling (footnote 6: modulation depth shrinks off-resonance).
    ///
    /// Measured numerically as half the spectral width over which the
    /// backscatter modulation depth stays above half its in-band maximum
    /// (sidebands outside that region are strongly attenuated).
    fn modulation_bandwidth_hz(frontend: &RectoPiezo) -> f64 {
        let f0 = frontend.match_frequency_hz();
        let step = 100.0;
        let span = 10_000.0;
        let mut max_depth: f64 = 0.0;
        let lo_f = (f0 - span).max(step);
        let mut f = lo_f;
        while f <= f0 + span {
            max_depth = max_depth.max(frontend.modulation_depth(f));
            f += step;
        }
        if max_depth <= 0.0 {
            return 100.0;
        }
        let half = max_depth / 2.0;
        let mut width = 0.0;
        let mut f = lo_f;
        while f <= f0 + span {
            if frontend.modulation_depth(f) >= half {
                width += step;
            }
            f += step;
        }
        (width / 2.0).max(100.0)
    }

    /// Per-carrier complex backscatter gains in the two switch states.
    /// The *difference* of the two (magnitude and phase) is what the
    /// hydrophone's envelope detector sees against the direct carrier.
    pub fn backscatter_gains(
        frontend: &RectoPiezo,
        carrier_hz: f64,
    ) -> (num_complex::Complex64, num_complex::Complex64) {
        (
            frontend.backscatter_gain(SwitchState::Reflective, carrier_hz),
            frontend.backscatter_gain(SwitchState::Absorptive, carrier_hz),
        )
    }

    /// Modulate one incident component with the complex state-dependent
    /// gain: `bs = Re{G(t)·(x + j x̂)} = Re(G)·x_delayed − Im(G)·x̂`, where
    /// `x̂` is the Hilbert (quadrature) path and `G(t)` interpolates
    /// between the absorptive and reflective gains along the smoothed
    /// switching waveform. The backscatter is written into `out`, whose
    /// old contents are never read.
    fn modulate_component(
        &self,
        samples: &[f64],
        smooth_switch: &[f64],
        g_on: num_complex::Complex64,
        g_off: num_complex::Complex64,
        out: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        let mut caches = self.caches.borrow_mut();
        let hil = match &mut caches.hilbert {
            Some(h) => h,
            empty => empty.insert(FoldedHilbert::new(127, pab_dsp::window::Window::Hamming)?),
        };
        // The quadrature path, then each sample modulated in place against
        // the in-phase path delayed to match it.
        hil.filter_into(samples, out);
        let delayed = std::iter::repeat_n(0.0, hil.group_delay()).chain(samples.iter().copied());
        for ((o, xd), &sw) in out.iter_mut().zip(delayed).zip(smooth_switch) {
            let g = g_off + (g_on - g_off) * sw.clamp(0.0, 1.0);
            *o = g.re * xd - g.im * *o;
        }
        Ok(())
    }

    /// Run the full node pipeline over incident components sampled at
    /// `fs_hz`. `sensors` optionally wires water conditions to the node's
    /// ADC + I2C peripherals.
    // lint: allow(dead-pub) api crates/experiments/src/bin/pab_bench/layers.rs the benchmark's recomposed slot runs its node stage through it
    pub fn process(
        &self,
        components: &[IncidentComponent],
        fs_hz: f64,
        sensors: Option<pab_sensors::WaterSample>,
    ) -> Result<NodeOutput, CoreError> {
        self.process_in(components, fs_hz, sensors, &mut Scratch::transient())
    }

    /// [`process`](Self::process) on `pool`'s buffers: every temporary is
    /// taken from it and returned before this returns, and the
    /// backscatter buffers in the output come from it too (the caller
    /// puts them back once superposed). Each stage runs in place where
    /// its input is dead afterwards: the rectifier writes straight into
    /// the envelope filter's workspace, the AC coupling overwrites the
    /// envelope, and the switch smoothing filters the raster in place.
    pub(crate) fn process_in(
        &self,
        components: &[IncidentComponent],
        fs_hz: f64,
        sensors: Option<pab_sensors::WaterSample>,
        pool: &mut Scratch,
    ) -> Result<NodeOutput, CoreError> {
        if components.is_empty() {
            return Err(CoreError::InvalidConfig("no incident components"));
        }
        // lint: allow(no-unwrap-in-lib) components checked non-empty above
        let n = components.iter().map(|c| c.samples.len()).max().unwrap();
        if n == 0 {
            return Err(CoreError::InvalidConfig("empty incident waveform"));
        }
        // The envelope detector sits *behind* the recto-piezo front end,
        // so each carrier is weighted by the front end's receive
        // selectivity (V at the rectifier input per Pa incident). This is
        // what lets a node ignore the other channel's PWM keying during
        // concurrent FDMA queries (§3.3).
        let fe0 = self.frontend(0);
        let mut v_in = pool.take_zeroed(n);
        for c in components {
            let sel = fe0.rectifier_input_v(1.0, c.carrier_hz);
            for (t, &s) in v_in.iter_mut().zip(&c.samples) {
                *t += sel * s;
            }
        }

        // Envelope detection (analog, carrier-free) on the rectifier
        // input voltage, in the filter's padded workspace.
        let lp = pab_dsp::iir::butter_lowpass(2, self.envelope_cutoff_hz, fs_hz)?;
        let mut env_ext = pool.take_workspace(n + 2 * lp.filtfilt_pad(n));
        let pad = rectified_envelope_into(&lp, &v_in, &mut env_ext)?;
        pool.put(v_in);
        let env = &mut env_ext[pad..pad + n];
        let peak = env.iter().cloned().fold(0.0, f64::max);

        // Power-up check: DC voltage the rectifier builds from the peak
        // input amplitude (Fig. 3 quantity).
        let rectified_v = fe0.rectifier.dc_into_load_v(peak, 1e6);
        let steady_powered = rectified_v >= self.powerup_threshold_v;

        // Cold start: integrate the storage capacitor against the
        // rectifier's Thevenin equivalent driven by the (time-varying)
        // envelope, and find when it crosses the power-up threshold.
        let powered_at_s = if self.battery_assisted {
            Some(0.0)
        } else if !self.cold_start {
            if steady_powered {
                Some(0.0)
            } else {
                None
            }
        } else {
            let mut cap = self.supercap;
            cap.set_voltage(0.0);
            let step_s = 1e-3;
            let stride = (step_s * fs_hz).max(1.0) as usize;
            let mut t_on = None;
            for (k, chunk) in env.chunks(stride).enumerate() {
                let v_env = chunk.iter().cloned().fold(0.0, f64::max);
                let v_open = fe0.rectifier.open_circuit_dc_v(v_env);
                cap.step(
                    v_open,
                    fe0.rectifier.output_resistance_ohms,
                    0.0,
                    stride as f64 / fs_hz,
                );
                if cap.voltage_v() >= self.powerup_threshold_v {
                    t_on = Some((k + 1) as f64 * stride as f64 / fs_hz);
                    break;
                }
            }
            t_on
        };
        let powered_up = powered_at_s.is_some();

        let mut firmware = PabFirmware::new(self.address);
        firmware.divider = self.default_divider.max(1);
        firmware.guard_s = self.default_guard_s.max(1e-4);
        let mut mcu = Mcu::new(firmware, PowerProfile::pab_node());
        mcu.reset();
        if let Some(water) = sensors {
            mcu.services
                .attach_adc_source(Box::new(pab_sensors::PhProbe::new(water)));
            mcu.services
                .i2c
                .attach(Box::new(pab_sensors::Ms5837::new(water)));
        }

        let duration_s = n as f64 / fs_hz;
        let t_on = powered_at_s.unwrap_or(f64::INFINITY);
        if powered_up {
            // AC-couple the envelope (series capacitor into the Schmitt
            // input), in place: a one-pole DC blocker removes the carrier
            // floor so only keying transitions cross the trigger. The
            // pull-down transistor maximises the remaining swing (§4.2.1).
            let alpha = 1.0 - (-std::f64::consts::TAU * self.ac_coupling_hz / fs_hz).exp();
            let mut state = 0.0;
            for x in env.iter_mut() {
                state += alpha * (*x - state);
                *x -= state;
            }
            let ac = &*env;
            // Robust swing estimate: 99th percentile of |ac|. The k-th
            // order statistic under the same total order as a full sort
            // — bitwise the sorted value at index k, in O(n).
            let mut mags = pool.take_workspace(n);
            for (m, x) in mags.iter_mut().zip(ac) {
                *m = x.abs();
            }
            let k = (mags.len() * 99) / 100;
            let (_, kth, _) = mags.select_nth_unstable_by(k, f64::total_cmp);
            let swing = *kth;
            pool.put(mags);
            if swing > 0.0 {
                let trig = SchmittTrigger::new(
                    -self.schmitt_hysteresis_rel * swing,
                    self.schmitt_hysteresis_rel * swing,
                )?;
                let levels = trig.discretize(ac);
                for e in edges(&levels) {
                    let t = e.sample as f64 / fs_hz;
                    // Edges before the MCU boots are lost.
                    if t >= t_on {
                        mcu.inject_edge(t, e.rising);
                    }
                }
            }
        }
        pool.put(env_ext);
        mcu.run_until(duration_s);

        // The front end in effect while the response was transmitted
        // (configuration commands apply only after their ACK).
        let selected = mcu.firmware.tx_frontend_index;
        let fe = self.frontend(selected);
        let switch_wave = mcu
            .services
            .rasterize_pin(Pin::BackscatterSwitch, fs_hz, n);

        // Smooth the binary switch waveform with the front end's
        // modulation bandwidth, in place, then modulate each carrier. The
        // numeric bandwidth measurement and the Butterworth design are
        // pure functions of `(front end, cutoff, fs)`, so both are
        // memoized.
        let fe_index = (selected as usize).min(self.frontends.len() - 1);
        let measured_bw_hz = {
            let mut caches = self.caches.borrow_mut();
            match caches.mod_bw_hz.get(&fe_index) {
                Some(&v) => v,
                None => {
                    let v = Self::modulation_bandwidth_hz(fe);
                    caches.mod_bw_hz.insert(fe_index, v);
                    v
                }
            }
        };
        let bw = measured_bw_hz.min(0.45 * fs_hz).max(100.0);
        let mut smooth = pool.take_workspace(switch_wave.len());
        for (r, &b) in smooth.iter_mut().zip(&switch_wave) {
            *r = if b { 1.0 } else { 0.0 };
        }
        {
            let mut caches = self.caches.borrow_mut();
            let key = (bw.to_bits(), fs_hz.to_bits());
            let stale = caches.butter.as_ref().map(|(k, _)| *k != key).unwrap_or(true);
            if stale {
                caches.butter = Some((key, pab_dsp::iir::butter_lowpass(2, bw, fs_hz)?));
            }
            match caches.butter.as_ref() {
                Some((_, lp)) => lp.filter_in_place(&mut smooth),
                None => return Err(CoreError::InvalidConfig("butter cache empty")),
            }
        }

        let mut backscatter = Vec::with_capacity(components.len());
        for c in components {
            let (g_on, g_off) = Self::backscatter_gains(fe, c.carrier_hz);
            let mut bs = pool.take_workspace(c.samples.len());
            self.modulate_component(&c.samples, &smooth, g_on, g_off, &mut bs)?;
            backscatter.push(bs);
        }
        pool.put(smooth);

        Ok(NodeOutput {
            powered_up,
            rectified_v,
            switch_wave,
            backscatter,
            powered_at_s,
            decoded_query: mcu.firmware.last_query,
            responses_sent: mcu.firmware.responses_sent,
            bitrate_bps: mcu.firmware.bitrate_bps(&mcu.services),
            average_power_w: mcu.services.power_meter().average_power_w(),
        })
    }

    /// Fig. 2 mode: ignore the firmware and toggle the switch at a fixed
    /// half-period starting at `start_s` (the paper's 100 ms demo).
    pub fn process_fixed_toggle(
        &self,
        component: &IncidentComponent,
        fs_hz: f64,
        start_s: f64,
        half_period_s: f64,
    ) -> Result<NodeOutput, CoreError> {
        if !(half_period_s > 0.0) {
            return Err(CoreError::InvalidConfig("half_period_s"));
        }
        let n = component.samples.len();
        let fe = self.frontend(0);
        let mut switch_wave = vec![false; n];
        for (i, w) in switch_wave.iter_mut().enumerate() {
            let t = i as f64 / fs_hz;
            if t >= start_s {
                *w = (((t - start_s) / half_period_s) as u64).is_multiple_of(2);
            }
        }
        let bw = Self::modulation_bandwidth_hz(fe).min(0.45 * fs_hz).max(100.0);
        let lp = pab_dsp::iir::butter_lowpass(2, bw, fs_hz)?;
        let raw: Vec<f64> = switch_wave.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let smooth = lp.filter(&raw);
        let (g_on, g_off) = Self::backscatter_gains(fe, component.carrier_hz);
        let mut bs = Vec::new();
        self.modulate_component(&component.samples, &smooth, g_on, g_off, &mut bs)?;
        let peak = component
            .samples
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        let rectified_v = fe.rectified_voltage_v(peak, component.carrier_hz, 1e6);
        Ok(NodeOutput {
            powered_up: rectified_v >= self.powerup_threshold_v,
            rectified_v,
            switch_wave,
            backscatter: vec![bs],
            powered_at_s: if rectified_v >= self.powerup_threshold_v {
                Some(0.0)
            } else {
                None
            },
            decoded_query: None,
            responses_sent: 0,
            bitrate_bps: 1.0 / (2.0 * half_period_s),
            average_power_w: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projector::Projector;
    use pab_net::packet::Command;

    fn incident_for_query(
        command: Command,
        dest: u8,
        amp_scale: f64,
    ) -> (IncidentComponent, f64) {
        let p = Projector::new(36.0).unwrap();
        let q = DownlinkQuery { dest, command };
        let (w, _) = p.query_waveform(&q, 15_000.0, 0.08).unwrap();
        // Scale to a chosen at-node pressure.
        let scale = amp_scale / p.source_pressure_pa();
        let samples: Vec<f64> = w.iter().map(|&x| x * scale).collect();
        (
            IncidentComponent {
                carrier_hz: 15_000.0,
                samples,
            },
            p.fs_hz,
        )
    }

    #[test]
    fn strong_signal_powers_up_and_answers_ping() {
        let node = PabNode::new(7, 15_000.0).unwrap();
        let (inc, fs_hz) = incident_for_query(Command::Ping, 7, 1500.0);
        let out = node.process(&[inc], fs_hz, None).unwrap();
        assert!(out.powered_up, "rectified_v={}", out.rectified_v);
        assert!(out.decoded_query.is_some());
        assert_eq!(out.responses_sent, 1);
        // The switch actually moved.
        let toggles = out
            .switch_wave
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count();
        assert!(toggles > 50, "toggles={toggles}");
    }

    #[test]
    fn weak_signal_does_not_power_up() {
        let node = PabNode::new(7, 15_000.0).unwrap();
        let (inc, fs_hz) = incident_for_query(Command::Ping, 7, 10.0);
        let out = node.process(&[inc], fs_hz, None).unwrap();
        assert!(!out.powered_up);
        assert_eq!(out.responses_sent, 0);
        assert!(out.switch_wave.iter().all(|&b| !b));
    }

    #[test]
    fn wrong_address_stays_silent() {
        let node = PabNode::new(7, 15_000.0).unwrap();
        let (inc, fs_hz) = incident_for_query(Command::Ping, 9, 1500.0);
        let out = node.process(&[inc], fs_hz, None).unwrap();
        assert!(out.powered_up);
        assert_eq!(out.responses_sent, 0);
    }

    #[test]
    fn backscatter_modulates_the_carrier() {
        let node = PabNode::new(7, 15_000.0).unwrap();
        let (inc, fs_hz) = incident_for_query(Command::Ping, 7, 1500.0);
        let out = node.process(std::slice::from_ref(&inc), fs_hz, None).unwrap();
        let bs = &out.backscatter[0];
        assert_eq!(bs.len(), inc.samples.len());
        // The two states differ substantially in complex gain.
        let fe = node.frontend(0);
        let (g_on, g_off) = PabNode::backscatter_gains(fe, 15_000.0);
        assert!((g_on - g_off).norm() > 0.2);
        let peak_bs = bs.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(peak_bs > 0.0);
        assert!(peak_bs <= 1500.0 * g_on.norm() * 1.2);
    }

    #[test]
    fn fixed_toggle_mode_produces_square_switching() {
        let node = PabNode::new(1, 15_000.0).unwrap();
        let fs_hz = 192_000.0;
        let p = Projector::new(36.0).unwrap();
        let cw = p.continuous_wave(15_000.0, 1.0);
        let scale = 1500.0 / p.source_pressure_pa();
        let inc = IncidentComponent {
            carrier_hz: 15_000.0,
            samples: cw.iter().map(|&x| x * scale).collect(),
        };
        let out = node
            .process_fixed_toggle(&inc, fs_hz, 0.3, 0.1)
            .unwrap();
        // Before 0.3 s: no switching.
        assert!(out.switch_wave[..(0.29 * fs_hz) as usize].iter().all(|&b| !b));
        // After: 100 ms half-period toggling.
        let toggles = out.switch_wave[(0.3 * fs_hz) as usize..]
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count();
        assert!((5..=8).contains(&toggles), "toggles={toggles}");
    }

    #[test]
    fn modulation_bandwidth_is_kilohertz_scale() {
        let fe = RectoPiezo::design(Transducer::pab_node(), 15_000.0).unwrap();
        let bw = PabNode::modulation_bandwidth_hz(&fe);
        assert!((500.0..8_000.0).contains(&bw), "bw={bw}");
    }

    #[test]
    fn battery_assisted_node_works_below_harvest_threshold() {
        // Weak illumination: a battery-free node stays dark, a battery-
        // assisted one decodes and answers (the paper's §1 hybrid).
        let (inc, fs_hz) = incident_for_query(Command::Ping, 7, 120.0);
        let mut free = PabNode::new(7, 15_000.0).unwrap();
        free.battery_assisted = false;
        let out_free = free.process(std::slice::from_ref(&inc), fs_hz, None).unwrap();
        assert!(!out_free.powered_up);
        assert_eq!(out_free.responses_sent, 0);

        let mut assisted = PabNode::new(7, 15_000.0).unwrap();
        assisted.battery_assisted = true;
        let out = assisted.process(&[inc], fs_hz, None).unwrap();
        assert!(out.powered_up);
        assert_eq!(out.responses_sent, 1);
    }

    #[test]
    fn select_rectopiezo_applies_to_the_next_response() {
        // The SelectRectoPiezo ACK still modulates through circuit 0;
        // the selection is staged for subsequent exchanges.
        let node = PabNode::new(7, 15_000.0)
            .unwrap()
            .with_extra_frontend(18_000.0)
            .unwrap();
        let (inc, fs_hz) = incident_for_query(Command::SelectRectoPiezo(1), 7, 1500.0);
        let out = node.process(&[inc], fs_hz, None).unwrap();
        assert_eq!(out.responses_sent, 1);
        assert_eq!(
            out.decoded_query.unwrap().command,
            Command::SelectRectoPiezo(1)
        );
        // Gains of the two circuits differ at 18 kHz — the knob is real.
        let g0 = PabNode::backscatter_gains(node.frontend(0), 18_000.0);
        let g1 = PabNode::backscatter_gains(node.frontend(1), 18_000.0);
        assert!(((g0.0 - g0.1) - (g1.0 - g1.1)).norm() > 0.05);
    }

    #[test]
    fn cold_start_delays_boot_and_misses_early_queries() {
        // A small capacitor charges within the exchange; the full-size
        // supercap does not — the query arrives before the MCU boots.
        let (inc, fs_hz) = incident_for_query(Command::Ping, 7, 1500.0);

        let mut slow = PabNode::new(7, 15_000.0).unwrap();
        slow.cold_start = true; // default 1000 µF: seconds to charge
        let out = slow.process(std::slice::from_ref(&inc), fs_hz, None).unwrap();
        assert!(!out.powered_up, "1000 µF cannot charge in one exchange");
        assert_eq!(out.responses_sent, 0);

        let mut fast = PabNode::new(7, 15_000.0).unwrap();
        fast.cold_start = true;
        fast.supercap = pab_analog::Supercap::new(1e-6, 10e6).unwrap();
        let out = fast.process(std::slice::from_ref(&inc), fs_hz, None).unwrap();
        assert!(out.powered_up);
        let t_on = out.powered_at_s.unwrap();
        assert!(t_on > 0.0, "cold start must take nonzero time");
        // A 1 µF cap charges within the projector's settle period, so the
        // query still decodes.
        assert!(t_on < 0.08, "t_on={t_on}");
        assert_eq!(out.responses_sent, 1);
    }

    #[test]
    fn frontend_index_clamps_to_available_circuits() {
        let node = PabNode::new(7, 15_000.0).unwrap();
        // Index 5 on a single-circuit node falls back to circuit 0.
        let fe = node.frontend(5);
        assert!((fe.match_frequency_hz() - 15_000.0).abs() < 1.0);
    }

    /// Every field of a node output, as bits.
    #[allow(clippy::type_complexity)]
    fn output_bits(
        out: &NodeOutput,
    ) -> (bool, u64, &[bool], Vec<Vec<u64>>, Option<u64>, Option<DownlinkQuery>, u64, u64, u64) {
        (
            out.powered_up,
            out.rectified_v.to_bits(),
            &out.switch_wave,
            out.backscatter
                .iter()
                .map(|b| b.iter().map(|x| x.to_bits()).collect())
                .collect(),
            out.powered_at_s.map(f64::to_bits),
            out.decoded_query,
            out.responses_sent,
            out.bitrate_bps.to_bits(),
            out.average_power_w.to_bits(),
        )
    }

    /// `process` on a fresh pool and on one pre-filled with NaN buffers
    /// of assorted lengths gives bitwise-equal outputs: every workspace
    /// the node takes is written before it is read, and its accumulator
    /// is zeroed. Covers a query, a continuous wave alone, and two
    /// carriers of different lengths.
    #[test]
    fn stale_pool_buffers_are_transparent() {
        let node = PabNode::new(7, 15_000.0).unwrap();
        let (query, fs_hz) = incident_for_query(Command::Ping, 7, 1500.0);
        let p = Projector::new(36.0).unwrap();
        let cw = |carrier_hz: f64, duration_s: f64| IncidentComponent {
            carrier_hz,
            samples: p
                .continuous_wave(carrier_hz, duration_s)
                .iter()
                .map(|&x| x * 1500.0 / p.source_pressure_pa())
                .collect(),
        };
        let cases = [
            vec![query.clone()],
            vec![cw(15_000.0, 0.3)],
            vec![query, cw(18_000.0, 0.2)],
        ];
        for (i, components) in cases.iter().enumerate() {
            let fresh = node.process(components, fs_hz, None).unwrap();
            let n = components.iter().map(|c| c.samples.len()).max().unwrap();
            let mut pool = Scratch::new();
            for len in [1, n / 3, n - 1, n, n, n + 17, n + 18, n + 40, 2 * n] {
                pool.put(vec![f64::NAN; len]);
            }
            let stale = node.process_in(components, fs_hz, None, &mut pool).unwrap();
            assert_eq!(output_bits(&fresh), output_bits(&stale), "case {i}");
            assert!(fresh.responses_sent > 0 || i == 1, "case {i} must exercise the uplink");
        }
    }

    #[test]
    fn rejects_empty_input() {
        let node = PabNode::new(1, 15_000.0).unwrap();
        assert!(node.process(&[], 192_000.0, None).is_err());
        let empty = IncidentComponent {
            carrier_hz: 15_000.0,
            samples: vec![],
        };
        assert!(node.process(&[empty], 192_000.0, None).is_err());
    }
}
