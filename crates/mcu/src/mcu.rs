//! The MCU event loop and the firmware programming model.
//!
//! The emulation is event-driven, mirroring how the real MSP430 firmware is
//! structured (§4.2.2): the MCU sits in LPM3, a falling edge on the
//! envelope-detector pin raises an interrupt, the handler timestamps it to
//! decode PWM, and during backscatter a continuous-mode timer toggles the
//! switch pin at the configured rate. Firmware is plain Rust implementing
//! [`Firmware`]; the surrounding simulation injects edges and advances
//! time, and reads back the switch pin's transition log.

use crate::clock::Clock;
use crate::gpio::{OutputPin, Pin, PinLevel, PinTransition};
use crate::peripherals::{Adc, AnalogSource, I2cBus};
use crate::power::{PowerMeter, PowerProfile, PowerState};
use crate::McuError;

/// Everything firmware can touch: clocks, timers, pins, peripherals, power.
pub struct McuServices {
    now_s: f64,
    clock: Clock,
    state: PowerState,
    meter: PowerMeter,
    switch_pin: OutputPin,
    pulldown_pin: OutputPin,
    timer_deadline: Option<f64>,
    timer_period: Option<f64>,
    adc: Adc,
    adc_source: Option<Box<dyn AnalogSource>>,
    /// The I2C bus with attached sensor devices.
    pub i2c: I2cBus,
}

impl std::fmt::Debug for McuServices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McuServices")
            .field("now_s", &self.now_s)
            .field("state", &self.state)
            .field("timer_deadline", &self.timer_deadline)
            .finish()
    }
}

impl McuServices {
    fn new(profile: PowerProfile) -> Self {
        McuServices {
            now_s: 0.0,
            clock: Clock::watch_crystal(),
            state: PowerState::Active,
            meter: PowerMeter::new(profile),
            switch_pin: OutputPin::new(),
            pulldown_pin: OutputPin::new(),
            timer_deadline: None,
            timer_period: None,
            adc: Adc::adc10(),
            adc_source: None,
            i2c: I2cBus::new(),
        }
    }

    /// Current simulation time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// The timer clock (for bitrate/divider math).
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Current power state.
    // lint: allow(dead-pub) test-oracle single_edge_times_out_quietly the firmware tests' view of the MCU power state
    pub fn power_state(&self) -> PowerState {
        self.state
    }

    /// Enter LPM3 (firmware calls this at the end of a handler when it has
    /// nothing to do until the next interrupt).
    pub fn enter_low_power(&mut self) {
        self.state = PowerState::LowPower3;
    }

    /// Stay in (or return to) active mode.
    pub fn stay_active(&mut self) {
        self.state = PowerState::Active;
    }

    /// Arm a one-shot timer `dt_s` from now. Timer counts are quantized to
    /// whole clock ticks, like the real hardware.
    pub fn set_timer_oneshot(&mut self, dt_s: f64) -> Result<(), McuError> {
        if !(dt_s > 0.0) {
            return Err(McuError::ZeroTimerPeriod);
        }
        let ticks = self.clock.seconds_to_ticks(dt_s).max(1);
        self.timer_deadline = Some(self.now_s + self.clock.ticks_to_seconds(ticks));
        self.timer_period = None;
        Ok(())
    }

    /// Arm a continuous-mode timer firing every `period_s` (quantized to
    /// whole ticks) — the backscatter toggling mode.
    pub fn set_timer_periodic(&mut self, period_s: f64) -> Result<(), McuError> {
        if !(period_s > 0.0) {
            return Err(McuError::ZeroTimerPeriod);
        }
        let ticks = self.clock.seconds_to_ticks(period_s).max(1);
        let quantized = self.clock.ticks_to_seconds(ticks);
        self.timer_deadline = Some(self.now_s + quantized);
        self.timer_period = Some(quantized);
        Ok(())
    }

    /// Disarm the timer.
    pub fn stop_timer(&mut self) {
        self.timer_deadline = None;
        self.timer_period = None;
    }

    /// Set an output pin level.
    pub fn set_pin(&mut self, pin: Pin, level: PinLevel) {
        let now = self.now_s;
        let changed = self.pin_mut(pin).set(now, level);
        if changed && pin == Pin::BackscatterSwitch {
            self.meter.add_toggle();
        }
    }

    fn pin_mut(&mut self, pin: Pin) -> &mut OutputPin {
        match pin {
            Pin::BackscatterSwitch => &mut self.switch_pin,
            Pin::PullDown => &mut self.pulldown_pin,
        }
    }

    /// Transition log of a pin.
    // lint: allow(dead-pub) test-oracle ping_query_produces_fm0_ack_on_the_pin the pin log the firmware tests decode
    pub fn pin_transitions(&self, pin: Pin) -> &[PinTransition] {
        match pin {
            Pin::BackscatterSwitch => self.switch_pin.transitions(),
            Pin::PullDown => self.pulldown_pin.transitions(),
        }
    }

    /// Rasterise a pin history at `fs_hz` over `n` samples from t = 0.
    pub fn rasterize_pin(&self, pin: Pin, fs_hz: f64, n: usize) -> Vec<bool> {
        match pin {
            Pin::BackscatterSwitch => self.switch_pin.rasterize(fs_hz, n),
            Pin::PullDown => self.pulldown_pin.rasterize(fs_hz, n),
        }
    }

    /// Attach the voltage source sampled by the ADC.
    pub fn attach_adc_source(&mut self, src: Box<dyn AnalogSource>) {
        self.adc_source = Some(src);
    }

    /// Sample the ADC. Returns `None` when nothing is attached.
    pub fn adc_read(&mut self) -> Option<u16> {
        let now = self.now_s;
        let adc = self.adc;
        self.adc_source
            .as_mut()
            .map(|s| adc.convert(s.voltage_at(now)))
    }

    /// ADC code → volts conversion for firmware math.
    pub fn adc_code_to_volts(&self, code: u16) -> f64 {
        self.adc.code_to_volts(code)
    }

    /// The power meter (read access for experiments).
    pub fn power_meter(&self) -> &PowerMeter {
        &self.meter
    }
}

/// Node firmware: interrupt handlers invoked by the event loop.
pub trait Firmware {
    /// Called once at power-up (after the supercap crosses the LDO
    /// threshold and the MCU resets).
    fn on_reset(&mut self, svc: &mut McuServices);
    /// Envelope-detector edge interrupt.
    fn on_edge(&mut self, svc: &mut McuServices, rising: bool);
    /// Timer interrupt (one-shot expiry or continuous-mode tick).
    fn on_timer(&mut self, svc: &mut McuServices);
}

/// The MCU: firmware + services + event dispatch.
pub struct Mcu<F: Firmware> {
    /// The firmware under emulation.
    pub firmware: F,
    /// The hardware services.
    pub services: McuServices,
    started: bool,
}

impl<F: Firmware> Mcu<F> {
    /// Create an MCU with the given firmware and power profile.
    pub fn new(firmware: F, profile: PowerProfile) -> Self {
        Mcu {
            firmware,
            services: McuServices::new(profile),
            started: false,
        }
    }

    /// Power-on reset at time 0.
    pub fn reset(&mut self) {
        self.started = true;
        self.services.stay_active();
        self.firmware.on_reset(&mut self.services);
    }

    /// Advance simulation time to `t_s`, firing any due timer interrupts
    /// and integrating the power meter.
    pub fn run_until(&mut self, t_s: f64) {
        assert!(self.started, "call reset() first");
        loop {
            let next_timer = self.services.timer_deadline;
            match next_timer {
                Some(deadline) if deadline <= t_s => {
                    let dt = deadline - self.services.now_s;
                    let state = self.services.state;
                    self.services.meter.accumulate(state, dt);
                    self.services.now_s = deadline;
                    // Rearm continuous mode before the handler so the
                    // handler can stop or re-program it.
                    match self.services.timer_period {
                        Some(p) => self.services.timer_deadline = Some(deadline + p),
                        None => self.services.timer_deadline = None,
                    }
                    self.firmware.on_timer(&mut self.services);
                }
                _ => break,
            }
        }
        let dt = t_s - self.services.now_s;
        if dt > 0.0 {
            let state = self.services.state;
            self.services.meter.accumulate(state, dt);
            self.services.now_s = t_s;
        }
    }

    /// Deliver an envelope-detector edge at `t_s` (wakes the MCU).
    pub fn inject_edge(&mut self, t_s: f64, rising: bool) {
        self.run_until(t_s);
        self.services.stay_active();
        self.firmware.on_edge(&mut self.services, rising);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl McuServices {
        /// Whether the timer is armed.
        fn timer_armed(&self) -> bool {
            self.timer_deadline.is_some()
        }

        /// Toggle an output pin.
        fn toggle_pin(&mut self, pin: Pin) {
            let now = self.now_s;
            self.pin_mut(pin).toggle(now);
            if pin == Pin::BackscatterSwitch {
                self.meter.add_toggle();
            }
        }

        /// Current level of a pin.
        fn pin_level(&self, pin: Pin) -> PinLevel {
            match pin {
                Pin::BackscatterSwitch => self.switch_pin.level(),
                Pin::PullDown => self.pulldown_pin.level(),
            }
        }
    }

    /// Toy firmware: counts edges; on the third edge starts a periodic
    /// toggle of the switch pin; stops after 8 timer ticks.
    struct Toy {
        edges: usize,
        ticks: usize,
    }

    impl Firmware for Toy {
        fn on_reset(&mut self, svc: &mut McuServices) {
            svc.set_pin(Pin::PullDown, PinLevel::High);
            svc.enter_low_power();
        }
        fn on_edge(&mut self, svc: &mut McuServices, _rising: bool) {
            self.edges += 1;
            if self.edges == 3 {
                svc.set_timer_periodic(1.0 / 2000.0).unwrap();
                svc.stay_active();
            } else {
                svc.enter_low_power();
            }
        }
        fn on_timer(&mut self, svc: &mut McuServices) {
            self.ticks += 1;
            svc.toggle_pin(Pin::BackscatterSwitch);
            if self.ticks >= 8 {
                svc.stop_timer();
                svc.enter_low_power();
            }
        }
    }

    #[test]
    fn reset_runs_and_sets_pulldown() {
        let mut mcu = Mcu::new(Toy { edges: 0, ticks: 0 }, PowerProfile::pab_node());
        mcu.reset();
        assert_eq!(mcu.services.pin_level(Pin::PullDown), PinLevel::High);
        assert_eq!(mcu.services.power_state(), PowerState::LowPower3);
    }

    #[test]
    fn edges_wake_and_timer_toggles() {
        let mut mcu = Mcu::new(Toy { edges: 0, ticks: 0 }, PowerProfile::pab_node());
        mcu.reset();
        mcu.inject_edge(0.010, false);
        mcu.inject_edge(0.020, true);
        mcu.inject_edge(0.030, false); // third edge: starts backscatter
        mcu.run_until(0.050);
        assert_eq!(mcu.firmware.ticks, 8);
        let log = mcu.services.pin_transitions(Pin::BackscatterSwitch);
        assert_eq!(log.len(), 8);
        // Toggles are spaced by the quantized period (16 ticks of 32768 Hz
        // ≈ 488 µs for the requested 500 µs).
        let spacing = log[1].time_s - log[0].time_s;
        assert!((spacing - 16.0 / 32_768.0).abs() < 1e-9, "spacing={spacing}");
        // After stopping: low-power again, timer disarmed.
        assert!(!mcu.services.timer_armed());
        assert_eq!(mcu.services.power_state(), PowerState::LowPower3);
    }

    #[test]
    fn power_meter_sees_low_power_idle() {
        let mut mcu = Mcu::new(Toy { edges: 0, ticks: 0 }, PowerProfile::pab_node());
        mcu.reset();
        mcu.run_until(10.0);
        let avg = mcu.services.power_meter().average_power_w();
        // Pure idle: the Fig 11 124 µW point.
        assert!((avg - 124e-6).abs() < 5e-6, "avg={avg}");
    }

    #[test]
    fn active_backscatter_power_is_higher() {
        let mut mcu = Mcu::new(Toy { edges: 0, ticks: 0 }, PowerProfile::pab_node());
        mcu.reset();
        mcu.inject_edge(0.001, false);
        mcu.inject_edge(0.002, true);
        mcu.inject_edge(0.003, false);
        mcu.run_until(0.0072);
        // From 3 ms to ~7 ms the MCU is active and toggling.
        let avg = mcu.services.power_meter().average_power_w();
        assert!(avg > 200e-6, "avg={avg}");
    }

    #[test]
    fn adc_sampling_via_closure() {
        let mut mcu = Mcu::new(Toy { edges: 0, ticks: 0 }, PowerProfile::pab_node());
        mcu.reset();
        assert_eq!(mcu.services.adc_read(), None);
        mcu.services
            .attach_adc_source(Box::new(|_t: f64| 0.75_f64));
        let code = mcu.services.adc_read().unwrap();
        let v = mcu.services.adc_code_to_volts(code);
        assert!((v - 0.75).abs() < 2e-3);
    }

    #[test]
    fn oneshot_timer_fires_once() {
        struct OneShot {
            fired: usize,
        }
        impl Firmware for OneShot {
            fn on_reset(&mut self, svc: &mut McuServices) {
                svc.set_timer_oneshot(0.001).unwrap();
            }
            fn on_edge(&mut self, _svc: &mut McuServices, _r: bool) {}
            fn on_timer(&mut self, _svc: &mut McuServices) {
                self.fired += 1;
            }
        }
        let mut mcu = Mcu::new(OneShot { fired: 0 }, PowerProfile::pab_node());
        mcu.reset();
        mcu.run_until(0.1);
        assert_eq!(mcu.firmware.fired, 1);
        assert!(!mcu.services.timer_armed());
    }

    #[test]
    fn timer_rejects_zero_period() {
        let mut svc = McuServices::new(PowerProfile::pab_node());
        assert!(svc.set_timer_periodic(0.0).is_err());
        assert!(svc.set_timer_oneshot(-1.0).is_err());
    }
}
