//! Power states, the current model, and the power meter that reproduces
//! the paper's Fig. 11 (124 µW idle, ~500 µW while backscattering).

/// MCU operating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// CPU running (decoding, backscattering, sensor I/O): ~230 µA.
    Active,
    /// Low-power mode 3 — only the crystal and timer run: ~0.5 µA.
    LowPower3,
}

/// Current draw model at the supply rail.
///
/// §6.4 explains why measured idle power exceeds the bare-datasheet LPM3
/// number: "the MCU is not entirely in standby since it sets few pins to
/// high (the pull-down transistor, interrupt handles)" and "the LDO
/// consumes similar power even when the MCU is in standby". Those two
/// contributions appear here as `pin_overhead_a` and `ldo_quiescent_a`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Supply voltage at the measurement point, volts (the paper measured
    /// at 2.1 V into the LDO).
    pub supply_v: f64,
    /// MCU current in active mode, amps.
    pub active_a: f64,
    /// MCU current in LPM3, amps.
    pub lpm3_a: f64,
    /// Extra steady current from pins held high in idle, amps.
    pub pin_overhead_a: f64,
    /// LDO quiescent (ground) current, amps.
    pub ldo_quiescent_a: f64,
    /// Gate capacitance driven per backscatter toggle, farads.
    pub switch_gate_c_f: f64,
}

impl PowerProfile {
    /// The PAB node's profile, calibrated to §6.4.
    pub fn pab_node() -> Self {
        PowerProfile {
            supply_v: 2.1,
            active_a: 230e-6,
            lpm3_a: 0.5e-6,
            pin_overhead_a: 33.5e-6,
            ldo_quiescent_a: 25e-6,
            switch_gate_c_f: 100e-12,
        }
    }

    /// Steady current for a state, amps (before switching losses).
    ///
    /// The pin overhead only shows on top of LPM3: in active mode the
    /// 230 µA figure already dominates and §6.4 reconciles the active
    /// measurement with just MCU + LDO ("within 7% of the datasheets").
    fn state_current_a(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Active => self.active_a + self.ldo_quiescent_a,
            PowerState::LowPower3 => {
                self.lpm3_a + self.pin_overhead_a + self.ldo_quiescent_a
            }
        }
    }

    /// Steady power for a state, watts.
    // lint: allow(dead-pub) test-oracle claim_power_figures Fig. 11's per-state power the paper claim pins
    pub fn state_power_w(&self, state: PowerState) -> f64 {
        self.supply_v * self.state_current_a(state)
    }

    /// Energy per backscatter switch toggle, joules (`C V²`).
    // lint: allow(dead-pub) test-oracle claim_power_figures
    pub fn toggle_energy_j(&self) -> f64 {
        self.switch_gate_c_f * self.supply_v * self.supply_v
    }
}

/// Integrates energy over state segments and switch toggles — the
/// simulated Keithley 2400 of §6.4.
#[derive(Debug, Clone)]
pub struct PowerMeter {
    profile: PowerProfile,
    energy_j: f64,
    elapsed_s: f64,
    toggles: u64,
}

impl PowerMeter {
    /// New meter for a given profile.
    pub fn new(profile: PowerProfile) -> Self {
        PowerMeter {
            profile,
            energy_j: 0.0,
            elapsed_s: 0.0,
            toggles: 0,
        }
    }

    /// Account for `duration_s` spent in `state`.
    pub fn accumulate(&mut self, state: PowerState, duration_s: f64) {
        if duration_s <= 0.0 {
            return;
        }
        self.energy_j += self.profile.state_power_w(state) * duration_s;
        self.elapsed_s += duration_s;
    }

    /// Account for one backscatter switch toggle.
    pub fn add_toggle(&mut self) {
        self.energy_j += self.profile.toggle_energy_j();
        self.toggles += 1;
    }

    /// Total energy consumed, joules.
    // lint: allow(dead-pub) test-oracle power_meter_accounts_exactly
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Total wall-clock accounted, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Number of switch toggles recorded.
    // lint: allow(dead-pub) test-oracle strong_signal_powers_up_and_answers_ping toggle count the node tests read
    pub fn toggles(&self) -> u64 {
        self.toggles
    }

    /// Average power over the accounted time, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.elapsed_s == 0.0 {
            0.0
        } else {
            self.energy_j / self.elapsed_s
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &PowerProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_power_matches_fig11() {
        let p = PowerProfile::pab_node();
        let idle = p.state_power_w(PowerState::LowPower3);
        // Paper: 124 µW idle.
        assert!((idle - 124e-6).abs() < 5e-6, "idle={idle}");
    }

    #[test]
    fn active_power_matches_fig11() {
        let p = PowerProfile::pab_node();
        let active = p.state_power_w(PowerState::Active);
        // Paper: ~500 µW while backscattering ("within 7% of datasheet").
        assert!((450e-6..600e-6).contains(&active), "active={active}");
    }

    #[test]
    fn meter_integrates_mixed_states() {
        let mut m = PowerMeter::new(PowerProfile::pab_node());
        m.accumulate(PowerState::LowPower3, 1.0);
        m.accumulate(PowerState::Active, 1.0);
        let avg = m.average_power_w();
        let expect = (m.profile().state_power_w(PowerState::LowPower3)
            + m.profile().state_power_w(PowerState::Active))
            / 2.0;
        assert!((avg - expect).abs() < 1e-12);
        assert_eq!(m.elapsed_s(), 2.0);
    }

    #[test]
    fn toggles_add_energy_but_not_time() {
        let mut m = PowerMeter::new(PowerProfile::pab_node());
        m.accumulate(PowerState::Active, 1.0);
        let before = m.energy_j();
        for _ in 0..1000 {
            m.add_toggle();
        }
        assert_eq!(m.toggles(), 1000);
        assert!(m.energy_j() > before);
        assert_eq!(m.elapsed_s(), 1.0);
        // 1000 toggles of 100 pF at 2.1 V: ~0.44 µJ — tiny next to 535 µJ.
        assert!((m.energy_j() - before) < 1e-6);
    }

    #[test]
    fn negative_or_zero_duration_ignored() {
        let mut m = PowerMeter::new(PowerProfile::pab_node());
        m.accumulate(PowerState::Active, 0.0);
        m.accumulate(PowerState::Active, -1.0);
        assert_eq!(m.energy_j(), 0.0);
        assert_eq!(m.average_power_w(), 0.0);
    }
}
