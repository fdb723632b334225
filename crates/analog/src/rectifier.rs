//! Multi-stage (Dickson / voltage-multiplier) rectifier.
//!
//! §4.2.1: "We employ a multi-stage rectifier in order to passively
//! amplify the voltage to the level that is needed for activating the
//! digital components." The envelope-level model here captures what the
//! rest of the system needs: DC output vs input amplitude (with diode
//! drops and output resistance), the effective AC input resistance the
//! matching network is designed against, and conversion efficiency.

use crate::AnalogError;

/// Behavioural model of an N-stage voltage-multiplier rectifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiStageRectifier {
    /// Number of voltage-doubling stages.
    pub stages: usize,
    /// Forward drop of each diode, volts (Schottky ≈ 0.2–0.3 V).
    pub diode_drop_v: f64,
    /// Effective AC input resistance, ohms (what the matching network
    /// sees; set by stage capacitors and switching frequency).
    pub input_resistance_ohms: f64,
    /// Effective DC output resistance, ohms (droop under load).
    pub output_resistance_ohms: f64,
    /// Maximum AC→DC conversion efficiency (energy-conservation cap on the
    /// voltage-multiplier model).
    // lint: unitless power ratio cap in (0, 1]
    pub max_efficiency: f64,
}

impl MultiStageRectifier {
    /// Construct with validation.
    pub fn new(
        stages: usize,
        diode_drop_v: f64,
        input_resistance_ohms: f64,
        output_resistance_ohms: f64,
    ) -> Result<Self, AnalogError> {
        if stages == 0 {
            return Err(AnalogError::NonPositive("stages"));
        }
        if !(diode_drop_v >= 0.0) || !diode_drop_v.is_finite() {
            return Err(AnalogError::NonPositive("diode_drop_v"));
        }
        if !(input_resistance_ohms > 0.0) {
            return Err(AnalogError::NonPositive("input_resistance_ohms"));
        }
        if !(output_resistance_ohms > 0.0) {
            return Err(AnalogError::NonPositive("output_resistance_ohms"));
        }
        Ok(MultiStageRectifier {
            stages,
            diode_drop_v,
            input_resistance_ohms,
            output_resistance_ohms,
            max_efficiency: 0.85,
        })
    }

    /// The PAB node's rectifier: 3 voltage-doubling stages with Schottky
    /// diodes, ~5 kΩ input resistance.
    pub fn pab_node() -> Self {
        MultiStageRectifier {
            stages: 3,
            diode_drop_v: 0.25,
            input_resistance_ohms: 20_000.0,
            output_resistance_ohms: 8_000.0,
            max_efficiency: 0.85,
        }
    }

    /// Unloaded (open-circuit) DC output for an AC input of peak amplitude
    /// `v_peak_v`: `2 N max(0, v_peak_v − v_diode)`.
    pub fn open_circuit_dc_v(&self, v_peak_v: f64) -> f64 {
        2.0 * self.stages as f64 * (v_peak_v - self.diode_drop_v).max(0.0)
    }

    /// DC output when feeding a resistive DC load `r_load_ohms` (voltage
    /// divider between output resistance and load), capped so output power
    /// never exceeds `max_efficiency` × the AC power accepted at the input.
    pub fn dc_into_load_v(&self, v_peak_v: f64, r_load_ohms: f64) -> f64 {
        if r_load_ohms <= 0.0 {
            return 0.0;
        }
        let v_model =
            self.open_circuit_dc_v(v_peak_v) * r_load_ohms / (r_load_ohms + self.output_resistance_ohms);
        let p_in = v_peak_v * v_peak_v / (2.0 * self.input_resistance_ohms);
        let v_cap = (self.max_efficiency * p_in * r_load_ohms).sqrt();
        v_model.min(v_cap)
    }

    /// Minimum input amplitude that produces any DC output at all (the
    /// rectifier's dead zone — the reason weak signals can't cold-start a
    /// node even though they carry nonzero power).
    pub fn threshold_v(&self) -> f64 {
        self.diode_drop_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MultiStageRectifier {
        /// DC output when the load draws `i_load_a` amps: droop through the
        /// output resistance, floored at zero.
        fn loaded_dc_v(&self, v_peak_v: f64, i_load_a: f64) -> f64 {
            (self.open_circuit_dc_v(v_peak_v) - i_load_a.max(0.0) * self.output_resistance_ohms)
                .max(0.0)
        }

        /// AC-to-DC conversion efficiency at input amplitude `v_peak_v` into DC
        /// load `r_load_ohms`: output DC power / input AC power.
        fn efficiency(&self, v_peak_v: f64, r_load_ohms: f64) -> f64 {
            if v_peak_v <= 0.0 || r_load_ohms <= 0.0 {
                return 0.0;
            }
            let p_in = v_peak_v * v_peak_v / (2.0 * self.input_resistance_ohms);
            if p_in == 0.0 {
                return 0.0;
            }
            let v_out = self.dc_into_load_v(v_peak_v, r_load_ohms);
            let p_out = v_out * v_out / r_load_ohms;
            (p_out / p_in).min(1.0)
        }
    }

    #[test]
    fn below_diode_drop_outputs_nothing() {
        let r = MultiStageRectifier::pab_node();
        assert_eq!(r.open_circuit_dc_v(0.1), 0.0);
        assert_eq!(r.open_circuit_dc_v(0.25), 0.0);
        assert!(r.open_circuit_dc_v(0.3) > 0.0);
    }

    #[test]
    fn output_scales_with_stages() {
        let one = MultiStageRectifier::new(1, 0.25, 5e3, 8e3).unwrap();
        let three = MultiStageRectifier::new(3, 0.25, 5e3, 8e3).unwrap();
        assert!((three.open_circuit_dc_v(1.0) - 3.0 * one.open_circuit_dc_v(1.0)).abs() < 1e-12);
        // 3 stages, 1 V peak: 2·3·0.75 = 4.5 V — the 4 V class of Fig 3.
        assert!((three.open_circuit_dc_v(1.0) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn loading_droops_output() {
        let r = MultiStageRectifier::pab_node();
        let open = r.open_circuit_dc_v(1.5);
        let loaded = r.loaded_dc_v(1.5, 100e-6);
        assert!(loaded < open);
        assert!((open - loaded - 0.8).abs() < 1e-9); // 100 µA × 8 kΩ
        assert_eq!(r.loaded_dc_v(0.3, 1.0), 0.0); // heavy load floors at 0
    }

    #[test]
    fn resistive_load_divider_with_conservation_cap() {
        let r = MultiStageRectifier::pab_node();
        let v = r.dc_into_load_v(1.0, 8_000.0);
        let divider = r.open_circuit_dc_v(1.0) * 8_000.0 / 16_000.0;
        let p_in = 1.0 / (2.0 * r.input_resistance_ohms);
        let cap = (r.max_efficiency * p_in * 8_000.0).sqrt();
        assert!((v - divider.min(cap)).abs() < 1e-12, "v={v}");
        assert_eq!(r.dc_into_load_v(1.0, 0.0), 0.0);
        // With a light (high-resistance) DC load the divider model rules.
        let v_light = r.dc_into_load_v(1.0, 10e6);
        assert!((v_light - r.open_circuit_dc_v(1.0) * 10e6 / (10e6 + 8_000.0)).abs() < 1e-9);
    }

    #[test]
    fn efficiency_bounded_by_cap_and_zero_below_threshold() {
        let r = MultiStageRectifier::pab_node();
        for v in [0.1, 0.3, 0.5, 1.0, 2.0, 5.0] {
            let e = r.efficiency(v, 20_000.0);
            assert!(
                (0.0..=r.max_efficiency + 1e-12).contains(&e),
                "e={e} at v={v}"
            );
        }
        // Deep sub-threshold is zero-efficiency.
        assert_eq!(r.efficiency(0.1, 20_000.0), 0.0);
        // Efficiency never decreases with drive in this regime (allow
        // floating-point slack at the cap plateau).
        assert!(r.efficiency(1.0, 20_000.0) >= r.efficiency(0.4, 20_000.0) - 1e-9);
    }

    #[test]
    fn energy_conservation_cap_limits_light_load_power() {
        let r = MultiStageRectifier::pab_node();
        let v_peak_v = 0.5;
        let p_in = v_peak_v * v_peak_v / (2.0 * r.input_resistance_ohms);
        let v_out = r.dc_into_load_v(v_peak_v, 20_000.0);
        let p_out = v_out * v_out / 20_000.0;
        assert!(p_out <= r.max_efficiency * p_in + 1e-15);
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(MultiStageRectifier::new(0, 0.25, 5e3, 8e3).is_err());
        assert!(MultiStageRectifier::new(3, -0.1, 5e3, 8e3).is_err());
        assert!(MultiStageRectifier::new(3, 0.25, 0.0, 8e3).is_err());
        assert!(MultiStageRectifier::new(3, 0.25, 5e3, 0.0).is_err());
    }
}
