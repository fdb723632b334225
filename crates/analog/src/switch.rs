//! The backscatter switch: two series transistors whose middle junction is
//! grounded (§4.2.1, "Backscatter"), toggling the piezo between the
//! short-circuit (reflective) and matched (absorptive) load states.

use crate::AnalogError;
use num_complex::Complex64;

/// The series transistor pair acting as the backscatter switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackscatterSwitch {
    /// Total on-resistance of the two transistors in series, ohms.
    pub on_resistance_ohms: f64,
    /// Off-state leakage resistance, ohms (effectively open).
    pub off_resistance_ohms: f64,
    /// Gate threshold voltage: the MCU rail must exceed this to drive the
    /// gates (the series/grounded-source design lowers it — footnote 11).
    pub gate_threshold_v: f64,
}

impl BackscatterSwitch {
    /// Construct with validation.
    pub fn new(
        on_resistance_ohms: f64,
        off_resistance_ohms: f64,
        gate_threshold_v: f64,
    ) -> Result<Self, AnalogError> {
        if !(on_resistance_ohms >= 0.0) || !on_resistance_ohms.is_finite() {
            return Err(AnalogError::NonPositive("on_resistance_ohms"));
        }
        if !(off_resistance_ohms > on_resistance_ohms) {
            return Err(AnalogError::NonPositive(
                "off_resistance_ohms (must exceed on_resistance)",
            ));
        }
        if !(gate_threshold_v > 0.0) {
            return Err(AnalogError::NonPositive("gate_threshold_v"));
        }
        Ok(BackscatterSwitch {
            on_resistance_ohms,
            off_resistance_ohms,
            gate_threshold_v,
        })
    }

    /// The node's switch: ~2 Ω on, ~10 MΩ off, 1.0 V gate threshold
    /// (drivable from the 1.8 V rail).
    pub fn pab_node() -> Self {
        BackscatterSwitch {
            on_resistance_ohms: 2.0,
            off_resistance_ohms: 10e6,
            gate_threshold_v: 1.0,
        }
    }

    /// Impedance the switch presents across the piezo terminals when
    /// closed (reflective state): nearly a short.
    pub fn closed_impedance(&self) -> Complex64 {
        Complex64::new(self.on_resistance_ohms, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BackscatterSwitch {
        /// Impedance when open: effectively removed from the circuit.
        fn open_impedance(&self) -> Complex64 {
            Complex64::new(self.off_resistance_ohms, 0.0)
        }

        /// Whether a gate drive voltage can actuate the switch.
        fn can_actuate(&self, gate_v: f64) -> bool {
            gate_v >= self.gate_threshold_v
        }

        /// Energy to toggle the gate capacitance once: `C_g · V²` (the only
        /// energy backscatter modulation itself costs — the "near-zero power"
        /// of the paper).
        fn switching_energy_j(&self, gate_capacitance_f: f64, rail_v: f64) -> f64 {
            gate_capacitance_f.max(0.0) * rail_v * rail_v
        }
    }

    #[test]
    fn closed_is_nearly_short() {
        let s = BackscatterSwitch::pab_node();
        assert!(s.closed_impedance().norm() < 10.0);
        assert!(s.open_impedance().norm() > 1e6);
    }

    #[test]
    fn rail_actuation() {
        let s = BackscatterSwitch::pab_node();
        assert!(s.can_actuate(1.8));
        assert!(!s.can_actuate(0.5));
    }

    #[test]
    fn switching_energy_is_tiny() {
        let s = BackscatterSwitch::pab_node();
        // 100 pF gate at 1.8 V: ~0.3 nJ per toggle; at 3 kbps (FM0: up to
        // 2 toggles/bit) that is ~2 µW — negligible next to the MCU.
        let e = s.switching_energy_j(100e-12, 1.8);
        assert!(e < 1e-9);
        let p_at_3kbps = e * 2.0 * 3_000.0;
        assert!(p_at_3kbps < 5e-6);
    }

    #[test]
    fn rejects_invalid() {
        assert!(BackscatterSwitch::new(-1.0, 1e6, 1.0).is_err());
        assert!(BackscatterSwitch::new(10.0, 5.0, 1.0).is_err());
        assert!(BackscatterSwitch::new(2.0, 1e6, 0.0).is_err());
    }
}
