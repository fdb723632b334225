//! The LP5900-class low-dropout regulator powering the digital section.
//!
//! §4.2.1: "The capacitor is connected to a low-dropout (LDO) voltage
//! regulator, the LP5900SD, the output of which is 1.8 V." §6.4 notes the
//! LDO draws ~25 µA of quiescent/ground current — one of the reasons
//! measured idle power (124 µW) exceeds the bare MCU datasheet number.

use crate::AnalogError;

/// Behavioural LDO model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ldo {
    /// Regulated output voltage, volts.
    pub output_v: f64,
    /// Dropout voltage, volts: regulation requires `Vin >= Vout + dropout`.
    pub dropout_v: f64,
    /// Quiescent (ground) current, amps.
    pub quiescent_a: f64,
}

impl Ldo {
    /// Construct with validation.
    pub fn new(output_v: f64, dropout_v: f64, quiescent_a: f64) -> Result<Self, AnalogError> {
        if !(output_v > 0.0) {
            return Err(AnalogError::NonPositive("output_v"));
        }
        if !(dropout_v >= 0.0) || !dropout_v.is_finite() {
            return Err(AnalogError::NonPositive("dropout_v"));
        }
        if !(quiescent_a >= 0.0) || !quiescent_a.is_finite() {
            return Err(AnalogError::NonPositive("quiescent_a"));
        }
        Ok(Ldo {
            output_v,
            dropout_v,
            quiescent_a,
        })
    }

    /// The node's LP5900SD-1.8: 1.8 V out, ~0.1 V dropout, 25 µA ground
    /// current at the node's operating point.
    // lint: allow(dead-pub) test-oracle ldo_output_bounded the node's LDO, exercised only by its output-bound property
    pub fn lp5900_1v8() -> Self {
        Ldo {
            output_v: 1.8,
            dropout_v: 0.1,
            quiescent_a: 25e-6,
        }
    }

    /// Whether the regulator is in regulation at input voltage `vin_v`.
    fn in_regulation(&self, vin_v: f64) -> bool {
        vin_v >= self.output_v + self.dropout_v
    }

    /// Output voltage for a given input: regulated when possible, tracking
    /// (input minus dropout, floored at 0) when not.
    // lint: allow(dead-pub) test-oracle ldo_output_bounded
    pub fn vout_v(&self, vin_v: f64) -> f64 {
        if self.in_regulation(vin_v) {
            self.output_v
        } else {
            (vin_v - self.dropout_v).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ldo {
        /// Input current drawn from the storage capacitor when the load draws
        /// `i_load_a` at the output (LDO is a linear pass device: input current =
        /// load current + quiescent).
        fn input_current_a(&self, i_load_a: f64) -> f64 {
            i_load_a.max(0.0) + self.quiescent_a
        }

        /// Power dissipated inside the regulator at `vin_v` with load `i_load_a`.
        fn dissipation_w(&self, vin_v: f64, i_load_a: f64) -> f64 {
            let vout = self.vout_v(vin_v);
            ((vin_v - vout) * i_load_a.max(0.0) + vin_v * self.quiescent_a).max(0.0)
        }
    }

    #[test]
    fn regulates_above_dropout() {
        let ldo = Ldo::lp5900_1v8();
        assert!(ldo.in_regulation(2.1));
        assert_eq!(ldo.vout_v(2.1), 1.8);
        assert_eq!(ldo.vout_v(3.3), 1.8);
    }

    #[test]
    fn tracks_below_dropout() {
        let ldo = Ldo::lp5900_1v8();
        assert!(!ldo.in_regulation(1.5));
        assert!((ldo.vout_v(1.5) - 1.4).abs() < 1e-12);
        assert_eq!(ldo.vout_v(0.05), 0.0);
    }

    #[test]
    fn input_current_adds_quiescent() {
        let ldo = Ldo::lp5900_1v8();
        assert!((ldo.input_current_a(230e-6) - 255e-6).abs() < 1e-12);
        assert!((ldo.input_current_a(-5.0) - 25e-6).abs() < 1e-18);
    }

    #[test]
    fn node_power_budget_matches_paper_ballpark() {
        // §6.4: MCU active ≈ 230 µA, LDO ≈ 25 µA, at Vin = 2.1 V the total
        // should be within ~7% of 500 µW ballpark (paper's backscatter
        // figure). Total input power = Vin · (I_load + Iq).
        let ldo = Ldo::lp5900_1v8();
        let p = 2.1 * ldo.input_current_a(230e-6);
        assert!((p - 535e-6).abs() < 40e-6, "p={p}");
    }

    #[test]
    fn dissipation_nonnegative() {
        let ldo = Ldo::lp5900_1v8();
        assert!(ldo.dissipation_w(2.1, 230e-6) > 0.0);
        assert_eq!(ldo.dissipation_w(0.0, 0.0), 0.0);
    }

    #[test]
    fn rejects_invalid() {
        assert!(Ldo::new(0.0, 0.1, 25e-6).is_err());
        assert!(Ldo::new(1.8, -0.1, 25e-6).is_err());
        assert!(Ldo::new(1.8, 0.1, -1.0).is_err());
    }
}
