//! The impedance matching network between transducer and rectifier.
//!
//! The paper (§4.2.1): "we can solder an impedance matching network (which
//! consists of an inductor and a capacitor) between the piezoelectric
//! transducer and the rectifier. The values of inductance and capacitance
//! of the network can be derived from standard circuit equations by
//! substituting the load and source impedances." We implement exactly that
//! analytic L-section design: a shunt capacitor across the rectifier input
//! transforms its resistance down to the source's real part, and a series
//! element cancels the residual reactance (absorbing the transducer's own
//! reactance).
//!
//! The loaded quality factor of the section is `Q = √(R_load/R_s − 1)`, so
//! matching at a frequency where the transducer's series resistance is
//! small produces a *sharp* resonance — this is the physics behind the
//! recto-piezo's tunable, narrow power-up bands in Fig. 3.

use crate::impedance::{capacitor, inductor, parallel, resistor};
use crate::AnalogError;
use num_complex::Complex64;
use std::f64::consts::TAU;

/// The series branch of the L-section: inductor or capacitor depending on
/// the sign of the reactance to be supplied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeriesElement {
    /// Series inductor, henries.
    Inductor(f64),
    /// Series capacitor, farads.
    Capacitor(f64),
}

impl SeriesElement {
    /// Impedance of the element at `freq_hz`.
    pub fn impedance(&self, freq_hz: f64) -> Complex64 {
        match *self {
            SeriesElement::Inductor(l) => inductor(l, freq_hz),
            SeriesElement::Capacitor(c) => capacitor(c, freq_hz),
        }
    }
}

/// L-section matching network: series element from the source, shunt
/// capacitor across the load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchingNetwork {
    /// Series element (inductor in the common case).
    pub series: SeriesElement,
    /// Shunt capacitance across the load, farads.
    pub shunt_c_farads: f64,
}

impl MatchingNetwork {
    /// Construct with explicit element values.
    pub fn new(series: SeriesElement, shunt_c_farads: f64) -> Result<Self, AnalogError> {
        let val = match series {
            SeriesElement::Inductor(l) => l,
            SeriesElement::Capacitor(c) => c,
        };
        if !(val > 0.0) || !val.is_finite() {
            return Err(AnalogError::NonPositive("series element value"));
        }
        if !(shunt_c_farads > 0.0) || !shunt_c_farads.is_finite() {
            return Err(AnalogError::NonPositive("shunt_c_farads"));
        }
        Ok(MatchingNetwork {
            series,
            shunt_c_farads,
        })
    }

    /// Analytic L-match design: conjugate-match a source of impedance
    /// `z_source` (at `f_match_hz`) into the resistive load `r_load_ohms`.
    ///
    /// Requires `0 < Re(z_source) < r_load_ohms` (the down-transforming
    /// L-section; always true for the PAB transducer into the rectifier's
    /// ~5 kΩ input).
    pub fn design(
        z_source: Complex64,
        f_match_hz: f64,
        r_load_ohms: f64,
    ) -> Result<Self, AnalogError> {
        if !(f_match_hz > 0.0) {
            return Err(AnalogError::NonPositive("f_match_hz"));
        }
        if !(r_load_ohms > 0.0) {
            return Err(AnalogError::NonPositive("r_load_ohms"));
        }
        let rs = z_source.re;
        let xs = z_source.im;
        if !(rs > 0.0) || rs >= r_load_ohms {
            return Err(AnalogError::MatchingFailed { freq_hz: f_match_hz });
        }
        let w = TAU * f_match_hz;
        let q = (r_load_ohms / rs - 1.0).sqrt();
        // Shunt C: transforms r_load_ohms down to rs with residual -j·q·rs.
        let shunt_c = q / (w * r_load_ohms);
        // Series element must supply +j·q·rs and cancel the source's xs.
        let x_el = q * rs - xs;
        let series = if x_el >= 0.0 {
            SeriesElement::Inductor(x_el / w)
        } else {
            SeriesElement::Capacitor(1.0 / (w * (-x_el)))
        };
        // A zero-valued series element degenerates; nudge to a tiny L.
        let series = match series {
            SeriesElement::Inductor(l) if l <= 0.0 => SeriesElement::Inductor(1e-9),
            other => other,
        };
        MatchingNetwork::new(series, shunt_c)
    }

    /// Complex voltage gain from source open-circuit voltage to the load:
    /// `V_load / Voc = Zp / (Zs + Z_series + Zp)` with
    /// `Zp = Z_shuntC ∥ R_load`.
    pub fn load_voltage_gain(
        &self,
        z_source: Complex64,
        freq_hz: f64,
        r_load_ohms: f64,
    ) -> Complex64 {
        let zp = parallel(capacitor(self.shunt_c_farads, freq_hz), resistor(r_load_ohms));
        let total = z_source + self.series.impedance(freq_hz) + zp;
        if total.norm() == 0.0 {
            return Complex64::new(0.0, 0.0);
        }
        zp / total
    }

    /// Power delivered into `r_load_ohms` for open-circuit amplitude `voc_volts`.
    // lint: allow(dead-pub) test-oracle lmatch_achieves_available_power_w the L-match's delivered power the property checks
    pub fn delivered_power_w(
        &self,
        voc_volts: f64,
        z_source: Complex64,
        freq_hz: f64,
        r_load_ohms: f64,
    ) -> f64 {
        let v = (self.load_voltage_gain(z_source, freq_hz, r_load_ohms) * voc_volts).norm();
        v * v / (2.0 * r_load_ohms)
    }

    /// Impedance looking into the network + load from the source side —
    /// the load the piezo sees in the absorptive backscatter state.
    pub fn input_impedance(&self, freq_hz: f64, r_load_ohms: f64) -> Complex64 {
        self.series.impedance(freq_hz)
            + parallel(capacitor(self.shunt_c_farads, freq_hz), resistor(r_load_ohms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impedance::available_power_w;
    use pab_piezo::Transducer;

    impl MatchingNetwork {
        /// Loaded quality factor of the section when designed for `z_source`
        /// into `r_load_ohms` (`√(R_load/R_s − 1)`).
        fn loaded_q(z_source: Complex64, r_load_ohms: f64) -> f64 {
            if z_source.re <= 0.0 || r_load_ohms <= z_source.re {
                return 0.0;
            }
            (r_load_ohms / z_source.re - 1.0).sqrt()
        }
    }

    #[test]
    fn design_achieves_available_power_w() {
        let t = Transducer::pab_node();
        let f0 = 15_000.0;
        let zs = t.electrical_impedance(f0);
        let r_load_ohms = 5_000.0;
        let m = MatchingNetwork::design(zs, f0, r_load_ohms).unwrap();
        let delivered = m.delivered_power_w(1.0, zs, f0, r_load_ohms);
        let avail = available_power_w(1.0, zs);
        assert!(
            (delivered - avail).abs() / avail < 1e-6,
            "delivered {delivered} vs available {avail}"
        );
    }

    #[test]
    fn input_impedance_is_conjugate_at_match() {
        let t = Transducer::pab_node();
        let f0 = 15_000.0;
        let zs = t.electrical_impedance(f0);
        let r_load_ohms = 5_000.0;
        let m = MatchingNetwork::design(zs, f0, r_load_ohms).unwrap();
        let zin = m.input_impedance(f0, r_load_ohms);
        assert!(
            (zin - zs.conj()).norm() / zs.norm() < 1e-6,
            "zin={zin} zs*={}",
            zs.conj()
        );
    }

    #[test]
    fn matched_network_is_band_selective() {
        let t = Transducer::pab_node();
        let f0 = 15_000.0;
        let zs15 = t.electrical_impedance(f0);
        let r_load_ohms = 5_000.0;
        let m = MatchingNetwork::design(zs15, f0, r_load_ohms).unwrap();
        let at_match = m.delivered_power_w(1.0, zs15, f0, r_load_ohms);
        let off = m.delivered_power_w(
            1.0,
            t.electrical_impedance(20_000.0),
            20_000.0,
            r_load_ohms,
        );
        assert!(at_match > 3.0 * off, "at {at_match} vs off {off}");
    }

    #[test]
    fn different_match_frequencies_give_different_networks() {
        let t = Transducer::pab_node();
        let r_load_ohms = 5_000.0;
        let m15 =
            MatchingNetwork::design(t.electrical_impedance(15_000.0), 15_000.0, r_load_ohms)
                .unwrap();
        let m18 =
            MatchingNetwork::design(t.electrical_impedance(18_000.0), 18_000.0, r_load_ohms)
                .unwrap();
        assert_ne!(m15, m18);
    }

    #[test]
    fn loaded_q_grows_with_transform_ratio() {
        let lo = MatchingNetwork::loaded_q(Complex64::new(1_000.0, 0.0), 5_000.0);
        let hi = MatchingNetwork::loaded_q(Complex64::new(20.0, 0.0), 5_000.0);
        assert!(hi > lo);
        assert_eq!(MatchingNetwork::loaded_q(Complex64::new(0.0, 5.0), 5_000.0), 0.0);
        assert_eq!(
            MatchingNetwork::loaded_q(Complex64::new(9_000.0, 0.0), 5_000.0),
            0.0
        );
    }

    #[test]
    fn series_capacitor_branch_used_for_capacitive_requirement() {
        // A strongly inductive source needs a series capacitor to cancel.
        let zs = Complex64::new(100.0, 5_000.0);
        let m = MatchingNetwork::design(zs, 15_000.0, 5_000.0).unwrap();
        assert!(matches!(m.series, SeriesElement::Capacitor(_)));
        // And the match still works.
        let p = m.delivered_power_w(1.0, zs, 15_000.0, 5_000.0);
        assert!((p - available_power_w(1.0, zs)).abs() / p < 1e-6);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(MatchingNetwork::new(SeriesElement::Inductor(0.0), 1e-9).is_err());
        assert!(MatchingNetwork::new(SeriesElement::Inductor(1e-3), -1.0).is_err());
        let zs = Complex64::new(100.0, 0.0);
        assert!(MatchingNetwork::design(zs, 0.0, 100.0).is_err());
        assert!(MatchingNetwork::design(zs, 15e3, 0.0).is_err());
        // Source resistance above load: down-transformer can't match.
        assert!(MatchingNetwork::design(Complex64::new(9e3, 0.0), 15e3, 5e3).is_err());
        // Purely reactive source.
        assert!(MatchingNetwork::design(Complex64::new(0.0, 500.0), 15e3, 5e3).is_err());
    }
}
