//! The full transducer: BVD electrical model + acoustic two-port
//! (pressure ↔ voltage) conversion with the geometric-resonance band-pass
//! shape.

use crate::bvd::BvdModel;
use crate::cylinder::{CylinderGeometry, DEFAULT_WATER_LOADING};
use crate::PiezoError;
use num_complex::Complex64;

/// An underwater piezoelectric transducer (projector or backscatter-node
/// resonator).
///
/// Sensitivities are specified *at resonance*; off-resonance behaviour is
/// shaped by the BVD motional response (the paper's footnote 5: "the
/// geometric resonance acts as a bandpass filter, while the electrical
/// matching determines the exact frequency").
#[derive(Debug, Clone, PartialEq)]
pub struct Transducer {
    /// Electrical equivalent circuit.
    pub bvd: BvdModel,
    /// Physical geometry (used for documentation/scaling; optional).
    pub geometry: Option<CylinderGeometry>,
    /// Transmit sensitivity at resonance: pascals at 1 m per volt of drive.
    pub tx_sensitivity_pa_m_per_v: f64,
    /// Receive sensitivity at resonance: open-circuit volts per pascal.
    pub rx_sensitivity_v_per_pa: f64,
}

impl Transducer {
    /// Electrical impedance at the terminals, ohms.
    pub fn electrical_impedance(&self, freq_hz: f64) -> Complex64 {
        self.bvd.impedance(freq_hz)
    }

    /// Normalised mechanical band-pass response (1.0 at resonance).
    // lint: unitless normalized Lorentzian response, 1 at resonance
    pub fn mechanical_response(&self, freq_hz: f64) -> f64 {
        self.bvd.mechanical_response(freq_hz)
    }

    /// Series resonance frequency, Hz.
    pub fn resonance_hz(&self) -> f64 {
        self.bvd.series_resonance_hz()
    }

    /// Source pressure at 1 m for a drive voltage amplitude `volts` at
    /// `freq_hz`, pascals.
    // lint: allow(dead-pub) test-oracle two_port_is_linear
    pub fn transmit_pressure_at_1m_pa(&self, volts: f64, freq_hz: f64) -> f64 {
        self.tx_sensitivity_pa_m_per_v * volts * self.mechanical_response(freq_hz)
    }

    /// Open-circuit voltage generated by an incident pressure amplitude
    /// `pascals` at `freq_hz`, volts.
    pub fn receive_open_circuit_v(&self, pascals: f64, freq_hz: f64) -> f64 {
        self.rx_sensitivity_v_per_pa * pascals * self.mechanical_response(freq_hz)
    }

    /// The backscatter reflection coefficient of the paper's Eq. 2 for a
    /// load impedance `z_load` at `freq_hz`:
    /// `Γ = (Z_L − Z_s*) / (Z_L + Z_s)`.
    ///
    /// `|Γ|² = 1` when the terminals are shorted (`Z_L = 0` makes the wave
    /// fully reflect) and `0` when conjugate-matched.
    pub fn reflection_coefficient(&self, z_load: Complex64, freq_hz: f64) -> Complex64 {
        let zs = self.electrical_impedance(freq_hz);
        (z_load - zs.conj()) / (z_load + zs)
    }

    /// The PAB node transducer of §4.1: Steminc 17 kHz cylinder, potted,
    /// water-loaded to ~16.5 kHz, with Q and sensitivities representative
    /// of a low-cost air-backed end-capped design.
    pub fn pab_node() -> Self {
        let geometry = CylinderGeometry::steminc_17khz();
        let f_water = geometry.in_water_resonance_hz(DEFAULT_WATER_LOADING).min(17_000.0);
        Transducer {
            bvd: BvdModel::from_resonance(f_water, 2.5, 10e-9, 0.35)
                // lint: allow(no-unwrap-in-lib) fixed in-range datasheet constants
                .expect("constants are valid"),
            geometry: Some(geometry),
            tx_sensitivity_pa_m_per_v: 14.0,
            rx_sensitivity_v_per_pa: 2.2e-4,
        }
    }

    /// The in-house projector built from the same fabricated transducers
    /// (§5.1(a)), driven by a power amplifier.
    pub fn pab_projector() -> Self {
        Self::pab_node()
    }
}

/// Builder for custom transducers.
#[derive(Debug, Clone)]
pub struct TransducerBuilder {
    resonance_hz: f64,
    q: f64,
    c0_farads: f64,
    k_eff: f64,
    tx_sensitivity_pa_m_per_v: f64,
    rx_sensitivity_v_per_pa: f64,
}

impl Default for TransducerBuilder {
    fn default() -> Self {
        TransducerBuilder {
            resonance_hz: 16_500.0,
            q: 2.5,
            c0_farads: 10e-9,
            k_eff: 0.35,
            tx_sensitivity_pa_m_per_v: 14.0,
            rx_sensitivity_v_per_pa: 2.2e-4,
        }
    }
}

impl TransducerBuilder {
    /// Start from defaults (the PAB node's constants).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the in-water series resonance frequency, Hz.
    pub fn resonance_hz(mut self, f_hz: f64) -> Self {
        self.resonance_hz = f_hz;
        self
    }

    /// Set the mechanical quality factor.
    pub fn q(mut self, q: f64) -> Self { // lint: unitless — mechanical quality factor
        self.q = q;
        self
    }

    /// Set the static capacitance, farads.
    pub fn c0_farads(mut self, c0_farads: f64) -> Self {
        self.c0_farads = c0_farads;
        self
    }

    /// Set the effective electromechanical coupling (0, 1).
    pub fn k_eff(mut self, k: f64) -> Self { // lint: unitless — electromechanical coupling in (0, 1)
        self.k_eff = k;
        self
    }

    /// Build the transducer, validating all parameters.
    pub fn build(self) -> Result<Transducer, PiezoError> {
        if !(self.tx_sensitivity_pa_m_per_v > 0.0) {
            return Err(PiezoError::NonPositive("tx_sensitivity"));
        }
        if !(self.rx_sensitivity_v_per_pa > 0.0) {
            return Err(PiezoError::NonPositive("rx_sensitivity"));
        }
        Ok(Transducer {
            bvd: BvdModel::from_resonance(
                self.resonance_hz,
                self.q,
                self.c0_farads,
                self.k_eff,
            )?,
            geometry: None,
            tx_sensitivity_pa_m_per_v: self.tx_sensitivity_pa_m_per_v,
            rx_sensitivity_v_per_pa: self.rx_sensitivity_v_per_pa,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Transducer {
        /// Receive sensitivity expressed the way hydrophone datasheets do:
        /// dB re 1 V/µPa (at resonance).
        fn rx_sensitivity_db_re_1v_per_upa(&self) -> f64 {
            20.0 * (self.rx_sensitivity_v_per_pa * 1e-6).log10()
        }
    }

    impl TransducerBuilder {
        /// Set transmit sensitivity (Pa·m/V at resonance).
        fn tx_sensitivity(mut self, s_pa_m_per_v: f64) -> Self {
            self.tx_sensitivity_pa_m_per_v = s_pa_m_per_v;
            self
        }

        /// Set receive sensitivity (V/Pa at resonance).
        fn rx_sensitivity(mut self, s_v_per_pa: f64) -> Self {
            self.rx_sensitivity_v_per_pa = s_v_per_pa;
            self
        }
    }

    #[test]
    fn pab_node_resonates_in_band() {
        let t = Transducer::pab_node();
        let f = t.resonance_hz();
        assert!((15_000.0..18_500.0).contains(&f), "f={f}");
    }

    #[test]
    fn short_circuit_fully_reflects() {
        let t = Transducer::pab_node();
        let g = t.reflection_coefficient(Complex64::new(0.0, 0.0), 15_000.0);
        assert!((g.norm() - 1.0).abs() < 1e-9, "|Γ|={}", g.norm());
    }

    #[test]
    fn conjugate_match_absorbs_completely() {
        let t = Transducer::pab_node();
        let zs = t.electrical_impedance(15_000.0);
        let g = t.reflection_coefficient(zs.conj(), 15_000.0);
        assert!(g.norm() < 1e-9, "|Γ|={}", g.norm());
    }

    #[test]
    fn mismatched_load_partially_reflects() {
        let t = Transducer::pab_node();
        let g = t.reflection_coefficient(Complex64::new(50.0, 0.0), 15_000.0);
        assert!(g.norm() > 0.0 && g.norm() < 1.0);
    }

    #[test]
    fn transmit_and_receive_peak_at_resonance() {
        let t = Transducer::pab_node();
        let f0 = t.resonance_hz();
        assert!(
            t.transmit_pressure_at_1m_pa(10.0, f0)
                > t.transmit_pressure_at_1m_pa(10.0, f0 * 1.3)
        );
        assert!(
            t.receive_open_circuit_v(100.0, f0)
                > t.receive_open_circuit_v(100.0, f0 * 0.7)
        );
        // Sensitivity constants apply exactly at resonance.
        assert!(
            (t.transmit_pressure_at_1m_pa(1.0, f0) - t.tx_sensitivity_pa_m_per_v).abs()
                < 1e-9
        );
    }

    #[test]
    fn rx_sensitivity_in_db_is_small_cylinder_class() {
        let t = Transducer::pab_node();
        let db = t.rx_sensitivity_db_re_1v_per_upa();
        // A ~5 cm ceramic cylinder receives around -193 dB re 1V/µPa
        // (weaker than the H2a measurement hydrophone's -180 dB).
        assert!((db - (-193.0)).abs() < 3.0, "db={db}");
    }

    #[test]
    fn builder_customises_resonance() {
        let t = TransducerBuilder::new()
            .resonance_hz(18_000.0)
            .q(10.0)
            .build()
            .unwrap();
        assert!((t.resonance_hz() - 18_000.0).abs() < 1.0);
        assert!((t.bvd.q_factor() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(TransducerBuilder::new().k_eff(2.0).build().is_err());
        assert!(TransducerBuilder::new().tx_sensitivity(-1.0).build().is_err());
        assert!(TransducerBuilder::new().rx_sensitivity(0.0).build().is_err());
        assert!(TransducerBuilder::new().resonance_hz(-4.0).build().is_err());
    }
}
