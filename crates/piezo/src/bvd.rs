//! Butterworth–Van Dyke equivalent circuit of a piezoelectric resonator.

use crate::PiezoError;
use num_complex::Complex64;
use std::f64::consts::TAU;

/// BVD lumped model: static capacitance `C0` in parallel with a series
/// `R1`-`L1`-`C1` motional branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BvdModel {
    /// Static (clamped) capacitance, farads.
    pub c0_farads: f64,
    /// Motional resistance, ohms (mechanical + radiation loss).
    pub r1_ohms: f64,
    /// Motional inductance, henries (moving mass).
    pub l1_henries: f64,
    /// Motional capacitance, farads (mechanical compliance).
    pub c1_farads: f64,
}

impl BvdModel {
    /// Construct directly from the four lumped elements.
    pub fn new(
        c0_farads: f64,
        r1_ohms: f64,
        l1_henries: f64,
        c1_farads: f64,
    ) -> Result<Self, PiezoError> {
        for (v, name) in [
            (c0_farads, "c0"),
            (r1_ohms, "r1"),
            (l1_henries, "l1"),
            (c1_farads, "c1"),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(PiezoError::NonPositive(name));
            }
        }
        Ok(BvdModel {
            c0_farads,
            r1_ohms,
            l1_henries,
            c1_farads,
        })
    }

    /// Synthesize a BVD model from measurable quantities:
    /// series-resonance frequency `fs_hz`, mechanical quality factor `q`,
    /// static capacitance `c0`, and effective electromechanical coupling
    /// `k_eff` in (0, 1).
    ///
    /// Uses `C1 = C0 k² / (1 - k²)`, `L1 = 1 / (ωs² C1)`, `R1 = ωs L1 / Q`.
    pub fn from_resonance(
        fs_hz: f64,
        q: f64,         // lint: unitless — mechanical quality factor
        c0_farads: f64,
        k_eff: f64,     // lint: unitless — electromechanical coupling in (0, 1)
    ) -> Result<Self, PiezoError> {
        if !(fs_hz > 0.0) {
            return Err(PiezoError::NonPositive("fs_hz"));
        }
        if !(q > 0.0) {
            return Err(PiezoError::NonPositive("q"));
        }
        if !(c0_farads > 0.0) {
            return Err(PiezoError::NonPositive("c0"));
        }
        if !(k_eff > 0.0 && k_eff < 1.0) {
            return Err(PiezoError::CouplingOutOfRange(k_eff));
        }
        let ws = TAU * fs_hz;
        let c1 = c0_farads * k_eff * k_eff / (1.0 - k_eff * k_eff);
        let l1 = 1.0 / (ws * ws * c1);
        let r1 = ws * l1 / q;
        BvdModel::new(c0_farads, r1, l1, c1)
    }

    /// Impedance of the motional (series R-L-C) branch at `freq_hz`.
    fn motional_impedance(&self, freq_hz: f64) -> Complex64 {
        let w = TAU * freq_hz;
        Complex64::new(self.r1_ohms, w * self.l1_henries - 1.0 / (w * self.c1_farads))
    }

    /// Total electrical impedance seen at the terminals at `freq_hz`
    /// (motional branch in parallel with C0).
    pub fn impedance(&self, freq_hz: f64) -> Complex64 {
        let w = TAU * freq_hz;
        let z_mot = self.motional_impedance(freq_hz);
        let z_c0 = Complex64::new(0.0, -1.0 / (w * self.c0_farads));
        z_mot * z_c0 / (z_mot + z_c0)
    }

    /// Series (mechanical) resonance frequency, where the motional branch
    /// is purely resistive: `fs = 1 / (2π √(L1 C1))`.
    pub fn series_resonance_hz(&self) -> f64 {
        1.0 / (TAU * (self.l1_henries * self.c1_farads).sqrt())
    }

    /// Parallel (anti-)resonance frequency:
    /// `fp = fs √(1 + C1/C0)`.
    // lint: allow(dead-pub) test-oracle bvd_synthesis_roundtrips
    pub fn parallel_resonance_hz(&self) -> f64 {
        self.series_resonance_hz() * (1.0 + self.c1_farads / self.c0_farads).sqrt()
    }

    /// Mechanical quality factor `Q = ωs L1 / R1`.
    // lint: unitless mechanical quality factor
    pub fn q_factor(&self) -> f64 { // lint: allow(dead-pub) test-oracle bvd_synthesis_roundtrips
        TAU * self.series_resonance_hz() * self.l1_henries / self.r1_ohms
    }

    /// Effective electromechanical coupling implied by the element values:
    /// `k² = C1 / (C0 + C1)`.
    // lint: unitless electromechanical coupling coefficient in (0, 1)
    pub fn coupling_k_eff(&self) -> f64 { // lint: allow(dead-pub) test-oracle bvd_synthesis_roundtrips
        (self.c1_farads / (self.c0_farads + self.c1_farads)).sqrt()
    }

    /// -3 dB mechanical bandwidth around series resonance, `fs / Q`.
    pub fn bandwidth_hz(&self) -> f64 {
        self.series_resonance_hz() / self.q_factor()
    }

    /// Normalised mechanical (motional-branch) response at `freq_hz`:
    /// `|Y_mot(f)| / |Y_mot(fs)| = R1 / |Z_mot(f)|`, a Lorentzian equal to
    /// 1 at resonance. This is the "geometric resonance acts as a bandpass
    /// filter" factor of the paper's footnote 5.
    // lint: unitless normalized Lorentzian response, 1 at resonance
    pub fn mechanical_response(&self, freq_hz: f64) -> f64 {
        if !(freq_hz > 0.0) {
            return 0.0;
        }
        self.r1_ohms / self.motional_impedance(freq_hz).norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steminc_like() -> BvdModel {
        BvdModel::from_resonance(16_500.0, 8.0, 10e-9, 0.35).unwrap()
    }

    #[test]
    fn from_resonance_roundtrips_parameters() {
        let m = steminc_like();
        assert!((m.series_resonance_hz() - 16_500.0).abs() < 1.0);
        assert!((m.q_factor() - 8.0).abs() < 1e-6);
        assert!((m.coupling_k_eff() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn parallel_resonance_above_series() {
        let m = steminc_like();
        assert!(m.parallel_resonance_hz() > m.series_resonance_hz());
        let expected = 16_500.0 * (1.0 + m.c1_farads / m.c0_farads).sqrt();
        assert!((m.parallel_resonance_hz() - expected).abs() < 1.0);
    }

    #[test]
    fn impedance_minimum_near_series_resonance() {
        let m = steminc_like();
        let fs = m.series_resonance_hz();
        let at_res = m.impedance(fs).norm();
        let below = m.impedance(fs * 0.8).norm();
        let above = m.impedance(fs * 1.25).norm();
        assert!(at_res < below, "at_res={at_res} below={below}");
        assert!(at_res < above, "at_res={at_res} above={above}");
    }

    #[test]
    fn impedance_capacitive_far_from_resonance() {
        let m = steminc_like();
        // Far below resonance the device looks like C0 + C1 in parallel...
        let z = m.impedance(1_000.0);
        assert!(z.im < 0.0, "should be capacitive, z={z}");
        // ... and far above, like C0.
        let z_hi = m.impedance(200_000.0);
        let w = TAU * 200_000.0;
        assert!((z_hi.im + 1.0 / (w * m.c0_farads)).abs() / (1.0 / (w * m.c0_farads)) < 0.05);
    }

    #[test]
    fn mechanical_response_is_unity_at_resonance_and_rolls_off() {
        let m = steminc_like();
        let fs = m.series_resonance_hz();
        assert!((m.mechanical_response(fs) - 1.0).abs() < 1e-9);
        // Half-power at fs ± fs/(2Q).
        let half_bw = m.bandwidth_hz() / 2.0;
        let r = m.mechanical_response(fs + half_bw);
        assert!((r - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02, "r={r}");
        assert!(m.mechanical_response(fs * 2.0) < 0.2);
        assert_eq!(m.mechanical_response(0.0), 0.0);
        assert_eq!(m.mechanical_response(-5.0), 0.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(BvdModel::new(0.0, 1.0, 1.0, 1.0).is_err());
        assert!(BvdModel::new(1e-9, -1.0, 1.0, 1.0).is_err());
        assert!(BvdModel::from_resonance(0.0, 8.0, 1e-9, 0.3).is_err());
        assert!(BvdModel::from_resonance(15e3, 0.0, 1e-9, 0.3).is_err());
        assert!(BvdModel::from_resonance(15e3, 8.0, 1e-9, 1.0).is_err());
        assert!(BvdModel::from_resonance(15e3, 8.0, 1e-9, 0.0).is_err());
    }

    #[test]
    fn higher_q_means_narrower_bandwidth() {
        let lo_q = BvdModel::from_resonance(15_000.0, 5.0, 10e-9, 0.3).unwrap();
        let hi_q = BvdModel::from_resonance(15_000.0, 50.0, 10e-9, 0.3).unwrap();
        assert!(hi_q.bandwidth_hz() < lo_q.bandwidth_hz());
        assert!(
            hi_q.mechanical_response(16_000.0) < lo_q.mechanical_response(16_000.0)
        );
    }
}
