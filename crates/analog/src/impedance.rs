//! Complex impedance algebra for the front-end circuit analysis.

use num_complex::Complex64;
use std::f64::consts::TAU;

/// Impedance of an inductor `l_henries` at `freq_hz`.
pub fn inductor(l_henries: f64, freq_hz: f64) -> Complex64 {
    Complex64::new(0.0, TAU * freq_hz * l_henries)
}

/// Impedance of a capacitor `c_farads` at `freq_hz`.
pub fn capacitor(c_farads: f64, freq_hz: f64) -> Complex64 {
    Complex64::new(0.0, -1.0 / (TAU * freq_hz * c_farads))
}

/// Impedance of a resistor.
pub fn resistor(r_ohms: f64) -> Complex64 {
    Complex64::new(r_ohms, 0.0)
}

/// Series combination.
pub fn series(a: Complex64, b: Complex64) -> Complex64 {
    a + b
}

/// Parallel combination. Returns zero if either branch is zero.
pub fn parallel(a: Complex64, b: Complex64) -> Complex64 {
    let denom = a + b;
    if denom.norm() == 0.0 {
        Complex64::new(0.0, 0.0)
    } else {
        a * b / denom
    }
}

/// Power (watts) delivered to load `z_load` by a source with open-circuit
/// voltage amplitude `voc_volts` and impedance `z_source`.
// lint: allow(dead-pub) test-oracle no_load_beats_available_power_w closed-form delivered power the matching property bounds
pub fn delivered_power_w(voc_volts: f64, z_source: Complex64, z_load: Complex64) -> f64 {
    let total = z_source + z_load;
    if total.norm() == 0.0 {
        return 0.0;
    }
    let i = voc_volts / total.norm();
    0.5 * i * i * z_load.re
}

/// Maximum available power from a source (delivered under conjugate
/// match): `Voc² / (8 Rs)`.
// lint: allow(dead-pub) test-oracle lmatch_achieves_available_power_w conjugate-match bound for the matching properties
pub fn available_power_w(voc_volts: f64, z_source: Complex64) -> f64 {
    if z_source.re <= 0.0 {
        return 0.0;
    }
    voc_volts * voc_volts / (8.0 * z_source.re)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mismatch efficiency: delivered / available power, in `[0, 1]`.
    fn mismatch_efficiency(z_source: Complex64, z_load: Complex64) -> f64 {
        if z_source.re <= 0.0 || z_load.re <= 0.0 {
            return 0.0;
        }
        let total = z_source + z_load;
        let denom = total.norm_sqr();
        if denom == 0.0 {
            return 0.0;
        }
        4.0 * z_source.re * z_load.re / denom
    }

    #[test]
    fn component_impedances() {
        let zl = inductor(1e-3, 1_000.0);
        assert!((zl.im - TAU * 1.0).abs() < 1e-9);
        let zc = capacitor(1e-6, 1_000.0);
        assert!((zc.im + 1.0 / (TAU * 1e-3)).abs() < 1e-6);
        assert_eq!(resistor(50.0), Complex64::new(50.0, 0.0));
    }

    #[test]
    fn lc_series_resonates() {
        let f0 = 15_000.0;
        let l = 1e-3;
        let c = 1.0 / ((TAU * f0).powi(2) * l);
        let z = series(inductor(l, f0), capacitor(c, f0));
        assert!(z.norm() < 1e-6, "z={z}");
    }

    #[test]
    fn parallel_of_equal_resistors_halves() {
        let z = parallel(resistor(100.0), resistor(100.0));
        assert!((z.re - 50.0).abs() < 1e-12);
        assert_eq!(parallel(resistor(0.0), resistor(0.0)), Complex64::new(0.0, 0.0));
    }

    #[test]
    fn conjugate_match_delivers_available_power_w() {
        let zs = Complex64::new(700.0, 300.0);
        let voc_volts = 2.0;
        let p_matched = delivered_power_w(voc_volts, zs, zs.conj());
        assert!((p_matched - available_power_w(voc_volts, zs)).abs() / p_matched < 1e-9);
        assert!((mismatch_efficiency(zs, zs.conj()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mismatch_reduces_power() {
        let zs = Complex64::new(700.0, 300.0);
        let eff = mismatch_efficiency(zs, resistor(50.0));
        assert!(eff > 0.0 && eff < 1.0);
        assert_eq!(mismatch_efficiency(zs, resistor(0.0)), 0.0);
        assert_eq!(mismatch_efficiency(Complex64::new(0.0, 5.0), resistor(50.0)), 0.0);
    }

    #[test]
    fn degenerate_sources() {
        assert_eq!(available_power_w(1.0, Complex64::new(0.0, 10.0)), 0.0);
        assert_eq!(
            delivered_power_w(1.0, Complex64::new(1.0, 0.0), Complex64::new(-1.0, 0.0)),
            0.0
        );
    }
}
