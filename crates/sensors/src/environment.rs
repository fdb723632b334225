//! The ground-truth water conditions a deployed node would measure.

/// Instantaneous water conditions at the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterSample {
    /// Acidity, pH units.
    pub ph: f64,
    /// Temperature, degrees Celsius.
    pub temperature_c: f64,
    /// Absolute pressure, millibar.
    pub pressure_mbar: f64,
}

impl WaterSample {
    /// The paper's bench conditions (§6.5): neutral pH 7, room temperature,
    /// atmospheric pressure (~1 bar).
    pub fn bench() -> Self {
        WaterSample {
            ph: 7.0,
            temperature_c: 22.0,
            pressure_mbar: 1_013.25,
        }
    }

    /// Conditions at `depth_m` below the surface: hydrostatic pressure on
    /// top of 1 atm, with `density_kg_m3` water (≈998 fresh, ≈1025 sea).
    pub fn at_depth(ph: f64, temperature_c: f64, depth_m: f64, density_kg_m3: f64) -> Self {
        let hydro_pa = density_kg_m3 * 9.80665 * depth_m.max(0.0);
        WaterSample {
            ph,
            temperature_c,
            pressure_mbar: 1_013.25 + hydro_pa / 100.0,
        }
    }

    /// Depth implied by the pressure reading, meters (inverse of
    /// [`WaterSample::at_depth`]).
    // lint: allow(dead-pub) test-oracle depth_roundtrip
    pub fn implied_depth_m(&self, density_kg_m3: f64) -> f64 {
        ((self.pressure_mbar - 1_013.25) * 100.0 / (density_kg_m3 * 9.80665)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_is_one_atmosphere() {
        let s = WaterSample::bench();
        assert!((s.pressure_mbar - 1013.25).abs() < 1e-9);
        assert_eq!(s.ph, 7.0);
    }

    #[test]
    fn ten_meters_is_about_two_atmospheres() {
        let s = WaterSample::at_depth(8.1, 13.0, 10.0, 1025.0);
        assert!((s.pressure_mbar - 2018.0).abs() < 10.0, "{}", s.pressure_mbar);
    }

    #[test]
    fn depth_roundtrips() {
        let s = WaterSample::at_depth(7.0, 20.0, 3.7, 998.0);
        assert!((s.implied_depth_m(998.0) - 3.7).abs() < 1e-9);
        assert_eq!(WaterSample::bench().implied_depth_m(998.0), 0.0);
    }

    #[test]
    fn negative_depth_clamped() {
        let s = WaterSample::at_depth(7.0, 20.0, -5.0, 998.0);
        assert!((s.pressure_mbar - 1013.25).abs() < 1e-9);
    }
}
