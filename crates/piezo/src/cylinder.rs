//! Radial-mode cylinder geometry: relates physical dimensions to the
//! resonance frequency, reproducing the size/frequency trade-off the paper
//! discusses in §4.1 ("the dimensions of the resonator are inversely
//! proportional to its frequency", with the 500 Hz / 3600× example of
//! footnote 8).

use crate::PiezoError;
use std::f64::consts::PI;

/// Geometry of a radially poled piezoelectric cylinder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CylinderGeometry {
    /// Mean radius of the cylinder wall, meters.
    pub mean_radius_m: f64,
    /// Cylinder length (height), meters.
    pub length_m: f64,
    /// Wall thickness, meters.
    pub wall_thickness_m: f64,
}

/// Speed of sound in the ceramic for the radial "hoop" mode, m/s.
/// PZT-4-like value `sqrt(1/(s11^E * rho))`.
const CERAMIC_SOUND_SPEED_M_S: f64 = 2_900.0;

impl CylinderGeometry {
    /// Create a geometry; all dimensions must be positive.
    pub fn new(
        mean_radius_m: f64,
        length_m: f64,
        wall_thickness_m: f64,
    ) -> Result<Self, PiezoError> {
        for (v, name) in [
            (mean_radius_m, "mean_radius_m"),
            (length_m, "length_m"),
            (wall_thickness_m, "wall_thickness_m"),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(PiezoError::NonPositive(name));
            }
        }
        Ok(CylinderGeometry {
            mean_radius_m,
            length_m,
            wall_thickness_m,
        })
    }

    /// The paper's Steminc SMC5447T40111 cylinder: 54.1 mm outer diameter,
    /// 47 mm inner diameter, 40 mm length — 17 kHz in-air radial resonance.
    pub fn steminc_17khz() -> Self {
        CylinderGeometry {
            mean_radius_m: (54.1e-3 + 47.0e-3) / 4.0, // mean diameter / 2
            length_m: 40.0e-3,
            wall_thickness_m: (54.1e-3 - 47.0e-3) / 2.0,
        }
    }

    /// In-air radial ("breathing") mode resonance:
    /// `f = c_ceramic / (2π a)` where `a` is the mean radius.
    fn in_air_resonance_hz(&self) -> f64 {
        CERAMIC_SOUND_SPEED_M_S / (2.0 * PI * self.mean_radius_m)
    }

    /// In-water resonance. Potting and radiation mass-load the shell and
    /// pull the resonance a few percent below the in-air value; the
    /// `loading_factor` (default [`DEFAULT_WATER_LOADING`]) captures that.
    pub fn in_water_resonance_hz(&self, loading_factor: f64) -> f64 { // lint: unitless — fractional resonance pull
        self.in_air_resonance_hz() * loading_factor
    }
}

/// Frequency pulling factor from water loading + polyurethane potting.
// lint: unitless frequency pulling factor, close to 1
pub const DEFAULT_WATER_LOADING: f64 = 0.97;

#[cfg(test)]
mod tests {
    use super::*;

    impl CylinderGeometry {
        /// Scale the geometry so its in-air resonance becomes `target_hz`
        /// (all dimensions scale inversely with frequency).
        fn scaled_to_resonance(&self, target_hz: f64) -> Result<Self, PiezoError> {
            if !(target_hz > 0.0) {
                return Err(PiezoError::NonPositive("target_hz"));
            }
            let ratio = self.in_air_resonance_hz() / target_hz;
            CylinderGeometry::new(
                self.mean_radius_m * ratio,
                self.length_m * ratio,
                self.wall_thickness_m * ratio,
            )
        }

        /// Approximate volume of ceramic material, m³ (for size comparisons).
        fn material_volume_m3(&self) -> f64 {
            2.0 * PI * self.mean_radius_m * self.wall_thickness_m * self.length_m
        }
    }

    #[test]
    fn steminc_resonates_near_17khz_in_air() {
        let g = CylinderGeometry::steminc_17khz();
        let f = g.in_air_resonance_hz();
        // 2900 / (2π · 0.0253) ≈ 18.3 kHz; the simple hoop formula lands
        // within ~10% of the datasheet's 17 kHz.
        assert!((f - 17_000.0).abs() / 17_000.0 < 0.12, "f={f}");
    }

    #[test]
    fn water_loading_lowers_resonance() {
        let g = CylinderGeometry::steminc_17khz();
        assert!(g.in_water_resonance_hz(DEFAULT_WATER_LOADING) < g.in_air_resonance_hz());
    }

    #[test]
    fn resonance_scales_inversely_with_size() {
        let g = CylinderGeometry::steminc_17khz();
        let big = CylinderGeometry::new(
            g.mean_radius_m * 2.0,
            g.length_m * 2.0,
            g.wall_thickness_m * 2.0,
        )
        .unwrap();
        assert!(
            (big.in_air_resonance_hz() - g.in_air_resonance_hz() / 2.0).abs() < 1.0
        );
    }

    #[test]
    fn scaled_to_resonance_hits_target() {
        let g = CylinderGeometry::steminc_17khz();
        let low = g.scaled_to_resonance(500.0).unwrap();
        assert!((low.in_air_resonance_hz() - 500.0).abs() < 0.5);
        // Footnote 8: a 500 Hz resonator is enormously larger. Volume scales
        // as the cube of the linear ratio (~34x), i.e. ~39000x the volume.
        let ratio = low.material_volume_m3() / g.material_volume_m3();
        assert!(ratio > 1_000.0, "ratio={ratio}");
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(CylinderGeometry::new(0.0, 0.04, 0.003).is_err());
        assert!(CylinderGeometry::new(0.025, -1.0, 0.003).is_err());
        assert!(CylinderGeometry::steminc_17khz()
            .scaled_to_resonance(0.0)
            .is_err());
    }
}
