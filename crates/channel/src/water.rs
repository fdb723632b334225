//! Physical properties of the water column: sound speed, density,
//! absorption.

/// Bulk water properties used by the propagation models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterProperties {
    /// Temperature, degrees Celsius.
    pub temperature_c: f64,
    /// Salinity, parts per thousand (0 for the paper's fresh-water tanks,
    /// ~35 for sea water).
    pub salinity_ppt: f64,
    /// Depth of interest, meters.
    pub depth_m: f64,
}

impl WaterProperties {
    /// Fresh tap water at room temperature — the MIT Sea Grant tanks.
    pub fn tank() -> Self {
        WaterProperties {
            temperature_c: 20.0,
            salinity_ppt: 0.0,
            depth_m: 0.75,
        }
    }

    /// Standard sea water near the surface.
    pub fn seawater() -> Self {
        WaterProperties {
            temperature_c: 13.0,
            salinity_ppt: 35.0,
            depth_m: 10.0,
        }
    }

    /// Speed of sound via the Mackenzie (1981) nine-term equation, m/s.
    /// Valid for 2–30 °C, 25–40 ppt, 0–8000 m; degrades gracefully outside.
    pub fn sound_speed_m_s(&self) -> f64 {
        let t = self.temperature_c;
        let s = self.salinity_ppt;
        let d = self.depth_m;
        1448.96 + 4.591 * t - 5.304e-2 * t * t + 2.374e-4 * t * t * t
            + 1.340 * (s - 35.0)
            + 1.630e-2 * d
            + 1.675e-7 * d * d
            - 1.025e-2 * t * (s - 35.0)
            - 7.139e-13 * t * d * d * d
    }

    /// Density of water, kg/m³ (simple linear salinity/temperature model).
    pub fn density_kg_m3(&self) -> f64 {
        998.2 - 0.2 * (self.temperature_c - 20.0) + 0.76 * self.salinity_ppt
    }

    /// Thorp absorption coefficient at `freq_hz`, in dB/km.
    ///
    /// The classic formula (f in kHz):
    /// `α = 0.11 f²/(1+f²) + 44 f²/(4100+f²) + 2.75e-4 f² + 0.003`.
    /// At PAB's 12–18 kHz this is ~1–3 dB/km — negligible over 10 m, but
    /// included so ocean-scale scenarios stay honest.
    // lint: allow(dead-pub) test-oracle thorp_monotone absorption law the monotonicity property checks
    pub fn thorp_absorption_db_per_km(&self, freq_hz: f64) -> f64 {
        let f = (freq_hz / 1000.0).max(0.0);
        let f2 = f * f;
        0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003
    }

    /// Linear amplitude attenuation factor over `distance_m` at `freq_hz`
    /// due to absorption only (spreading handled separately).
    // lint: unitless linear amplitude attenuation factor in (0, 1]
    pub fn absorption_amplitude_factor(&self, freq_hz: f64, distance_m: f64) -> f64 {
        let db = self.thorp_absorption_db_per_km(freq_hz) * distance_m / 1000.0;
        10f64.powf(-db / 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WaterProperties {
        /// Characteristic acoustic impedance `ρc`, rayl (Pa·s/m).
        fn acoustic_impedance_rayl(&self) -> f64 {
            self.density_kg_m3() * self.sound_speed_m_s()
        }
    }

    #[test]
    fn sound_speed_in_tank_near_1482() {
        let c = WaterProperties::tank().sound_speed_m_s();
        // Fresh water at 20 C: Mackenzie extrapolates to ~1447 + ... the
        // well-known value is ~1482 m/s; the salinity extrapolation pulls
        // it down somewhat. Accept the physically sane band.
        assert!((1400.0..1500.0).contains(&c), "c={c}");
    }

    #[test]
    fn sound_speed_in_seawater_near_1500() {
        let c = WaterProperties::seawater().sound_speed_m_s();
        assert!((1480.0..1520.0).contains(&c), "c={c}");
    }

    #[test]
    fn warmer_water_is_faster() {
        let cold = WaterProperties {
            temperature_c: 5.0,
            ..WaterProperties::seawater()
        };
        let warm = WaterProperties {
            temperature_c: 25.0,
            ..WaterProperties::seawater()
        };
        assert!(warm.sound_speed_m_s() > cold.sound_speed_m_s());
    }

    #[test]
    fn thorp_absorption_grows_with_frequency() {
        let w = WaterProperties::seawater();
        let a1 = w.thorp_absorption_db_per_km(1_000.0);
        let a15 = w.thorp_absorption_db_per_km(15_000.0);
        let a100 = w.thorp_absorption_db_per_km(100_000.0);
        assert!(a1 < a15 && a15 < a100);
        // Around 15 kHz Thorp gives a few dB/km.
        assert!((1.0..5.0).contains(&a15), "a15={a15}");
    }

    #[test]
    fn absorption_negligible_over_tank_scales() {
        let w = WaterProperties::tank();
        let f = w.absorption_amplitude_factor(15_000.0, 10.0);
        assert!(f > 0.995, "f={f}");
        assert!(f <= 1.0);
    }

    #[test]
    fn impedance_near_1_5_mrayl() {
        let z = WaterProperties::tank().acoustic_impedance_rayl();
        assert!((1.4e6..1.6e6).contains(&z), "z={z}");
    }
}
