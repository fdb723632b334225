//! Rectangular-tank multipath via the image-source method (Allen–Berkley
//! style, adapted from room acoustics to water tanks).
//!
//! The water surface is a pressure-release boundary (phase-inverting);
//! walls and bottom reflect with positive coefficients. Magnitudes are
//! effective *specular* coefficients — they fold in the diffuse-scattering
//! loss of a rippled surface and lined tank walls. An elongated tank (the paper's Pool B) produces many
//! near-axial wall images that arrive nearly in phase — the "corridor"
//! focusing the paper observes in Fig. 9.

use crate::propagation::{MultipathChannel, Tap, NEAR_FIELD_LIMIT_M};
use crate::water::WaterProperties;
use crate::ChannelError;

/// A point in pool coordinates: `x ∈ [0, length]`, `y ∈ [0, width]`,
/// `z ∈ [0, depth]` with `z = 0` at the bottom and `z = depth` the surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// Along the long axis, meters.
    pub x_m: f64,
    /// Across the tank, meters.
    pub y_m: f64,
    /// Height above the bottom, meters.
    pub z_m: f64,
}

impl Position {
    /// Convenience constructor.
    pub fn new(x_m: f64, y_m: f64, z_m: f64) -> Self {
        Position { x_m, y_m, z_m }
    }

    /// Euclidean distance to another position.
    // lint: allow(dead-pub) test-oracle direct_path_dominates geometry check for the image-method property
    pub fn distance_to_m(&self, other: &Position) -> f64 {
        ((self.x_m - other.x_m).powi(2) + (self.y_m - other.y_m).powi(2) + (self.z_m - other.z_m).powi(2))
            .sqrt()
    }
}

/// An enclosed rectangular water tank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pool {
    /// Interior length (x), meters.
    pub length_m: f64,
    /// Interior width (y), meters.
    pub width_m: f64,
    /// Water depth (z), meters.
    pub depth_m: f64,
    /// Amplitude reflection coefficient of the four side walls.
    // lint: unitless amplitude reflection coefficient in [-1, 1]
    pub wall_reflection: f64,
    /// Amplitude reflection coefficient of the bottom.
    // lint: unitless amplitude reflection coefficient in [-1, 1]
    pub bottom_reflection: f64,
    /// Amplitude reflection coefficient of the free surface (negative:
    /// pressure-release phase inversion).
    // lint: unitless amplitude reflection coefficient in [-1, 1]
    pub surface_reflection: f64,
    /// Water column properties.
    pub water: WaterProperties,
}

impl Pool {
    /// The paper's Pool A: "an enclosed water tank of 1.3 m depth and
    /// 3 m × 4 m rectangular cross-section".
    pub fn pool_a() -> Self {
        Pool {
            length_m: 4.0,
            width_m: 3.0,
            depth_m: 1.3,
            wall_reflection: 0.45,
            bottom_reflection: 0.4,
            surface_reflection: -0.5,
            water: WaterProperties::tank(),
        }
    }

    /// The paper's Pool B: "another enclosed water tank of 1 m depth and
    /// 1.2 m × 10 m rectangular cross section" — the corridor.
    ///
    /// Reflection coefficients include diffuse-scattering loss at each
    /// boundary (a rippled free surface and lined tank walls scatter a
    /// large fraction of the energy out of the specular path).
    pub fn pool_b() -> Self {
        Pool {
            length_m: 10.0,
            width_m: 1.2,
            depth_m: 1.0,
            wall_reflection: 0.45,
            bottom_reflection: 0.4,
            surface_reflection: -0.5,
            water: WaterProperties::tank(),
        }
    }

    /// Validate that a position lies inside the water volume.
    fn check_position(&self, p: &Position) -> Result<(), ChannelError> {
        let checks = [
            ('x', p.x_m, self.length_m),
            ('y', p.y_m, self.width_m),
            ('z', p.z_m, self.depth_m),
        ];
        for (axis, value, max) in checks {
            if !(0.0..=max).contains(&value) || !value.is_finite() {
                return Err(ChannelError::OutOfBounds { axis, value, max });
            }
        }
        Ok(())
    }

    /// Build the multipath channel from `src` to `rx` with the image-source
    /// method, keeping images with at most `max_reflections` total boundary
    /// bounces. `freq_hz` sets the (tiny) absorption correction.
    ///
    /// `max_reflections = 0` reduces to the free-field direct path.
    pub fn channel(
        &self,
        src: &Position,
        rx: &Position,
        max_reflections: usize,
        freq_hz: f64,
    ) -> Result<MultipathChannel, ChannelError> {
        self.check_position(src)?;
        self.check_position(rx)?;
        if !(freq_hz > 0.0) {
            return Err(ChannelError::InvalidParameter("freq_hz"));
        }
        let c = self.water.sound_speed_m_s();
        let n = max_reflections as i64;
        let mut taps = Vec::new();
        // Image indices: for each axis, image coordinate is
        // (1 - 2p)·s + 2m·L; bounces off the low boundary: |m - p|,
        // off the high boundary: |m|  (Allen & Berkley 1979).
        for mx in -n..=n {
            for px in 0..=1i64 {
                let bounces_x = (mx - px).unsigned_abs() + mx.unsigned_abs();
                if bounces_x as i64 > n {
                    continue;
                }
                let ix = (1 - 2 * px) as f64 * src.x_m + 2.0 * mx as f64 * self.length_m;
                for my in -n..=n {
                    for py in 0..=1i64 {
                        let bounces_y = (my - py).unsigned_abs() + my.unsigned_abs();
                        if (bounces_x + bounces_y) as i64 > n {
                            continue;
                        }
                        let iy =
                            (1 - 2 * py) as f64 * src.y_m + 2.0 * my as f64 * self.width_m;
                        for mz in -n..=n {
                            for pz in 0..=1i64 {
                                let bounce_bottom = (mz - pz).unsigned_abs();
                                let bounce_surface = mz.unsigned_abs();
                                let total =
                                    bounces_x + bounces_y + bounce_bottom + bounce_surface;
                                if total as i64 > n {
                                    continue;
                                }
                                let iz = (1 - 2 * pz) as f64 * src.z_m
                                    + 2.0 * mz as f64 * self.depth_m;
                                let d = ((ix - rx.x_m).powi(2)
                                    + (iy - rx.y_m).powi(2)
                                    + (iz - rx.z_m).powi(2))
                                .sqrt();
                                let refl = self
                                    .wall_reflection
                                    .powi((bounces_x + bounces_y) as i32)
                                    * self.bottom_reflection.powi(bounce_bottom as i32)
                                    * self.surface_reflection.powi(bounce_surface as i32);
                                let gain = refl
                                    * self.water.absorption_amplitude_factor(freq_hz, d)
                                    / d.max(NEAR_FIELD_LIMIT_M);
                                taps.push(Tap {
                                    delay_s: d / c,
                                    gain,
                                });
                            }
                        }
                    }
                }
            }
        }
        MultipathChannel::new(taps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_dimensions_match_paper() {
        let a = Pool::pool_a();
        assert_eq!((a.length_m, a.width_m, a.depth_m), (4.0, 3.0, 1.3));
        let b = Pool::pool_b();
        assert_eq!((b.length_m, b.width_m, b.depth_m), (10.0, 1.2, 1.0));
    }

    #[test]
    fn zero_order_is_direct_path_only() {
        let p = Pool::pool_a();
        let src = Position::new(1.0, 1.5, 0.6);
        let rx = Position::new(3.0, 1.5, 0.6);
        let ch = p.channel(&src, &rx, 0, 15_000.0).unwrap();
        assert_eq!(ch.taps().len(), 1);
        let d = src.distance_to_m(&rx);
        assert!((ch.direct().delay_s - d / p.water.sound_speed_m_s()).abs() < 1e-9);
    }

    #[test]
    fn higher_order_adds_taps() {
        let p = Pool::pool_a();
        let src = Position::new(1.0, 1.5, 0.6);
        let rx = Position::new(3.0, 1.5, 0.6);
        let n0 = p.channel(&src, &rx, 0, 15_000.0).unwrap().taps().len();
        let n1 = p.channel(&src, &rx, 1, 15_000.0).unwrap().taps().len();
        let n3 = p.channel(&src, &rx, 3, 15_000.0).unwrap().taps().len();
        assert_eq!(n0, 1);
        // Order 1: direct + 6 first-order bounces.
        assert_eq!(n1, 7);
        assert!(n3 > n1);
    }

    #[test]
    fn first_bounce_gains_have_expected_signs() {
        let p = Pool::pool_a();
        let src = Position::new(1.0, 1.5, 0.6);
        let rx = Position::new(3.0, 1.5, 0.6);
        let ch = p.channel(&src, &rx, 1, 15_000.0).unwrap();
        // Exactly one tap (surface bounce) should be negative.
        let negatives = ch.taps().iter().filter(|t| t.gain < 0.0).count();
        assert_eq!(negatives, 1);
        // Direct tap is the strongest.
        let max_gain = ch
            .taps()
            .iter()
            .map(|t| t.gain.abs())
            .fold(0.0f64, f64::max);
        assert!((ch.direct().gain - max_gain).abs() < 1e-12);
    }

    #[test]
    fn corridor_focuses_energy_at_range() {
        // At the same 4 m separation, elongated Pool B should deliver more
        // multipath energy than the wide Pool A — the Fig. 9 corridor
        // effect.
        let d = 3.0;
        let a = Pool::pool_a();
        let b = Pool::pool_b();
        let cha = a
            .channel(
                &Position::new(0.5, 1.5, 0.6),
                &Position::new(0.5 + d, 1.5, 0.6),
                6,
                15_000.0,
            )
            .unwrap();
        let chb = b
            .channel(
                &Position::new(1.0, 0.6, 0.5),
                &Position::new(1.0 + d, 0.6, 0.5),
                6,
                15_000.0,
            )
            .unwrap();
        assert!(
            chb.total_energy_gain() > cha.total_energy_gain(),
            "pool B {} <= pool A {}",
            chb.total_energy_gain(),
            cha.total_energy_gain()
        );
    }

    #[test]
    fn out_of_bounds_positions_rejected() {
        let p = Pool::pool_a();
        let inside = Position::new(1.0, 1.0, 0.5);
        let outside = Position::new(5.0, 1.0, 0.5);
        assert!(p.channel(&outside, &inside, 1, 15_000.0).is_err());
        assert!(p.channel(&inside, &outside, 1, 15_000.0).is_err());
        assert!(p
            .channel(&inside, &Position::new(1.0, 1.0, 2.0), 1, 15_000.0)
            .is_err());
        assert!(p.channel(&inside, &inside, 1, 0.0).is_err());
    }

    #[test]
    fn position_distance() {
        let a = Position::new(0.0, 0.0, 0.0);
        let b = Position::new(3.0, 4.0, 0.0);
        assert!((a.distance_to_m(&b) - 5.0).abs() < 1e-12);
    }
}
