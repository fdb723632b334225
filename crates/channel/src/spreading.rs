//! Geometric spreading laws.
//!
//! Free-field point sources spread spherically (20 log d); shallow
//! waveguides spread cylindrically (10 log d) once range exceeds the water
//! depth; practical models interpolate with a spreading exponent `k`
//! (transmission loss `= 10 k log10 d`). Pool B's corridor behaviour in
//! Fig. 9 is an extreme case that the image method in [`crate::pool`]
//! captures explicitly; these laws cover open-water scenarios.

use crate::ChannelError;

/// Spreading law selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spreading {
    /// Spherical: amplitude ∝ 1/d (k = 2 in TL terms).
    Spherical,
    /// Cylindrical: amplitude ∝ 1/√d (k = 1).
    Cylindrical,
    /// Practical spreading with exponent `k` (TL = 10·k·log10 d);
    /// k = 1.5 is the usual compromise for shallow water.
    Practical(f64),
}

impl Spreading {
    /// The spreading exponent `k` of this law.
    fn exponent(self) -> f64 {
        match self {
            Spreading::Spherical => 2.0,
            Spreading::Cylindrical => 1.0,
            Spreading::Practical(k) => k,
        }
    }

    /// Amplitude factor relative to 1 m, at `distance_m`.
    ///
    /// Distances below 1 m are clamped to 1 m (source levels are referenced
    /// to 1 m; nearer fields are not modelled).
    // lint: allow(dead-pub) test-oracle spreading_monotone the spreading law the monotonicity property checks
    pub fn amplitude_factor(self, distance_m: f64) -> Result<f64, ChannelError> {
        if !(distance_m > 0.0) || !distance_m.is_finite() {
            return Err(ChannelError::InvalidParameter("distance_m"));
        }
        let d = distance_m.max(1.0);
        Ok(d.powf(-self.exponent() / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Spreading {
        /// Transmission loss in dB at `distance_m` relative to 1 m.
        fn transmission_loss_db(self, distance_m: f64) -> Result<f64, ChannelError> {
            if !(distance_m > 0.0) || !distance_m.is_finite() {
                return Err(ChannelError::InvalidParameter("distance_m"));
            }
            let d = distance_m.max(1.0);
            Ok(10.0 * self.exponent() * d.log10())
        }
    }

    #[test]
    fn spherical_is_inverse_distance() {
        let s = Spreading::Spherical;
        assert!((s.amplitude_factor(10.0).unwrap() - 0.1).abs() < 1e-12);
        assert!((s.transmission_loss_db(10.0).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn cylindrical_is_inverse_sqrt_distance() {
        let s = Spreading::Cylindrical;
        assert!((s.amplitude_factor(100.0).unwrap() - 0.1).abs() < 1e-12);
        assert!((s.transmission_loss_db(100.0).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn practical_interpolates() {
        let s = Spreading::Practical(1.5);
        let sph = Spreading::Spherical.amplitude_factor(50.0).unwrap();
        let cyl = Spreading::Cylindrical.amplitude_factor(50.0).unwrap();
        let p = s.amplitude_factor(50.0).unwrap();
        assert!(sph < p && p < cyl);
    }

    #[test]
    fn near_field_clamped_to_reference() {
        let s = Spreading::Spherical;
        assert_eq!(s.amplitude_factor(0.3).unwrap(), 1.0);
        assert_eq!(s.transmission_loss_db(0.5).unwrap(), 0.0);
    }

    #[test]
    fn rejects_nonpositive_distance() {
        assert!(Spreading::Spherical.amplitude_factor(0.0).is_err());
        assert!(Spreading::Spherical.amplitude_factor(-3.0).is_err());
        assert!(Spreading::Spherical
            .transmission_loss_db(f64::NAN)
            .is_err());
    }
}
