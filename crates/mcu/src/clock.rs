//! The crystal clock and the integer-divider bitrate grid.

use crate::McuError;

/// The MCU's timer clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// Crystal frequency, Hz (32.768 kHz watch crystal on the PAB node).
    pub frequency_hz: f64,
}

impl Clock {
    /// The PAB node's 32.768 kHz crystal (§4.2.2: "one active clock using
    /// a crystal oscillator operating at 32.8 kHz").
    pub fn watch_crystal() -> Self {
        Clock {
            frequency_hz: 32_768.0,
        }
    }

    /// Construct a clock with validation.
    pub fn new(frequency_hz: f64) -> Result<Self, McuError> {
        if !(frequency_hz > 0.0) || !frequency_hz.is_finite() {
            return Err(McuError::NonPositive("frequency_hz"));
        }
        Ok(Clock { frequency_hz })
    }

    /// Duration of `counts` timer ticks, seconds.
    pub fn ticks_to_seconds(&self, counts: u64) -> f64 {
        counts as f64 / self.frequency_hz
    }

    /// Number of whole timer ticks in `seconds` (floor).
    pub fn seconds_to_ticks(&self, seconds: f64) -> u64 {
        (seconds * self.frequency_hz).floor().max(0.0) as u64
    }

    /// FM0 signalling toggles the switch every half bit, so a divider of
    /// `n` timer ticks per half bit gives `bitrate = f_clk / (2 n)`.
    pub fn bitrate_for_divider(&self, divider: u64) -> Result<f64, McuError> {
        if divider == 0 {
            return Err(McuError::ZeroTimerPeriod);
        }
        Ok(self.frequency_hz / (2.0 * divider as f64))
    }

    /// The divider whose bitrate is closest to `target_bps` (footnote 13:
    /// only the integer grid is reachable).
    pub fn divider_for_bitrate(&self, target_bps: f64) -> Result<u64, McuError> {
        if !(target_bps > 0.0) {
            return Err(McuError::NonPositive("target_bps"));
        }
        let ideal = self.frequency_hz / (2.0 * target_bps);
        let lo = ideal.floor().max(1.0) as u64;
        let hi = lo + 1;
        // lint: allow(no-unwrap-in-lib) lo >= 1, so both candidate dividers are valid
        let err = |d: u64| (self.bitrate_for_divider(d).unwrap() - target_bps).abs();
        Ok(if err(lo) <= err(hi) { lo } else { hi })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Clock {
        /// The achievable bitrate closest to `target_bps`.
        fn quantized_bitrate(&self, target_bps: f64) -> Result<f64, McuError> {
            self.bitrate_for_divider(self.divider_for_bitrate(target_bps)?)
        }

        /// All achievable bitrates in `[min_bps, max_bps]`, ascending.
        fn available_bitrates(&self, min_bps: f64, max_bps: f64) -> Vec<f64> {
            if !(min_bps > 0.0) || max_bps < min_bps {
                return Vec::new();
            }
            let d_min = (self.frequency_hz / (2.0 * max_bps)).ceil().max(1.0) as u64;
            let d_max = (self.frequency_hz / (2.0 * min_bps)).floor() as u64;
            (d_min..=d_max)
                .rev()
                .map(|d| self.bitrate_for_divider(d).unwrap())
                .filter(|&b| b >= min_bps && b <= max_bps)
                .collect()
        }
    }

    #[test]
    fn paper_bitrates_fall_out_of_the_divider_grid() {
        let c = Clock::watch_crystal();
        // The paper's odd "2.8 kbps" point is divider 6: 32768/12 = 2730.7.
        assert!((c.bitrate_for_divider(6).unwrap() - 2730.67).abs() < 0.1);
        // "3 kbps" is divider 5: 3276.8 bps.
        assert!((c.bitrate_for_divider(5).unwrap() - 3276.8).abs() < 0.1);
        // "2 kbps" is divider 8: 2048 bps.
        assert!((c.bitrate_for_divider(8).unwrap() - 2048.0).abs() < 0.1);
    }

    #[test]
    fn divider_for_bitrate_picks_nearest() {
        let c = Clock::watch_crystal();
        // 3000 bps sits between dividers 5 (3276.8) and 6 (2730.7); 6 is
        // marginally nearer.
        assert_eq!(c.divider_for_bitrate(3_000.0).unwrap(), 6);
        assert_eq!(c.divider_for_bitrate(3_300.0).unwrap(), 5);
        assert_eq!(c.divider_for_bitrate(2_048.0).unwrap(), 8);
        assert_eq!(c.divider_for_bitrate(100.0).unwrap(), 164);
        let q = c.quantized_bitrate(100.0).unwrap();
        assert!((q - 99.9).abs() < 0.5, "q={q}");
    }

    #[test]
    fn tick_conversions_roundtrip() {
        let c = Clock::watch_crystal();
        assert_eq!(c.seconds_to_ticks(c.ticks_to_seconds(12_345)), 12_345);
        assert_eq!(c.seconds_to_ticks(-1.0), 0);
    }

    #[test]
    fn available_bitrates_are_sorted_and_bounded() {
        let c = Clock::watch_crystal();
        let rates = c.available_bitrates(500.0, 5_000.0);
        assert!(!rates.is_empty());
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
        assert!(rates.iter().all(|&b| (500.0..=5_000.0).contains(&b)));
        assert!(c.available_bitrates(0.0, 100.0).is_empty());
        assert!(c.available_bitrates(200.0, 100.0).is_empty());
    }

    #[test]
    fn rejects_invalid() {
        assert!(Clock::new(0.0).is_err());
        let c = Clock::watch_crystal();
        assert!(c.bitrate_for_divider(0).is_err());
        assert!(c.divider_for_bitrate(0.0).is_err());
    }
}
