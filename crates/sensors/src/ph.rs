//! pH sensing: glass-electrode physics + LMP91200-style analog front end,
//! and the firmware-side conversion back to pH units.
//!
//! A glass pH electrode is a high-impedance voltage source following the
//! Nernst equation: `V = S(T) · (7 − pH)` with
//! `S(T) = ln(10)·R·T/F ≈ 59.16 mV/pH` at 25 °C. The LMP91200 buffers it
//! and level-shifts by a common-mode voltage so the MCU's ADC (0..1.5 V)
//! can sample it (§5.1(c)).

use crate::environment::WaterSample;
use crate::SensorError;
use pab_mcu::{AnalogSource, McuServices};

/// Gas constant, J/(mol·K).
const R: f64 = 8.314_462_618;
/// Faraday constant, C/mol.
const F: f64 = 96_485.332_12;

/// Nernst slope at `temperature_c`, volts per pH unit.
// lint: allow(dead-pub) test-oracle nernst_slope_monotone
pub fn nernst_slope_v_per_ph(temperature_c: f64) -> f64 {
    let t_k = temperature_c + 273.15;
    (10f64).ln() * R * t_k / F
}

/// The probe + AFE chain: produces the ADC input voltage for given water
/// conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhProbe {
    /// Water conditions observed by the probe.
    pub water: WaterSample,
    /// AFE common-mode (level-shift) output at pH 7, volts.
    pub common_mode_v: f64,
    /// AFE gain applied to the electrode voltage.
    pub gain: f64,
    /// Electrode offset error, volts (calibration residual).
    pub offset_error_v: f64,
}

impl PhProbe {
    /// An ideal probe in the given water, with the node's AFE settings.
    pub fn new(water: WaterSample) -> Self {
        PhProbe {
            water,
            common_mode_v: 0.75,
            gain: 1.0,
            offset_error_v: 0.0,
        }
    }

    /// Electrode (pre-AFE) voltage, volts.
    fn electrode_voltage(&self) -> f64 {
        nernst_slope_v_per_ph(self.water.temperature_c) * (7.0 - self.water.ph)
            + self.offset_error_v
    }

    /// AFE output voltage presented to the ADC.
    // lint: allow(dead-pub) test-oracle ph_roundtrips
    pub fn afe_output_voltage(&self) -> f64 {
        self.common_mode_v + self.gain * self.electrode_voltage()
    }
}

impl AnalogSource for PhProbe {
    fn voltage_at(&mut self, _time_s: f64) -> f64 {
        self.afe_output_voltage()
    }
}

/// Firmware-side conversion: ADC code → pH, mirroring what the node's MCU
/// computes before embedding the reading in a packet (§6.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhDriver {
    /// Assumed AFE common-mode voltage.
    pub common_mode_v: f64,
    /// Assumed AFE gain.
    pub gain: f64,
    /// Temperature assumed for the Nernst slope (a temperature-compensated
    /// deployment would feed the MS5837 reading in here).
    pub assumed_temperature_c: f64,
}

impl PhDriver {
    /// Driver with the node's nominal AFE configuration.
    pub fn new() -> Self {
        PhDriver {
            common_mode_v: 0.75,
            gain: 1.0,
            assumed_temperature_c: 25.0,
        }
    }

    /// Convert an AFE output voltage to pH.
    // lint: allow(dead-pub) test-oracle ph_roundtrips
    pub fn volts_to_ph(&self, afe_volts: f64) -> f64 {
        let electrode_v = (afe_volts - self.common_mode_v) / self.gain;
        7.0 - electrode_v / nernst_slope_v_per_ph(self.assumed_temperature_c)
    }

    /// Sample the MCU's ADC and convert to pH.
    pub fn read(&self, svc: &mut McuServices) -> Result<f64, SensorError> {
        let code = svc.adc_read().ok_or(SensorError::NoAdc)?;
        Ok(self.volts_to_ph(svc.adc_code_to_volts(code)))
    }
}

impl Default for PhDriver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nernst_slope_at_25c() {
        let s = nernst_slope_v_per_ph(25.0);
        assert!((s - 0.05916).abs() < 1e-4, "s={s}");
    }

    #[test]
    fn neutral_water_reads_common_mode() {
        let probe = PhProbe::new(WaterSample::bench());
        // pH 7 → zero electrode voltage → AFE outputs the common mode.
        assert!((probe.afe_output_voltage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn acidic_water_raises_voltage() {
        let mut acid = WaterSample::bench();
        acid.ph = 4.0;
        let mut base = WaterSample::bench();
        base.ph = 10.0;
        assert!(PhProbe::new(acid).afe_output_voltage() > 0.75);
        assert!(PhProbe::new(base).afe_output_voltage() < 0.75);
    }

    #[test]
    fn driver_inverts_probe_at_matched_temperature() {
        for ph in [4.0, 5.5, 7.0, 8.2, 10.0] {
            let mut w = WaterSample::bench();
            w.ph = ph;
            w.temperature_c = 25.0;
            let probe = PhProbe::new(w);
            let driver = PhDriver::new();
            let recovered = driver.volts_to_ph(probe.afe_output_voltage());
            assert!((recovered - ph).abs() < 1e-9, "ph={ph} got {recovered}");
        }
    }

    #[test]
    fn temperature_mismatch_causes_small_error() {
        let mut w = WaterSample::bench();
        w.ph = 4.0;
        w.temperature_c = 5.0; // cold water, driver assumes 25 C
        let probe = PhProbe::new(w);
        let recovered = PhDriver::new().volts_to_ph(probe.afe_output_voltage());
        let err = (recovered - 4.0).abs();
        assert!(err > 0.05, "expected visible error, got {err}");
        assert!(err < 0.5, "error implausibly large: {err}");
    }

    #[test]
    fn end_to_end_through_adc() {
        use pab_mcu::{Firmware, Mcu, McuServices, PowerProfile};
        struct Idle;
        impl Firmware for Idle {
            fn on_reset(&mut self, _svc: &mut McuServices) {}
            fn on_edge(&mut self, _svc: &mut McuServices, _r: bool) {}
            fn on_timer(&mut self, _svc: &mut McuServices) {}
        }
        let mut mcu = Mcu::new(Idle, PowerProfile::pab_node());
        mcu.reset();
        let mut w = WaterSample::bench();
        w.temperature_c = 25.0;
        mcu.services.attach_adc_source(Box::new(PhProbe::new(w)));
        let ph = PhDriver::new().read(&mut mcu.services).unwrap();
        // 10-bit ADC quantization allows a small error around pH 7.
        assert!((ph - 7.0).abs() < 0.05, "ph={ph}");
    }
}
