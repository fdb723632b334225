//! MS5837-30BA waterproof pressure/temperature sensor: a register-level
//! I2C device model plus the firmware-side driver with the datasheet's
//! first-order compensation math.
//!
//! Protocol (per the TE Connectivity datasheet):
//! * `0x1E` reset;
//! * `0xA0 + 2k` read 16-bit PROM calibration word `C[k]` (k = 0..6);
//! * `0x40`/`0x50` (+OSR offset) start a D1 (pressure) / D2 (temperature)
//!   conversion;
//! * `0x00` read the 24-bit ADC result.
//!
//! Compensation (30BA variant, first order):
//! ```text
//! dT   = D2 − C5·2⁸              TEMP = 2000 + dT·C6/2²³      [0.01 °C]
//! OFF  = C2·2¹⁶ + C4·dT/2⁷       SENS = C1·2¹⁵ + C3·dT/2⁸
//! P    = (D1·SENS/2²¹ − OFF)/2¹³                              [0.1 mbar]
//! ```
//! The device model *inverts* these equations to synthesise D1/D2 from the
//! true water conditions, so the driver's forward math is genuinely
//! exercised.

use crate::environment::WaterSample;
use crate::SensorError;
use pab_mcu::peripherals::I2cBus;
use pab_mcu::{I2cDevice, I2cError};

/// 7-bit I2C address of the MS5837.
const MS5837_ADDR: u8 = 0x76;

/// Typical factory calibration words (C0 is the CRC/factory word).
const DEFAULT_PROM: [u16; 7] = [0x0000, 34_982, 36_352, 20_328, 22_354, 26_646, 26_146];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    None,
    D1,
    D2,
}

/// The device model: attach to an [`I2cBus`] and it behaves like the real
/// part.
#[derive(Debug, Clone)]
pub struct Ms5837 {
    /// Water conditions the sensor is immersed in.
    pub water: WaterSample,
    prom: [u16; 7],
    pending: Pending,
    adc_result: u32,
    read_ptr: Option<u8>,
}

impl Ms5837 {
    /// New sensor in the given water with default calibration.
    pub fn new(water: WaterSample) -> Self {
        Ms5837 {
            water,
            prom: DEFAULT_PROM,
            pending: Pending::None,
            adc_result: 0,
            read_ptr: None,
        }
    }

    /// Synthesise the raw D2 (temperature ADC) value from the true
    /// temperature by inverting the compensation equations.
    fn d2_from_temperature(&self) -> u32 {
        let c5 = self.prom[5] as i64;
        let c6 = self.prom[6] as i64;
        let temp = (self.water.temperature_c * 100.0).round() as i64; // 0.01 C
        let dt = (temp - 2000) * (1 << 23) / c6;
        (dt + c5 * 256).clamp(0, (1 << 24) - 1) as u32
    }

    /// Synthesise D1 (pressure ADC) from the true pressure.
    fn d1_from_pressure(&self) -> u32 {
        let c1 = self.prom[1] as i64;
        let c2 = self.prom[2] as i64;
        let c3 = self.prom[3] as i64;
        let c4 = self.prom[4] as i64;
        let c6 = self.prom[6] as i64;
        let temp = (self.water.temperature_c * 100.0).round() as i64;
        let dt = (temp - 2000) * (1 << 23) / c6;
        let off = c2 * (1 << 16) + (c4 * dt) / (1 << 7);
        let sens = c1 * (1 << 15) + (c3 * dt) / (1 << 8);
        let p = (self.water.pressure_mbar * 10.0).round() as i64; // 0.1 mbar
        // P = (D1·SENS/2²¹ − OFF)/2¹³  ⇒  D1 = (P·2¹³ + OFF)·2²¹/SENS.
        let d1 = (p * (1 << 13) + off) * (1 << 21) / sens;
        d1.clamp(0, (1 << 24) - 1) as u32
    }
}

impl I2cDevice for Ms5837 {
    fn address(&self) -> u8 {
        MS5837_ADDR
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), I2cError> {
        let cmd = *bytes.first().ok_or(I2cError::InvalidCommand(0))?;
        match cmd {
            0x1E => {
                self.pending = Pending::None;
                self.adc_result = 0;
                self.read_ptr = None;
                Ok(())
            }
            0x40..=0x48 => {
                self.pending = Pending::D1;
                self.adc_result = self.d1_from_pressure();
                self.read_ptr = None;
                Ok(())
            }
            0x50..=0x58 => {
                self.pending = Pending::D2;
                self.adc_result = self.d2_from_temperature();
                self.read_ptr = None;
                Ok(())
            }
            0x00 => {
                self.read_ptr = Some(0x00);
                Ok(())
            }
            0xA0..=0xAC if cmd % 2 == 0 => {
                self.read_ptr = Some(cmd);
                Ok(())
            }
            other => Err(I2cError::InvalidCommand(other)),
        }
    }

    fn read(&mut self, len: usize) -> Result<Vec<u8>, I2cError> {
        match self.read_ptr {
            Some(0x00) => {
                if self.pending == Pending::None {
                    return Err(I2cError::InvalidCommand(0x00));
                }
                let v = self.adc_result;
                self.pending = Pending::None;
                Ok(vec![
                    ((v >> 16) & 0xFF) as u8,
                    ((v >> 8) & 0xFF) as u8,
                    (v & 0xFF) as u8,
                ]
                .into_iter()
                .take(len)
                .collect())
            }
            Some(cmd @ 0xA0..=0xAC) => {
                let idx = ((cmd - 0xA0) / 2) as usize;
                let word = self.prom[idx];
                Ok(vec![(word >> 8) as u8, (word & 0xFF) as u8]
                    .into_iter()
                    .take(len)
                    .collect())
            }
            _ => Err(I2cError::InvalidCommand(0xFF)),
        }
    }
}

/// A temperature + pressure reading after compensation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ms5837Reading {
    /// Temperature, degrees Celsius.
    pub temperature_c: f64,
    /// Absolute pressure, millibar.
    pub pressure_mbar: f64,
}

/// The firmware-side driver: runs the command sequence over the bus and
/// applies the datasheet compensation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ms5837Driver;

impl Ms5837Driver {
    /// Read PROM calibration words C0..C6.
    fn read_prom(bus: &mut I2cBus) -> Result<[u16; 7], SensorError> {
        let mut prom = [0u16; 7];
        for (k, word) in prom.iter_mut().enumerate() {
            bus.write(MS5837_ADDR, &[0xA0 + 2 * k as u8])?;
            let bytes = bus.read(MS5837_ADDR, 2)?;
            if bytes.len() != 2 {
                return Err(SensorError::ConversionNotReady);
            }
            *word = u16::from_be_bytes([bytes[0], bytes[1]]);
        }
        Ok(prom)
    }

    fn read_adc(bus: &mut I2cBus) -> Result<u32, SensorError> {
        bus.write(MS5837_ADDR, &[0x00])?;
        let b = bus.read(MS5837_ADDR, 3)?;
        if b.len() != 3 {
            return Err(SensorError::ConversionNotReady);
        }
        Ok(((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32)
    }

    /// Full measurement: reset, PROM, D1 + D2 conversions, compensation.
    pub fn measure(bus: &mut I2cBus) -> Result<Ms5837Reading, SensorError> {
        bus.write(MS5837_ADDR, &[0x1E])?;
        let prom = Self::read_prom(bus)?;
        bus.write(MS5837_ADDR, &[0x48])?; // D1, max OSR
        let d1 = Self::read_adc(bus)? as i64;
        bus.write(MS5837_ADDR, &[0x58])?; // D2, max OSR
        let d2 = Self::read_adc(bus)? as i64;
        let c1 = prom[1] as i64;
        let c2 = prom[2] as i64;
        let c3 = prom[3] as i64;
        let c4 = prom[4] as i64;
        let c5 = prom[5] as i64;
        let c6 = prom[6] as i64;
        let dt = d2 - c5 * 256;
        let temp = 2000 + dt * c6 / (1 << 23);
        let off = c2 * (1 << 16) + (c4 * dt) / (1 << 7);
        let sens = c1 * (1 << 15) + (c3 * dt) / (1 << 8);
        let p = (d1 * sens / (1 << 21) - off) / (1 << 13);
        Ok(Ms5837Reading {
            temperature_c: temp as f64 / 100.0,
            pressure_mbar: p as f64 / 10.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus_with(water: WaterSample) -> I2cBus {
        let mut bus = I2cBus::new();
        bus.attach(Box::new(Ms5837::new(water)));
        bus
    }

    #[test]
    fn bench_conditions_roundtrip() {
        let mut bus = bus_with(WaterSample::bench());
        let r = Ms5837Driver::measure(&mut bus).unwrap();
        assert!((r.temperature_c - 22.0).abs() < 0.05, "T={}", r.temperature_c);
        assert!(
            (r.pressure_mbar - 1013.25).abs() < 2.0,
            "P={}",
            r.pressure_mbar
        );
    }

    #[test]
    fn depth_pressure_roundtrips() {
        for depth in [0.5, 2.0, 10.0, 100.0] {
            let w = WaterSample::at_depth(7.8, 12.0, depth, 1025.0);
            let mut bus = bus_with(w);
            let r = Ms5837Driver::measure(&mut bus).unwrap();
            assert!(
                (r.pressure_mbar - w.pressure_mbar).abs() < 3.0,
                "depth {depth}: {} vs {}",
                r.pressure_mbar,
                w.pressure_mbar
            );
            assert!((r.temperature_c - 12.0).abs() < 0.05);
        }
    }

    #[test]
    fn cold_and_hot_temperatures_roundtrip() {
        for t in [-2.0, 4.0, 30.0, 40.0] {
            let mut w = WaterSample::bench();
            w.temperature_c = t;
            let mut bus = bus_with(w);
            let r = Ms5837Driver::measure(&mut bus).unwrap();
            assert!((r.temperature_c - t).abs() < 0.05, "t={t} got {}", r.temperature_c);
        }
    }

    #[test]
    fn prom_reads_back_calibration() {
        let mut bus = bus_with(WaterSample::bench());
        let prom = Ms5837Driver::read_prom(&mut bus).unwrap();
        assert_eq!(prom, DEFAULT_PROM);
    }

    #[test]
    fn adc_read_without_conversion_fails() {
        let mut dev = Ms5837::new(WaterSample::bench());
        dev.write(&[0x00]).unwrap();
        assert!(dev.read(3).is_err());
    }

    #[test]
    fn invalid_command_rejected() {
        let mut dev = Ms5837::new(WaterSample::bench());
        assert!(dev.write(&[0x77]).is_err());
        assert!(dev.write(&[0xA1]).is_err()); // odd PROM address
        assert!(dev.write(&[]).is_err());
    }

    #[test]
    fn reset_clears_pending_conversion() {
        let mut dev = Ms5837::new(WaterSample::bench());
        dev.write(&[0x48]).unwrap();
        dev.write(&[0x1E]).unwrap();
        dev.write(&[0x00]).unwrap();
        assert!(dev.read(3).is_err());
    }

    #[test]
    fn missing_device_errors() {
        let mut bus = I2cBus::new();
        assert!(matches!(
            Ms5837Driver::measure(&mut bus),
            Err(SensorError::Bus(_))
        ));
    }
}
