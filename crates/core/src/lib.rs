//! # pab-core — Piezo-Acoustic Backscatter
//!
//! The full system of *Underwater Backscatter Networking* (Jang & Adib,
//! SIGCOMM 2019), assembled from the substrate crates:
//!
//! * [`projector`] — the transmitter: PWM-keyed acoustic carrier synthesis
//!   (single- or dual-frequency downlink);
//! * [`firmware`] — the node firmware as it runs on the emulated MCU:
//!   PWM edge decoding, query parsing, sensor reads, FM0 backscatter;
//! * [`node`] — the battery-free node: recto-piezo front end + MCU +
//!   firmware, turned into a sample-domain signal processor;
//! * [`receiver`] — the hydrophone receive chain: downconversion,
//!   Butterworth filtering, preamble detection, ML FM0 decoding, CRC;
//! * [`collision`] — the MIMO-style decoder that separates concurrent
//!   backscatter streams using frequency diversity (§3.3.2, Fig. 10);
//! * `medium` (crate-private) — the one noiseless projector → pool →
//!   nodes → hydrophone chain both slot simulators drive: channels
//!   designed once per (node, carrier), every node re-radiating every
//!   carrier into one superposition;
//! * [`link`] — end-to-end single-link simulation in a pool (Figs. 2, 7,
//!   8);
//! * [`collision_group`] — the k-node collision slot: concurrent FDMA
//!   uplinks decoded with a k×k zero-forcing matrix, for the Fig. 10
//!   pair, the §8 scaling extension and faultnet's collision slots;
//! * [`powerup`] — energy-harvesting range analysis (Figs. 3, 9);
//! * [`baseline`] — the carrier-generating (non-backscatter) battery-free
//!   baseline the paper compares against in §2.
//!
//! ## Quickstart
//!
//! ```
//! use pab_core::link::{LinkConfig, LinkSimulator};
//! use pab_net::packet::{Command, SensorKind};
//!
//! let cfg = LinkConfig::default(); // 15 kHz, pool A, 1 m link, ~2.7 kbps
//! let mut sim = LinkSimulator::new(cfg).unwrap();
//! let report = sim.run_query(Command::ReadSensor(SensorKind::Ph)).unwrap();
//! assert!(report.crc_ok);
//! ```
// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it is
// also true for NaN, so one guard rejects non-positive *and* non-numeric
// parameters.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Numeric kernels (trellis, Gaussian elimination, sliding windows) read
// more clearly with explicit indices than with iterator adapters.
#![allow(clippy::needless_range_loop)]


pub mod baseline;
pub mod collision;
pub mod collision_group;
pub mod faultnet;
pub mod firmware;
pub mod link;
mod medium;
pub mod node;
pub mod powerup;
pub mod projector;
pub mod receiver;
pub mod scratch;

pub use faultnet::{FaultNetConfig, FaultNetReport, FaultNetSimulator, FaultNodeSpec};
pub use firmware::PabFirmware;
pub use link::{LinkConfig, LinkReport, LinkSimulator};
pub use node::PabNode;
pub use projector::Projector;
pub use receiver::Receiver;

/// Default simulation sample rate, Hz — a realistic audio-interface rate
/// for the paper's 12–18 kHz carriers.
pub const DEFAULT_SAMPLE_RATE_HZ: f64 = 192_000.0;

/// Settling margin appended to a received window: 10 ms of samples at
/// `fs_hz`, the slack the receive buffer keeps past the end of the
/// backscatter so channel tails land inside the recording.
///
/// This is the one place the `(0.01 · fs) → usize` conversion happens;
/// `link` and `collision_group` both call it instead of repeating the lossy
/// cast inline. Rejects non-finite, non-positive and absurd sample rates
/// (≥ 2⁵² Hz, where `f64` stops resolving integers) instead of silently
/// truncating.
pub fn margin_samples(fs_hz: f64) -> Result<usize, CoreError> {
    if !(fs_hz > 0.0) || !fs_hz.is_finite() {
        return Err(CoreError::InvalidConfig("fs_hz must be positive and finite"));
    }
    if fs_hz >= 2f64.powi(52) {
        return Err(CoreError::InvalidConfig("fs_hz too large for sample math"));
    }
    Ok((0.01 * fs_hz).floor() as usize)
}

/// Standard deviation of the hydrophone's AWGN, pascals: `noise`'s RMS
/// pressure over the band up to Nyquist around `carrier_hz`, times
/// `noise_scale`. Both slot simulators take their noise level from here.
///
/// A NaN, infinite or negative `noise_scale`, or a non-finite RMS level,
/// is an [`CoreError::InvalidConfig`]: a NaN sigma would poison every
/// sample and a negative one would silently turn the noise off.
pub(crate) fn hydrophone_sigma_pa(
    noise: &pab_channel::noise::NoiseEnvironment,
    carrier_hz: f64,
    fs_hz: f64,
    noise_scale: f64,
) -> Result<f64, CoreError> {
    if !(noise_scale >= 0.0) || !noise_scale.is_finite() {
        return Err(CoreError::InvalidConfig(
            "noise_scale must be finite and non-negative",
        ));
    }
    let rms_pa = noise.rms_pressure_pa(carrier_hz, fs_hz / 2.0)?;
    if !rms_pa.is_finite() {
        return Err(CoreError::InvalidConfig(
            "ambient noise level must be finite",
        ));
    }
    Ok(rms_pa * noise_scale)
}

/// Errors surfaced by the core simulation.
#[derive(Debug)]
pub enum CoreError {
    /// Underlying DSP failure.
    Dsp(pab_dsp::DspError),
    /// Underlying channel failure.
    Channel(pab_channel::ChannelError),
    /// Underlying analog front-end failure.
    Analog(pab_analog::AnalogError),
    /// Underlying protocol failure.
    Net(pab_net::NetError),
    /// Underlying MCU failure.
    Mcu(pab_mcu::McuError),
    /// The node never powered up, so there is nothing to decode.
    NodeNotPoweredUp,
    /// No packet was found in the received signal.
    NoPacketDetected,
    /// A configuration value was invalid.
    InvalidConfig(&'static str),
    /// A channel matrix was too ill-conditioned to invert. Carries the
    /// estimated condition number so callers can distinguish singular
    /// geometry (`condition_number.is_infinite()`) from a matrix that is
    /// merely weak but decodable — the absolute-determinant test this
    /// variant replaced conflated the two for small-gain long-range links.
    SingularChannel {
        /// Ratio of largest to smallest singular value of the offending
        /// matrix; infinite when it is exactly rank-deficient.
        condition_number: f64,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Dsp(e) => write!(f, "dsp: {e}"),
            CoreError::Channel(e) => write!(f, "channel: {e}"),
            CoreError::Analog(e) => write!(f, "analog: {e}"),
            CoreError::Net(e) => write!(f, "net: {e}"),
            CoreError::Mcu(e) => write!(f, "mcu: {e}"),
            CoreError::NodeNotPoweredUp => write!(f, "node never powered up"),
            CoreError::NoPacketDetected => write!(f, "no packet detected"),
            CoreError::InvalidConfig(what) => write!(f, "invalid config: {what}"),
            CoreError::SingularChannel { condition_number } => {
                write!(f, "singular channel matrix (condition number {condition_number:.3e})")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<pab_dsp::DspError> for CoreError {
    fn from(e: pab_dsp::DspError) -> Self {
        CoreError::Dsp(e)
    }
}
impl From<pab_channel::ChannelError> for CoreError {
    fn from(e: pab_channel::ChannelError) -> Self {
        CoreError::Channel(e)
    }
}
impl From<pab_analog::AnalogError> for CoreError {
    fn from(e: pab_analog::AnalogError) -> Self {
        CoreError::Analog(e)
    }
}
impl From<pab_net::NetError> for CoreError {
    fn from(e: pab_net::NetError) -> Self {
        CoreError::Net(e)
    }
}
impl From<pab_mcu::McuError> for CoreError {
    fn from(e: pab_mcu::McuError) -> Self {
        CoreError::Mcu(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_samples_matches_inline_formula_and_rejects_junk() {
        assert_eq!(margin_samples(96_000.0).unwrap(), 960);
        assert_eq!(margin_samples(192_000.0).unwrap(), 1920);
        assert_eq!(margin_samples(44_100.0).unwrap(), 441);
        assert!(margin_samples(0.0).is_err());
        assert!(margin_samples(-1.0).is_err());
        assert!(margin_samples(f64::NAN).is_err());
        assert!(margin_samples(f64::INFINITY).is_err());
        assert!(margin_samples(2f64.powi(53)).is_err());
    }

    #[test]
    fn errors_display() {
        assert!(CoreError::NodeNotPoweredUp.to_string().contains("power"));
        assert!(CoreError::NoPacketDetected.to_string().contains("packet"));
        assert!(CoreError::InvalidConfig("fs_hz").to_string().contains("fs_hz"));
        let e: CoreError = pab_net::NetError::NoPreamble.into();
        assert!(e.to_string().contains("net"));
    }
}
