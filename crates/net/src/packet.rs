//! Packet formats: the RFID-reader-style downlink query and the uplink
//! backscatter response (§3.3.2).
//!
//! Downlink query layout (bits, MSB first):
//! ```text
//! | preamble 9 | dest 8 | opcode 4 | arg 16 | crc8 8 |
//! ```
//! Uplink packet layout:
//! ```text
//! | preamble 16 | src 8 | seq 8 | kind 4 | len 4 | payload 8·len | crc16 16 |
//! ```

use crate::bits::{bits_to_bytes, bytes_to_bits, push_uint, read_uint};
use crate::crc::{crc16_ccitt, crc16_ccitt_bits, crc8};
use crate::NetError;

/// The 9-bit downlink preamble (§5.1(a): "The transmitter's downlink query
/// includes a 9-bit preamble").
pub const DOWNLINK_PREAMBLE: [bool; 9] = [
    true, true, true, false, true, false, false, true, false,
];

/// The 16-bit uplink preamble (a run of alternations then a sync word,
/// chosen for a sharp autocorrelation under FM0).
pub const UPLINK_PREAMBLE: [bool; 16] = [
    true, false, true, false, true, false, true, false, true, true, false, false, true,
    false, false, true,
];

/// Broadcast address: all nodes accept the query.
pub const BROADCAST_ADDR: u8 = 0xFF;

/// Sensor selector used by queries and responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorKind {
    /// Acidity via the pH probe + AFE.
    Ph,
    /// Temperature via the MS5837.
    Temperature,
    /// Pressure via the MS5837.
    Pressure,
}

impl SensorKind {
    fn to_nibble(self) -> u64 {
        match self {
            SensorKind::Ph => 1,
            SensorKind::Temperature => 2,
            SensorKind::Pressure => 3,
        }
    }

    fn from_nibble(v: u64) -> Option<Self> {
        match v {
            1 => Some(SensorKind::Ph),
            2 => Some(SensorKind::Temperature),
            3 => Some(SensorKind::Pressure),
            _ => None,
        }
    }
}

/// Downlink commands (§5.1(a): "commands for the PAB backscatter node such
/// as setting backscatter link frequency, switching its resonance mode, or
/// requesting certain sensed data").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Solicit an ACK (presence/power-up check).
    Ping,
    /// Set the FM0 timer divider (arg = divider; bitrate = f_clk / 2·div).
    SetBitrateDivider(u16),
    /// Select an onboard recto-piezo matching circuit (arg = index).
    SelectRectoPiezo(u8),
    /// Request a sensor reading.
    ReadSensor(SensorKind),
}

impl Command {
    fn opcode(self) -> u64 {
        match self {
            Command::Ping => 0,
            Command::SetBitrateDivider(_) => 1,
            Command::SelectRectoPiezo(_) => 2,
            Command::ReadSensor(_) => 3,
        }
    }

    fn arg(self) -> u64 {
        match self {
            Command::Ping => 0,
            Command::SetBitrateDivider(d) => d as u64,
            Command::SelectRectoPiezo(i) => i as u64,
            Command::ReadSensor(s) => s.to_nibble(),
        }
    }

    fn from_parts(opcode: u64, arg: u64) -> Option<Self> {
        match opcode {
            0 => Some(Command::Ping),
            1 => Some(Command::SetBitrateDivider(arg as u16)),
            2 => Some(Command::SelectRectoPiezo(arg as u8)),
            3 => SensorKind::from_nibble(arg).map(Command::ReadSensor),
            _ => None,
        }
    }
}

/// A downlink query from the projector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownlinkQuery {
    /// Destination node address ([`BROADCAST_ADDR`] for all).
    pub dest: u8,
    /// The command.
    pub command: Command,
}

impl DownlinkQuery {
    /// Serialise to bits including preamble and CRC-8.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut body = Vec::with_capacity(28);
        push_uint(&mut body, self.dest as u64, 8);
        push_uint(&mut body, self.command.opcode(), 4);
        push_uint(&mut body, self.command.arg(), 16);
        let crc = crc8(&bits_to_bytes(&body));
        let mut bits = Vec::with_capacity(9 + 28 + 8);
        bits.extend_from_slice(&DOWNLINK_PREAMBLE);
        bits.extend_from_slice(&body);
        push_uint(&mut bits, crc as u64, 8);
        bits
    }

    /// Number of bits in a serialised query.
    // lint: allow(dead-pub) test-oracle query_roundtrips
    pub const BITS: usize = 9 + 8 + 4 + 16 + 8;

    /// Parse from bits (must start exactly at the preamble).
    pub fn from_bits(bits: &[bool]) -> Result<Self, NetError> {
        if bits.len() < Self::BITS {
            return Err(NetError::Truncated {
                needed: Self::BITS,
                got: bits.len(),
            });
        }
        if bits[..9] != DOWNLINK_PREAMBLE {
            return Err(NetError::NoPreamble);
        }
        let body = &bits[9..9 + 28];
        let crc_got =
            read_uint(bits, 9 + 28, 8).ok_or(NetError::InvalidField("crc"))? as u8;
        let crc_want = crc8(&bits_to_bytes(body));
        if crc_got != crc_want {
            return Err(NetError::BadChecksum {
                expected: crc_want as u16,
                got: crc_got as u16,
            });
        }
        let dest = read_uint(body, 0, 8).ok_or(NetError::InvalidField("dest"))? as u8;
        let opcode = read_uint(body, 8, 4).ok_or(NetError::InvalidField("opcode"))?;
        let arg = read_uint(body, 12, 16).ok_or(NetError::InvalidField("arg"))?;
        let command =
            Command::from_parts(opcode, arg).ok_or(NetError::InvalidField("opcode"))?;
        Ok(DownlinkQuery { dest, command })
    }

    /// Whether a node with `addr` should accept this query.
    pub fn addressed_to(&self, addr: u8) -> bool {
        self.dest == addr || self.dest == BROADCAST_ADDR
    }
}

/// Payload type of an uplink packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UplinkKind {
    /// Bare acknowledgement.
    Ack,
    /// A sensor reading.
    Sensor(SensorKind),
}

impl UplinkKind {
    fn to_nibble(self) -> u64 {
        match self {
            UplinkKind::Ack => 0,
            UplinkKind::Sensor(s) => s.to_nibble(),
        }
    }

    fn from_nibble(v: u64) -> Option<Self> {
        match v {
            0 => Some(UplinkKind::Ack),
            _ => SensorKind::from_nibble(v).map(UplinkKind::Sensor),
        }
    }
}

/// An uplink backscatter packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkPacket {
    /// Source node address.
    pub src: u8,
    /// Sequence number (for retransmission bookkeeping).
    pub seq: u8,
    /// Payload type.
    pub kind: UplinkKind,
    /// Payload bytes (at most 15).
    pub payload: Vec<u8>,
}

impl UplinkPacket {
    /// Maximum payload length (4-bit length field).
    pub const MAX_PAYLOAD: usize = 15;

    /// Serialise to bits including preamble and CRC-16.
    pub fn to_bits(&self) -> Result<Vec<bool>, NetError> {
        if self.payload.len() > Self::MAX_PAYLOAD {
            return Err(NetError::InvalidField("payload too long"));
        }
        let mut body = Vec::new();
        push_uint(&mut body, self.src as u64, 8);
        push_uint(&mut body, self.seq as u64, 8);
        push_uint(&mut body, self.kind.to_nibble(), 4);
        push_uint(&mut body, self.payload.len() as u64, 4);
        body.extend(bytes_to_bits(&self.payload));
        let crc = crc16_ccitt(&bits_to_bytes(&body));
        let mut bits = Vec::new();
        bits.extend_from_slice(&UPLINK_PREAMBLE);
        bits.extend_from_slice(&body);
        push_uint(&mut bits, crc as u64, 16);
        Ok(bits)
    }

    /// Bit length of a serialised packet with `payload_len` bytes.
    pub fn bits_len(payload_len: usize) -> usize {
        16 + 8 + 8 + 4 + 4 + payload_len * 8 + 16
    }

    /// Parse from bits starting exactly at the preamble.
    pub fn from_bits(bits: &[bool]) -> Result<Self, NetError> {
        let min = Self::bits_len(0);
        if bits.len() < min {
            return Err(NetError::Truncated {
                needed: min,
                got: bits.len(),
            });
        }
        if bits[..16] != UPLINK_PREAMBLE {
            return Err(NetError::NoPreamble);
        }
        let src = read_uint(bits, 16, 8).ok_or(NetError::InvalidField("src"))? as u8;
        let seq = read_uint(bits, 24, 8).ok_or(NetError::InvalidField("seq"))? as u8;
        let kind_n = read_uint(bits, 32, 4).ok_or(NetError::InvalidField("kind"))?;
        let len = read_uint(bits, 36, 4).ok_or(NetError::InvalidField("len"))? as usize;
        let need = Self::bits_len(len);
        if bits.len() < need {
            return Err(NetError::Truncated {
                needed: need,
                got: bits.len(),
            });
        }
        let kind = UplinkKind::from_nibble(kind_n).ok_or(NetError::InvalidField("kind"))?;
        let body = &bits[16..40 + len * 8];
        let payload = bits_to_bytes(&bits[40..40 + len * 8]);
        let crc_got =
            read_uint(bits, 40 + len * 8, 16).ok_or(NetError::InvalidField("crc"))? as u16;
        // Bits-direct CRC: identical to crc16_ccitt(&bits_to_bytes(body))
        // (the body is whole bytes here anyway) without the byte vector.
        let crc_want = crc16_ccitt_bits(body);
        if crc_got != crc_want {
            return Err(NetError::BadChecksum {
                expected: crc_want,
                got: crc_got,
            });
        }
        Ok(UplinkPacket {
            src,
            seq,
            kind,
            payload,
        })
    }

    /// Build a sensor-reading packet with a fixed-point encoded value.
    ///
    /// The value is stored as a little-endian i32 of `value × 1000`
    /// (milli-units: milli-pH, milli-°C, or tenths-of-mbar×100).
    pub fn sensor_reading(src: u8, seq: u8, kind: SensorKind, value: f64) -> Self {
        let fixed = (value * 1000.0).round() as i32;
        UplinkPacket {
            src,
            seq,
            kind: UplinkKind::Sensor(kind),
            payload: fixed.to_le_bytes().to_vec(),
        }
    }

    /// Decode the fixed-point sensor value carried by this packet.
    pub fn sensor_value(&self) -> Option<f64> {
        if !matches!(self.kind, UplinkKind::Sensor(_)) || self.payload.len() != 4 {
            return None;
        }
        let fixed = i32::from_le_bytes([
            self.payload[0],
            self.payload[1],
            self.payload[2],
            self.payload[3],
        ]);
        Some(fixed as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip_all_commands() {
        let commands = [
            Command::Ping,
            Command::SetBitrateDivider(6),
            Command::SelectRectoPiezo(1),
            Command::ReadSensor(SensorKind::Ph),
            Command::ReadSensor(SensorKind::Temperature),
            Command::ReadSensor(SensorKind::Pressure),
        ];
        for cmd in commands {
            let q = DownlinkQuery {
                dest: 0x2A,
                command: cmd,
            };
            let bits = q.to_bits();
            assert_eq!(bits.len(), DownlinkQuery::BITS);
            assert_eq!(DownlinkQuery::from_bits(&bits).unwrap(), q);
        }
    }

    #[test]
    fn query_crc_detects_corruption() {
        let q = DownlinkQuery {
            dest: 1,
            command: Command::Ping,
        };
        let mut bits = q.to_bits();
        bits[15] = !bits[15];
        assert!(matches!(
            DownlinkQuery::from_bits(&bits),
            Err(NetError::BadChecksum { .. })
        ));
    }

    #[test]
    fn query_addressing() {
        let q = DownlinkQuery {
            dest: 5,
            command: Command::Ping,
        };
        assert!(q.addressed_to(5));
        assert!(!q.addressed_to(6));
        let b = DownlinkQuery {
            dest: BROADCAST_ADDR,
            command: Command::Ping,
        };
        assert!(b.addressed_to(5));
        assert!(b.addressed_to(200));
    }

    #[test]
    fn query_requires_preamble() {
        let q = DownlinkQuery {
            dest: 1,
            command: Command::Ping,
        };
        let mut bits = q.to_bits();
        bits[0] = !bits[0];
        assert!(matches!(
            DownlinkQuery::from_bits(&bits),
            Err(NetError::NoPreamble)
        ));
        assert!(matches!(
            DownlinkQuery::from_bits(&bits[..10]),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn uplink_roundtrip() {
        let p = UplinkPacket {
            src: 7,
            seq: 42,
            kind: UplinkKind::Sensor(SensorKind::Temperature),
            payload: vec![1, 2, 3, 4],
        };
        let bits = p.to_bits().unwrap();
        assert_eq!(bits.len(), UplinkPacket::bits_len(4));
        assert_eq!(UplinkPacket::from_bits(&bits).unwrap(), p);
    }

    #[test]
    fn uplink_ack_roundtrip() {
        let p = UplinkPacket {
            src: 3,
            seq: 0,
            kind: UplinkKind::Ack,
            payload: vec![],
        };
        let bits = p.to_bits().unwrap();
        assert_eq!(UplinkPacket::from_bits(&bits).unwrap(), p);
    }

    #[test]
    fn uplink_crc_detects_corruption() {
        let p = UplinkPacket::sensor_reading(1, 2, SensorKind::Ph, 7.012);
        let mut bits = p.to_bits().unwrap();
        let n = bits.len();
        bits[n - 20] = !bits[n - 20];
        assert!(matches!(
            UplinkPacket::from_bits(&bits),
            Err(NetError::BadChecksum { .. })
        ));
    }

    #[test]
    fn sensor_value_fixed_point_roundtrip() {
        for (kind, v) in [
            (SensorKind::Ph, 7.012),
            (SensorKind::Temperature, 22.53),
            (SensorKind::Pressure, 1013.25),
            (SensorKind::Ph, -0.5),
        ] {
            let p = UplinkPacket::sensor_reading(9, 1, kind, v);
            let bits = p.to_bits().unwrap();
            let back = UplinkPacket::from_bits(&bits).unwrap();
            assert!((back.sensor_value().unwrap() - v).abs() < 5e-4);
        }
    }

    #[test]
    fn sensor_value_absent_for_ack() {
        let p = UplinkPacket {
            src: 1,
            seq: 1,
            kind: UplinkKind::Ack,
            payload: vec![],
        };
        assert_eq!(p.sensor_value(), None);
    }

    #[test]
    fn payload_length_limit() {
        let p = UplinkPacket {
            src: 1,
            seq: 1,
            kind: UplinkKind::Ack,
            payload: vec![0; 16],
        };
        assert!(p.to_bits().is_err());
    }
}
