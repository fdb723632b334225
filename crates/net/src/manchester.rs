//! Manchester (bi-phase level) coding — the alternative uplink code the
//! paper mentions alongside FM0 (§3.2). Kept as an ablation baseline: it
//! has the same half-bit rate but encodes data in the *direction* of the
//! guaranteed mid-bit transition (IEEE 802.3 convention: `0` = high→low,
//! `1` = low→high).

use crate::NetError;

/// Encode data bits into half-bit levels.
pub fn encode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() * 2);
    for &bit in bits {
        if bit {
            out.push(false);
            out.push(true);
        } else {
            out.push(true);
            out.push(false);
        }
    }
    out
}

/// Decode half-bit levels back to data bits; every symbol must contain a
/// mid-bit transition.
// lint: allow(dead-pub) test-oracle manchester_roundtrip
pub fn decode(halves: &[bool]) -> Result<Vec<bool>, NetError> {
    if !halves.len().is_multiple_of(2) {
        return Err(NetError::Truncated {
            needed: halves.len() + 1,
            got: halves.len(),
        });
    }
    let mut bits = Vec::with_capacity(halves.len() / 2);
    for (k, pair) in halves.chunks(2).enumerate() {
        match (pair[0], pair[1]) {
            (false, true) => bits.push(true),
            (true, false) => bits.push(false),
            _ => return Err(NetError::CodingViolation { at: k }),
        }
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let bits = vec![true, false, false, true, true, true, false];
        assert_eq!(decode(&encode(&bits)).unwrap(), bits);
        assert!(decode(&encode(&[])).unwrap().is_empty());
    }

    #[test]
    fn every_symbol_has_transition() {
        let enc = encode(&[true, true, false]);
        for pair in enc.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn constant_halves_are_violations() {
        assert!(matches!(
            decode(&[true, true]),
            Err(NetError::CodingViolation { at: 0 })
        ));
        assert!(matches!(
            decode(&[false, true, false, false]),
            Err(NetError::CodingViolation { at: 1 })
        ));
    }

    #[test]
    fn odd_length_truncated() {
        assert!(matches!(decode(&[true]), Err(NetError::Truncated { .. })));
    }

    #[test]
    fn manchester_is_exactly_dc_balanced() {
        let bits: Vec<bool> = (0..97).map(|i| i % 3 == 0).collect();
        let enc = encode(&bits);
        let highs = enc.iter().filter(|&&b| b).count();
        assert_eq!(highs * 2, enc.len());
    }
}
