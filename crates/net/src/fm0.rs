//! FM0 (bi-phase space) line coding — the uplink code (§3.2): "backscatter
//! communication can be made more robust by adopting modulation schemes
//! like FM0 ... where the reflection state switches at every bit, enabling
//! the receiver to better delineate the bits".
//!
//! Conventions (EPC Gen2 style): the level *always* inverts at a bit
//! boundary; a data `0` inverts again mid-bit, a data `1` holds. Each bit
//! therefore occupies two half-bit symbols.

use crate::NetError;

/// Encode data bits into half-bit levels. `initial_level` is the switch
/// state before the first bit (the line inverts at the first boundary).
pub fn encode(bits: &[bool], initial_level: bool) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() * 2);
    let mut level = initial_level;
    for &bit in bits {
        level = !level; // boundary transition
        let first = level;
        let second = if bit { first } else { !first };
        out.push(first);
        out.push(second);
        level = second;
    }
    out
}

/// Decode half-bit levels back to data bits, verifying the
/// transition-at-every-boundary invariant. `initial_level` must match the
/// encoder's.
// lint: allow(dead-pub) test-oracle fm0_roundtrip the strict FM0 decoder the receiver's ML slicer replaced
pub fn decode(halves: &[bool], initial_level: bool) -> Result<Vec<bool>, NetError> {
    if !halves.len().is_multiple_of(2) {
        return Err(NetError::Truncated {
            needed: halves.len() + 1,
            got: halves.len(),
        });
    }
    let mut bits = Vec::with_capacity(halves.len() / 2);
    let mut prev = initial_level;
    for (k, pair) in halves.chunks(2).enumerate() {
        let (a, b) = (pair[0], pair[1]);
        if a == prev {
            // Missing boundary transition.
            return Err(NetError::CodingViolation { at: k });
        }
        bits.push(a == b);
        prev = b;
    }
    Ok(bits)
}

/// Decode without boundary checking (used after hard-slicing noisy
/// envelopes where the ML decoder in `pab-core` has already committed to
/// the most likely half-bit sequence).
// lint: allow(dead-pub) test-oracle fm0_self_consistency
pub fn decode_lenient(halves: &[bool]) -> Vec<bool> {
    let mut bits = Vec::new();
    decode_lenient_into(halves, &mut bits);
    bits
}

/// [`decode_lenient`] into a caller-owned buffer (cleared first), so the
/// per-slot decode path reuses one allocation across exchanges.
pub fn decode_lenient_into(halves: &[bool], bits: &mut Vec<bool>) {
    bits.clear();
    bits.reserve(halves.len() / 2);
    bits.extend(halves.chunks(2).filter(|p| p.len() == 2).map(|p| p[0] == p[1]));
}

/// Count boundary-rule violations (a decode-quality diagnostic).
// lint: allow(dead-pub) test-oracle fm0_self_consistency
pub fn count_violations(halves: &[bool], initial_level: bool) -> usize {
    let mut prev = initial_level;
    let mut violations = 0;
    for pair in halves.chunks(2) {
        if pair.len() < 2 {
            break;
        }
        if pair[0] == prev {
            violations += 1;
        }
        prev = pair[1];
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_short_patterns() {
        for n in 0..=8u32 {
            for v in 0..(1u32 << n) {
                let bits: Vec<bool> = (0..n).map(|k| (v >> k) & 1 == 1).collect();
                for init in [false, true] {
                    let enc = encode(&bits, init);
                    assert_eq!(decode(&enc, init).unwrap(), bits, "v={v:b} init={init}");
                }
            }
        }
    }

    #[test]
    fn level_always_toggles_at_boundaries() {
        let bits = vec![true, true, false, true, false, false];
        let enc = encode(&bits, false);
        // Check transition between second half of bit k and first half of
        // bit k+1.
        for k in 0..bits.len() - 1 {
            assert_ne!(enc[2 * k + 1], enc[2 * k + 2], "boundary {k}");
        }
    }

    #[test]
    fn zero_has_mid_bit_transition_one_does_not() {
        let enc = encode(&[false, true], true);
        assert_ne!(enc[0], enc[1]); // '0': mid transition
        assert_eq!(enc[2], enc[3]); // '1': hold
    }

    #[test]
    fn dc_balance_of_alternating_data() {
        // FM0 is DC-balanced for random data; check a long alternating run.
        let bits: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        let enc = encode(&bits, false);
        let highs = enc.iter().filter(|&&b| b).count();
        let ratio = highs as f64 / enc.len() as f64;
        assert!((ratio - 0.5).abs() < 0.05, "ratio={ratio}");
    }

    #[test]
    fn detects_violations() {
        let bits = vec![true, false, true, true];
        let mut enc = encode(&bits, false);
        // Break a boundary transition.
        enc[2] = enc[1];
        let err = decode(&enc, false).unwrap_err();
        assert!(matches!(err, NetError::CodingViolation { at: 1 }));
        assert_eq!(count_violations(&enc, false), 1);
    }

    #[test]
    fn odd_length_is_truncated() {
        assert!(matches!(
            decode(&[true, false, true], false),
            Err(NetError::Truncated { .. })
        ));
    }

    #[test]
    fn lenient_decode_ignores_boundaries() {
        let bits = vec![true, false, false, true];
        let enc = encode(&bits, false);
        assert_eq!(decode_lenient(&enc), bits);
        // Still decodes something when a boundary is broken.
        let mut broken = enc.clone();
        broken[2] = broken[1];
        assert_eq!(decode_lenient(&broken).len(), 4);
    }
}
