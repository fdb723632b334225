//! Fractional delay.
//!
//! The acoustic channel applies propagation delays that are not integer
//! numbers of samples. [`add_delayed_scaled`] adds one such delayed,
//! scaled copy into a buffer with linear interpolation: it is one tap of
//! `pab_channel::MultipathChannel`, whose per-lag kernel regroups a loop
//! of it over the taps and must stay within rounding of it. Anti-aliased
//! decimation is [`crate::polyphase::PolyphaseDecimator`].

/// Add `src` delayed by `delay_samples` and scaled by `gain` into `dst`
/// without allocating. Samples that fall beyond `dst` are dropped, and so
/// is the whole signal when the delay is NaN, negative or lands past the
/// end of `dst` (including delays too large for `usize`).
///
/// Output-major: with `int = ⌊delay⌋`, `frac = delay − int` and
/// `out = dst[int..]`, each output is
/// `out[k] = (out[k] + g·src[k−1]·frac) + g·src[k]·(1−frac)`.
/// That is the order in which a source-major loop (`src[j]` adds its
/// `1−frac` share to `dst[j+int]`, then its `frac` share to
/// `dst[j+int+1]`) reaches each output, so the sums are bitwise the same,
/// but no iteration depends on another and the body vectorises. The two
/// boundary outputs, which see only one source sample, are peeled off,
/// and `frac == 0` has its own loop so no `±0·x` term is ever added.
// lint: allow(dead-pub) test-oracle delayed_add_matches_the_source_major_oracle the per-tap oracle for the per-lag multipath kernel
pub fn add_delayed_scaled(
    dst: &mut [f64],
    src: &[f64],
    delay_samples: f64,
    gain: f64, // lint: unitless — linear amplitude scale factor
) {
    if !(delay_samples >= 0.0) || gain == 0.0 {
        return;
    }
    let int = delay_samples.floor() as usize;
    let Some(out) = dst.get_mut(int..) else {
        return;
    };
    let frac = delay_samples - delay_samples.floor();
    let whole = 1.0 - frac;
    if frac == 0.0 {
        for (d, &s) in out.iter_mut().zip(src) {
            *d += gain * s * whole;
        }
        return;
    }
    let (Some((first, rest)), Some((&s0, src_next))) = (out.split_first_mut(), src.split_first())
    else {
        return;
    };
    *first += gain * s0 * whole;
    // rest[k] = out[k + 1] takes src[k] (frac), then src[k + 1] (1 − frac).
    let (body, tail) = rest.split_at_mut(rest.len().min(src_next.len()));
    for ((d, &a), &b) in body.iter_mut().zip(src).zip(src_next) {
        *d = (*d + gain * a * frac) + gain * b * whole;
    }
    // `tail` is non-empty only when `body` used all of `src_next`; its
    // first output then sees only the source's last sample.
    if let (Some(d), Some(&last)) = (tail.first_mut(), src.last()) {
        *d += gain * last * frac;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_delayed_scaled_superposes() {
        let src = vec![1.0, 1.0];
        let mut dst = vec![0.0; 6];
        add_delayed_scaled(&mut dst, &src, 1.0, 0.5);
        add_delayed_scaled(&mut dst, &src, 3.5, 1.0);
        assert_eq!(dst, vec![0.0, 0.5, 0.5, 0.5, 1.0, 0.5]);
    }

    #[test]
    fn add_delayed_scaled_drops_delays_past_the_end() {
        let src = vec![1.0, -2.0, 3.0];
        let before = vec![0.25; 8];
        for delay in [1e300, f64::INFINITY, before.len() as f64 + 0.5] {
            let mut dst = before.clone();
            add_delayed_scaled(&mut dst, &src, delay, 1.0);
            assert_eq!(dst, before, "delay {delay}");
        }
    }
}
