//! Fractional delay.
//!
//! The acoustic channel applies propagation delays that are not integer
//! numbers of samples; [`fractional_delay`] implements the linear-
//! interpolation delay line used by the channel simulator, and
//! [`add_delayed_scaled`] its allocation-free superposing form.
//! Anti-aliased decimation is [`crate::polyphase::PolyphaseDecimator`].

use crate::DspError;

/// Delay a signal by `delay_samples` (may be fractional, must be >= 0),
/// using linear interpolation between neighbouring samples. The output has
/// the same length as the input; the signal is zero before it "arrives".
pub fn fractional_delay(x: &[f64], delay_samples: f64) -> Result<Vec<f64>, DspError> {
    if !(delay_samples >= 0.0) || !delay_samples.is_finite() {
        return Err(DspError::InvalidParameter(
            "delay_samples must be finite and non-negative",
        ));
    }
    let int = delay_samples.floor() as usize;
    let frac = delay_samples - delay_samples.floor();
    let n = x.len();
    let mut y = vec![0.0; n];
    #[allow(clippy::needless_range_loop)] // index math mirrors the formula
    for i in 0..n {
        // y[i] = x[i - delay] interpolated.
        if i < int {
            continue;
        }
        let j = i - int;
        let a = x.get(j).copied().unwrap_or(0.0);
        let b = j.checked_sub(1).and_then(|k| x.get(k)).copied().unwrap_or(0.0);
        y[i] = a * (1.0 - frac) + b * frac;
    }
    Ok(y)
}

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
    use crate::mix::tone;

    #[test]
    fn integer_delay_shifts_exactly() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y = fractional_delay(&x, 2.0).unwrap();
        assert_eq!(y, vec![0.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn half_sample_delay_interpolates() {
        let x = vec![0.0, 1.0, 0.0, 0.0];
        let y = fractional_delay(&x, 0.5).unwrap();
        assert_eq!(y, vec![0.0, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn fractional_delay_of_tone_shifts_phase() {
        let fs_hz = 48_000.0;
        let f = 1_000.0;
        let x = tone(f, fs_hz, 0.0, 4800);
        let d = 7.3;
        let y = fractional_delay(&x, d).unwrap();
        // Compare against analytically delayed tone (skip the transient).
        let expected = tone(f, fs_hz, -std::f64::consts::TAU * f / fs_hz * d, 4800);
        for i in 100..4700 {
            assert!((y[i] - expected[i]).abs() < 0.01, "at {i}");
        }
    }

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

    #[test]
    fn rejects_invalid_parameters() {
        assert!(fractional_delay(&[1.0], -1.0).is_err());
        assert!(fractional_delay(&[1.0], f64::NAN).is_err());
    }
}
