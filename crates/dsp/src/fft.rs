//! Test-only spectral analysis oracles: a forward FFT, and the spectrum,
//! peak-search and spectrogram helpers built on it. No simulator stage
//! uses an FFT, so the module is compiled for tests only.

use num_complex::Complex64;
use rustfft::FftPlanner;

/// Forward FFT of a complex buffer (in place semantics hidden; returns a new
/// vector). Length may be any size supported by rustfft (all sizes are).
pub(crate) fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut buf = input.to_vec();
    FftPlanner::new().plan_fft_forward(buf.len()).process(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::tone;
    use crate::window::Window;
    use crate::DspError;

    /// A spectral peak located by [`find_peaks`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Peak {
        /// Peak frequency in Hz (bin center).
        frequency_hz: f64,
        /// Peak amplitude in the same units as the input spectrum.
        amplitude: f64,
    }

    /// Result of [`spectrogram`]: `(times_s, freqs_hz, magnitudes)`.
    type Spectrogram = (Vec<f64>, Vec<f64>, Vec<Vec<f64>>);

    /// Inverse FFT with 1/N normalisation so `ifft(fft(x)) == x`.
    fn ifft(input: &[Complex64]) -> Vec<Complex64> {
        let mut buf = input.to_vec();
        FftPlanner::new().plan_fft_inverse(buf.len()).process(&mut buf);
        let scale = 1.0 / buf.len() as f64;
        buf.iter().map(|c| c * scale).collect()
    }

    /// One-sided amplitude spectrum of a real signal.
    ///
    /// Applies `window`, computes the FFT and returns `(frequencies_hz,
    /// amplitudes)` for bins `0..=N/2`. Amplitudes are normalised by window
    /// coherent gain and scaled so a full-scale sine of amplitude `A` shows a
    /// peak of `A`.
    fn amplitude_spectrum(
        signal: &[f64],
        fs_hz: f64,
        window: Window,
    ) -> Result<(Vec<f64>, Vec<f64>), DspError> {
        if signal.len() < 2 {
            return Err(DspError::InputTooShort {
                needed: 2,
                got: signal.len(),
            });
        }
        if !(fs_hz > 0.0) {
            return Err(DspError::InvalidParameter("fs_hz must be positive"));
        }
        let n = signal.len();
        let w = window.generate(n);
        let gain = window.coherent_gain(n);
        let buf: Vec<Complex64> = signal
            .iter()
            .zip(&w)
            .map(|(&s, &w)| Complex64::new(s * w, 0.0))
            .collect();
        let buf = fft(&buf);
        let half = n / 2;
        let mut freqs = Vec::with_capacity(half + 1);
        let mut amps = Vec::with_capacity(half + 1);
        for (k, c) in buf.iter().take(half + 1).enumerate() {
            freqs.push(k as f64 * fs_hz / n as f64);
            // Factor 2 accounts for the mirrored negative-frequency energy
            // (except at DC and Nyquist).
            let two = if k == 0 || (n.is_multiple_of(2) && k == half) {
                1.0
            } else {
                2.0
            };
            amps.push(two * c.norm() / (n as f64 * gain));
        }
        Ok((freqs, amps))
    }

    /// Find up to `max_peaks` local maxima above `threshold`, sorted by
    /// descending amplitude, with a minimum spacing of `min_separation_hz`
    /// between reported peaks. This mirrors the receiver's carrier search.
    fn find_peaks(
        freqs: &[f64],
        amps: &[f64],
        threshold: f64, // lint: unitless — in the spectrum's own amplitude units
        min_separation_hz: f64,
        max_peaks: usize,
    ) -> Vec<Peak> {
        assert_eq!(freqs.len(), amps.len(), "spectrum arrays must align");
        let mut candidates: Vec<Peak> = Vec::new();
        for i in 1..amps.len().saturating_sub(1) {
            if amps[i] >= threshold && amps[i] >= amps[i - 1] && amps[i] >= amps[i + 1] {
                candidates.push(Peak {
                    frequency_hz: freqs[i],
                    amplitude: amps[i],
                });
            }
        }
        candidates.sort_by(|a, b| b.amplitude.total_cmp(&a.amplitude));
        let mut kept: Vec<Peak> = Vec::new();
        for c in candidates {
            if kept.len() >= max_peaks {
                break;
            }
            if kept
                .iter()
                .all(|k| (k.frequency_hz - c.frequency_hz).abs() >= min_separation_hz)
            {
                kept.push(c);
            }
        }
        kept
    }

    /// A short-time Fourier magnitude spectrogram.
    ///
    /// Returns `(times_s, freqs_hz, magnitudes)` where `magnitudes[t][k]` is
    /// the windowed amplitude of frame `t` at frequency bin `k` — the
    /// diagnostic view used to eyeball downlink keying and backscatter
    /// sidebands (the time-frequency version of Fig. 2).
    fn spectrogram(
        signal: &[f64],
        fs_hz: f64,
        frame_len: usize,
        hop: usize,
        window: Window,
    ) -> Result<Spectrogram, DspError> {
        if frame_len < 2 {
            return Err(DspError::InvalidOrder(frame_len));
        }
        if hop == 0 {
            return Err(DspError::InvalidParameter("hop must be positive"));
        }
        if signal.len() < frame_len {
            return Err(DspError::InputTooShort {
                needed: frame_len,
                got: signal.len(),
            });
        }
        let mut times = Vec::new();
        let mut mags = Vec::new();
        let mut freqs = Vec::new();
        let mut start = 0;
        while start + frame_len <= signal.len() {
            let (f, a) = amplitude_spectrum(&signal[start..start + frame_len], fs_hz, window)?;
            if freqs.is_empty() {
                freqs = f;
            }
            times.push((start + frame_len / 2) as f64 / fs_hz);
            mags.push(a);
            start += hop;
        }
        Ok((times, freqs, mags))
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new(i as f64, (i * i % 7) as f64))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).norm() < 1e-9);
        }
    }

    #[test]
    fn spectrum_of_sine_peaks_at_tone_frequency() {
        let fs_hz = 192_000.0;
        let sig = tone(15_000.0, fs_hz, 0.0, 8192);
        let (f, a) = amplitude_spectrum(&sig, fs_hz, Window::Hann).unwrap();
        let (imax, _) = a
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .unwrap();
        assert!((f[imax] - 15_000.0).abs() < fs_hz / 8192.0 * 1.5);
        // Amplitude calibration: unit sine should read ~1.0.
        assert!((a[imax] - 1.0).abs() < 0.05, "amp {}", a[imax]);
    }

    #[test]
    fn detects_two_carriers() {
        let fs_hz = 192_000.0;
        let n = 16384;
        let mut sig = tone(15_000.0, fs_hz, 0.0, n);
        let t2 = tone(18_000.0, fs_hz, 0.3, n);
        for (s, t) in sig.iter_mut().zip(&t2) {
            *s += 0.8 * t;
        }
        let (f, a) = amplitude_spectrum(&sig, fs_hz, Window::Hann).unwrap();
        let peaks = find_peaks(&f, &a, 0.1, 500.0, 4);
        assert_eq!(peaks.len(), 2);
        let mut fs_found: Vec<f64> = peaks.iter().map(|p| p.frequency_hz).collect();
        fs_found.sort_by(f64::total_cmp);
        assert!((fs_found[0] - 15_000.0).abs() < 30.0);
        assert!((fs_found[1] - 18_000.0).abs() < 30.0);
    }

    #[test]
    fn min_separation_merges_close_peaks() {
        let freqs: Vec<f64> = (0..10).map(|i| i as f64 * 10.0).collect();
        let amps = vec![0.0, 1.0, 0.5, 0.9, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0];
        let peaks = find_peaks(&freqs, &amps, 0.1, 25.0, 10);
        // 1.0 at 10 Hz wins; 0.9 at 30 Hz is within 25 Hz so suppressed;
        // 0.8 at 70 Hz survives.
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].frequency_hz, 10.0);
        assert_eq!(peaks[1].frequency_hz, 70.0);
    }

    #[test]
    fn spectrogram_tracks_a_frequency_step() {
        let fs_hz = 48_000.0;
        let mut sig = tone(2_000.0, fs_hz, 0.0, 24_000);
        sig.extend(tone(6_000.0, fs_hz, 0.0, 24_000));
        let (times, freqs, mags) =
            spectrogram(&sig, fs_hz, 2_048, 1_024, Window::Hann).unwrap();
        assert_eq!(times.len(), mags.len());
        let peak_freq = |frame: &Vec<f64>| {
            let (i, _) = frame
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap();
            freqs[i]
        };
        // Early frames at 2 kHz, late frames at 6 kHz.
        assert!((peak_freq(&mags[1]) - 2_000.0).abs() < 100.0);
        let last = mags.len() - 2;
        assert!((peak_freq(&mags[last]) - 6_000.0).abs() < 100.0);
    }

    #[test]
    fn spectrogram_rejects_bad_parameters() {
        let sig = tone(1_000.0, 48_000.0, 0.0, 4_096);
        assert!(spectrogram(&sig, 48_000.0, 1, 256, Window::Hann).is_err());
        assert!(spectrogram(&sig, 48_000.0, 1_024, 0, Window::Hann).is_err());
        assert!(spectrogram(&sig[..100], 48_000.0, 1_024, 256, Window::Hann).is_err());
    }

    #[test]
    fn spectrum_rejects_bad_input() {
        assert!(amplitude_spectrum(&[1.0], 100.0, Window::Hann).is_err());
        assert!(amplitude_spectrum(&[1.0, 2.0], 0.0, Window::Hann).is_err());
    }
}
