//! Correlation utilities: packet detection by preamble correlation and
//! carrier-frequency-offset (CFO) estimation, per §5.1(b) of the paper
//! ("standard packet detection and carrier frequency offset correction
//! using the preamble").

use num_complex::Complex64;

/// Valid-mode complex correlation for baseband packet detection,
/// conjugating the template (the matched-filter convention), by the
/// direct O(N·M) loop. The reference the [`RunLengthTemplate`] fast path
/// is tested against.
// lint: allow(dead-pub) test-oracle cross_correlate_complex_matches_direct the direct-sum oracle for the run-length correlator
pub fn cross_correlate_complex_direct(
    signal: &[Complex64],
    template: &[Complex64],
) -> Vec<Complex64> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let m = template.len();
    (0..=signal.len() - m)
        .map(|i| {
            signal[i..i + m]
                .iter()
                .zip(template)
                .map(|(a, b)| a * b.conj())
                .sum()
        })
        .collect()
}

/// Output samples per prefix-sum tile of [`RunLengthTemplate::correlate_into`].
/// The prefix sum restarts at every tile, so its magnitude (and with it
/// the rounding error of each output) is bounded by about
/// `PREFIX_TILE + template.len()` samples, whatever the signal length.
// lint: allow(dead-pub) test-oracle run_length_matched_filter_matches_the_direct_correlation tile size the receiver tests straddle
pub const PREFIX_TILE: usize = 2048;

/// A real template that is constant over runs of samples — the ±1 FM0
/// preamble matched filter is one — held as the jumps between its runs.
///
/// With `P[j] = Σ_{l<j} x[l]` the prefix sum of the signal, the
/// correlation `Σ_k x[i+k]·t[k]` telescopes to `Σ_b c_b·P[i+o_b]`, one
/// tap per run boundary: `c_b = t[o_b − 1] − t[o_b]` (with
/// `t[−1] = t[len] = 0`). A template of `m` samples in `r` runs costs
/// `r + 1` taps per output instead of `m` multiply-accumulates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLengthTemplate {
    /// `(offset, jump)` per run boundary, in increasing offset.
    taps: Vec<(usize, f64)>,
    /// Template length in samples.
    len: usize,
    /// Template energy `sqrt(Σ t²)`.
    norm: f64,
}

impl RunLengthTemplate {
    /// Run-length form of `template`. Exact for ±1 templates, whose
    /// jumps are ±1 at the ends and ±2 inside.
    pub fn new(template: &[f64]) -> Self {
        let len = template.len();
        let mut taps = Vec::new();
        let mut prev = 0.0;
        for (o, &t) in template.iter().chain(std::iter::once(&0.0)).enumerate() {
            let jump = prev - t;
            if jump != 0.0 {
                taps.push((o, jump));
            }
            prev = t;
        }
        let norm = template.iter().map(|x| x * x).sum::<f64>().sqrt();
        RunLengthTemplate { taps, len, norm }
    }

    /// Template length in samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the empty template.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(offset, jump)` taps, one per run boundary.
    pub fn taps(&self) -> &[(usize, f64)] {
        &self.taps
    }

    /// Template energy `sqrt(Σ t²)`, summed over the dense template.
    // lint: unitless — in the template's own amplitude units
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Valid-mode correlation of `signal` against the template,
    /// `out[i] = Σ_k signal[i+k]·t[k]` for `i` in `0..=signal.len()−len`
    /// (the template is real, so this is [`cross_correlate_complex_direct`]'s
    /// conjugating correlation). `out` is cleared first and left empty
    /// when the template is empty or longer than the signal.
    ///
    /// Outputs are computed [`PREFIX_TILE`] at a time from a prefix sum
    /// restarted at each tile's first sample and held in `prefix`, so the
    /// workspace stays `PREFIX_TILE + len` samples long and a warm pair
    /// of buffers makes the call allocation-free. The taps sum to zero,
    /// so the restart offset cancels from every output.
    // lint: allow(dead-pub) test-oracle run_length_matched_filter_matches_the_direct_correlation the allocating form the correlation tests check against the direct one
    pub fn correlate_into(
        &self,
        signal: &[Complex64],
        prefix: &mut Vec<Complex64>,
        out: &mut Vec<Complex64>,
    ) {
        out.clear();
        if self.len == 0 || signal.len() < self.len {
            return;
        }
        out.resize(signal.len() - self.len + 1, Complex64::new(0.0, 0.0));
        self.correlate_add(signal, prefix, out);
    }

    /// [`correlate_into`](Self::correlate_into) added onto a caller-owned
    /// slice of exactly `signal.len() − len + 1` outputs: on a zeroed
    /// `out` it leaves bitwise what `correlate_into` returns. For a caller
    /// that lends the correlation a slice of a longer workspace. `prefix`
    /// grows exactly to the tile's need, never by amortised doubling.
    pub fn correlate_add(
        &self,
        signal: &[Complex64],
        prefix: &mut Vec<Complex64>,
        out: &mut [Complex64],
    ) {
        let m = self.len;
        if m == 0 || signal.len() < m {
            return;
        }
        let zero = Complex64::new(0.0, 0.0);
        let out_len = signal.len() - m + 1;
        assert_eq!(out.len(), out_len, "one output per window");
        prefix.clear();
        prefix.reserve_exact(out_len.min(PREFIX_TILE) + m);
        let mut i0 = 0;
        while i0 < out_len {
            let t = (out_len - i0).min(PREFIX_TILE);
            prefix.clear();
            prefix.push(zero);
            let mut acc = zero;
            // lint: allow(panic-path) i0 + t <= out_len, so i0 + t + m - 1 <= signal.len()
            for &x in &signal[i0..i0 + t + m - 1] {
                acc += x;
                prefix.push(acc);
            }
            // Taps outer, four per pass over the tile: each output still
            // adds its taps one at a time in offset order, while the inner
            // loop streams contiguous rows of the prefix.
            // lint: allow(panic-path) i0 + t <= out_len
            let tile = &mut out[i0..i0 + t];
            // lint: allow(panic-path) every offset is <= m and prefix.len() == t + m
            let row = |o: usize| &prefix[o..o + t];
            for quad in self.taps.chunks(4) {
                match *quad {
                    [(o0, c0), (o1, c1), (o2, c2), (o3, c3)] => {
                        let rows = row(o0).iter().zip(row(o1)).zip(row(o2)).zip(row(o3));
                        for (y, (((&p0, &p1), &p2), &p3)) in tile.iter_mut().zip(rows) {
                            *y = *y + p0 * c0 + p1 * c1 + p2 * c2 + p3 * c3;
                        }
                    }
                    _ => {
                        for &(o, c) in quad {
                            for (y, &p) in tile.iter_mut().zip(row(o)) {
                                *y += p * c;
                            }
                        }
                    }
                }
            }
            i0 += t;
        }
    }
}

/// Estimate a carrier frequency offset from a known-constant-envelope
/// segment of complex baseband: the mean phase increment per sample maps
/// to a frequency. Returns Hz. The segment should contain only the
/// preamble's carrier-on portion.
pub fn estimate_cfo_hz(baseband: &[Complex64], fs_hz: f64) -> f64 {
    if baseband.len() < 2 {
        return 0.0;
    }
    let mut acc = Complex64::new(0.0, 0.0);
    for w in baseband.windows(2) {
        acc += w[1] * w[0].conj();
    }
    let dphi = acc.arg();
    dphi * fs_hz / std::f64::consts::TAU
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{complex_tone, tone};

    fn complex(x: &[f64]) -> Vec<Complex64> {
        x.iter().map(|&v| Complex64::new(v, 0.0)).collect()
    }

    /// Index and value of the largest `score` over the outputs.
    fn peak(scores: impl Iterator<Item = f64>) -> (usize, f64) {
        scores
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
    }

    #[test]
    fn correlation_peaks_at_embedded_template() {
        let template = vec![1.0, -1.0, 1.0, 1.0, -1.0];
        let mut signal = vec![0.1; 50];
        for (i, &t) in template.iter().enumerate() {
            signal[20 + i] = t;
        }
        let (mut prefix, mut out) = (Vec::new(), Vec::new());
        RunLengthTemplate::new(&template).correlate_into(&complex(&signal), &mut prefix, &mut out);
        assert_eq!(peak(out.iter().map(|c| c.re)).0, 20);
    }

    #[test]
    fn normalized_correlation_is_scale_invariant() {
        // The receiver's normalisation: |acc| / (‖window‖·‖template‖).
        let template = vec![1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0];
        let mut signal = vec![0.0; 64];
        for (i, &t) in template.iter().enumerate() {
            signal[30 + i] = 0.001 * t; // tiny amplitude
        }
        let rl = RunLengthTemplate::new(&template);
        let x = complex(&signal);
        let (mut prefix, mut out) = (Vec::new(), Vec::new());
        rl.correlate_into(&x, &mut prefix, &mut out);
        let (imax, v) = peak(out.iter().enumerate().map(|(i, acc)| {
            let energy: f64 = x[i..i + rl.len()].iter().map(|c| c.norm_sqr()).sum();
            if energy == 0.0 {
                0.0
            } else {
                acc.norm() / (energy.sqrt() * rl.norm())
            }
        }));
        assert_eq!(imax, 30);
        assert!(v > 0.999, "v={v}");
    }

    #[test]
    fn empty_and_short_inputs_yield_empty() {
        let one = [Complex64::new(1.0, 0.0)];
        assert!(cross_correlate_complex_direct(&one, &[one[0], one[0]]).is_empty());
        assert!(cross_correlate_complex_direct(&one, &[]).is_empty());
        assert!(cross_correlate_complex_direct(&[], &one).is_empty());
        let (mut prefix, mut out) = (Vec::new(), vec![one[0]]);
        RunLengthTemplate::new(&[1.0, 2.0]).correlate_into(&one, &mut prefix, &mut out);
        assert!(out.is_empty());
        RunLengthTemplate::new(&[]).correlate_into(&one, &mut prefix, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_template_gives_zero_correlation() {
        let rl = RunLengthTemplate::new(&[0.0, 0.0]);
        assert!(rl.taps().is_empty());
        assert_eq!(rl.norm(), 0.0);
        let (mut prefix, mut out) = (Vec::new(), Vec::new());
        rl.correlate_into(&complex(&[1.0, 2.0, 3.0]), &mut prefix, &mut out);
        assert_eq!(out, vec![Complex64::new(0.0, 0.0); 2]);
    }

    #[test]
    fn complex_correlation_detects_offset_tone() {
        let tpl = complex_tone(1_000.0, 48_000.0, 0.0, 96);
        let mut sig = vec![Complex64::new(0.0, 0.0); 400];
        for (i, &t) in tpl.iter().enumerate() {
            sig[100 + i] = t;
        }
        let c = cross_correlate_complex_direct(&sig, &tpl);
        assert_eq!(peak(c.iter().map(|x| x.norm())).0, 100);
    }

    #[test]
    fn run_length_taps_are_the_run_jumps() {
        let rl = RunLengthTemplate::new(&[1.0, 1.0, -1.0, -1.0, -1.0, 1.0]);
        assert_eq!(rl.taps(), &[(0, -1.0), (2, 2.0), (5, -2.0), (6, 1.0)]);
        assert_eq!(rl.len(), 6);
        assert!((rl.norm() - 6f64.sqrt()).abs() < 1e-15);
        assert!(RunLengthTemplate::new(&[]).is_empty());
    }

    #[test]
    fn run_length_matches_direct_across_tile_boundaries() {
        // A piecewise-constant template with uneven runs and values.
        let tpl: Vec<f64> = (0..77)
            .map(|i| match (i / 9) % 3 {
                0 => 1.0,
                1 => -0.5,
                _ => 2.0,
            })
            .collect();
        let tc: Vec<Complex64> = tpl.iter().map(|&t| Complex64::new(t, 0.0)).collect();
        let rl = RunLengthTemplate::new(&tpl);
        let m = tpl.len();
        let (mut prefix, mut out) = (Vec::new(), Vec::new());
        for outputs in [
            1,
            2,
            PREFIX_TILE - 1,
            PREFIX_TILE,
            PREFIX_TILE + 1,
            2 * PREFIX_TILE + 1,
        ] {
            let signal: Vec<Complex64> = (0..outputs + m - 1)
                .map(|i| Complex64::new(((i * 13) % 23) as f64 - 11.0, ((i * 5) % 9) as f64))
                .collect();
            rl.correlate_into(&signal, &mut prefix, &mut out);
            let want = cross_correlate_complex_direct(&signal, &tc);
            assert_eq!(out.len(), want.len());
            assert!(
                prefix.len() <= PREFIX_TILE + m,
                "prefix tile grew to {}",
                prefix.len()
            );
            for (i, (a, b)) in out.iter().zip(&want).enumerate() {
                assert!((a - b).norm() < 1e-9, "outputs={outputs} i={i}: {a} vs {b}");
            }
        }
        rl.correlate_into(
            &vec![Complex64::new(1.0, 0.0); m - 1],
            &mut prefix,
            &mut out,
        );
        assert!(
            out.is_empty(),
            "a signal shorter than the template has no valid output"
        );
    }

    #[test]
    fn cfo_estimate_recovers_known_offset() {
        let fs_hz = 48_000.0;
        // A 75 Hz residual spin on baseband.
        let bb = complex_tone(75.0, fs_hz, 0.3, 4800);
        let cfo = estimate_cfo_hz(&bb, fs_hz);
        assert!((cfo - 75.0).abs() < 0.5, "cfo={cfo}");
    }

    #[test]
    fn cfo_of_real_tone_downconverted_with_wrong_carrier() {
        let fs_hz = 192_000.0;
        let sig = tone(15_050.0, fs_hz, 0.0, 19_200);
        let bb = crate::mix::downconvert(&sig, 15_000.0, fs_hz);
        // Remove the double-frequency image first.
        let lp = crate::iir::butter_lowpass(4, 2_000.0, fs_hz).unwrap();
        let bbf = lp.filtfilt_complex(&bb);
        let cfo = estimate_cfo_hz(&bbf[2_000..17_000], fs_hz);
        assert!((cfo - 50.0).abs() < 2.0, "cfo={cfo}");
    }
}
