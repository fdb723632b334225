//! Decoding concurrent backscatter transmissions (§3.3.2, Fig. 10).
//!
//! Backscatter is frequency-agnostic: a powered-up node modulates *all*
//! impinging carriers, so band-pass filtering cannot separate two
//! concurrent nodes. But the two carriers give the hydrophone two
//! observations of the same two unknown switching waveforms through
//! *different* frequency-selective channels:
//!
//! ```text
//! y(f1) = c1 + h11·x1 + h21·x2
//! y(f2) = c2 + h12·x1 + h22·x2
//! ```
//!
//! Estimating the (affine) channel matrix from known training data and
//! zero-forcing (channel inversion) recovers `x1, x2` — "standard MIMO
//! decoding techniques", exploiting frequency rather than spatial
//! diversity.

use crate::CoreError;
use pab_dsp::stats::{mean, variance};

/// Condition number above which a channel matrix is treated as
/// numerically singular: `1 / (4·ε)` ≈ 1.1e15. Past this point the
/// inverse amplifies rounding error to the size of the answer itself, so
/// zero-forcing would return garbage. The threshold is *relative* — a
/// well-conditioned matrix of ~1e-9 gains (a long-range link after
/// spreading/absorption losses) sails through, where the old absolute
/// `det.abs() < 1e-15` test wrongly rejected it (det scales as gain²).
// lint: unitless condition number (ratio of singular values)
const SINGULAR_CONDITION: f64 = 1.0 / (4.0 * f64::EPSILON);

/// Relative pivot threshold for Gaussian elimination: a pivot below
/// `scale · 1e-12` (where `scale` is the largest |entry| of the input
/// matrix) marks the system as singular. The 1e-12 slack matches the old
/// absolute cutoff at unit scale, but no longer rejects uniformly tiny,
/// well-conditioned systems.
// lint: unitless relative threshold on pivot magnitude
const PIVOT_RTOL: f64 = 1e-12;

/// Solve a small dense linear system `A X = B` with `M` right-hand sides
/// by Gaussian elimination with partial pivoting. `a` is row-major `n×n`
/// and `b[i]` is row `i` of `B`. The pivots depend on `A` alone and every
/// column of `B` gets the same operations, so each column of `X` is
/// bitwise what a one-column solve gives.
fn solve_linear<const M: usize>(a: &[Vec<f64>], b: &[[f64; M]]) -> Result<Vec<[f64; M]>, CoreError> {
    let n = b.len();
    if a.len() != n || a.iter().any(|r| r.len() != n) {
        return Err(CoreError::InvalidConfig("non-square system"));
    }
    // Non-finite entries would pass the singularity tests below (see
    // `solve_linear_complex`).
    if !(a.iter().flatten().all(|v| v.is_finite()) && b.iter().flatten().all(|v| v.is_finite())) {
        return Err(CoreError::InvalidConfig("non-finite system"));
    }
    // Relative singularity scale: the largest entry of the input matrix.
    // An all-zero matrix is singular outright.
    let scale = a
        .iter()
        .flat_map(|r| r.iter())
        .fold(0.0f64, |acc, &v| acc.max(v.abs()));
    if n > 0 && !(scale > 0.0) {
        return Err(CoreError::InvalidConfig("singular system"));
    }
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b)
        .map(|(row, bi)| {
            let mut r = row.clone();
            r.extend_from_slice(bi);
            r
        })
        .collect();
    for col in 0..n {
        // Pivot.
        let (pivot, max) = (col..n)
            // lint: allow(panic-path) r ranges over col..n and m has n rows
            .map(|r| (r, m[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            // lint: allow(no-unwrap-in-lib) col < n, so the iterator is non-empty
            .unwrap();
        if max < scale * PIVOT_RTOL {
            return Err(CoreError::InvalidConfig("singular system"));
        }
        m.swap(col, pivot);
        for row in 0..n {
            if row != col {
                let f = m[row][col] / m[col][col];
                for k in col..n + M {
                    m[row][k] -= f * m[col][k];
                }
            }
        }
    }
    Ok((0..n).map(|i| std::array::from_fn(|j| m[i][n + j] / m[i][i])).collect())
}

/// SINR (dB) of an estimated stream against its ground truth: regress
/// `est = α + β·truth` and compare explained to residual power.
fn sinr_db(estimate: &[f64], truth: &[f64]) -> f64 {
    let n = estimate.len().min(truth.len());
    if n < 2 {
        return f64::NEG_INFINITY;
    }
    let (est, tr) = (&estimate[..n], &truth[..n]);
    let (alpha, beta) = pab_dsp::stats::linear_fit(tr, est);
    let signal = beta * beta * variance(tr);
    let resid: f64 = est
        .iter()
        .zip(tr)
        .map(|(&e, &t)| {
            let r = e - alpha - beta * t;
            r * r
        })
        .sum::<f64>()
        / n as f64;
    pab_dsp::stats::snr_db(signal, resid)
}

/// Normalise an envelope into a zero-mean stream estimate (the "before
/// projection" baseline: treat band *i*'s envelope as if it were stream
/// *i* alone).
pub fn naive_stream_estimate(envelope: &[f64]) -> Vec<f64> {
    let m = mean(envelope);
    envelope.iter().map(|&e| e - m).collect()
}

/// Complex affine channel of one receive band's *baseband* observation:
/// `y = offset + gains · x` with real transmit streams `x`.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexAffineChannel {
    /// Complex DC offset (the un-modulated carrier phasor).
    pub offset: num_complex::Complex64,
    /// Complex gain per transmit stream.
    pub gains: Vec<num_complex::Complex64>,
}

/// Least-squares estimate of a complex affine channel from known real
/// training streams: minimises `Σ |y − c − Σ_i a_i x_i|²`. The streams
/// are real, so the real and imaginary parts regress on one normal matrix
/// and are solved as its two right-hand sides.
pub fn estimate_channel_complex(
    y: &[num_complex::Complex64],
    x: &[&[f64]],
) -> Result<ComplexAffineChannel, CoreError> {
    let n = y.len();
    if n == 0 || x.is_empty() {
        return Err(CoreError::InvalidConfig("empty training data"));
    }
    if x.iter().any(|xi| xi.len() != n) {
        return Err(CoreError::InvalidConfig("training length mismatch"));
    }
    // Design matrix columns: [1, x_0, ..., x_{k-1}]; normal equations.
    let dim = x.len() + 1;
    let mut ata = vec![vec![0.0; dim]; dim];
    let mut atb = vec![[0.0; 2]; dim];
    let col = |i: usize, t: usize| -> f64 {
        if i == 0 {
            1.0
        } else {
            x[i - 1][t]
        }
    };
    for (t, yt) in y.iter().enumerate() {
        for i in 0..dim {
            let ci = col(i, t);
            atb[i][0] += ci * yt.re;
            atb[i][1] += ci * yt.im;
            for j in 0..dim {
                ata[i][j] += ci * col(j, t);
            }
        }
    }
    let sol = solve_linear(&ata, &atb)?;
    let c = |[re, im]: [f64; 2]| num_complex::Complex64::new(re, im);
    Ok(ComplexAffineChannel {
        offset: c(sol[0]),
        gains: sol[1..].iter().map(|&s| c(s)).collect(),
    })
}

/// Solve a small dense *complex* linear system `A x = b` by Gaussian
/// elimination with partial pivoting (row-major `n×n`).
fn solve_linear_complex(
    a: &[Vec<num_complex::Complex64>],
    b: &[num_complex::Complex64],
) -> Result<Vec<num_complex::Complex64>, CoreError> {
    use num_complex::Complex64;
    let n = b.len();
    if a.len() != n || a.iter().any(|r| r.len() != n) {
        return Err(CoreError::InvalidConfig("non-square system"));
    }
    // A NaN would slip past both singularity tests below (`f64::max`
    // drops it from the scale and `NaN < x` is false) and come out as a
    // NaN solution; an infinity would be misreported as singular.
    let finite = |v: &Complex64| v.re.is_finite() && v.im.is_finite();
    if !(a.iter().flatten().all(finite) && b.iter().all(finite)) {
        return Err(CoreError::InvalidConfig("non-finite system"));
    }
    // Relative singularity scale, as in the real-valued solver.
    let scale = a
        .iter()
        .flat_map(|r| r.iter())
        .fold(0.0f64, |acc, v| acc.max(v.norm()));
    if n > 0 && !(scale > 0.0) {
        return Err(CoreError::InvalidConfig("singular system"));
    }
    let mut m: Vec<Vec<Complex64>> = a
        .iter()
        .zip(b)
        .map(|(row, &bi)| {
            let mut r = row.clone();
            r.push(bi);
            r
        })
        .collect();
    for col in 0..n {
        let (pivot, max) = (col..n)
            // lint: allow(panic-path) r ranges over col..n and m has n rows
            .map(|r| (r, m[r][col].norm()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            // lint: allow(no-unwrap-in-lib) col < n, so the iterator is non-empty
            .unwrap();
        if max < scale * PIVOT_RTOL {
            return Err(CoreError::InvalidConfig("singular system"));
        }
        m.swap(col, pivot);
        for row in 0..n {
            if row != col {
                let f = m[row][col] / m[col][col];
                for k in col..=n {
                    let sub = f * m[col][k];
                    m[row][k] -= sub;
                }
            }
        }
    }
    Ok((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

/// Invert an `n×n` complex matrix by solving against identity columns.
fn invert_complex(
    a: &[Vec<num_complex::Complex64>],
) -> Result<Vec<Vec<num_complex::Complex64>>, CoreError> {
    use num_complex::Complex64;
    let n = a.len();
    let mut cols = Vec::with_capacity(n);
    for j in 0..n {
        let mut e = vec![Complex64::new(0.0, 0.0); n];
        e[j] = Complex64::new(1.0, 0.0);
        cols.push(solve_linear_complex(a, &e)?);
    }
    // cols[j][i] = (A^-1)[i][j]; transpose into row-major.
    Ok((0..n)
        .map(|i| (0..n).map(|j| cols[j][i]).collect())
        .collect())
}

/// Coherent zero-forcing of `n` real streams from `n` complex baseband
/// bands: invert the complex `n×n` channel matrix and take the real part
/// (the transmit streams are real switching waveforms). Serves the Fig. 10
/// pair and §8's larger FDMA deployments alike.
pub fn zero_force_n_complex(
    y: &[Vec<num_complex::Complex64>],
    ch: &[ComplexAffineChannel],
) -> Result<Vec<Vec<f64>>, CoreError> {
    let n = y.len();
    if n == 0 || ch.len() != n || ch.iter().any(|c| c.gains.len() != n) {
        return Err(CoreError::InvalidConfig("band/stream count mismatch"));
    }
    // Scale-invariant singularity test: the condition number doesn't care
    // whether the gains are O(1) or O(1e-9), only whether the bands'
    // observations are linearly independent. Surface it instead of
    // failing deep inside the solver.
    let condition_number = condition_number_n(ch);
    if !(condition_number < SINGULAR_CONDITION) {
        return Err(CoreError::SingularChannel { condition_number });
    }
    let a: Vec<Vec<num_complex::Complex64>> =
        ch.iter().map(|c| c.gains.clone()).collect();
    let inv = invert_complex(&a)?;
    let len = y.iter().map(Vec::len).min().unwrap_or(0);
    let mut out = vec![Vec::with_capacity(len); n];
    for t in 0..len {
        for (i, row) in inv.iter().enumerate() {
            let mut acc = num_complex::Complex64::new(0.0, 0.0);
            for (j, &w) in row.iter().enumerate() {
                acc += w * (y[j][t] - ch[j].offset);
            }
            out[i].push(acc.re);
        }
    }
    Ok(out)
}

/// Condition number of an `n×n` complex channel matrix: the ratio of its
/// largest to smallest singular value — the paper's footnote 7 argues
/// recto-piezos make this matrix better conditioned. A 2×2 matrix takes
/// the closed form; larger ones use power iteration on `A^H A`, adequate
/// for the small matrices here.
// lint: unitless condition number (ratio of singular values)
pub fn condition_number_n(ch: &[ComplexAffineChannel]) -> f64 {
    let n = ch.len();
    if n == 0 || ch.iter().any(|c| c.gains.len() != n) {
        return f64::INFINITY;
    }
    if n == 2 {
        return closed_form_kappa_2x2(ch);
    }
    power_iteration_kappa(ch)
}

/// Closed-form singular values of the complex 2×2 matrix
/// `[[a, b], [c, d]]`.
fn closed_form_kappa_2x2(ch: &[ComplexAffineChannel]) -> f64 {
    let a = ch[0].gains[0];
    let b = ch[0].gains[1];
    let c = ch[1].gains[0];
    let d = ch[1].gains[1];
    let q1 = a.norm_sqr() + b.norm_sqr() + c.norm_sqr() + d.norm_sqr();
    let det = (a * d - b * c).norm();
    let q2 = (q1 * q1 - 4.0 * det * det).max(0.0).sqrt();
    let s_max = ((q1 + q2) / 2.0).sqrt();
    let s_min = ((q1 - q2) / 2.0).max(0.0).sqrt();
    if s_min == 0.0 {
        f64::INFINITY
    } else {
        s_max / s_min
    }
}

/// Condition number by power iteration (largest eigenvalue of `A^H A`)
/// and inverse power iteration (smallest) on a square matrix.
fn power_iteration_kappa(ch: &[ComplexAffineChannel]) -> f64 {
    use num_complex::Complex64;
    let n = ch.len();
    // Gram matrix G = A^H A (Hermitian positive semidefinite).
    let a: Vec<Vec<Complex64>> = ch.iter().map(|c| c.gains.clone()).collect();
    let mut g = vec![vec![Complex64::new(0.0, 0.0); n]; n];
    for i in 0..n {
        for j in 0..n {
            for row in &a {
                g[i][j] += row[i].conj() * row[j];
            }
        }
    }
    let mat_vec = |m: &Vec<Vec<Complex64>>, v: &[Complex64]| -> Vec<Complex64> {
        m.iter()
            .map(|row| row.iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect()
    };
    // Largest eigenvalue of G by power iteration.
    let mut v = vec![Complex64::new(1.0, 0.0); n];
    let mut lam_max = 0.0;
    for _ in 0..100 {
        let w = mat_vec(&g, &v);
        let norm = w.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        if norm == 0.0 {
            return f64::INFINITY;
        }
        lam_max = norm;
        v = w.into_iter().map(|c| c / norm).collect();
    }
    // Smallest via inverse power iteration (solve G x = v).
    let mut v = vec![Complex64::new(1.0, 0.0); n];
    let mut lam_min_inv = 0.0;
    for _ in 0..100 {
        let w = match solve_linear_complex(&g, &v) {
            Ok(w) => w,
            Err(_) => return f64::INFINITY,
        };
        let norm = w.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        if norm == 0.0 {
            return f64::INFINITY;
        }
        lam_min_inv = norm;
        v = w.into_iter().map(|c| c / norm).collect();
    }
    let lam_min = 1.0 / lam_min_inv;
    (lam_max / lam_min).sqrt()
}

/// SINR against a *binary* ground-truth switching stream, accounting for
/// the receive chain's band-limiting and for residual time misalignment:
/// the truth is smoothed with the demodulator's low-pass (so the ideal
/// edges don't count as noise) and the best lag within ±`max_lag` samples
/// is used.
pub fn aligned_sinr_db(
    estimate: &[f64],
    truth01: &[f64],
    fs_hz: f64,
    bitrate_bps: f64,
    max_lag: usize,
) -> f64 {
    let n = estimate.len().min(truth01.len());
    if n < 4 * max_lag + 16 {
        return sinr_db(estimate, truth01);
    }
    let cutoff = (2.0 * bitrate_bps).clamp(200.0, 0.4 * fs_hz);
    let smooth = match pab_dsp::iir::butter_lowpass(4, cutoff, fs_hz) {
        Ok(lp) => lp.filtfilt(&truth01[..n]),
        Err(_) => truth01[..n].to_vec(),
    };
    let mut best = f64::NEG_INFINITY;
    let mut lag: i64 = -(max_lag as i64);
    while lag <= max_lag as i64 {
        let (e_off, t_off) = if lag >= 0 {
            (lag as usize, 0usize) // lint: allow(lossy-cast) lag >= 0 in this branch
        } else {
            (0usize, (-lag) as usize) // lint: allow(lossy-cast) lag < 0 in this branch
        };
        let m = n - lag.unsigned_abs() as usize; // lint: allow(lossy-cast) lossless widening on 64-bit
        // lint: allow(panic-path) e_off/t_off + m <= n: m = n - |lag| by construction
        let s = sinr_db(&estimate[e_off..e_off + m], &smooth[t_off..t_off + m]);
        if s > best {
            best = s;
        }
        lag += 8;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_complex::Complex64;
    use pab_channel::noise::standard_normal;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn square_wave(n: usize, period: usize, phase: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if ((i + phase) / period).is_multiple_of(2) { 1.0 } else { 0.0 })
            .collect()
    }

    /// A 2×2 band-major channel with zero offset and the given gains.
    fn pair(gains: [[Complex64; 2]; 2]) -> Vec<ComplexAffineChannel> {
        gains
            .iter()
            .map(|row| ComplexAffineChannel {
                offset: Complex64::new(0.0, 0.0),
                gains: row.to_vec(),
            })
            .collect()
    }

    /// Noise-free band observations `y[b] = offset[b] + Σ_i h[b][i] x_i`.
    fn observe(ch: &[ComplexAffineChannel], xs: &[&[f64]]) -> Vec<Vec<Complex64>> {
        ch.iter()
            .map(|c| {
                (0..xs[0].len())
                    .map(|t| {
                        c.offset
                            + c.gains
                                .iter()
                                .zip(xs)
                                .map(|(&g, x)| g * x[t])
                                .sum::<Complex64>()
                    })
                    .collect()
            })
            .collect()
    }

    fn re(v: f64) -> Complex64 {
        Complex64::new(v, 0.0)
    }

    /// One right-hand side through the multi-column solver.
    fn solve_linear(a: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>, CoreError> {
        let rows: Vec<[f64; 1]> = b.iter().map(|&v| [v]).collect();
        Ok(super::solve_linear(a, &rows)?.into_iter().map(|[x]| x).collect())
    }

    #[test]
    fn solve_linear_3x3() {
        let a = vec![
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ];
        let b = vec![8.0, -11.0, -3.0];
        let x = solve_linear(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 1.0).abs() < 1e-9);
    }

    /// Two right-hand sides in one pass are bitwise two one-column solves:
    /// the pivots depend on `A` alone.
    #[test]
    fn two_column_solve_is_bitwise_two_one_column_solves() {
        let a = vec![
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ];
        let cols = [[8.0, -11.0, -3.0], [0.1, 2.5, -7.25]];
        let rows: Vec<[f64; 2]> = (0..3).map(|i| [cols[0][i], cols[1][i]]).collect();
        let both = super::solve_linear(&a, &rows).unwrap();
        for (j, b) in cols.iter().enumerate() {
            let one = solve_linear(&a, b).unwrap();
            for (x, y) in both.iter().zip(&one) {
                assert_eq!(x[j].to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn solve_linear_rejects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear(&a, &[1.0, 2.0]).is_err());
        assert!(solve_linear(&[vec![1.0]], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn channel_estimation_recovers_gains() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 4000;
        let x1 = square_wave(n, 7, 0);
        let x2 = square_wave(n, 11, 3);
        let y: Vec<Complex64> = (0..n)
            .map(|t| re(0.8 + 0.5 * x1[t] - 0.2 * x2[t] + 0.01 * standard_normal(&mut rng)))
            .collect();
        let ch = estimate_channel_complex(&y, &[&x1, &x2]).unwrap();
        assert!((ch.offset.re - 0.8).abs() < 0.01, "offset {}", ch.offset);
        assert!((ch.gains[0].re - 0.5).abs() < 0.01);
        assert!((ch.gains[1].re + 0.2).abs() < 0.01);
        // A real observation regresses to an exactly real channel.
        assert_eq!(ch.offset.im, 0.0);
        assert!(ch.gains.iter().all(|g| g.im == 0.0));
    }

    #[test]
    fn zero_forcing_separates_streams() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 6000;
        let x1 = square_wave(n, 6, 0);
        let x2 = square_wave(n, 10, 4);
        let mk = |c: f64, g1: f64, g2: f64, rng: &mut ChaCha8Rng| -> Vec<f64> {
            (0..n)
                .map(|t| c + g1 * x1[t] + g2 * x2[t] + 0.02 * standard_normal(rng))
                .collect()
        };
        let y1 = mk(1.0, 0.6, 0.25, &mut rng);
        let y2 = mk(0.7, 0.2, 0.55, &mut rng);
        let y: Vec<Vec<Complex64>> = [&y1, &y2]
            .iter()
            .map(|b| b.iter().map(|&v| re(v)).collect())
            .collect();
        let ch = vec![
            estimate_channel_complex(&y[0], &[&x1, &x2]).unwrap(),
            estimate_channel_complex(&y[1], &[&x1, &x2]).unwrap(),
        ];
        let s = zero_force_n_complex(&y, &ch).unwrap();
        // After projection, each stream correlates with its truth much
        // better than the naive per-band estimate.
        let after1 = sinr_db(&s[0], &x1);
        let after2 = sinr_db(&s[1], &x2);
        let before1 = sinr_db(&naive_stream_estimate(&y1), &x1);
        let before2 = sinr_db(&naive_stream_estimate(&y2), &x2);
        assert!(after1 > before1 + 3.0, "after {after1} before {before1}");
        assert!(after2 > before2 + 3.0, "after {after2} before {before2}");
        assert!(after1 > 15.0);
    }

    #[test]
    fn condition_number_identity_is_one() {
        let id = pair([[re(1.0), re(0.0)], [re(0.0), re(1.0)]]);
        assert!((condition_number_n(&id) - 1.0).abs() < 1e-9);
        assert!((power_iteration_kappa(&id) - 1.0).abs() < 1e-9);
        let bad = pair([[re(1.0), re(1.0)], [re(1.0), re(1.0)]]);
        assert!(condition_number_n(&bad).is_infinite());
    }

    #[test]
    fn zero_forcing_rejects_singular_channels() {
        let ch = pair([[re(1.0), re(1.0)], [re(1.0), re(1.0)]]);
        let y = vec![vec![re(0.0); 4]; 2];
        assert!(zero_force_n_complex(&y, &ch).is_err());
    }

    #[test]
    fn complex_channel_estimation_recovers_gains() {
        let n = 3000;
        let x = square_wave(n, 9, 2);
        let g = Complex64::new(0.4, -0.7);
        let c = Complex64::new(2.0, 1.0);
        let y: Vec<Complex64> = (0..n).map(|t| c + g * x[t]).collect();
        let ch = estimate_channel_complex(&y, &[&x]).unwrap();
        assert!((ch.offset - c).norm() < 1e-9);
        assert!((ch.gains[0] - g).norm() < 1e-9);
    }

    #[test]
    fn complex_zero_forcing_separates_phase_orthogonal_streams() {
        let n = 4000;
        let x1 = square_wave(n, 7, 0);
        let x2 = square_wave(n, 11, 3);
        // Stream 2 is nearly invisible to an envelope detector on band 1
        // (purely imaginary gain), but coherent ZF recovers both.
        let mut ch = pair([
            [Complex64::new(1.0, 0.0), Complex64::new(0.0, 0.8)],
            [Complex64::new(0.0, -0.5), Complex64::new(0.9, 0.1)],
        ]);
        for c in &mut ch {
            c.offset = Complex64::new(3.0, 1.0);
        }
        let s = zero_force_n_complex(&observe(&ch, &[&x1, &x2]), &ch).unwrap();
        assert!(sinr_db(&s[0], &x1) > 60.0);
        assert!(sinr_db(&s[1], &x2) > 60.0);
        assert!(condition_number_n(&ch).is_finite());
    }

    #[test]
    fn complex_zero_forcing_rejects_singular() {
        let g = Complex64::new(1.0, 1.0);
        let ch = pair([[g, g], [g, g]]);
        let y = vec![vec![re(0.0); 4]; 2];
        assert!(zero_force_n_complex(&y, &ch).is_err());
        assert!(condition_number_n(&ch).is_infinite());
    }

    #[test]
    fn aligned_sinr_finds_lagged_truth() {
        let n = 8000;
        let truth = square_wave(n, 200, 0);
        // Estimate = truth shifted by 60 samples plus mild noise.
        let mut est = vec![0.0; n];
        est[60..n].copy_from_slice(&truth[..(n - 60)]);
        let lagged = aligned_sinr_db(&est, &truth, 48_000.0, 120.0, 200);
        let naive = sinr_db(&est, &truth);
        assert!(lagged > naive, "lag search should help: {lagged} vs {naive}");
        // Residual floor: the reference is low-pass smoothed while the
        // estimate is an ideal square, and the lag grid is 8 samples.
        assert!(lagged > 5.0, "lagged {lagged}");
    }

    #[test]
    fn complex_solver_and_inverse() {
        let a = vec![
            vec![Complex64::new(2.0, 1.0), Complex64::new(0.0, -1.0)],
            vec![Complex64::new(1.0, 0.0), Complex64::new(3.0, 0.5)],
        ];
        let x_true = vec![Complex64::new(1.0, -2.0), Complex64::new(0.5, 0.5)];
        let b: Vec<Complex64> = (0..2)
            .map(|i| a[i][0] * x_true[0] + a[i][1] * x_true[1])
            .collect();
        let x = solve_linear_complex(&a, &b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).norm() < 1e-9);
        }
        let inv = invert_complex(&a).unwrap();
        // A * A^-1 = I.
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = Complex64::new(0.0, 0.0);
                for k in 0..2 {
                    acc += a[i][k] * inv[k][j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((acc - Complex64::new(expect, 0.0)).norm() < 1e-9);
            }
        }
    }

    #[test]
    fn n_way_zero_forcing_separates_three_streams() {
        let n = 3000;
        let xs = [
            square_wave(n, 7, 0),
            square_wave(n, 11, 3),
            square_wave(n, 13, 6),
        ];
        let h: [[Complex64; 3]; 3] = [
            [
                Complex64::new(1.0, 0.1),
                Complex64::new(0.2, 0.3),
                Complex64::new(-0.1, 0.2),
            ],
            [
                Complex64::new(0.15, -0.2),
                Complex64::new(0.9, -0.1),
                Complex64::new(0.25, 0.1),
            ],
            [
                Complex64::new(-0.2, 0.1),
                Complex64::new(0.1, 0.25),
                Complex64::new(0.8, 0.3),
            ],
        ];
        let offset = Complex64::new(2.0, -1.0);
        let y: Vec<Vec<Complex64>> = (0..3)
            .map(|b| {
                (0..n)
                    .map(|t| {
                        offset
                            + h[b][0] * xs[0][t]
                            + h[b][1] * xs[1][t]
                            + h[b][2] * xs[2][t]
                    })
                    .collect()
            })
            .collect();
        let ch: Vec<ComplexAffineChannel> = (0..3)
            .map(|b| ComplexAffineChannel {
                offset,
                gains: h[b].to_vec(),
            })
            .collect();
        let streams = zero_force_n_complex(&y, &ch).unwrap();
        for (est, truth) in streams.iter().zip(&xs) {
            assert!(sinr_db(est, truth) > 60.0);
        }
        assert!(condition_number_n(&ch).is_finite());
        assert!(condition_number_n(&ch) >= 1.0);
    }

    #[test]
    fn condition_number_n_matches_2x2_case() {
        // The closed form is the oracle for the power-iteration path.
        let ch = pair([
            [Complex64::new(2.0, 0.0), Complex64::new(0.1, 0.0)],
            [Complex64::new(0.0, 0.1), Complex64::new(0.5, 0.0)],
        ]);
        let a = power_iteration_kappa(&ch);
        let b = closed_form_kappa_2x2(&ch);
        assert!((a - b).abs() / b < 1e-9, "{a} vs {b}");
        assert_eq!(condition_number_n(&ch).to_bits(), b.to_bits());
    }

    #[test]
    fn n_way_rejects_mismatched_shapes() {
        let ch = vec![ComplexAffineChannel {
            offset: Complex64::new(0.0, 0.0),
            gains: vec![Complex64::new(1.0, 0.0)],
        }];
        assert!(zero_force_n_complex(&[], &ch).is_err());
        let y = vec![vec![Complex64::new(0.0, 0.0); 4]; 2];
        assert!(zero_force_n_complex(&y, &ch).is_err());
    }

    #[test]
    fn zero_forcing_accepts_tiny_well_conditioned_gains() {
        // Long-range regression: spreading + absorption losses shrink the
        // gains to ~1e-9, so det ~ 1e-18 — far below the old absolute
        // `det.abs() < 1e-15` cutoff — but the matrix is perfectly
        // conditioned and must decode, with real or phase-rotated gains.
        let n = 4000;
        let x1 = square_wave(n, 6, 0);
        let x2 = square_wave(n, 10, 4);
        let g = 1e-9;
        let real = pair([[re(1.2 * g), re(0.3 * g)], [re(-0.2 * g), re(0.9 * g)]]);
        let rotated = pair([
            [Complex64::new(1.2 * g, 0.0), Complex64::new(0.0, 0.3 * g)],
            [Complex64::new(0.0, -0.2 * g), Complex64::new(0.9 * g, 0.0)],
        ]);
        for ch in [real, rotated] {
            assert!(condition_number_n(&ch) < 3.0);
            let s = zero_force_n_complex(&observe(&ch, &[&x1, &x2]), &ch)
                .expect("well-conditioned tiny gains must decode");
            assert!(sinr_db(&s[0], &x1) > 60.0);
            assert!(sinr_db(&s[1], &x2) > 60.0);
        }
    }

    #[test]
    fn singular_rejection_carries_condition_number() {
        let ch = pair([[re(1.0), re(1.0)], [re(1.0), re(1.0)]]);
        let y = vec![vec![re(0.0); 4]; 2];
        match zero_force_n_complex(&y, &ch) {
            Err(CoreError::SingularChannel { condition_number }) => {
                assert!(condition_number.is_infinite());
            }
            other => panic!("expected SingularChannel, got {other:?}"),
        }
    }

    #[test]
    fn complex_solver_rejects_hostile_systems() {
        let c = |re: f64| Complex64::new(re, 0.0);
        let nan = c(f64::NAN);
        let eye = || vec![vec![c(1.0), c(0.0)], vec![c(0.0), c(1.0)]];
        let mut nan_below_pivot = eye();
        nan_below_pivot[0][1] = nan;
        let non_finite = [
            (eye(), vec![nan, c(1.0)]),
            (nan_below_pivot, vec![c(1.0), c(1.0)]),
            (
                vec![vec![c(f64::INFINITY), c(0.0)], vec![c(0.0), c(1.0)]],
                vec![c(1.0); 2],
            ),
            (eye(), vec![c(1.0), Complex64::new(0.0, f64::NEG_INFINITY)]),
        ];
        for (a, b) in &non_finite {
            let got = solve_linear_complex(a, b);
            let typed = matches!(got, Err(CoreError::InvalidConfig("non-finite system")));
            assert!(typed, "{a:?} x = {b:?} gave {got:?}");
        }
        let ragged = vec![vec![c(1.0), c(0.0)], vec![c(1.0)]];
        let zero = vec![vec![c(0.0); 2]; 2];
        for (a, b) in [(ragged, vec![c(1.0); 2]), (zero, vec![c(0.0); 2])] {
            assert!(solve_linear_complex(&a, &b).is_err(), "{a:?}");
        }
        // The empty system has the empty solution.
        assert!(solve_linear_complex(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn solve_linear_accepts_tiny_well_scaled_system() {
        // Uniformly tiny but well-conditioned: the old absolute 1e-12
        // pivot floor rejected this outright.
        let s = 1e-13;
        let a = vec![vec![2.0 * s, 1.0 * s], vec![1.0 * s, 3.0 * s]];
        let b = vec![5.0 * s, 10.0 * s];
        let x = solve_linear(&a, &b).expect("tiny well-conditioned system must solve");
        assert!((x[0] - 1.0).abs() < 1e-9, "x0 {}", x[0]);
        assert!((x[1] - 3.0).abs() < 1e-9, "x1 {}", x[1]);
        let zero = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        assert!(solve_linear(&zero, &[0.0, 0.0]).is_err());
        let eye = vec![vec![1.0, f64::NAN], vec![0.0, 1.0]];
        assert!(solve_linear(&eye, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn sinr_of_perfect_estimate_is_huge() {
        let x = square_wave(1000, 9, 0);
        assert!(sinr_db(&x, &x) > 100.0);
        assert_eq!(sinr_db(&[1.0], &[1.0]), f64::NEG_INFINITY);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `solve_linear` (partial-pivoting Gaussian elimination) and the
        /// closed-form adjugate inverse are two routes to the same x in
        /// `A x = b`; on well-conditioned systems they must agree to 1e-9.
        #[test]
        fn solve_linear_matches_closed_form_2x2_inverse(
            (a, b, c, d, b0, b1) in (
                -10.0f64..10.0,
                -10.0f64..10.0,
                -10.0f64..10.0,
                -10.0f64..10.0,
                -10.0f64..10.0,
                -10.0f64..10.0,
            ),
        ) {
            let det = a * d - b * c;
            let scale = a.abs().max(b.abs()).max(c.abs()).max(d.abs());
            // Keep the closed-form inverse itself trustworthy: reject draws
            // whose determinant is small relative to the squared entry scale.
            proptest::prop_assume!(scale > 1e-3 && det.abs() > 1e-3 * scale * scale);

            let closed = [
                (d * b0 - b * b1) / det,
                (a * b1 - c * b0) / det,
            ];
            let x = solve_linear(
                &[vec![a, b], vec![c, d]],
                &[b0, b1],
            ).unwrap();
            for (got, want) in x.iter().zip(closed) {
                proptest::prop_assert!(
                    (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "gauss {got} vs closed-form {want} (det {det})"
                );
            }
        }
    }
}
