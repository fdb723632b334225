//! How fast the host runs at the moment, gauged by a fixed reference
//! computation that is timed around each measurement.
//!
//! On a shared host the speed of one CPU moves by tens of percent over
//! minutes while other tenants load the machine: single-threaded rounds
//! of the same workload, minutes apart, differed by up to 70% in wall
//! time with on-CPU time within 0.2% of wall time, so neither clock
//! separates the program's cost from the host's load. The reference is
//! the simulator's own kind of arithmetic, written here so that no change
//! to the library moves it: Gaussian noise by Box–Muller from a xorshift
//! generator, then a radix-2 complex FFT. Every host time the benchmark
//! reports is scaled by [`NOMINAL_S`] over the reference's time around
//! it, so it reads as the time the work would take on the baseline
//! machine unloaded.

use std::f64::consts::TAU;
use std::hint::black_box;
use std::time::Instant;

/// FFT length of one reference pass.
const N: usize = 1 << 13;

/// Passes per reference measurement: about 20 ms on the baseline machine.
const PASSES: usize = 24;

/// The reference's time on the baseline machine unloaded (a 2-vCPU
/// Sapphire Rapids KVM guest), seconds.
pub const NOMINAL_S: f64 = 0.0213;

/// Seconds one reference measurement takes now.
pub fn reference_s() -> f64 {
    let mut re = vec![0.0f64; N];
    let mut im = vec![0.0f64; N];
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        gaussian_fill(&mut state, &mut re);
        im.fill(0.0);
        fft_in_place(&mut re, &mut im);
        black_box((&re, &im));
    }
    t0.elapsed().as_secs_f64()
}

/// `wall_s` as it would read on the baseline machine unloaded, given the
/// reference's time `reference_s` just before it.
pub fn normalise(wall_s: f64, reference_s: f64) -> f64 {
    wall_s * NOMINAL_S / reference_s
}

fn gaussian_fill(state: &mut u64, out: &mut [f64]) {
    for x in out.iter_mut() {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let u1 = ((*state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = (*state & 0xFFFF) as f64 / 65_536.0;
        *x = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
    }
}

/// Iterative radix-2 decimation-in-time FFT; `re.len()` is a power of two.
fn fft_in_place(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let step = -TAU / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (wi, wr) = (step * k as f64).sin_cos();
                let (a, b) = (start + k, start + k + len / 2);
                let tr = re[b] * wr - im[b] * wi;
                let ti = re[b] * wi + im[b] * wr;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_an_impulse_is_flat() {
        let mut re = vec![0.0; 16];
        let mut im = vec![0.0; 16];
        re[0] = 1.0;
        fft_in_place(&mut re, &mut im);
        assert!(re.iter().all(|&x| (x - 1.0).abs() < 1e-12));
        assert!(im.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn reference_takes_time_and_normalising_scales_by_it() {
        assert!(reference_s() > 0.0);
        assert!((normalise(2.0, 2.0 * NOMINAL_S) - 1.0).abs() < 1e-12);
    }
}
