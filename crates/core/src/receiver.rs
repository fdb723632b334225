//! The hydrophone receive chain (§5.1(b)): record, downconvert, Butterworth
//! low-pass, packet detection by preamble correlation, CFO estimation, and
//! a maximum-likelihood FM0 decoder, with CRC verification.
//!
//! Both decoders — the coherent one ([`Receiver::decode_uplink_verdict`])
//! and the one that takes an already-separated amplitude stream
//! ([`Receiver::decode_envelope`], the collision path) — run on one
//! memoised `FrontEnd` per bitrate: all designs that depend only on
//! `(bitrate, fs)` — the kept-output polyphase anti-alias decimator, the
//! baseband Butterworth at the decimated rate, the detrending filter and
//! the preamble matched filter — are built once and reused, and every
//! per-decode buffer lives in a `DecodeScratch` arena so a steady-state
//! coherent decode performs zero heap allocations (pinned by
//! `tests/slot_engine_alloc.rs`).
//!
//! The coherent decoder mixes, decimates, then filters: only the NCO mix
//! and the anti-alias FIR's kept outputs run at the full rate, and the
//! order-4 Butterworth runs forward and backward at the decimated rate.
//! The anti-alias FIR holds every band that folds onto the Butterworth
//! passband at least 50 dB down. At decimation 1 nothing is decimated
//! and the Butterworth runs at the full rate, as it always has.
//!
//! Both decoders share one preamble search, which needs no FFT and, until
//! the winner is known, no square root. The ±1 template is constant over
//! each half-bit, so the front end keeps it as a [`RunLengthTemplate`]:
//! one tap per run boundary (25 taps for the 563-sample template at
//! 2731 bps and 96 kHz), applied to per-tile prefix sums of the detrended
//! stream. Windows are ranked by `|acc|² / energy`, with the normalised
//! correlation computed once, at the winning window.

use crate::scratch::{grow_to, reserve_to, DecodeScratch, Scratch, SlicerScratch};
use crate::{CoreError, DEFAULT_SAMPLE_RATE_HZ};
use num_complex::Complex64;
use pab_dsp::correlate::RunLengthTemplate;
use pab_dsp::iir::{butter_lowpass, Cascade};
use pab_dsp::mix::{detrend_shift_in_place, downconvert_into};
use pab_dsp::polyphase::PolyphaseDecimator;
use pab_dsp::stats;
use pab_net::fm0;
use pab_net::packet::{UplinkPacket, UPLINK_PREAMBLE};
use pab_net::NetError;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything both uplink decoders need that depends only on
/// `(bitrate, fs)`: filter designs, the fused decimator and the
/// run-length preamble matched filter. Built once per bitrate by
/// [`Receiver::front_end`] and shared via `Arc`.
#[derive(Debug)]
struct FrontEnd {
    /// Baseband-selection Butterworth (order 4) at `fs2`, run after the
    /// anti-alias decimator (at the full rate when `decim == 1`).
    butter4: Cascade,
    /// Decimation factor to ~16 samples per half-bit.
    decim: usize,
    /// Decimated sample rate, Hz.
    fs2: f64,
    /// Kept-output anti-alias decimator, long enough to hold every band
    /// that folds onto `butter4`'s passband 50 dB down
    /// ([`anti_alias_taps`]); `None` when `decim == 1` (the historical
    /// pipeline applies no anti-alias filter in that case).
    aa: Option<PolyphaseDecimator>,
    /// Detrending low-pass (order 2) at the decimated rate.
    trend: Cascade,
    /// The ±1 preamble matched filter at `fs2`, as run-boundary taps.
    template: RunLengthTemplate,
}

impl FrontEnd {
    fn new(bitrate_bps: f64, fs_hz: f64) -> Result<FrontEnd, CoreError> {
        let spb_raw = fs_hz / (2.0 * bitrate_bps);
        let decim = ((spb_raw / 16.0).floor() as usize).max(1);
        let fs2 = fs_hz / decim as f64;
        // `max`/`min`, not `clamp`: below ~16 bps 0.4·fs2 is under 200 Hz.
        let cutoff = (2.0 * bitrate_bps).max(200.0).min(0.4 * fs2);
        let butter4 = butter_lowpass(4, cutoff, fs2)?;
        let aa = if decim == 1 {
            None
        } else {
            let fir = pab_dsp::fir::Fir::lowpass(
                anti_alias_taps(fs_hz, fs2, cutoff),
                0.8 * fs_hz / (2.0 * decim as f64),
                fs_hz,
                pab_dsp::window::Window::Hamming,
            )?;
            Some(PolyphaseDecimator::new(fir, decim)?)
        };
        let trend = butter_lowpass(2, (bitrate_bps / 20.0).max(2.0), fs2)?;
        let template = RunLengthTemplate::new(&preamble_template(bitrate_bps, fs2));
        Ok(FrontEnd {
            butter4,
            decim,
            fs2,
            aa,
            trend,
            template,
        })
    }

    /// Where the packet starts in the full-rate input, given the winning
    /// window's index in the decimated stream: `start · decim` less the
    /// causal anti-alias FIR's group delay, `(taps − 1)/2` (the
    /// Butterworths run zero-phase, so they add none).
    fn start_sample(&self, start: usize) -> usize {
        let delay = self.aa.as_ref().map_or(0, |aa| (aa.taps().len() - 1) / 2);
        (start * self.decim).saturating_sub(delay)
    }

    /// The preamble search both decoders run on their detrended stream
    /// `d` at `fs2`: the run-length matched filter over tiled prefix sums,
    /// an O(N) running window energy, and windows ranked by
    /// `|acc|² / energy`, so the only square roots are the winner's.
    /// Returns the winning window's start, its matched-filter output
    /// (whose phase is the modulation direction) and its normalised
    /// correlation. A stream no longer than the template, or a winner
    /// below 0.3 (NaN included), is [`CoreError::NoPacketDetected`].
    /// The matched-filter outputs go to the head of `ws`, a workspace
    /// that grows to fit them and never shrinks.
    fn find_preamble(
        &self,
        d: &[Complex64],
        prefix: &mut Vec<Complex64>,
        ws: &mut Vec<Complex64>,
    ) -> Result<(usize, Complex64, f64), CoreError> {
        let m = self.template.len();
        if d.len() <= m {
            return Err(CoreError::NoPacketDetected);
        }
        let outputs = d.len() - m + 1;
        grow_to(ws, outputs);
        let num = &mut ws[..outputs];
        num.fill(Complex64::new(0.0, 0.0));
        self.template.correlate_add(d, prefix, num);
        // (index, score, numerator, window energy) of the best window.
        let mut best = (0usize, 0.0f64, Complex64::new(0.0, 0.0), 0.0f64);
        let mut win_energy: f64 = d[..m].iter().map(|c| c.norm_sqr()).sum();
        for (i, &acc) in num.iter().enumerate() {
            if i > 0 {
                // lint: allow(panic-path) num.len() == d.len()-m+1, so i+m-1 < d.len(); i > 0 checked
                win_energy += d[i + m - 1].norm_sqr() - d[i - 1].norm_sqr();
            }
            let score = acc.norm_sqr() / win_energy.max(1e-30);
            if score > best.1 {
                best = (i, score, acc, win_energy);
            }
        }
        let (start, _, acc, energy) = best;
        let corr = acc.norm() / (energy.max(1e-30).sqrt() * self.template.norm());
        if !(corr >= 0.3) {
            return Err(CoreError::NoPacketDetected);
        }
        Ok((start, acc, corr))
    }
}

/// Length of the Hamming anti-alias FIR that decimates `fs_hz` to `fs2`
/// ahead of a Butterworth passband of `cutoff_hz`. The bands that fold
/// onto that passband are `k·fs2 ± cutoff_hz`; the nearest starts at
/// `fs2 − cutoff_hz`, `0.6·fs2 − cutoff_hz` past the FIR's cutoff of
/// `0.4·fs2`. A Hamming-windowed sinc of `N` taps is 50 dB down about
/// `2·fs/N` past its cutoff, so the FIR keeps its historical 127 taps
/// where they span that gap (every decimation up to 30 at 96 or
/// 192 kHz) and grows where they do not: 225 taps for 100 bps at
/// 192 kHz, decimation 60.
fn anti_alias_taps(fs_hz: f64, fs2: f64, cutoff_hz: f64) -> usize {
    let need = (2.0 * fs_hz / (0.6 * fs2 - cutoff_hz)).ceil() as usize;
    (need | 1).max(127)
}

/// The ±1 uplink-preamble matched-filter template: the FM0 half-bits of
/// [`UPLINK_PREAMBLE`] sampled at `fs_hz` for a `bitrate_bps` node (a
/// half-bit spans `fs_hz / (2·bitrate_bps)` samples, fractional in
/// general). Both decoders correlate against it, in run-length form.
// lint: allow(dead-pub) test-oracle bench_preamble_search the template the preamble-search bench row correlates against
pub fn preamble_template(bitrate_bps: f64, fs_hz: f64) -> Vec<f64> {
    let halves = fm0::encode(&UPLINK_PREAMBLE, false);
    let spb = fs_hz / (2.0 * bitrate_bps);
    let n = (halves.len() as f64 * spb).round() as usize;
    (0..n)
        .map(|i| {
            let k = ((i as f64 / spb) as usize).min(halves.len() - 1);
            if halves[k] {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

/// Counters for the decimating front-end: how much work its anti-alias
/// decimator did and saved. Aggregated per receiver;
/// [`crate::link::LinkSimulator::frontend_stats`] and the faultnet
/// simulator expose roll-ups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Decode attempts, by either decoder.
    pub decodes: u64,
    /// Full-rate samples entering the decimator.
    pub samples_in: u64,
    /// Decimated samples leaving it.
    pub samples_out: u64,
    /// Multiply-accumulates skipped by computing only kept outputs: the
    /// anti-alias FIR's taps for every dropped sample, at every
    /// decimation above 1.
    pub macs_saved: u64,
    /// Front-end design cache hits.
    pub design_hits: u64,
    /// Front-end design cache misses (fresh designs built).
    pub design_misses: u64,
}

impl FrontEndStats {
    /// Accumulate another receiver's counters into this one.
    pub fn merge(&mut self, other: &FrontEndStats) {
        self.decodes += other.decodes;
        self.samples_in += other.samples_in;
        self.samples_out += other.samples_out;
        self.macs_saved += other.macs_saved;
        self.design_hits += other.design_hits;
        self.design_misses += other.design_misses;
    }
}

/// The hydrophone + offline decoder.
///
/// Holds the per-bitrate front-end designs and the decode scratch arena,
/// so keep one `Receiver` alive across packets in Monte-Carlo sweeps
/// rather than constructing a fresh one per decode.
#[derive(Debug, Clone)]
pub struct Receiver {
    /// Hydrophone sensitivity, volts per pascal (H2a: −180 dB re 1 V/µPa
    /// = 1 mV/Pa).
    pub sensitivity_v_per_pa: f64,
    /// Sample rate, Hz.
    pub fs_hz: f64,
    front_ends: RefCell<HashMap<u64, Arc<FrontEnd>>>,
    scratch: RefCell<DecodeScratch>,
    fe_stats: Cell<FrontEndStats>,
}

/// Result of decoding one uplink packet.
#[derive(Debug)]
pub struct Decoded {
    /// The parsed packet, if the CRC passed.
    pub packet: Result<UplinkPacket, NetError>,
    /// Raw decoded bits (preamble included).
    pub bits: Vec<bool>,
    /// Hard half-bit decisions.
    pub halves: Vec<bool>,
    /// Soft half-bit values (integrate-and-dump means).
    pub soft: Vec<f64>,
    /// Sample index where the packet starts in the input.
    pub start_sample: usize,
    /// Estimated SNR of the backscatter modulation, dB (§6.1 definition).
    pub snr_db: f64,
    /// Peak normalized preamble correlation in [0, 1] — the detection
    /// margin the MAC's link-quality estimator feeds on. Always ≥ 0.3
    /// (the detection threshold) for a successfully decoded packet.
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
    /// The demodulated envelope (diagnostics; the Fig. 2 waveform).
    pub envelope: Vec<f64>,
}

/// The lean decode result of both decoders
/// ([`Receiver::decode_uplink_verdict`] and [`Receiver::decode_envelope`]):
/// everything a verdict needs, without the diagnostic buffers [`Decoded`]
/// clones out of the scratch arena.
#[derive(Debug, Clone)]
pub struct DecodeVerdict {
    /// The parsed packet, if the CRC passed.
    pub packet: Result<UplinkPacket, NetError>,
    /// Sample index where the packet starts in the input.
    pub start_sample: usize,
    /// Estimated SNR of the backscatter modulation, dB (§6.1 definition).
    pub snr_db: f64,
    /// Peak normalized preamble correlation in [0, 1].
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
}

/// The reception record of one node's uplink in one slot: the receiver's
/// verdict (delivered, CRC-failed or erased) plus the node-side summary.
/// Both slot engines produce it — an FDMA exchange
/// ([`LinkSimulator::slot_exchange`](crate::link::LinkSimulator::slot_exchange))
/// and each zero-forced stream of a collision slot
/// ([`CollisionOutcome`](crate::collision_group::CollisionOutcome)) — and
/// faultnet accounts it to the MAC and the trace.
#[derive(Debug, Clone)]
pub struct StreamVerdict {
    /// The address of the node the verdict is about.
    pub addr: u8,
    /// Whether the decoder found a preamble (`false` = erasure).
    pub preamble_found: bool,
    /// Whether the packet passed CRC.
    pub crc_ok: bool,
    /// Preamble correlation peak (detection margin; 0.0 on erasure).
    // lint: unitless normalized correlation in [0, 1]
    pub preamble_corr: f64,
    /// Decoder SNR estimate, dB (−∞ on erasure).
    pub snr_db: f64,
    /// The decoded packet when CRC passed.
    pub packet: Option<UplinkPacket>,
    /// The node's average power draw over its exchange window, watts
    /// (`NodeOutput::average_power_w`, the Fig. 11 figure).
    pub power_w: f64,
    /// The node's peak rectified voltage over the window, volts
    /// (`NodeOutput::rectified_v`).
    pub rectified_v: f64,
}

impl StreamVerdict {
    /// The record of node `addr` from one decode attempt and the node's
    /// `power_w` / `rectified_v` summary. A decode error is an erasure.
    pub(crate) fn new(
        addr: u8,
        decoded: Result<DecodeVerdict, CoreError>,
        power_w: f64,
        rectified_v: f64,
    ) -> Self {
        let (preamble_corr, snr_db, packet) = match decoded {
            Ok(d) => (d.preamble_corr, d.snr_db, Some(d.packet)),
            Err(_) => (0.0, f64::NEG_INFINITY, None),
        };
        StreamVerdict {
            addr,
            preamble_found: packet.is_some(),
            crc_ok: matches!(packet, Some(Ok(_))),
            preamble_corr,
            snr_db,
            packet: packet.and_then(Result::ok),
            power_w,
            rectified_v,
        }
    }
}

/// What [`Receiver::slice_core`] hands back; the caller owns the decoded
/// bit/half/soft buffers inside the scratch arena.
struct SliceOutcome {
    packet: Result<UplinkPacket, NetError>,
    snr_db: f64,
}

impl Default for Receiver {
    fn default() -> Self {
        Receiver::new(1.0e-3, DEFAULT_SAMPLE_RATE_HZ)
    }
}

impl Receiver {
    /// Build a receiver with the given hydrophone sensitivity and sample
    /// rate, with empty design caches.
    pub fn new(sensitivity_v_per_pa: f64, fs_hz: f64) -> Self {
        Receiver {
            sensitivity_v_per_pa,
            fs_hz,
            front_ends: RefCell::new(HashMap::new()),
            scratch: RefCell::new(DecodeScratch::default()),
            fe_stats: Cell::new(FrontEndStats::default()),
        }
    }

    /// The memoised front end for `bitrate_bps` at this receiver's
    /// sample rate (keyed by `f64::to_bits`; no design reads the carrier).
    fn front_end(&self, bitrate_bps: f64) -> Result<Arc<FrontEnd>, CoreError> {
        let key = bitrate_bps.to_bits();
        if let Some(fe) = self.front_ends.borrow().get(&key) {
            let mut st = self.fe_stats.get();
            st.design_hits += 1;
            self.fe_stats.set(st);
            return Ok(fe.clone());
        }
        let fe = Arc::new(FrontEnd::new(bitrate_bps, self.fs_hz)?);
        self.front_ends.borrow_mut().insert(key, fe.clone());
        let mut st = self.fe_stats.get();
        st.design_misses += 1;
        self.fe_stats.set(st);
        Ok(fe)
    }

    /// Cumulative decimating front-end counters for this receiver.
    pub fn frontend_stats(&self) -> FrontEndStats {
        self.fe_stats.get()
    }

    /// Count one decode whose `n` full-rate samples left `fe`'s
    /// decimator as `n2`.
    fn count_decode(&self, fe: &FrontEnd, n: usize, n2: usize) {
        let mut st = self.fe_stats.get();
        st.decodes += 1;
        st.samples_in += n as u64;
        st.samples_out += n2 as u64;
        if let Some(aa) = &fe.aa {
            st.macs_saved += aa.direct_macs_saved(n);
        }
        self.fe_stats.set(st);
    }

    /// Convert a pressure waveform into the recorded voltage waveform.
    pub fn record(&self, pressure: &[f64]) -> Vec<f64> {
        pressure
            .iter()
            .map(|&p| p * self.sensitivity_v_per_pa)
            .collect()
    }

    /// Downconvert at `carrier_hz` and Butterworth low-pass at
    /// `cutoff_hz`: the analysis front shared by both demodulators, in one
    /// buffer taken from `pool`. The mix writes the centre of the filter's
    /// padded workspace and the filter runs in place, writing the margins
    /// before it reads them, so the workspace is never zero-filled. The
    /// filtered signal is `ext[pad..pad + signal.len()]` of the returned
    /// `(ext, pad)`, bitwise `filtfilt_complex(&downconvert(..))`.
    fn downconvert_lowpass(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        cutoff_hz: f64,
        pool: &mut Scratch,
    ) -> Result<(Vec<Complex64>, usize), CoreError> {
        let butter = butter_lowpass(4, cutoff_hz, self.fs_hz)?;
        let n = signal.len();
        let pad = butter.filtfilt_pad(n);
        let mut ext = pool.take_workspace(n + 2 * pad);
        downconvert_into(signal, carrier_hz, self.fs_hz, &mut ext[pad..pad + n]);
        butter.filtfilt_complex_in_place(&mut ext, pad, n);
        Ok((ext, pad))
    }

    /// Demodulate a received waveform around `carrier_hz`: downconvert,
    /// low-pass at `cutoff_hz`, return the amplitude envelope (Fig. 2).
    pub fn demodulate(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        cutoff_hz: f64,
    ) -> Result<Vec<f64>, CoreError> {
        let pool = &mut Scratch::transient();
        let (ext, pad) = self.downconvert_lowpass(signal, carrier_hz, cutoff_hz, pool)?;
        Ok(ext[pad..pad + signal.len()]
            .iter()
            .map(|c| 2.0 * c.norm())
            .collect())
    }

    /// Coherent demodulation: downconvert at `carrier_hz` and low-pass,
    /// returning the complex baseband (×2 to undo real→complex mixing
    /// loss). This is the observation the MIMO collision decoder works on.
    // lint: allow(dead-pub) api crates/experiments/src/bin/pab_bench/layers.rs the benchmark's recomposed collision slot demodulates each band through it
    pub fn demodulate_complex(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        cutoff_hz: f64,
    ) -> Result<Vec<Complex64>, CoreError> {
        let (mut ext, pad) =
            self.demodulate_complex_in(signal, carrier_hz, cutoff_hz, &mut Scratch::transient())?;
        ext.drain(..pad);
        ext.truncate(signal.len());
        Ok(ext)
    }

    /// [`demodulate_complex`](Self::demodulate_complex) in a padded
    /// workspace taken from `pool`, left uncompacted: the baseband is
    /// `ext[pad..pad + signal.len()]` of the returned `(ext, pad)`,
    /// scaled in place.
    pub(crate) fn demodulate_complex_in(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        cutoff_hz: f64,
        pool: &mut Scratch,
    ) -> Result<(Vec<Complex64>, usize), CoreError> {
        let (mut ext, pad) = self.downconvert_lowpass(signal, carrier_hz, cutoff_hz, pool)?;
        for c in ext.iter_mut().skip(pad).take(signal.len()) {
            *c = 2.0 * *c;
        }
        Ok((ext, pad))
    }

    /// Maximum-likelihood FM0 half-bit sequence detection.
    ///
    /// Viterbi over the two-level trellis: the level must flip at every
    /// bit boundary (FM0 invariant); the mid-bit flip is free and encodes
    /// the data. Metric: squared distance of each soft half-bit to the
    /// learned high/low cluster means.
    // lint: allow(dead-pub) test-oracle ml_vs_threshold the fixed-threshold ML slicer the ablation compares
    pub fn ml_fm0_halves(
        soft: &[f64],
        mu_lo: f64, // lint: unitless — cluster mean in the soft samples' own units
        mu_hi: f64, // lint: unitless — cluster mean in the soft samples' own units
    ) -> Vec<bool> {
        let lo = vec![mu_lo; soft.len()];
        let hi = vec![mu_hi; soft.len()];
        Self::ml_fm0_halves_adaptive(soft, &lo, &hi)
    }

    /// [`Self::ml_fm0_halves`] with per-half cluster means, tracking slow
    /// baseline wander across long packets.
    fn ml_fm0_halves_adaptive(soft: &[f64], mu_lo: &[f64], mu_hi: &[f64]) -> Vec<bool> {
        let mut back = Vec::new();
        let mut out = Vec::new();
        Self::ml_fm0_halves_adaptive_into(soft, mu_lo, mu_hi, &mut back, &mut out);
        out
    }

    /// [`Self::ml_fm0_halves_adaptive`] into caller-owned buffers: `back`
    /// holds the trellis backpointers, `out` receives the half-bit
    /// decisions. Both are cleared first, so warm buffers make the call
    /// allocation-free.
    fn ml_fm0_halves_adaptive_into(
        soft: &[f64],
        mu_lo: &[f64],
        mu_hi: &[f64],
        back: &mut Vec<[(usize, bool); 2]>,
        out: &mut Vec<bool>,
    ) {
        assert_eq!(soft.len(), mu_lo.len());
        assert_eq!(soft.len(), mu_hi.len());
        out.clear();
        let n_bits = soft.len() / 2;
        if n_bits == 0 {
            return;
        }
        let cost = |k: usize, x: f64, level: bool| {
            let mu = if level { mu_hi[k] } else { mu_lo[k] };
            (x - mu) * (x - mu)
        };
        // State: level at the *end* of bit k (after the second half).
        // path_cost[s], with backpointers per bit: (prev_state, mid_flip).
        back.clear();
        back.reserve_exact(n_bits);
        // Initial level before bit 0 is unknown; start both states free.
        // For bit k with previous end-level p: first half = !p (boundary
        // flip), second half = s (the new end state); mid flip happened if
        // s != !p, i.e. data bit = (first == second) = (!p == s).
        let mut prev_cost = [0.0f64; 2];
        let mut first_bit = true;
        for k in 0..n_bits {
            // lint: allow(panic-path) soft.len() == 2*n_bits, so 2k+1 < soft.len()
            let (a, b) = (soft[2 * k], soft[2 * k + 1]);
            let mut new_cost = [f64::MAX; 2];
            let mut new_back = [(0usize, false); 2];
            for s in 0..2 {
                let s_level = s == 1;
                for p in 0..2 {
                    if first_bit && p == 1 {
                        // Collapse the unknown-start ambiguity: FM0 with
                        // initial_level=false means the first half is
                        // always `true` — model start level as false only.
                        continue;
                    }
                    let p_level = p == 1;
                    let first_half = !p_level;
                    let c = prev_cost[p]
                        + cost(2 * k, a, first_half)
                        + cost(2 * k + 1, b, s_level);
                    if c < new_cost[s] {
                        new_cost[s] = c;
                        new_back[s] = (p, first_half == s_level);
                    }
                }
            }
            back.push(new_back);
            prev_cost = new_cost;
            first_bit = false;
        }
        // Trace back from the cheaper final state, writing each bit's two
        // halves straight into their final positions.
        let mut s = if prev_cost[0] <= prev_cost[1] { 0 } else { 1 };
        out.reserve_exact(2 * n_bits);
        out.resize(2 * n_bits, false);
        for k in (0..n_bits).rev() {
            // lint: allow(panic-path) s is a Viterbi state in {0,1}; back[k] is [(usize,bool); 2]
            let (p, _same) = back[k][s];
            // lint: allow(panic-path) out.len() == 2*n_bits, so 2k+1 < out.len()
            out[2 * k] = p != 1;
            // lint: allow(panic-path) out.len() == 2*n_bits, so 2k+1 < out.len()
            out[2 * k + 1] = s == 1;
            s = p;
        }
    }

    /// [`decode_uplink`](Self::decode_uplink) without the diagnostic
    /// copies: the fused coherent decode pipeline. All heavy buffers come
    /// from the receiver's scratch arena (the decoded bit/soft streams
    /// are left there), so with a warm arena and memoised front-end this
    /// performs zero heap allocations end-to-end.
    pub fn decode_uplink_verdict(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        bitrate_bps: f64,
    ) -> Result<DecodeVerdict, CoreError> {
        if !(bitrate_bps > 0.0) {
            return Err(CoreError::InvalidConfig("bitrate_bps"));
        }
        if signal.len() < 64 {
            return Err(CoreError::InvalidConfig("signal too short"));
        }
        let fe = self.front_end(bitrate_bps)?;
        let s = &mut *self.scratch.borrow_mut();
        let n = signal.len();

        // The coherent ×2 undoes the real→complex mixing loss. Every
        // stage writes its whole span of `ext` before reading it, so
        // `ext` only grows (zero-filling once) and is never re-zeroed
        // per decode.
        match &fe.aa {
            Some(aa) => {
                // Mix→decimate→filter: the only full-rate stages are the
                // NCO mix and the kept-output anti-alias FIR (×2 applied
                // as each sample is read); the Butterworth then runs
                // forward and backward at fs2, in the centre of the
                // now-free mix buffer, its margins filled with odd
                // reflections by the filter itself.
                grow_to(&mut s.ext, n);
                let mix = &mut s.ext[..n];
                downconvert_into(signal, carrier_hz, self.fs_hz, mix);
                aa.decimate_complex_scaled_into(mix, 2.0, &mut s.bb_d);
                let n2 = s.bb_d.len();
                let pad = fe.butter4.filtfilt_pad(n2);
                grow_to(&mut s.ext, n2 + 2 * pad);
                let ext = &mut s.ext[..n2 + 2 * pad];
                ext[pad..pad + n2].copy_from_slice(&s.bb_d);
                fe.butter4.filtfilt_complex_in_place(ext, pad, n2);
                s.bb_d.copy_from_slice(&ext[pad..pad + n2]);
            }
            None => {
                // Mix→filter at the full rate: downconvert straight into
                // the centre of the filtfilt workspace (the NCO phasor
                // recurrence runs inside the write loop), filter in
                // place, scale on the copy out.
                let pad = fe.butter4.filtfilt_pad(n);
                grow_to(&mut s.ext, n + 2 * pad);
                let ext = &mut s.ext[..n + 2 * pad];
                downconvert_into(signal, carrier_hz, self.fs_hz, &mut ext[pad..pad + n]);
                fe.butter4.filtfilt_complex_in_place(ext, pad, n);
                s.bb_d.clear();
                reserve_to(&mut s.bb_d, n);
                s.bb_d.extend(ext[pad..pad + n].iter().map(|&c| 2.0 * c));
            }
        }
        self.count_decode(&fe, n, s.bb_d.len());
        Self::decode_baseband(&fe, s, bitrate_bps)
    }

    /// The coherent decode from the decimated, ×2-scaled complex baseband
    /// in `s.bb_d` (at `fe.fs2`) on: detrend, CFO correction, preamble
    /// search, projection onto the modulation direction, slicing.
    fn decode_baseband(
        fe: &FrontEnd,
        s: &mut DecodeScratch,
        bitrate_bps: f64,
    ) -> Result<DecodeVerdict, CoreError> {
        let n2 = s.bb_d.len();
        let fs2 = fe.fs2;

        // Complex detrend: the slow trend is the direct-carrier phasor,
        // filtered in `ext`, free now that the baseband is in `bb_d`.
        let pad2 = fe.trend.filtfilt_pad(n2);
        grow_to(&mut s.ext, n2 + 2 * pad2);
        let ext = &mut s.ext[..n2 + 2 * pad2];
        ext[pad2..pad2 + n2].copy_from_slice(&s.bb_d);
        fe.trend.filtfilt_complex_in_place(ext, pad2, n2);
        let trend_c = &s.ext[pad2..pad2 + n2];

        // CFO correction: the direct-carrier trend rotates at the CFO
        // rate; estimate it where the carrier is strong and derotate.
        // Estimate over the longest *contiguous* strong run: concatenating
        // across carrier-off gaps would add seam phase jumps that bias the
        // estimate. "Strong" is |trend| > peak/4, compared in squares,
        // each pass recomputing the same `norm_sqr` bits.
        let peak_sqr = trend_c.iter().map(|x| x.norm_sqr()).fold(0.0, f64::max);
        let threshold = 0.0625 * peak_sqr;
        let mut best_run = (0usize, 0usize);
        let mut run_start = None;
        for (i, norm_sqr) in trend_c.iter().map(|x| x.norm_sqr()).enumerate() {
            if norm_sqr > threshold {
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else if let Some(s0) = run_start.take() {
                if i - s0 > best_run.1 - best_run.0 {
                    best_run = (s0, i);
                }
            }
        }
        if let Some(s0) = run_start {
            if trend_c.len() - s0 > best_run.1 - best_run.0 {
                best_run = (s0, trend_c.len());
            }
        }
        let cfo = pab_dsp::correlate::estimate_cfo_hz(&trend_c[best_run.0..best_run.1], fs2);
        // One phasor pass: `d` (detrended, derotated) feeds the search;
        // `bb_d`, derotated in place, feeds the projection.
        s.d.clear();
        reserve_to(&mut s.d, n2);
        if cfo.abs() > 0.05 {
            detrend_shift_in_place(&mut s.bb_d, trend_c, -cfo, fs2, &mut s.d);
        } else {
            s.d.extend(s.bb_d.iter().zip(trend_c).map(|(&x, &t)| x - t));
        }

        // Complex preamble correlation: peak magnitude locates the packet,
        // peak phase is the modulation direction. The trend is consumed,
        // so the numerator takes its place in `ext`.
        let (start, peak_acc, peak_corr) = fe.find_preamble(&s.d, &mut s.prefix, &mut s.ext)?;
        // Slice the *raw* (un-detrended) projected baseband: inside the
        // packet the baseline is the constant CW illumination, and the
        // detrending high-pass would otherwise leak a slow step transient
        // into the first tens of milliseconds of soft values (fatal at
        // low bitrates where that spans many bits). The cluster means in
        // slice_core absorb the constant offset.
        let rot = Complex64::from_polar(1.0, -peak_acc.arg());
        s.projected.clear();
        reserve_to(&mut s.projected, n2);
        s.projected.extend(s.bb_d.iter().map(|&c| (c * rot).re));

        let outcome = Self::slice_core(&s.projected, start, fs2, bitrate_bps, &mut s.slicer)?;
        Ok(DecodeVerdict {
            packet: outcome.packet,
            start_sample: fe.start_sample(start),
            snr_db: outcome.snr_db,
            preamble_corr: peak_corr,
        })
    }

    /// Decode an uplink packet from a recorded waveform, coherently.
    ///
    /// The backscatter phasor arrives at an arbitrary angle relative to
    /// the direct carrier; plain magnitude (envelope) detection loses the
    /// quadrature component, so the decoder works on complex baseband:
    /// detrend (removes the direct carrier phasor), correct the residual
    /// CFO (§5.1(b), footnote 12), find the packet by complex preamble
    /// correlation — whose phase reveals the modulation direction — and
    /// project onto that direction before FM0 slicing.
    ///
    /// `bitrate_bps` must be the node's (quantized) FM0 bitrate, known to
    /// the receiver because the projector commanded it.
    ///
    /// Returns the full diagnostic [`Decoded`] (which clones the bit and
    /// envelope buffers out of the scratch arena); hot paths that only
    /// need the verdict should call
    /// [`decode_uplink_verdict`](Self::decode_uplink_verdict).
    pub fn decode_uplink(
        &self,
        signal: &[f64],
        carrier_hz: f64,
        bitrate_bps: f64,
    ) -> Result<Decoded, CoreError> {
        let v = self.decode_uplink_verdict(signal, carrier_hz, bitrate_bps)?;
        let s = self.scratch.borrow();
        Ok(Decoded {
            packet: v.packet,
            bits: s.slicer.bits.clone(),
            halves: s.slicer.halves.clone(),
            soft: s.slicer.soft.clone(),
            start_sample: v.start_sample,
            snr_db: v.snr_db,
            preamble_corr: v.preamble_corr,
            envelope: s.projected.clone(),
        })
    }

    /// Decode a packet from an already-demodulated amplitude stream (the
    /// path used after MIMO zero-forcing, where the "envelope" is a
    /// separated stream estimate rather than a single band's magnitude).
    ///
    /// Runs on the same memoised `FrontEnd` as the coherent decoder:
    /// its anti-alias decimator brings a half-bit to ~16 samples, its
    /// trend filter detrends, and its preamble search runs on the real
    /// stream. The amplitude stream has a sign, so a winner whose
    /// correlation is not positive (an inverted stream) is no packet.
    pub fn decode_envelope(
        &self,
        envelope: &[f64],
        bitrate_bps: f64,
    ) -> Result<DecodeVerdict, CoreError> {
        if !(bitrate_bps > 0.0) {
            return Err(CoreError::InvalidConfig("bitrate_bps"));
        }
        let fe = self.front_end(bitrate_bps)?;
        let s = &mut *self.scratch.borrow_mut();
        match &fe.aa {
            Some(aa) => aa.decimate_into(envelope, &mut s.projected),
            None => {
                s.projected.clear();
                reserve_to(&mut s.projected, envelope.len());
                s.projected.extend_from_slice(envelope);
            }
        }
        self.count_decode(&fe, envelope.len(), s.projected.len());
        // Detrend for the search: the backscatter modulation rides on the
        // much larger direct-path carrier level (Fig. 2), and that baseline
        // also moves when the projector keys on/off. A low-pass trend (well
        // below the bit rate) subtracted out leaves just the modulation.
        let n2 = s.projected.len();
        reserve_to(&mut s.trend, n2 + 2 * fe.trend.filtfilt_pad(n2));
        let pad = fe.trend.filtfilt_into(&s.projected, &mut s.trend);
        let trend = &s.trend[pad..pad + n2];
        s.d.clear();
        reserve_to(&mut s.d, n2);
        s.d.extend(
            s.projected
                .iter()
                .zip(trend)
                .map(|(&e, &t)| Complex64::new(e - t, 0.0)),
        );
        let (start, acc, corr) = fe.find_preamble(&s.d, &mut s.prefix, &mut s.ext)?;
        if acc.re <= 0.0 {
            return Err(CoreError::NoPacketDetected);
        }
        // Slice the *raw* decimated stream, as the coherent decoder does:
        // the trend filter's edge transient bends the stream's last ~10 ms
        // at low bitrates, enough to flip a packet's last bit when the
        // stream ends just after it. The cluster means absorb the
        // baseline.
        let outcome = Self::slice_core(&s.projected, start, fe.fs2, bitrate_bps, &mut s.slicer)?;
        Ok(DecodeVerdict {
            packet: outcome.packet,
            start_sample: fe.start_sample(start),
            snr_db: outcome.snr_db,
            preamble_corr: corr,
        })
    }

    /// Shared tail of the decode pipelines: integrate-and-dump half-bit
    /// slicing from `start`, cluster-mean estimation, the two-pass ML
    /// trellis, packet parsing and SNR measurement. `centered` is the
    /// zero-mean modulation stream at sample rate `fs_hz`; the decoded
    /// `soft`/`halves`/`bits` streams are left in `sl` for the caller.
    fn slice_core(
        centered: &[f64],
        start: usize,
        fs_hz: f64,
        bitrate_bps: f64,
        sl: &mut SlicerScratch,
    ) -> Result<SliceOutcome, CoreError> {
        let spb = fs_hz / (2.0 * bitrate_bps);
        let available = ((centered.len() - start) as f64 / spb).floor() as usize;
        // Longest packet: 15-byte payload.
        let max_halves = 2 * UplinkPacket::bits_len(UplinkPacket::MAX_PAYLOAD);
        let n_halves = available.min(max_halves) & !1usize;
        if n_halves < 2 * UplinkPacket::bits_len(0) {
            return Err(CoreError::NoPacketDetected);
        }
        let SlicerScratch {
            soft,
            chunk,
            centers,
            los,
            his,
            mu_lo,
            mu_hi,
            back,
            halves,
            bits,
        } = sl;
        soft.clear();
        soft.reserve_exact(n_halves);
        for k in 0..n_halves {
            let a = start + (k as f64 * spb).floor() as usize;
            let b = (start + ((k + 1) as f64 * spb) as usize).min(centered.len());
            soft.push(stats::mean(&centered[a..b]));
        }

        // Two-pass ML decode. The trellis must not run past the packet:
        // post-packet samples carry no FM0 structure, and forcing the
        // boundary-transition invariant through them corrupts the final
        // data bit. Pass 1 decodes the fixed-size header to learn the
        // payload length; pass 2 decodes exactly the packet's halves.
        let header_halves = 2 * (16 + 8 + 8 + 4 + 4);
        let head_len = header_halves.min(soft.len());
        cluster_track_into(&soft[..head_len], chunk, centers, los, his, mu_lo, mu_hi);
        Self::ml_fm0_halves_adaptive_into(&soft[..head_len], mu_lo, mu_hi, back, halves);
        fm0::decode_lenient_into(halves, bits);
        // lint: allow(lossy-cast) 4-bit value, lossless widening
        let payload_len = pab_net::bits::read_uint(bits, 36, 4).unwrap_or(0) as usize;
        let want_halves = (2 * UplinkPacket::bits_len(payload_len)).min(soft.len());
        soft.truncate(want_halves.max(head_len));
        cluster_track_into(soft, chunk, centers, los, his, mu_lo, mu_hi);
        Self::ml_fm0_halves_adaptive_into(soft, mu_lo, mu_hi, back, halves);
        fm0::decode_lenient_into(halves, bits);

        // Post-decode detection verification: the matched filter's
        // normalized peak can exceed the 0.3 threshold on pure noise (the
        // direct-path CW leaves a noise-like residual), which would let a
        // silent node masquerade as a corrupted packet. A true packet —
        // even a badly corrupted one — decodes its preamble bits nearly
        // intact, while a false detection yields ~50% preamble mismatch;
        // reject when more than a quarter of the preamble bits disagree.
        let pre_len = UPLINK_PREAMBLE.len().min(bits.len());
        let pre_err = pab_net::bits::hamming_distance(&bits[..pre_len], &UPLINK_PREAMBLE[..pre_len]);
        if pre_len < UPLINK_PREAMBLE.len() || 4 * pre_err > UPLINK_PREAMBLE.len() {
            return Err(CoreError::NoPacketDetected);
        }

        let packet = UplinkPacket::from_bits(bits);

        // SNR per §6.1: signal power = squared channel estimate (half the
        // high/low separation), noise = residual around cluster means.
        // Plain left-to-right sums — the same fold stats::mean performs.
        let mut h_sum = 0.0;
        for k in 0..soft.len() {
            h_sum += (mu_hi[k] - mu_lo[k]) / 2.0;
        }
        let h = if soft.is_empty() {
            0.0
        } else {
            h_sum / soft.len() as f64
        };
        let noise: f64 = soft
            .iter()
            .zip(halves.iter())
            .enumerate()
            .map(|(k, (&x, &lvl))| {
                let mu = if lvl { mu_hi[k] } else { mu_lo[k] };
                (x - mu) * (x - mu)
            })
            .sum::<f64>()
            / soft.len() as f64;
        let snr_db = stats::snr_db(h * h, noise);

        Ok(SliceOutcome { packet, snr_db })
    }
}

/// Fold one coherent decode verdict into an optional telemetry recorder:
/// the counters `rx.detections` / `rx.crc_fails` / `rx.erasures` and
/// histograms over preamble correlation and SNR. The receiver does not
/// know node addresses, so it records only aggregates; per-node
/// attribution is the MAC's and the simulator's job.
pub(crate) fn trace_verdict(
    decoded: &Result<DecodeVerdict, CoreError>,
    tel: Option<&mut pab_telemetry::Recorder>,
) {
    let Some(t) = tel else { return };
    match decoded {
        Ok(v) => {
            if v.packet.is_ok() {
                t.inc("rx.detections");
            } else {
                t.inc("rx.crc_fails");
            }
            t.observe("rx.preamble_corr", 0.0, 1.0, 20, v.preamble_corr);
            t.observe("rx.snr_db", -10.0, 40.0, 25, v.snr_db);
        }
        Err(_) => t.inc("rx.erasures"),
    }
}

/// Blockwise robust cluster-mean estimation, interpolated per half-bit,
/// into caller-owned buffers (all cleared first): `chunk`, `centers`,
/// `los`, `his` are workspaces; `mu_lo`/`mu_hi` receive one mean per
/// half. Slow baseline wander over a long packet (residual CFO, channel
/// settling) thus doesn't bias the later bits; each 32-half block has a
/// ~balanced level mix under FM0.
#[allow(clippy::too_many_arguments)] // a scratch bundle, not an API surface
fn cluster_track_into(
    soft: &[f64],
    chunk: &mut Vec<f64>,
    centers: &mut Vec<f64>,
    los: &mut Vec<f64>,
    his: &mut Vec<f64>,
    mu_lo: &mut Vec<f64>,
    mu_hi: &mut Vec<f64>,
) {
    let block = 32usize;
    centers.clear();
    los.clear();
    his.clear();
    let mut i = 0;
    while i < soft.len() {
        let end = (i + block).min(soft.len());
        if end - i < 8 && !centers.is_empty() {
            break;
        }
        chunk.clear();
        chunk.extend_from_slice(&soft[i..end]);
        // Unstable sort: total_cmp-equal f64s are bit-identical, so the
        // sorted *values* match sort_by exactly — and no merge buffer.
        chunk.sort_unstable_by(f64::total_cmp);
        los.push(stats::mean(&chunk[..chunk.len() / 2]));
        his.push(stats::mean(&chunk[chunk.len() / 2..]));
        centers.push((i + end) as f64 / 2.0);
        i = end;
    }
    let centers: &[f64] = centers;
    let interp = |vals: &[f64], x: f64| -> f64 {
        if vals.len() == 1 {
            return vals[0];
        }
        let pos = centers
            .iter()
            .position(|&c| c > x)
            .unwrap_or(centers.len());
        match pos {
            0 => vals[0],
            p if p == centers.len() => vals[vals.len() - 1],
            p => {
                let t = (x - centers[p - 1]) / (centers[p] - centers[p - 1]);
                vals[p - 1] * (1.0 - t) + vals[p] * t
            }
        }
    };
    mu_lo.clear();
    mu_lo.reserve_exact(soft.len());
    mu_lo.extend((0..soft.len()).map(|k| interp(los, k as f64)));
    mu_hi.clear();
    mu_hi.reserve_exact(soft.len());
    mu_hi.extend((0..soft.len()).map(|k| interp(his, k as f64)));
}

#[cfg(test)]
impl Receiver {
    /// Bytes its decode workspace holds, by capacity, in the buffers
    /// whose length follows the recording's (`ext`, `bb_d`, `d`,
    /// `trend`, `projected`). The prefix tile and the slicer's buffers
    /// are bounded by the template and the longest packet instead.
    pub(crate) fn workspace_bytes(&self) -> usize {
        let s = self.scratch.borrow();
        let complex = s.ext.capacity() + s.bb_d.capacity() + s.d.capacity();
        let real = s.trend.capacity() + s.projected.capacity();
        complex * std::mem::size_of::<Complex64>() + real * std::mem::size_of::<f64>()
    }
}

/// What a coherent decode at decimation 1 of an `n`-sample recording
/// needs in recording-length buffers, from first principles: the padded
/// workspace (`n` plus the order-4 Butterworth's two 15-sample
/// reflection margins, which also hold the trend filter's 9-sample ones
/// and the `n − m + 1` matched-filter outputs), the baseband and the
/// detrended stream (`Complex64`), and the projected stream (`f64`).
#[cfg(test)]
pub(crate) fn decim1_workspace_need(n: usize) -> usize {
    let complex = std::mem::size_of::<Complex64>();
    (n + 2 * 15) * complex + 2 * n * complex + n * std::mem::size_of::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pab_net::packet::UplinkKind;

    /// The two-level FM0 amplitude envelope of a packet, with `lead_s`
    /// of the low level before and after it.
    fn synth_envelope(
        packet: &UplinkPacket,
        bitrate: f64,
        fs_hz: f64,
        amp_hi: f64,
        amp_lo: f64,
        lead_s: f64,
    ) -> Vec<f64> {
        let halves = fm0::encode(&packet.to_bits().unwrap(), false);
        let spb = fs_hz / (2.0 * bitrate);
        let lead = (lead_s * fs_hz) as usize;
        let n = lead + (halves.len() as f64 * spb) as usize + lead;
        (0..n)
            .map(|i| {
                let half = i.checked_sub(lead).map(|j| (j as f64 / spb) as usize);
                if half.and_then(|k| halves.get(k)) == Some(&true) {
                    amp_hi
                } else {
                    amp_lo
                }
            })
            .collect()
    }

    /// Synthesise a clean backscatter waveform for a packet: the
    /// [`synth_envelope`] on a `carrier` Hz tone.
    fn synth_waveform(
        packet: &UplinkPacket,
        bitrate: f64,
        fs_hz: f64,
        carrier: f64,
        amp_hi: f64,
        amp_lo: f64,
        lead_s: f64,
    ) -> Vec<f64> {
        let mut nco = pab_dsp::mix::Nco::new(carrier, fs_hz);
        synth_envelope(packet, bitrate, fs_hz, amp_hi, amp_lo, lead_s)
            .into_iter()
            .map(|amp| amp * nco.next_sample())
            .collect()
    }

    fn test_packet() -> UplinkPacket {
        UplinkPacket::sensor_reading(7, 3, pab_net::packet::SensorKind::Ph, 7.012)
    }

    #[test]
    fn clean_packet_decodes_with_crc() {
        let rx = Receiver::default();
        let p = test_packet();
        let w = synth_waveform(&p, 2730.67, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
        let d = rx.decode_uplink(&w, 15_000.0, 2730.67).unwrap();
        assert_eq!(d.packet.unwrap(), p);
        assert!(d.snr_db > 15.0, "snr={}", d.snr_db);
    }

    #[test]
    fn noisy_packet_still_decodes() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let rx = Receiver::default();
        let p = test_packet();
        let mut w = synth_waveform(&p, 1024.0, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
        pab_channel::noise::add_awgn(&mut w, 0.15, &mut rng);
        let d = rx.decode_uplink(&w, 15_000.0, 1024.0).unwrap();
        assert_eq!(d.packet.unwrap(), p);
    }

    #[test]
    fn pure_noise_yields_no_packet_or_bad_crc() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let rx = Receiver::default();
        let w = pab_channel::noise::awgn(40_000, 0.3, &mut rng);
        match rx.decode_uplink(&w, 15_000.0, 2730.67) {
            Err(CoreError::NoPacketDetected) => {}
            Ok(d) => assert!(d.packet.is_err(), "noise produced a valid packet"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn verdict_path_matches_decoded_path() {
        // The lean verdict decode and the diagnostic decode must agree
        // exactly — same pipeline, same scratch, different copy-out.
        let rx = Receiver::default();
        let p = test_packet();
        for bitrate in [2730.67, 1024.0, 256.0] {
            let w = synth_waveform(&p, bitrate, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
            let d = rx.decode_uplink(&w, 15_000.0, bitrate).unwrap();
            let v = rx.decode_uplink_verdict(&w, 15_000.0, bitrate).unwrap();
            assert_eq!(d.packet.unwrap(), v.packet.unwrap(), "bitrate={bitrate}");
            assert_eq!(d.start_sample, v.start_sample);
            assert_eq!(d.snr_db.to_bits(), v.snr_db.to_bits());
            assert_eq!(d.preamble_corr.to_bits(), v.preamble_corr.to_bits());
        }
    }

    /// Check `got` against the direct O(N·M) correlation, output by
    /// output, to within `1e-12·‖window‖·‖template‖`; `at` names the
    /// outputs to check.
    fn assert_matches_direct(
        x: &[Complex64],
        tc: &[Complex64],
        got: &[Complex64],
        at: impl Iterator<Item = usize>,
        tag: &str,
    ) {
        let m = tc.len();
        let t_norm = (m as f64).sqrt();
        for i in at {
            let want = pab_dsp::correlate::cross_correlate_complex_direct(&x[i..i + m], tc)[0];
            let w_norm = x[i..i + m].iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
            let err = (got[i] - want).norm();
            assert!(err <= 1e-12 * w_norm * t_norm, "{tag} i={i}: err {err:e}");
        }
    }

    #[test]
    fn run_length_matched_filter_matches_the_direct_correlation() {
        use pab_dsp::correlate::PREFIX_TILE;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let (mut prefix, mut out) = (Vec::new(), Vec::new());
        // The front end's templates: decimation 1 at 96 kHz, and 23 at
        // 192 kHz, where a half-bit spans a fractional 16.3 samples.
        for (bitrate, fs_hz, decim) in [
            (32_768.0 / 12.0, 96_000.0, 1),
            (2048.0, 96_000.0, 1),
            (1024.0, 96_000.0, 2),
            (256.0, 192_000.0, 23),
        ] {
            let fe = FrontEnd::new(bitrate, fs_hz).unwrap();
            assert_eq!(fe.decim, decim);
            let dense = preamble_template(bitrate, fe.fs2);
            assert_eq!(fe.template, RunLengthTemplate::new(&dense));
            let m = dense.len();
            let tc: Vec<Complex64> = dense.iter().map(|&t| Complex64::new(t, 0.0)).collect();
            // Output counts 1 and 2 (input lengths m and m+1), then each
            // of the first two tile boundaries ±1.
            let t = PREFIX_TILE;
            for outputs in [1, 2, t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1] {
                let x: Vec<Complex64> = (0..outputs + m - 1)
                    .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                fe.template.correlate_into(&x, &mut prefix, &mut out);
                assert_eq!(out.len(), outputs);
                assert_matches_direct(
                    &x,
                    &tc,
                    &out,
                    0..outputs,
                    &format!("{bitrate} bps n={}", x.len()),
                );
            }
        }
        // The 2731 bps template over 2^20 samples riding on a DC offset
        // 10^3 times the ±1 modulation: the per-tile restart keeps the
        // prefix sums, and so the error, from growing with the length.
        let fe = FrontEnd::new(32_768.0 / 12.0, 96_000.0).unwrap();
        let dense = preamble_template(32_768.0 / 12.0, fe.fs2);
        assert_eq!((dense.len(), fe.template.taps().len()), (563, 25));
        let tc: Vec<Complex64> = dense.iter().map(|&t| Complex64::new(t, 0.0)).collect();
        let dc = Complex64::from_polar(1e3, 0.7);
        let x: Vec<Complex64> = (0..1usize << 20)
            .map(|_| {
                let s = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                dc + Complex64::new(s, rng.gen_range(-1.0..1.0))
            })
            .collect();
        fe.template.correlate_into(&x, &mut prefix, &mut out);
        let edges =
            (1..out.len() / PREFIX_TILE).flat_map(|k| [k * PREFIX_TILE - 1, k * PREFIX_TILE]);
        let at = (0..out.len())
            .step_by(997)
            .chain(edges)
            .chain([out.len() - 1]);
        assert_matches_direct(&x, &tc, &out, at, "2^20 samples with DC");
    }

    /// The exhaustive search the run-length one replaced, rerun on the
    /// detrended stream the last decode left in the scratch arena: the
    /// direct O(N·M) correlation, each window normalised with its own
    /// square root. Returns the winner's start (full-rate samples) and
    /// normalised correlation.
    fn direct_search(rx: &Receiver, bitrate: f64) -> (usize, f64) {
        let fe = rx.front_end(bitrate).unwrap();
        let s = rx.scratch.borrow();
        let tc: Vec<Complex64> = preamble_template(bitrate, fe.fs2)
            .iter()
            .map(|&t| Complex64::new(t, 0.0))
            .collect();
        let m = tc.len();
        let num = pab_dsp::correlate::cross_correlate_complex_direct(&s.d, &tc);
        let mut best = (0usize, 0.0f64);
        for (i, acc) in num.iter().enumerate() {
            let energy: f64 = s.d[i..i + m].iter().map(|c| c.norm_sqr()).sum();
            let score = acc.norm() / (energy.max(1e-30).sqrt() * fe.template.norm());
            if score > best.1 {
                best = (i, score);
            }
        }
        (fe.start_sample(best.0), best.1)
    }

    fn assert_found_what_direct_search_finds(rx: &Receiver, bitrate: f64, v: &DecodeVerdict) {
        let (start, corr) = direct_search(rx, bitrate);
        assert_eq!(start, v.start_sample, "bitrate={bitrate}");
        let rel = (corr - v.preamble_corr).abs() / corr;
        assert!(rel < 1e-9, "bitrate={bitrate}: corr drift {rel:e}");
    }

    #[test]
    fn run_length_search_finds_what_the_fft_search_found() {
        // The FFT correlator this search replaced is gone from pab-dsp;
        // the direct correlation it equalled stands in as the oracle.
        use rand::SeedableRng;
        let p = test_packet();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let rx = Receiver::default();
        let mut noisy = synth_waveform(&p, 1024.0, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
        pab_channel::noise::add_awgn(&mut noisy, 0.15, &mut rng);
        let mut cases = vec![(1024.0, noisy)];
        for bitrate in [2730.67, 1024.0, 256.0] {
            cases.push((
                bitrate,
                synth_waveform(&p, bitrate, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01),
            ));
        }
        for (bitrate, w) in cases {
            let v = rx.decode_uplink_verdict(&w, 15_000.0, bitrate).unwrap();
            assert_eq!(v.packet.as_ref().unwrap(), &p, "bitrate={bitrate}");
            assert_found_what_direct_search_finds(&rx, bitrate, &v);
        }
    }

    /// Worst gain, dB, of the FIR `taps` (direct DTFT at `fs_hz`, 65
    /// points a band) over every band `[k·fs2 − c, k·fs2 + c]`, `k ≥ 1`,
    /// that starts below fs/2: the bands decimation to `fs2` folds onto
    /// a baseband passband of `c` Hz.
    fn worst_folding_gain_db(taps: &[f64], fs_hz: f64, fs2: f64, c: f64) -> f64 {
        let gain_db = |f: f64| {
            let w = 2.0 * std::f64::consts::PI * f / fs_hz;
            let h: Complex64 = taps
                .iter()
                .enumerate()
                .map(|(k, &t)| t * Complex64::from_polar(1.0, -w * k as f64))
                .sum();
            20.0 * h.norm().log10()
        };
        let mut worst = f64::NEG_INFINITY;
        let mut k = 1.0;
        while k * fs2 - c < fs_hz / 2.0 {
            let (lo, hi) = (k * fs2 - c, (k * fs2 + c).min(fs_hz / 2.0));
            for j in 0..=64 {
                worst = worst.max(gain_db(lo + (hi - lo) * j as f64 / 64.0));
            }
            k += 1.0;
        }
        worst
    }

    #[test]
    fn anti_alias_fir_holds_every_folding_band_50_db_down() {
        // Every Fig. 8 bitrate (32 768 Hz / (2·divider)) and ladder rung.
        let fig8 =
            [164.0, 82.0, 41.0, 27.0, 20.0, 16.0, 8.0, 6.0, 3.0].map(|div| 32_768.0 / (2.0 * div));
        let ladder = [32_768.0 / 12.0, 2048.0, 1024.0, 512.0, 256.0];
        for fs_hz in [96_000.0, 192_000.0] {
            for bitrate in fig8.into_iter().chain(ladder) {
                let fe = FrontEnd::new(bitrate, fs_hz).unwrap();
                let Some(aa) = &fe.aa else { continue };
                let c = (2.0 * bitrate).max(200.0).min(0.4 * fe.fs2);
                let worst = worst_folding_gain_db(aa.taps(), fs_hz, fe.fs2, c);
                let tag = format!("{bitrate:.1} bps at {fs_hz} Hz, decim {}", fe.decim);
                assert!(worst <= -50.0, "{tag}: folds in at {worst:.1} dB");
                if fe.decim <= 30 {
                    assert_eq!(aa.taps().len(), 127, "{tag}: lengthened needlessly");
                }
            }
        }
        // The plain 127-tap design leaves 100 bps at 192 kHz (decimation
        // 60) only ~23 dB of protection: the bound has teeth.
        let fe = FrontEnd::new(32_768.0 / 328.0, 192_000.0).unwrap();
        assert_eq!(fe.decim, 60);
        let plain = pab_dsp::fir::Fir::lowpass(
            127,
            0.8 * 192_000.0 / 120.0,
            192_000.0,
            pab_dsp::window::Window::Hamming,
        )
        .unwrap();
        let worst = worst_folding_gain_db(plain.taps(), 192_000.0, fe.fs2, 200.0);
        assert!(worst > -30.0, "plain 127 taps: {worst:.1} dB");
    }

    /// The front end's previous order, kept as the oracle for the
    /// decimate-first one: mix, order-4 Butterworth at the full rate
    /// (cutoff `(2·bitrate).clamp(200, 0.4·fs)`), then the front end's
    /// own anti-alias decimator with the coherent ×2, then the shared
    /// baseband decode. Up to decimation 30 that decimator is the
    /// historical 127-tap one, so this is the previous pipeline; above,
    /// sharing it isolates the reorder from the longer FIR's extra group
    /// delay.
    fn decode_in_the_old_order(
        rx: &Receiver,
        signal: &[f64],
        carrier_hz: f64,
        bitrate: f64,
    ) -> Result<DecodeVerdict, CoreError> {
        let fe = rx.front_end(bitrate).unwrap();
        let cutoff = (2.0 * bitrate).clamp(200.0, 0.4 * rx.fs_hz);
        let filtered = butter_lowpass(4, cutoff, rx.fs_hz)
            .unwrap()
            .filtfilt_complex(&pab_dsp::mix::downconvert(signal, carrier_hz, rx.fs_hz));
        let s = &mut *rx.scratch.borrow_mut();
        match &fe.aa {
            Some(aa) => aa.decimate_complex_scaled_into(&filtered, 2.0, &mut s.bb_d),
            None => s.bb_d = filtered.iter().map(|&c| 2.0 * c).collect(),
        }
        Receiver::decode_baseband(&fe, s, bitrate)
    }

    #[test]
    fn decimating_first_decodes_what_filtering_first_decoded() {
        use rand::SeedableRng;
        let p = test_packet();
        let ladder = [32_768.0 / 12.0, 2048.0, 1024.0, 512.0, 256.0];
        for fs_hz in [96_000.0, 192_000.0] {
            let rx = Receiver::new(1.0e-3, fs_hz);
            for bitrate in ladder.into_iter().chain([32_768.0 / 328.0]) {
                let decim = rx.front_end(bitrate).unwrap().decim;
                for seed in 0..2 {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                    let mut w = synth_waveform(&p, bitrate, fs_hz, 15_000.0, 1.0, 0.4, 0.02);
                    pab_channel::noise::add_awgn(&mut w, 0.3, &mut rng);
                    let tag = format!("{bitrate:.1} bps at {fs_hz} Hz, decim {decim}, seed {seed}");
                    let new = rx.decode_uplink_verdict(&w, 15_000.0, bitrate).unwrap();
                    let old = decode_in_the_old_order(&rx, &w, 15_000.0, bitrate).unwrap();
                    assert_eq!(new.packet.as_ref().ok(), Some(&p), "{tag}");
                    assert_eq!(old.packet.as_ref().ok(), Some(&p), "{tag}");
                    let drift = new.start_sample.abs_diff(old.start_sample);
                    assert!(drift <= decim, "{tag}: start drift {drift}");
                    let gap = (new.snr_db - old.snr_db).abs();
                    assert!(gap <= 0.25, "{tag}: snr {} vs {}", new.snr_db, old.snr_db);
                    if decim == 1 {
                        assert_eq!(new.start_sample, old.start_sample, "{tag}");
                        assert_eq!(new.snr_db.to_bits(), old.snr_db.to_bits(), "{tag}");
                        let corr = (new.preamble_corr, old.preamble_corr);
                        assert_eq!(corr.0.to_bits(), corr.1.to_bits(), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn envelope_decoder_finds_what_the_direct_search_finds() {
        // Amplitude streams as zero-forcing leaves them: the two-level
        // envelope plus noise, at 192 kHz, where 1024, 512 and 256 bps
        // decimate by 5, 11 and 23.
        use rand::SeedableRng;
        let p = test_packet();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        let rx = Receiver::new(1.0e-3, 192_000.0);
        for (bitrate, decim) in [(1024.0, 5), (512.0, 11), (256.0, 23)] {
            assert_eq!(rx.front_end(bitrate).unwrap().decim, decim);
            let mut env = synth_envelope(&p, bitrate, rx.fs_hz, 1.0, 0.4, 0.05);
            pab_channel::noise::add_awgn(&mut env, 0.1, &mut rng);
            let v = rx.decode_envelope(&env, bitrate).unwrap();
            assert_eq!(v.packet.as_ref().unwrap(), &p, "bitrate={bitrate}");
            assert_found_what_direct_search_finds(&rx, bitrate, &v);
        }
    }

    /// `start_sample` is where the packet starts in the caller's stream:
    /// both decoders take the anti-alias FIR's group delay back off the
    /// decimated preamble index (63 samples with 127 taps, 112 with 225).
    #[test]
    fn start_sample_is_where_the_packet_was_placed() {
        let p = test_packet();
        let ladder = [32_768.0 / 12.0, 2048.0, 1024.0, 512.0, 256.0];
        let lead_s = 0.02;
        for fs_hz in [96_000.0, 192_000.0] {
            let rx = Receiver::new(1.0e-3, fs_hz);
            let lead = (lead_s * fs_hz) as usize;
            for bitrate in ladder.into_iter().chain([32_768.0 / 328.0]) {
                let decim = rx.front_end(bitrate).unwrap().decim;
                let w = synth_waveform(&p, bitrate, fs_hz, 15_000.0, 1.0, 0.4, lead_s);
                let v = rx.decode_uplink_verdict(&w, 15_000.0, bitrate).unwrap();
                let tag = format!("coherent, {bitrate:.1} bps at {fs_hz} Hz, decim {decim}");
                assert_eq!(v.packet.as_ref().ok(), Some(&p), "{tag}");
                assert!(
                    v.start_sample.abs_diff(lead) <= decim.max(2),
                    "{tag}: start {} for a packet at {lead}",
                    v.start_sample
                );
            }
        }
        let rx = Receiver::new(1.0e-3, 192_000.0);
        let lead = (lead_s * rx.fs_hz) as usize;
        for bitrate in [1024.0, 512.0, 256.0] {
            let decim = rx.front_end(bitrate).unwrap().decim;
            let env = synth_envelope(&p, bitrate, rx.fs_hz, 1.0, 0.4, lead_s);
            let v = rx.decode_envelope(&env, bitrate).unwrap();
            let tag = format!("envelope, {bitrate} bps at 192 kHz, decim {decim}");
            assert_eq!(v.packet.as_ref().ok(), Some(&p), "{tag}");
            assert!(
                v.start_sample.abs_diff(lead) <= decim.max(2),
                "{tag}: start {} for a packet at {lead}",
                v.start_sample
            );
        }
    }

    #[test]
    fn envelope_decoder_keeps_the_last_bit_when_the_stream_ends_soon_after() {
        // A 256 bps packet whose stream ends 5 or 10 ms after it: the trend
        // filter's edge transient covers the last bits, so only slicing
        // the raw decimated stream decodes them.
        use rand::SeedableRng;
        let p = test_packet();
        let rx = Receiver::new(1.0e-3, 192_000.0);
        let lead = (0.05 * rx.fs_hz) as usize;
        for tail_s in [0.005, 0.010] {
            for seed in 0..8 {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let mut env = synth_envelope(&p, 256.0, rx.fs_hz, 1.0, 0.4, 0.05);
                env.truncate(env.len() - lead + (tail_s * rx.fs_hz) as usize);
                pab_channel::noise::add_awgn(&mut env, 0.1, &mut rng);
                let v = rx.decode_envelope(&env, 256.0).unwrap();
                assert_eq!(
                    v.packet.ok(),
                    Some(p.clone()),
                    "tail {tail_s} s, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn one_buffer_demodulators_are_bitwise_the_separate_passes() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let rx = Receiver::new(1.0e-3, 192_000.0);
        for n in [0, 1, 2, 40, 5_000] {
            let mut w = synth_waveform(&test_packet(), 1024.0, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
            w.truncate(n);
            pab_channel::noise::add_awgn(&mut w, 0.1, &mut rng);
            // The composition the one-buffer front replaced.
            let filtered = butter_lowpass(4, 2_048.0, rx.fs_hz)
                .unwrap()
                .filtfilt_complex(&pab_dsp::mix::downconvert(&w, 15_000.0, rx.fs_hz));
            let want_c: Vec<(u64, u64)> = filtered
                .iter()
                .map(|&c| 2.0 * c)
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect();
            let want_env: Vec<u64> = filtered
                .iter()
                .map(|c| (2.0 * c.norm()).to_bits())
                .collect();
            let got_c: Vec<(u64, u64)> = rx
                .demodulate_complex(&w, 15_000.0, 2_048.0)
                .unwrap()
                .iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect();
            let got_env: Vec<u64> = rx
                .demodulate(&w, 15_000.0, 2_048.0)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got_c, want_c, "n {n}");
            assert_eq!(got_env, want_env, "n {n}");
        }
    }

    /// Every field of two verdicts, floats by their bits.
    fn assert_same_verdict(a: &Result<DecodeVerdict, CoreError>, b: &Result<DecodeVerdict, CoreError>, tag: &str) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.packet, b.packet, "{tag}");
                assert_eq!(a.start_sample, b.start_sample, "{tag}");
                assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits(), "{tag}");
                assert_eq!(a.preamble_corr.to_bits(), b.preamble_corr.to_bits(), "{tag}");
            }
            (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{tag}"),
        }
    }

    /// The decode stages reuse one another's buffers and never shrink
    /// them, so a receiver that decoded a longer recording holds stale
    /// samples past the shorter one's end. A shorter decode must not
    /// read them: both decoders, warm from a recording 0.3 s longer,
    /// decode bitwise what a fresh receiver decodes, at decimation 1
    /// (2731 bps at 96 kHz) and 23 (256 bps at 192 kHz).
    #[test]
    fn a_warm_receiver_decodes_a_shorter_recording_like_a_fresh_one() {
        use rand::SeedableRng;
        let p = test_packet();
        for (bitrate, fs_hz, decim) in [(32_768.0 / 12.0, 96_000.0, 1), (256.0, 192_000.0, 23)] {
            let warm = Receiver::new(1.0e-3, fs_hz);
            assert_eq!(warm.front_end(bitrate).unwrap().decim, decim);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
            let mut long = synth_waveform(&p, bitrate, fs_hz, 15_000.0, 1.0, 0.4, 0.16);
            pab_channel::noise::add_awgn(&mut long, 0.2, &mut rng);
            let mut short = synth_waveform(&p, bitrate, fs_hz, 15_000.0, 1.0, 0.4, 0.01);
            pab_channel::noise::add_awgn(&mut short, 0.2, &mut rng);
            let mut env_long = synth_envelope(&p, bitrate, fs_hz, 1.0, 0.4, 0.16);
            pab_channel::noise::add_awgn(&mut env_long, 0.1, &mut rng);
            let mut env_short = synth_envelope(&p, bitrate, fs_hz, 1.0, 0.4, 0.01);
            pab_channel::noise::add_awgn(&mut env_short, 0.1, &mut rng);
            let tag = format!("decimation {decim}");
            let v = warm.decode_uplink_verdict(&long, 15_000.0, bitrate);
            assert!(v.as_ref().unwrap().packet.is_ok(), "{tag}: {v:?}");
            let v = warm.decode_envelope(&env_long, bitrate);
            assert!(v.as_ref().unwrap().packet.is_ok(), "{tag}: {v:?}");
            let fresh = Receiver::new(1.0e-3, fs_hz);
            let want = fresh.decode_uplink_verdict(&short, 15_000.0, bitrate);
            assert!(want.as_ref().unwrap().packet.is_ok(), "{tag}");
            let got = warm.decode_uplink_verdict(&short, 15_000.0, bitrate);
            assert_same_verdict(&got, &want, &format!("coherent, {tag}"));
            let fresh = Receiver::new(1.0e-3, fs_hz);
            let want = fresh.decode_envelope(&env_short, bitrate);
            assert!(want.as_ref().unwrap().packet.is_ok(), "{tag}");
            let got = warm.decode_envelope(&env_short, bitrate);
            assert_same_verdict(&got, &want, &format!("envelope, {tag}"));
        }
    }

    /// A workspace grows to exactly what its longest recording needs,
    /// whatever order the recordings come in: no amortised-doubling
    /// slack after a shorter decode sized it first.
    #[test]
    fn the_workspace_grows_exactly_to_the_longest_recording() {
        let p = test_packet();
        let bitrate = 32_768.0 / 12.0;
        let short = synth_waveform(&p, bitrate, 96_000.0, 15_000.0, 1.0, 0.4, 0.01);
        let long = synth_waveform(&p, bitrate, 96_000.0, 15_000.0, 1.0, 0.4, 0.015);
        let rx = Receiver::new(1.0e-3, 96_000.0);
        assert_eq!(rx.workspace_bytes(), 0);
        rx.decode_uplink_verdict(&short, 15_000.0, bitrate).unwrap();
        assert_eq!(rx.workspace_bytes(), decim1_workspace_need(short.len()));
        rx.decode_uplink_verdict(&long, 15_000.0, bitrate).unwrap();
        assert_eq!(rx.workspace_bytes(), decim1_workspace_need(long.len()));
        rx.decode_uplink_verdict(&short, 15_000.0, bitrate).unwrap();
        assert_eq!(rx.workspace_bytes(), decim1_workspace_need(long.len()));
    }

    #[test]
    fn repeated_decodes_are_deterministic_and_hit_the_front_end_cache() {
        let rx = Receiver::default();
        let p = test_packet();
        let w = synth_waveform(&p, 1024.0, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
        let a = rx.decode_uplink(&w, 15_000.0, 1024.0).unwrap();
        let b = rx.decode_uplink(&w, 15_000.0, 1024.0).unwrap();
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits());
        let st = rx.frontend_stats();
        assert_eq!(st.decodes, 2);
        assert_eq!(st.design_misses, 1, "one front-end design for one rate");
        assert_eq!(st.design_hits, 1, "second decode must hit the cache");
        assert!(st.samples_in > st.samples_out, "decimation must shrink");
        // The envelope decoder and another carrier reuse the same design.
        let _ = rx.decode_envelope(&w, 1024.0);
        let _ = rx.decode_uplink_verdict(&w, 18_000.0, 1024.0);
        let st = rx.frontend_stats();
        assert_eq!((st.design_misses, st.design_hits), (1, 3));
    }

    #[test]
    fn macs_saved_counts_decimation_2_decodes() {
        let rx = Receiver::default();
        let p = test_packet();
        // 2731 bps at 192 kHz decimates by 2: the kept-output loop skips
        // 127 taps per dropped sample.
        let w = synth_waveform(&p, 2730.67, rx.fs_hz, 15_000.0, 1.0, 0.4, 0.01);
        rx.decode_uplink_verdict(&w, 15_000.0, 2730.67).unwrap();
        let st = rx.frontend_stats();
        assert_eq!(st.samples_out, st.samples_in.div_ceil(2), "decim 2 must halve");
        assert_eq!(st.macs_saved, (st.samples_in - st.samples_out) * 127);
    }

    #[test]
    fn ml_decoder_repairs_boundary_violations() {
        // Construct soft values where one half-bit is pushed across the
        // threshold; the trellis constraint should still recover the data.
        let p = UplinkPacket {
            src: 1,
            seq: 0,
            kind: UplinkKind::Ack,
            payload: vec![],
        };
        let bits = p.to_bits().unwrap();
        let halves = fm0::encode(&bits, false);
        let mut soft: Vec<f64> = halves.iter().map(|&h| if h { 1.0 } else { 0.0 }).collect();
        // Corrupt one sample towards the middle — threshold slicing at 0.5
        // could go either way, but the boundary rule disambiguates.
        soft[7] = 0.45;
        let ml = Receiver::ml_fm0_halves(&soft, 0.0, 1.0);
        assert_eq!(ml, halves);
    }

    #[test]
    fn ml_decoder_on_clean_input_is_identity() {
        let bits = vec![true, false, false, true, true];
        let halves = fm0::encode(&bits, false);
        let soft: Vec<f64> = halves.iter().map(|&h| if h { 0.9 } else { 0.1 }).collect();
        let ml = Receiver::ml_fm0_halves(&soft, 0.1, 0.9);
        assert_eq!(ml, halves);
        assert!(Receiver::ml_fm0_halves(&[], 0.0, 1.0).is_empty());
    }

    #[test]
    fn record_applies_sensitivity() {
        let rx = Receiver::default();
        let v = rx.record(&[1_000.0]);
        assert!((v[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        let rx = Receiver::default();
        assert!(rx.decode_uplink(&[0.0; 1000], 15_000.0, 0.0).is_err());
        assert!(rx.decode_uplink(&[0.0; 10], 15_000.0, 1000.0).is_err());
    }
}
