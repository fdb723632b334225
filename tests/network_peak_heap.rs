//! Pins three network rounds' peak live heap with a counting global
//! allocator that tracks the bytes live at every moment and their
//! high-water mark: a deterministic memory figure, where a process's
//! peak RSS moves with the allocator and the host.
//!
//! Two rounds are `pab_bench` workloads at seed 0, sensor reads at
//! 96 kHz, 20 packets per node:
//!
//! * `faulted_n2`: node 1 faded 3 s of every 4 s, node 2 on a 1 Hz/s
//!   drift ramp to 15 Hz, both under a 2 s noise burst. A link memoises
//!   an exchange only when its key can recur; while the ramp moves, every
//!   exchange has a new oscillator offset. When node 2's 13 mid-ramp
//!   exchanges each stored their ~0.94 MB entry, the round peaked at
//!   21.5 MB; it now peaks at 9.66 MB;
//! * `fdma_n4`: four healthy nodes. With one arena per link it peaked at
//!   9.73 MB; the links now share the network's one arena, 9.25 MB.
//!
//! The third blacklists a collision group: the 14/19 kHz pair of
//! `crates/core/tests/collision_faultnet.rs` (1024/512/256 bps ladder,
//! 4 packets per node, 60 slots, 192 kHz) driven at 20 V under
//! `Concurrency::Collision`, too weak to power a member up. Its first
//! training slot is silent, so the slot falls back to FDMA and the group
//! is blacklisted. While faultnet kept a blacklisted group's simulator
//! (medium, receiver and pool) for the rest of the round, it peaked at
//! 25.94 MB; the group is now freed as it is blacklisted, 18.26 MB.
//!
//! Each bound is the measured peak plus 0.4 MB (about 4% of the bench
//! rounds), so each old layout fails it. The peak counts everything the
//! round allocates, from building the network to dropping it.
//!
//! This file holds exactly one test so no sibling test thread allocates
//! while a peak is measured.
//
// The global-allocator shim is the one place the workspace needs
// `unsafe`: `GlobalAlloc` is an unsafe trait by definition. The impl
// delegates straight to `System` and only updates two atomics.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pab_channel::{BroadbandBurst, DriftRamp, FaultSchedule, PathFade};
use pab_core::faultnet::{FaultNetConfig, FaultNetReport, FaultNetSimulator};
use pab_net::mac::{
    AdaptiveConfig, ChannelPlan, CollisionPolicy, Concurrency, MacPolicy, RateLadder,
};
use pab_net::packet::{Command, SensorKind};
use pab_sweep::derive_seed;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    /// Counted as the new block allocated before the old one is freed,
    /// as a moving `realloc` holds both.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MB: f64 = 1e6;

/// The peak live heap, MB, of building `cfg`'s network and running one
/// round, above what was live before, and the round's report.
fn round_peak_mb(cfg: FaultNetConfig) -> (f64, FaultNetReport) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut net = FaultNetSimulator::new(cfg).expect("valid config");
    let report = net.run().expect("round runs");
    drop(net);
    ((PEAK.load(Ordering::Relaxed) - base) as f64 / MB, report)
}

/// `pab_bench`'s network of `n` nodes at `seed`: sensor reads at 96 kHz,
/// 20 packets per node.
fn bench_net(n: usize, seed: u64) -> FaultNetConfig {
    let mut cfg = FaultNetConfig::with_nodes(n).expect("valid node count");
    cfg.fs_hz = 96_000.0;
    cfg.command = Command::ReadSensor(SensorKind::Temperature);
    cfg.seed = derive_seed(seed, 0);
    cfg.per_node_packets = 20;
    cfg.max_slots = 40 * 20 * n as u64;
    cfg
}

fn faulted_n2() -> FaultNetConfig {
    let mut cfg = bench_net(2, 0);
    let burst = BroadbandBurst {
        start_s: 0.0,
        duration_s: 2.0,
        rms_pa: 1_000.0,
    };
    let mut fading = FaultSchedule::new(derive_seed(0, 1)).with_burst(burst).expect("valid burst");
    for k in 0..12 {
        fading = fading
            .with_fade(PathFade {
                start_s: 4.0 * k as f64,
                duration_s: 3.0,
                floor_ratio: 0.2,
            })
            .expect("valid fade");
    }
    cfg.nodes[0].faults = fading;
    cfg.nodes[1].faults = FaultSchedule::new(derive_seed(0, 2))
        .with_burst(burst)
        .and_then(|f| {
            f.with_drift(DriftRamp {
                rate_hz_per_s: 1.0,
                max_abs_hz: 15.0,
            })
        })
        .expect("valid schedule");
    cfg
}

/// The 14/19 kHz pair at 20 V under `Concurrency::Collision`: its
/// silent training slot blacklists the group.
fn blacklisting_pair() -> FaultNetConfig {
    let mut cfg = FaultNetConfig::default();
    cfg.plan = ChannelPlan::new(vec![14_000.0, 19_000.0]).expect("valid plan");
    cfg.nodes[0].carrier_hz = 14_000.0;
    cfg.nodes[1].carrier_hz = 19_000.0;
    cfg.bitrate_target_bps = 1_024.0;
    cfg.policy = MacPolicy::Adaptive(AdaptiveConfig {
        ladder: RateLadder::new(vec![1_024.0, 512.0, 256.0]).expect("valid ladder"),
        ..Default::default()
    });
    cfg.per_node_packets = 4;
    cfg.max_slots = 60;
    cfg.concurrency = Concurrency::Collision(CollisionPolicy::default());
    cfg.drive_voltage_v = 20.0;
    cfg
}

#[test]
fn network_rounds_stay_within_their_peak_heap() {
    let (faulted, report) = round_peak_mb(faulted_n2());
    assert!(report.completed, "{report:?}");
    let (fdma, report) = round_peak_mb(bench_net(4, 0));
    assert!(report.completed, "{report:?}");
    let (blacklisting, _) = round_peak_mb(blacklisting_pair());
    println!(
        "peak live heap: faulted_n2 {faulted:.2} MB, fdma_n4 {fdma:.2} MB, \
         blacklisting pair {blacklisting:.2} MB"
    );
    assert!(faulted <= 9.66 + 0.4, "faulted_n2 peaked at {faulted:.2} MB");
    assert!(fdma <= 9.25 + 0.4, "fdma_n4 peaked at {fdma:.2} MB");
    assert!(blacklisting <= 18.26 + 0.4, "the blacklisting pair peaked at {blacklisting:.2} MB");
}
