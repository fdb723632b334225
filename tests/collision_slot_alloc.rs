//! Pins the collision slot's allocation budget with a counting global
//! allocator that sums the bytes every allocation asks for.
//!
//! A `CollisionGroupSimulator` owns one buffer pool: the query
//! synthesis, the medium's incident fields, backscatter and pressure,
//! the nodes' temporaries, the noisy copy of the pressure, the per-band
//! basebands, the ground-truth windows and the zero-forced streams all
//! come from it and go back when the slot ends. Once one training pass
//! and one collision slot have sized the pool, a slot allocates only
//! what is not pooled (the PWM keying and node MCU rasters, small
//! bookkeeping) and, in a training pass that keeps the memo, the one
//! buffer the memo holds. Before the pool, a training pass allocated
//! 72.5 MB, a clean-memo miss 38.7 MB and a memo hit 6.2 MB (the
//! 14/19 kHz pair at 1024 bps and 192 kHz); each budget below is about a
//! tenth of that.
//!
//! This file holds exactly one test so no sibling test thread allocates
//! inside a measured span.
//
// The global-allocator shim is the one place the workspace needs
// `unsafe`: `GlobalAlloc` is an unsafe trait by definition. The impl
// delegates straight to `System` and only adds to an atomic.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pab_core::collision_group::{CollisionGroupSimulator, CollisionOutcome};
use pab_core::faultnet::FaultNetConfig;
use pab_net::packet::{Command, SensorKind};

static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated while `f` runs, and its result.
fn bytes_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

const MB: u64 = 1_000_000;

#[test]
fn warm_collision_slots_stay_within_a_tenth_of_the_unpooled_bytes() {
    let (probe, _) = bytes_of(|| drop(std::hint::black_box(vec![0u8; 4096])));
    assert!(probe >= 4096, "counting allocator not wired up");

    // The pair `pab_bench`'s collision workload runs: 14/19 kHz carriers,
    // 1024 bps, 192 kHz.
    let mut cfg = FaultNetConfig::default();
    cfg.plan = pab_net::mac::ChannelPlan::new(vec![14_000.0, 19_000.0]).expect("valid plan");
    cfg.nodes[0].carrier_hz = 14_000.0;
    cfg.nodes[1].carrier_hz = 19_000.0;
    cfg.bitrate_target_bps = 1024.0;
    let mut group = CollisionGroupSimulator::new(&cfg, &[1, 2]).expect("valid group");

    // Warm-up: one training pass and one collision slot. The warm slot's
    // command keys a query no shorter than a ping's, so every buffer the
    // measured slots ask for already fits the pool.
    let sensor = Command::ReadSensor(SensorKind::Temperature);
    group.train(Command::Ping).expect("training");
    let warm = group.collision_slot(sensor).expect("warm slot");

    let (train, training) = bytes_of(|| group.train(Command::Ping));
    training.expect("second training pass");
    let (miss, missed) = bytes_of(|| group.collision_slot(Command::Ping));
    let (hit, hitting) = bytes_of(|| group.collision_slot(Command::Ping));
    let (missed, hitting): (CollisionOutcome, CollisionOutcome) =
        (missed.expect("miss slot"), hitting.expect("hit slot"));
    assert!(
        missed.elapsed_s <= warm.elapsed_s,
        "the warm slot must be the longer one: {} s vs {} s",
        missed.elapsed_s,
        warm.elapsed_s
    );
    let stats = group.stats();
    assert_eq!((stats.clean_misses, stats.clean_hits), (2, 1), "{stats:?}");
    assert!(hitting.verdicts.iter().all(|v| v.crc_ok), "{:?}", hitting.verdicts);

    println!("training pass {train} B, miss {miss} B, hit {hit} B");
    assert!(train <= 7_250_000, "training pass allocated {:.2} MB", train as f64 / MB as f64);
    assert!(miss <= 3_900_000, "clean-memo miss allocated {:.2} MB", miss as f64 / MB as f64);
    assert!(hit <= 620_000, "memo hit allocated {:.2} MB", hit as f64 / MB as f64);
}
