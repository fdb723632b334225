//! One Criterion benchmark per paper figure: each measures the compute
//! kernel that regenerates that figure's data (the full sweeps live in
//! `pab-experiments`; these benches time one representative unit so
//! regressions in the simulation hot paths are caught).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pab_analog::RectoPiezo;
use pab_channel::{Pool, Position};
use pab_core::link::{LinkConfig, LinkSimulator};
use pab_core::collision_group::{CollisionGroupSimulator, MultiNodeConfig};
use pab_core::node::PabNode;
use pab_core::powerup::max_powerup_distance_m;
use pab_core::receiver::Receiver;
use pab_net::fm0;
use pab_net::packet::{Command, SensorKind, UplinkPacket};
use pab_piezo::Transducer;

/// Fig. 2 kernel: demodulate a 0.5 s received waveform.
fn fig2_demod(c: &mut Criterion) {
    let rx = Receiver::default();
    let mut nco = pab_dsp::mix::Nco::new(15_000.0, rx.fs_hz);
    let mut w = vec![0.0; (0.5 * rx.fs_hz) as usize];
    nco.fill(&mut w);
    c.bench_function("fig2_demodulate_500ms", |b| {
        b.iter(|| rx.demodulate(&w, 15_000.0, 60.0).unwrap())
    });
}

/// Fig. 3 kernel: one 101-point rectified-voltage frequency sweep.
fn fig3_sweep(c: &mut Criterion) {
    let node = RectoPiezo::design(Transducer::pab_node(), 15_000.0).unwrap();
    c.bench_function("fig3_rectopiezo_sweep", |b| {
        b.iter(|| {
            (110..=210)
                .map(|k| node.rectified_voltage_v(1_020.0, k as f64 * 100.0, 1e6))
                .sum::<f64>()
        })
    });
}

/// Fig. 7 kernel: decode one noisy packet end to end.
#[allow(clippy::items_after_statements)]
fn fig7_decode(c: &mut Criterion) {
    use rand::SeedableRng;
    let rx = Receiver::default();
    let p = UplinkPacket::sensor_reading(1, 1, SensorKind::Ph, 7.0);
    let halves = fm0::encode(&p.to_bits().unwrap(), false);
    let spb = rx.fs_hz / (2.0 * 1024.0);
    let lead = (0.008 * rx.fs_hz) as usize;
    let n = lead + (halves.len() as f64 * spb) as usize + lead;
    let mut nco = pab_dsp::mix::Nco::new(15_000.0, rx.fs_hz);
    let clean: Vec<f64> = (0..n)
        .map(|i| {
            let amp = if i < lead || i >= n - lead {
                0.4
            } else {
                let k = (((i - lead) as f64) / spb) as usize;
                if k < halves.len() && halves[k] {
                    1.0
                } else {
                    0.4
                }
            };
            amp * nco.next_sample()
        })
        .collect();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    c.bench_function("fig7_decode_one_packet", |b| {
        b.iter_batched(
            || {
                let mut w = clean.clone();
                pab_channel::noise::add_awgn(&mut w, 0.3, &mut rng);
                w
            },
            |w| rx.decode_uplink(&w, 15_000.0, 1024.0).unwrap(),
            BatchSize::LargeInput,
        )
    });
}

/// Fig. 8 kernel: one full end-to-end link exchange.
fn fig8_link(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(20))
        .warm_up_time(std::time::Duration::from_secs(2));
    group.bench_function("fig8_full_link_exchange", |b| {
        b.iter_batched(
            || LinkSimulator::new(LinkConfig::default()).unwrap(),
            |mut sim| sim.run_query(Command::Ping).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// Fig. 9 kernel: one power-up range sweep along Pool B.
fn fig9_powerup(c: &mut Criterion) {
    let pool = Pool::pool_b();
    let node = PabNode::new(1, 15_000.0).unwrap();
    let proj = Position::new(0.2, 0.6, 0.5);
    let mut group = c.benchmark_group("fig9");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(10));
    group.bench_function("fig9_powerup_range_sweep", |b| {
        b.iter(|| {
            max_powerup_distance_m(&pool, &node, &proj, 150.0, 15_000.0, 4, 0.25).unwrap()
        })
    });
    group.finish();
}

/// Fig. 10 kernel: the full three-slot concurrent experiment.
fn fig10_concurrent(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(30))
        .warm_up_time(std::time::Duration::from_secs(2));
    let cfg = MultiNodeConfig::fig10_pair();
    let queries = cfg.addressed_queries(Command::Ping);
    group.bench_function("fig10_three_slot_collision", |b| {
        b.iter_batched(
            || CollisionGroupSimulator::with_config(&cfg).unwrap(),
            |mut sim| sim.run(&queries).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// Fig. 11 kernel: 10 s of MCU emulation while backscattering.
#[allow(clippy::items_after_statements)]
fn fig11_mcu(c: &mut Criterion) {
    use pab_mcu::{Firmware, Mcu, McuServices, Pin, PinLevel, PowerProfile};
    struct Bench {
        halves: Vec<bool>,
        idx: usize,
    }
    impl Firmware for Bench {
        fn on_reset(&mut self, svc: &mut McuServices) {
            svc.set_timer_periodic(6.0 / 32_768.0).unwrap();
            svc.stay_active();
        }
        fn on_edge(&mut self, _svc: &mut McuServices, _r: bool) {}
        fn on_timer(&mut self, svc: &mut McuServices) {
            let level = if self.halves[self.idx % self.halves.len()] {
                PinLevel::High
            } else {
                PinLevel::Low
            };
            svc.set_pin(Pin::BackscatterSwitch, level);
            self.idx += 1;
        }
    }
    let bits: Vec<bool> = (0..256u32).map(|i| i % 3 == 0).collect();
    let mut group = c.benchmark_group("fig11");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(10));
    group.bench_function("fig11_mcu_10s_backscatter", |b| {
        b.iter_batched(
            || {
                let fw = Bench {
                    halves: fm0::encode(&bits, false),
                    idx: 0,
                };
                let mut mcu = Mcu::new(fw, PowerProfile::pab_node());
                mcu.reset();
                mcu
            },
            |mut mcu| {
                mcu.run_until(10.0);
                mcu.services.power_meter().average_power_w()
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// §6.5 kernel: one sensor reading through the MS5837 device model.
fn sensing_read(c: &mut Criterion) {
    use pab_mcu::peripherals::I2cBus;
    use pab_sensors::{Ms5837, Ms5837Driver, WaterSample};
    c.bench_function("sensing_ms5837_measure", |b| {
        b.iter_batched(
            || {
                let mut bus = I2cBus::new();
                bus.attach(Box::new(Ms5837::new(WaterSample::bench())));
                bus
            },
            |mut bus| Ms5837Driver::measure(&mut bus).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

/// §2 kernel: the baseline energy comparison (trivially fast; tracked so
/// the numbers cannot silently change shape).
fn baseline_energy(c: &mut Criterion) {
    use pab_core::baseline::{compare, ActiveAcousticNode, BackscatterEnergyModel};
    c.bench_function("baseline_energy_compare", |b| {
        b.iter(|| {
            compare(
                &ActiveAcousticNode::fish_tag(),
                &BackscatterEnergyModel::pab_node(),
                535e-6,
            )
        })
    });
}

criterion_group!(
    figures,
    fig2_demod,
    fig3_sweep,
    fig7_decode,
    fig8_link,
    fig9_powerup,
    fig10_concurrent,
    fig11_mcu,
    sensing_read,
    baseline_energy
);
criterion_main!(figures);
