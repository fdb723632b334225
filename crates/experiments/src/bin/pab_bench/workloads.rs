//! The four benchmark workloads. Every config and fault seed derives from
//! the one `--seed` through [`derive_seed`], so a seed fixes the inputs.

use pab_channel::{BroadbandBurst, DriftRamp, FaultSchedule, PathFade};
use pab_core::faultnet::{FaultNetConfig, FaultNodeSpec};
use pab_core::link::LinkConfig;
use pab_net::mac::{
    AdaptiveConfig, ChannelPlan, CollisionPolicy, Concurrency, MacPolicy, RateLadder,
};
use pab_net::packet::{Command, SensorKind};
use pab_sweep::derive_seed;

/// Fade windows on `faulted_n2`'s node 1: 3 s of every 4 s, enough of
/// them to outlast a timed round (~27 simulated seconds).
const FADE_WINDOWS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FdmaN4,
    Rung256,
    FaultedN2,
    CollisionN2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FdmaN4,
        Workload::Rung256,
        Workload::FaultedN2,
        Workload::CollisionN2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FdmaN4 => "fdma_n4",
            Workload::Rung256 => "rung256_192k",
            Workload::FaultedN2 => "faulted_n2",
            Workload::CollisionN2 => "collision_n2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Packets per node in one timed round: under a second of wall time
    /// each on a 2-core x86-64 box, so a 16 s run takes the median of
    /// ~18 rounds.
    pub fn per_node_packets(self) -> u64 {
        match self {
            Workload::FdmaN4 => 20,
            Workload::Rung256 => 30,
            Workload::FaultedN2 => 20,
            Workload::CollisionN2 => 5,
        }
    }

    /// No fault is injected, so every packet must be delivered.
    pub fn healthy(self) -> bool {
        self != Workload::FaultedN2
    }

    /// The workload's network at `seed`, collecting `per_node_packets`
    /// from every node on one thread.
    pub fn config(self, seed: u64, per_node_packets: u64) -> FaultNetConfig {
        let mut cfg = match self {
            Workload::FdmaN4 => {
                let mut cfg = with_nodes(4);
                cfg.fs_hz = 96_000.0;
                cfg
            }
            Workload::Rung256 => {
                let mut cfg = with_nodes(2);
                cfg.fs_hz = 192_000.0;
                cfg.policy = MacPolicy::Adaptive(AdaptiveConfig {
                    ladder: RateLadder::new(vec![256.0]).expect("single-rung ladder is valid"),
                    ..Default::default()
                });
                cfg.bitrate_target_bps = 256.0;
                cfg
            }
            Workload::FaultedN2 => {
                let mut cfg = with_nodes(2);
                cfg.fs_hz = 96_000.0;
                let burst = BroadbandBurst {
                    start_s: 0.0,
                    duration_s: 2.0,
                    rms_pa: 1_000.0,
                };
                let mut fading = FaultSchedule::new(derive_seed(seed, 1))
                    .with_burst(burst)
                    .expect("valid burst");
                for k in 0..FADE_WINDOWS {
                    fading = fading
                        .with_fade(PathFade {
                            start_s: 4.0 * k as f64,
                            duration_s: 3.0,
                            floor_ratio: 0.2,
                        })
                        .expect("valid fade");
                }
                cfg.nodes[0].faults = fading;
                cfg.nodes[1].faults = FaultSchedule::new(derive_seed(seed, 2))
                    .with_burst(burst)
                    .expect("valid burst")
                    .with_drift(DriftRamp {
                        rate_hz_per_s: 1.0,
                        max_abs_hz: 15.0,
                    })
                    .expect("valid drift");
                cfg
            }
            Workload::CollisionN2 => {
                // ext_collision_faultnet's intensity-0 pair.
                let mut cfg = FaultNetConfig {
                    policy: MacPolicy::Adaptive(AdaptiveConfig {
                        ladder: RateLadder::new(vec![1_024.0, 512.0, 256.0]).expect("valid ladder"),
                        ..Default::default()
                    }),
                    bitrate_target_bps: 1_024.0,
                    concurrency: Concurrency::Collision(CollisionPolicy::default()),
                    command: Command::Ping,
                    ..Default::default()
                };
                cfg.plan = ChannelPlan::new(vec![14_000.0, 19_000.0]).expect("valid plan");
                for (i, (node, carrier_hz)) in
                    cfg.nodes.iter_mut().zip([14_000.0, 19_000.0]).enumerate()
                {
                    node.carrier_hz = carrier_hz;
                    node.faults = FaultSchedule::new(derive_seed(seed, 1 + i as u64));
                }
                cfg
            }
        };
        cfg.seed = derive_seed(seed, 0);
        cfg.per_node_packets = per_node_packets;
        cfg.max_slots = 40 * per_node_packets.max(1) * cfg.nodes.len() as u64;
        cfg.parallel_slots = false;
        cfg
    }
}

/// The canonical N-node layout, time-shared one uplink at a time, each
/// query reading a sensor so delivered payloads differ between workloads.
fn with_nodes(n: usize) -> FaultNetConfig {
    let mut cfg = FaultNetConfig::with_nodes(n).expect("bench node count is valid");
    cfg.concurrency = Concurrency::Serialized;
    cfg.command = Command::ReadSensor(SensorKind::Temperature);
    cfg
}

/// The `LinkConfig` that `FaultNetSimulator::new` builds for `spec`.
pub fn link_config(cfg: &FaultNetConfig, spec: &FaultNodeSpec) -> LinkConfig {
    LinkConfig {
        pool: cfg.pool,
        projector_pos: cfg.projector_pos,
        node_pos: spec.position,
        hydrophone_pos: cfg.hydrophone_pos,
        carrier_hz: spec.carrier_hz,
        f_match_hz: spec.carrier_hz,
        node_addr: spec.addr,
        bitrate_target_bps: cfg.bitrate_target_bps,
        drive_voltage_v: cfg.drive_voltage_v,
        max_reflections: cfg.max_reflections,
        noise: cfg.noise,
        noise_scale: cfg.noise_scale,
        seed: derive_seed(cfg.seed, u64::from(spec.addr)),
        fs_hz: cfg.fs_hz,
        ..Default::default()
    }
}

/// The uplink rate the MAC commands before any rate step.
pub fn top_rate_bps(cfg: &FaultNetConfig) -> f64 {
    match &cfg.policy {
        MacPolicy::Adaptive(a) => a.ladder.top_bps(),
        _ => RateLadder::fm0_default().top_bps(),
    }
}
