//! The shared medium of one tank: projector → pool → nodes → pool →
//! hydrophone, noiseless. Backscatter is frequency-agnostic (§3.3.2), so
//! every node hears every carrier and re-radiates every carrier into one
//! pressure field at the hydrophone. Both slot simulators drive this one
//! chain: [`LinkSimulator`](crate::link::LinkSimulator) as a 1-node,
//! 1-carrier medium and
//! [`CollisionGroupSimulator`](crate::collision_group::CollisionGroupSimulator)
//! as a k-node, k-carrier one.
//!
//! The medium is physics only. Noise, RNG, receiver and caches stay with
//! each simulator, so every simulator keeps its own noise stream.

use crate::node::{IncidentComponent, NodeOutput, PabNode};
use crate::{margin_samples, CoreError};
use pab_channel::{MultipathChannel, Pool, Position};

/// Carriers, nodes and every image-method channel between projector,
/// nodes and hydrophone, designed once.
#[derive(Debug)]
pub(crate) struct Medium {
    fs_hz: f64,
    /// The carriers, in channel order.
    carriers_hz: Vec<f64>,
    /// Projector→hydrophone channels, one per carrier.
    direct: Vec<MultipathChannel>,
    /// The nodes, in the order their channels below are indexed.
    pub(crate) nodes: Vec<PabNode>,
    /// Projector→node channels, `[node][carrier]`.
    down: Vec<Vec<MultipathChannel>>,
    /// Node→hydrophone channels, `[node][carrier]`.
    up: Vec<Vec<MultipathChannel>>,
}

impl Medium {
    /// Design, on every carrier, the projector→hydrophone channel and
    /// each node's two channels (every node placed at its position).
    /// A sample rate [`margin_samples`] rejects (not finite, not positive,
    /// or 2⁵² Hz and up) is a typed error here, before any channel runs.
    pub(crate) fn new(
        pool: &Pool,
        projector: &Position,
        hydrophone: &Position,
        max_reflections: usize,
        fs_hz: f64,
        carriers_hz: Vec<f64>,
        nodes: Vec<(PabNode, Position)>,
    ) -> Result<Self, CoreError> {
        margin_samples(fs_hz)?;
        let per_carrier = |from: &Position, to: &Position| {
            carriers_hz
                .iter()
                .map(|&f| pool.channel(from, to, max_reflections, f))
                .collect::<Result<Vec<_>, _>>()
        };
        let direct = per_carrier(projector, hydrophone)?;
        let mut down = Vec::with_capacity(nodes.len());
        let mut up = Vec::with_capacity(nodes.len());
        let mut placed = Vec::with_capacity(nodes.len());
        for (node, pos) in nodes {
            down.push(per_carrier(projector, &pos)?);
            up.push(per_carrier(&pos, hydrophone)?);
            placed.push(node);
        }
        Ok(Medium {
            fs_hz,
            carriers_hz,
            direct,
            nodes: placed,
            down,
            up,
        })
    }

    /// What `node` hears: every carrier's transmit waveform through its
    /// projector→node channel.
    pub(crate) fn incident<W: AsRef<[f64]>>(
        &self,
        node: usize,
        waves: &[W],
    ) -> Vec<IncidentComponent> {
        waves
            .iter()
            .zip(&self.carriers_hz)
            .zip(&self.down[node])
            .map(|((w, &carrier_hz), ch)| IncidentComponent {
                carrier_hz,
                samples: ch.apply(w.as_ref(), self.fs_hz),
            })
            .collect()
    }

    /// The noiseless hydrophone pressure over `rx_len` samples: the direct
    /// path of every carrier, then node by node and carrier by carrier
    /// each node's backscatter (`backscatter[node][carrier]`). The order
    /// is fixed, so the floating-point sum is too.
    pub(crate) fn superpose<W: AsRef<[f64]>>(
        &self,
        waves: &[W],
        backscatter: &[&[Vec<f64>]],
        rx_len: usize,
    ) -> Vec<f64> {
        let mut y = self.direct_pressure(waves, rx_len);
        self.add_backscatter(&mut y, backscatter);
        y
    }

    /// The direct leg of [`superpose`](Self::superpose): every carrier's
    /// projector→hydrophone pressure over `rx_len` samples. It does not
    /// depend on the nodes, so a caller may keep it and add only
    /// [`add_backscatter`](Self::add_backscatter) per exchange.
    pub(crate) fn direct_pressure<W: AsRef<[f64]>>(&self, waves: &[W], rx_len: usize) -> Vec<f64> {
        let mut y = vec![0.0; rx_len];
        for (ch, w) in self.direct.iter().zip(waves) {
            ch.apply_into(&mut y, w.as_ref(), self.fs_hz);
        }
        y
    }

    /// The backscatter leg of [`superpose`](Self::superpose), added into
    /// `y` after the direct leg.
    pub(crate) fn add_backscatter(&self, y: &mut [f64], backscatter: &[&[Vec<f64>]]) {
        for (chans, node_bs) in self.up.iter().zip(backscatter) {
            for (ch, bs) in chans.iter().zip(node_bs.iter()) {
                ch.apply_into(y, bs, self.fs_hz);
            }
        }
    }

    /// One noiseless slot: every node processes its incident field (with
    /// `water` on its sensors), then [`superpose`](Self::superpose).
    pub(crate) fn hear<W: AsRef<[f64]>>(
        &self,
        waves: &[W],
        water: pab_sensors::WaterSample,
        rx_len: usize,
    ) -> Result<(Vec<f64>, Vec<NodeOutput>), CoreError> {
        let outs = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| node.process(&self.incident(i, waves), self.fs_hz, Some(water)))
            .collect::<Result<Vec<_>, _>>()?;
        let backscatter: Vec<&[Vec<f64>]> = outs.iter().map(|o| &o.backscatter[..]).collect();
        Ok((self.superpose(waves, &backscatter, rx_len), outs))
    }

    /// Direct-path delay from `node` to the hydrophone on the first
    /// carrier, in whole samples.
    pub(crate) fn uplink_delay_samples(&self, node: usize) -> usize {
        (self.up[node][0].direct().delay_s * self.fs_hz).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use crate::collision_group::{CollisionGroupSimulator, MultiNodeConfig};
    use crate::faultnet::{FaultNetConfig, FaultNetSimulator};
    use crate::link::{LinkConfig, LinkSimulator};

    /// Every simulator builds its channels through `Medium::new`, so a
    /// hostile sample rate fails construction with a `CoreError` (the
    /// noise-level check may name it first) instead of reaching
    /// `MultipathChannel::apply`.
    #[test]
    fn every_simulator_rejects_hostile_rates() {
        for fs_hz in [
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2f64.powi(52),
            2f64.powi(60),
        ] {
            let errors = [
                LinkSimulator::new(LinkConfig { fs_hz, ..Default::default() }).err(),
                CollisionGroupSimulator::with_config(&MultiNodeConfig {
                    fs_hz,
                    ..Default::default()
                })
                .err(),
                FaultNetSimulator::new(FaultNetConfig { fs_hz, ..Default::default() }).err(),
            ];
            for (sim, e) in ["link", "collision group", "faultnet"].iter().zip(errors) {
                assert!(e.is_some(), "{sim} at fs {fs_hz}");
            }
        }
    }
}
