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
//! each simulator, so every simulator keeps its own noise stream. The
//! buffers a slot's fields live in come from the caller's [`Scratch`]
//! pool, so a simulator that keeps its pool re-runs the chain without
//! allocating the fields again.

use crate::node::{IncidentComponent, NodeOutput, PabNode};
use crate::scratch::Scratch;
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
    /// projector→node channel, each in a fresh buffer.
    pub(crate) fn incident<W: AsRef<[f64]>>(
        &self,
        node: usize,
        waves: &[W],
    ) -> Vec<IncidentComponent> {
        self.incident_in(node, waves, &mut Scratch::transient())
    }

    /// [`incident`](Self::incident) in buffers taken from `pool`: each
    /// component is `MultipathChannel::apply`'s output, accumulated into
    /// a zeroed buffer of its length.
    fn incident_in<W: AsRef<[f64]>>(
        &self,
        node: usize,
        waves: &[W],
        pool: &mut Scratch,
    ) -> Vec<IncidentComponent> {
        waves
            .iter()
            .zip(&self.carriers_hz)
            .zip(&self.down[node])
            .map(|((w, &carrier_hz), ch)| {
                let w = w.as_ref();
                let mut samples = pool.take_zeroed(ch.output_len(w.len(), self.fs_hz));
                ch.apply_into(&mut samples, w, self.fs_hz);
                IncidentComponent { carrier_hz, samples }
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
        let mut y = vec![0.0; rx_len];
        self.add_direct(&mut y, waves);
        self.add_backscatter(&mut y, backscatter);
        y
    }

    /// The direct leg of [`superpose`](Self::superpose), added into `y`
    /// (zeros, for the pressure alone): every carrier's
    /// projector→hydrophone pressure. It does not depend on the nodes, so
    /// a caller may keep it and add only
    /// [`add_backscatter`](Self::add_backscatter) per exchange.
    pub(crate) fn add_direct<W: AsRef<[f64]>>(&self, y: &mut [f64], waves: &[W]) {
        for (ch, w) in self.direct.iter().zip(waves) {
            ch.apply_into(y, w.as_ref(), self.fs_hz);
        }
    }

    /// The backscatter leg of [`superpose`](Self::superpose), added into
    /// `y` after the direct leg.
    pub(crate) fn add_backscatter(&self, y: &mut [f64], backscatter: &[&[Vec<f64>]]) {
        for (node, node_bs) in backscatter.iter().enumerate() {
            self.add_node_backscatter(y, node, node_bs);
        }
    }

    /// One node's share of [`add_backscatter`](Self::add_backscatter),
    /// carrier by carrier.
    fn add_node_backscatter(&self, y: &mut [f64], node: usize, backscatter: &[Vec<f64>]) {
        let chans = self.up.get(node).map_or(&[][..], Vec::as_slice);
        for (ch, bs) in chans.iter().zip(backscatter) {
            ch.apply_into(y, bs, self.fs_hz);
        }
    }

    /// One noiseless slot on `pool`'s buffers: the direct leg into a
    /// pooled pressure buffer, then node by node its incident field, its
    /// processing (with `water` on its sensors) and its backscatter added
    /// on: [`superpose`](Self::superpose)'s sum in its order, with only
    /// one node's fields alive at a time. The incident fields and the
    /// backscatter go back to `pool` once used, so each returned
    /// [`NodeOutput`]'s `backscatter` is empty; the caller returns the
    /// pressure when it is done with it.
    pub(crate) fn hear<W: AsRef<[f64]>>(
        &self,
        waves: &[W],
        water: pab_sensors::WaterSample,
        rx_len: usize,
        pool: &mut Scratch,
    ) -> Result<(Vec<f64>, Vec<NodeOutput>), CoreError> {
        let mut y = pool.take_zeroed(rx_len);
        self.add_direct(&mut y, waves);
        let mut outs = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let incident = self.incident_in(i, waves, pool);
            let out = node.process_in(&incident, self.fs_hz, Some(water), pool);
            pool.put_all(incident.into_iter().map(|c| c.samples));
            let mut out = out?;
            self.add_node_backscatter(&mut y, i, &out.backscatter);
            pool.put_all(std::mem::take(&mut out.backscatter));
            outs.push(out);
        }
        Ok((y, outs))
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
    use crate::CoreError;
    use crate::faultnet::{FaultNetConfig, FaultNetSimulator};
    use crate::link::{LinkConfig, LinkSimulator};

    /// Every simulator checks its sample rate with `margin_samples` before
    /// anything reads it (the noise level, `Medium::new`'s channels), so
    /// a hostile rate is an `InvalidConfig` that names `fs_hz` instead of
    /// reaching `MultipathChannel::apply` or being reported as a bad
    /// noise band.
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
                assert!(
                    matches!(e, Some(CoreError::InvalidConfig(what)) if what.contains("fs_hz")),
                    "{sim} at fs {fs_hz}: {e:?}"
                );
            }
        }
    }
}
