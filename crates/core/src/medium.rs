//! The shared medium of one tank: projector → pool → nodes → pool →
//! hydrophone, noiseless. Backscatter is frequency-agnostic (§3.3.2), so
//! every node hears every carrier and re-radiates every carrier into one
//! pressure field at the hydrophone. Both slot simulators drive this one
//! chain: [`LinkSimulator`](crate::link::LinkSimulator) as a 1-node,
//! 1-carrier medium and
//! [`CollisionGroupSimulator`](crate::collision_group::CollisionGroupSimulator)
//! as a k-node, k-carrier one.
//!
//! A slot is each node's incident field (`incident_in`), its node leg,
//! and the direct leg (`add_direct`) plus every node's backscatter
//! (`add_node_backscatter`) at the hydrophone. `hear` is the one
//! composition of a fresh slot, and its caller supplies the node leg:
//! `respond` (the one place fades and brown-outs act) or Fig. 2's fixed
//! toggle. Only a link's fade bypass composes otherwise, on the legs it
//! memoised.
//!
//! The medium is physics only. Noise, RNG, receiver and caches stay with
//! each simulator, so every simulator keeps its own noise stream. The
//! buffers a slot's fields live in come from the caller's [`Scratch`]
//! pool, so a simulator that keeps its pool re-runs the chain without
//! allocating the fields again.

use crate::node::{IncidentComponent, NodeOutput, PabNode};
use crate::scratch::Scratch;
use crate::{margin_samples, CoreError};
use pab_channel::{FaultSchedule, MultipathChannel, Pool, Position};
use pab_mcu::Clock;

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

    /// What `node` hears, in buffers taken from `pool`: every carrier's
    /// transmit waveform through its projector→node channel, each
    /// `MultipathChannel::apply`'s output accumulated into a zeroed
    /// buffer of its length.
    pub(crate) fn incident_in<W: AsRef<[f64]>>(
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

    /// The length of `node`'s incident field from waveforms of `wave_len` samples.
    pub(crate) fn incident_len(&self, node: usize, wave_len: usize) -> usize {
        self.down[node].iter().map(|ch| ch.output_len(wave_len, self.fs_hz)).max().unwrap_or(0)
    }

    /// The node leg: `node`'s response to its `incident` field, with
    /// `water` on its sensors. A `fade` (schedule, exchange start) scales
    /// the field and then the backscatter by the schedule's gain,
    /// evaluated once per sample; without one nothing is multiplied. A
    /// `down` node cannot hold charge through the exchange, so it decodes
    /// nothing and backscatters silence. Every buffer comes from `pool`;
    /// `incident`'s go back to it, and the caller puts the backscatter
    /// back once superposed.
    pub(crate) fn respond(
        &self,
        node: usize,
        mut incident: Vec<IncidentComponent>,
        fade: Option<(&FaultSchedule, f64)>,
        down: bool,
        water: pab_sensors::WaterSample,
        pool: &mut Scratch,
    ) -> Result<NodeOutput, CoreError> {
        let gains: Option<Vec<f64>> = fade.map(|(faults, t_start_s)| {
            let mut gains = pool.take_workspace(incident[0].samples.len());
            faults.gains_into(t_start_s, self.fs_hz, &mut gains);
            gains
        });
        let apply_fade = |samples: &mut [f64]| {
            if let Some(gains) = &gains {
                for (s, g) in samples.iter_mut().zip(gains) {
                    *s *= g;
                }
            }
        };
        for c in &mut incident {
            apply_fade(&mut c.samples);
        }
        let out = if down {
            Ok(NodeOutput::silent(&incident, self.bitrate_bps(), pool))
        } else {
            self.nodes[node].process_in(&incident, self.fs_hz, Some(water), pool)
        };
        pool.put_all(incident.into_iter().map(|c| c.samples));
        let mut out = out?;
        for bs in &mut out.backscatter {
            apply_fade(bs);
        }
        if let Some(gains) = gains {
            pool.put(gains);
        }
        Ok(out)
    }

    /// The direct leg, added into `y` (zeros, for the pressure alone):
    /// every carrier's projector→hydrophone pressure. It does not depend
    /// on the nodes, so a caller may keep it and add only
    /// [`add_node_backscatter`](Self::add_node_backscatter) per exchange.
    pub(crate) fn add_direct<W: AsRef<[f64]>>(&self, y: &mut [f64], waves: &[W]) {
        for (ch, w) in self.direct.iter().zip(waves) {
            ch.apply_into(y, w.as_ref(), self.fs_hz);
        }
    }

    /// `node`'s backscatter (`bs[carrier]`), added into `y`
    /// after the direct leg, carrier by carrier.
    pub(crate) fn add_node_backscatter(&self, y: &mut [f64], node: usize, bs: &[Vec<f64>]) {
        let chans = self.up.get(node).map_or(&[][..], Vec::as_slice);
        for (ch, bs) in chans.iter().zip(bs) {
            ch.apply_into(y, bs, self.fs_hz);
        }
    }

    /// One noiseless slot of `rx_len` samples on `pool`'s buffers: node by
    /// node, the incident field passes through `node_leg` (node, field,
    /// pool), e.g. [`respond`](Self::respond), and the backscatter is
    /// added onto the direct leg in node order, so the sum is fixed. The
    /// pressure is taken once the first node leg returns, so it does not
    /// add to that node's peak. Fields and backscatter go back to `pool`
    /// as used (each [`NodeOutput`]'s `backscatter` comes back empty);
    /// the caller returns the pressure.
    pub(crate) fn hear<W, F>(
        &self,
        waves: &[W],
        rx_len: usize,
        pool: &mut Scratch,
        mut node_leg: F,
    ) -> Result<(Vec<f64>, Vec<NodeOutput>), CoreError>
    where
        W: AsRef<[f64]>,
        F: FnMut(usize, Vec<IncidentComponent>, &mut Scratch) -> Result<NodeOutput, CoreError>,
    {
        let direct = |pool: &mut Scratch| {
            let mut y = pool.take_zeroed(rx_len);
            self.add_direct(&mut y, waves);
            y
        };
        let mut y = None;
        let mut outs = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            let incident = self.incident_in(i, waves, pool);
            let mut out = node_leg(i, incident, pool)?;
            let y = y.get_or_insert_with(|| direct(pool));
            self.add_node_backscatter(y, i, &out.backscatter);
            pool.put_all(std::mem::take(&mut out.backscatter));
            outs.push(out);
        }
        Ok((y.unwrap_or_else(|| direct(pool)), outs))
    }

    /// The FM0 divider every node is commanded to.
    pub(crate) fn divider(&self) -> u16 {
        self.nodes[0].default_divider
    }

    /// The quantized uplink bitrate the nodes use.
    pub(crate) fn bitrate_bps(&self) -> f64 {
        Clock::watch_crystal()
            .bitrate_for_divider(self.divider() as u64)
            // lint: allow(no-unwrap-in-lib) default_divider is validated non-zero at construction
            .expect("divider >= 1")
    }

    /// Command every node's FM0 divider to the watch-crystal divider
    /// nearest `bitrate_bps` (the rate ladder's actuation: the
    /// coordinator commands a slower rate, each node reprograms its
    /// divider).
    pub(crate) fn set_bitrate_target(&mut self, bitrate_bps: f64) -> Result<(), CoreError> {
        let divider = Clock::watch_crystal()
            .divider_for_bitrate(bitrate_bps)
            .map_err(CoreError::Mcu)? as u16;
        for node in &mut self.nodes {
            node.default_divider = divider;
        }
        Ok(())
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
