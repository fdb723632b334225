//! The carrier-generating baseline: existing battery-free underwater
//! systems (§2) harvest energy for long periods and then *generate their
//! own acoustic carrier* to transmit, which costs orders of magnitude more
//! energy per bit than backscatter and caps their average throughput at a
//! few to tens of bits per second.

use crate::CoreError;

/// A harvest-then-transmit active acoustic node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveAcousticNode {
    /// Average harvested power, watts (e.g. from fish motion or a weak
    /// acoustic field).
    pub harvest_power_w: f64,
    /// Electrical power drawn while transmitting (power amplifier +
    /// electronics), watts. Even "low-power" acoustic transmitters draw
    /// hundreds of milliwatts to watts (§3.2 cites hundreds of watts for
    /// conventional modems).
    pub tx_power_w: f64,
    /// Instantaneous transmit bitrate, bits/second.
    pub tx_bitrate_bps: f64,
    /// Energy the storage element must accumulate before a burst, joules.
    pub burst_energy_j: f64,
}

impl ActiveAcousticNode {
    /// A representative fish-tag-class node: µW-scale harvesting, 100 mW
    /// transmit electronics, 1 kbps burst rate.
    pub fn fish_tag() -> Self {
        ActiveAcousticNode {
            harvest_power_w: 50e-6,
            tx_power_w: 100e-3,
            tx_bitrate_bps: 1_000.0,
            burst_energy_j: 10e-3,
        }
    }

    /// Energy per transmitted bit, joules.
    pub fn energy_per_bit_j(&self) -> f64 {
        self.tx_power_w / self.tx_bitrate_bps
    }

    /// Duty cycle: fraction of time the node can afford to transmit.
    fn duty_cycle(&self) -> f64 {
        (self.harvest_power_w / self.tx_power_w).min(1.0)
    }

    /// Average (long-term) throughput, bits/second.
    pub fn average_throughput_bps(&self) -> f64 {
        self.tx_bitrate_bps * self.duty_cycle()
    }

    /// Seconds of harvesting needed before one burst.
    pub fn charge_time_s(&self) -> Result<f64, CoreError> {
        if !(self.harvest_power_w > 0.0) {
            return Err(CoreError::InvalidConfig("harvest_power_w"));
        }
        Ok(self.burst_energy_j / self.harvest_power_w)
    }

    /// Bits per burst.
    // lint: unitless bit count per energy burst
    pub fn bits_per_burst(&self) -> f64 {
        self.burst_energy_j / self.tx_power_w * self.tx_bitrate_bps
    }
}

/// A PAB backscatter node, reduced to its energy figures for comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackscatterEnergyModel {
    /// Node power while backscattering (Fig. 11 ~500 µW).
    pub active_power_w: f64,
    /// Uplink bitrate, bits/second.
    pub bitrate_bps: f64,
}

impl BackscatterEnergyModel {
    /// The PAB node at its ~2.7 kbps operating point.
    pub fn pab_node() -> Self {
        BackscatterEnergyModel {
            active_power_w: 535e-6,
            bitrate_bps: 2_730.0,
        }
    }

    /// Energy per bit, joules.
    pub fn energy_per_bit_j(&self) -> f64 {
        self.active_power_w / self.bitrate_bps
    }

    /// Average throughput when continuously illuminated and harvesting at
    /// least `active_power_w` (the backscatter node never needs to stop).
    pub fn average_throughput_bps(&self, harvested_power_w: f64) -> f64 {
        if harvested_power_w >= self.active_power_w {
            self.bitrate_bps
        } else if harvested_power_w <= 0.0 {
            0.0
        } else {
            // Duty-cycled like the active node when under-harvested.
            self.bitrate_bps * harvested_power_w / self.active_power_w
        }
    }
}

/// Head-to-head comparison at the same harvested power.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Energy-per-bit ratio: active / backscatter.
    pub energy_per_bit_ratio: f64,
    /// Throughput ratio: backscatter / active.
    pub throughput_ratio: f64,
}

/// Compare the two architectures at a common harvested power.
pub fn compare(
    active: &ActiveAcousticNode,
    backscatter: &BackscatterEnergyModel,
    harvested_power_w: f64,
) -> Comparison {
    let active_at = ActiveAcousticNode {
        harvest_power_w: harvested_power_w,
        ..*active
    };
    let bs_tp = backscatter.average_throughput_bps(harvested_power_w);
    let act_tp = active_at.average_throughput_bps();
    Comparison {
        energy_per_bit_ratio: active.energy_per_bit_j() / backscatter.energy_per_bit_j(),
        throughput_ratio: if act_tp > 0.0 { bs_tp / act_tp } else { f64::INFINITY },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backscatter_is_orders_of_magnitude_cheaper_per_bit() {
        let cmp = compare(
            &ActiveAcousticNode::fish_tag(),
            &BackscatterEnergyModel::pab_node(),
            535e-6,
        );
        // §2: "multiple orders of magnitude more energy than backscatter";
        // PAB "boosts the network throughput by two to three orders of
        // magnitude".
        assert!(
            cmp.energy_per_bit_ratio > 100.0,
            "energy ratio {}",
            cmp.energy_per_bit_ratio
        );
        assert!(
            cmp.throughput_ratio > 100.0 && cmp.throughput_ratio < 100_000.0,
            "throughput ratio {}",
            cmp.throughput_ratio
        );
    }

    #[test]
    fn fish_tag_throughput_is_fractional_bps() {
        let tag = ActiveAcousticNode::fish_tag();
        // §2: "average throughput is limited to few to tens of bits/s";
        // our representative tag sits at the sub-bps end.
        let tp = tag.average_throughput_bps();
        assert!(tp < 50.0, "tp={tp}");
        assert!(tp > 0.01);
    }

    #[test]
    fn charge_time_and_burst_arithmetic() {
        let tag = ActiveAcousticNode::fish_tag();
        // 10 mJ at 50 µW: 200 s.
        assert!((tag.charge_time_s().unwrap() - 200.0).abs() < 1e-9);
        // 10 mJ / 100 mW = 0.1 s of transmission = 100 bits.
        assert!((tag.bits_per_burst() - 100.0).abs() < 1e-9);
        let broken = ActiveAcousticNode {
            harvest_power_w: 0.0,
            ..tag
        };
        assert!(broken.charge_time_s().is_err());
    }

    #[test]
    fn under_harvested_backscatter_duty_cycles() {
        let bs = BackscatterEnergyModel::pab_node();
        let full = bs.average_throughput_bps(1e-3);
        assert_eq!(full, bs.bitrate_bps);
        let half = bs.average_throughput_bps(bs.active_power_w / 2.0);
        assert!((half - bs.bitrate_bps / 2.0).abs() < 1e-9);
        assert_eq!(bs.average_throughput_bps(0.0), 0.0);
    }

    #[test]
    fn duty_cycle_clamped() {
        let gen = ActiveAcousticNode {
            harvest_power_w: 1.0,
            tx_power_w: 0.5,
            tx_bitrate_bps: 100.0,
            burst_energy_j: 1.0,
        };
        assert_eq!(gen.duty_cycle(), 1.0);
    }
}
