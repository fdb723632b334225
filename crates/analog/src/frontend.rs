//! The **recto-piezo** front end (§3.3.1): transducer + matching network +
//! multi-stage rectifier, with the backscatter switch across the piezo
//! terminals.
//!
//! The matching network is designed at a chosen `f_match`, which *shifts
//! the front end's resonance*: "we can design different sensors with
//! matching circuits that are optimized to different center frequencies.
//! We call this design recto-piezo." The geometric resonance of the
//! ceramic still acts as an outer band-pass (footnote 5), which is why an
//! 18 kHz-matched recto-piezo on a ~16.5 kHz cylinder shows a narrower,
//! lower usable band than a 15 kHz-matched one (Fig. 3).

use crate::matching::MatchingNetwork;
use crate::rectifier::MultiStageRectifier;
use crate::switch::BackscatterSwitch;
use crate::AnalogError;
use num_complex::Complex64;
use pab_piezo::Transducer;

/// Backscatter modulation state of the node front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchState {
    /// Terminals shorted: strain nulled, incident wave fully reflected
    /// (transmits a '1' in the paper's convention).
    Reflective,
    /// Terminals matched into the harvester: energy absorbed
    /// (transmits a '0'; this is also the harvesting state).
    Absorptive,
}

/// A complete recto-piezo front end.
#[derive(Debug, Clone, PartialEq)]
pub struct RectoPiezo {
    /// The piezoelectric transducer.
    pub transducer: Transducer,
    /// The matching network, designed at `match_frequency_hz`.
    pub matching: MatchingNetwork,
    /// The multi-stage rectifier.
    pub rectifier: MultiStageRectifier,
    /// The backscatter switch.
    pub switch: BackscatterSwitch,
    match_frequency_hz: f64,
    /// Fraction of incident amplitude lost in the backscatter process
    /// (heat/structural losses; §3.2 "the backscatter process is lossy").
    // lint: unitless amplitude fraction in [0, 1]
    pub backscatter_efficiency: f64,
}

impl RectoPiezo {
    /// Design a recto-piezo for `transducer`, electrically matched at
    /// `f_match_hz` into the node's standard rectifier.
    pub fn design(transducer: Transducer, f_match_hz: f64) -> Result<Self, AnalogError> {
        let rectifier = MultiStageRectifier::pab_node();
        let zs = transducer.electrical_impedance(f_match_hz);
        let matching =
            MatchingNetwork::design(zs, f_match_hz, rectifier.input_resistance_ohms)?;
        Ok(RectoPiezo {
            transducer,
            matching,
            rectifier,
            switch: BackscatterSwitch::pab_node(),
            match_frequency_hz: f_match_hz,
            backscatter_efficiency: 0.7,
        })
    }

    /// The frequency the matching network was designed for.
    pub fn match_frequency_hz(&self) -> f64 {
        self.match_frequency_hz
    }

    /// Peak AC voltage amplitude at the rectifier input for an incident
    /// pressure amplitude `pressure_pa` at `freq_hz`.
    pub fn rectifier_input_v(&self, pressure_pa: f64, freq_hz: f64) -> f64 {
        let voc = self
            .transducer
            .receive_open_circuit_v(pressure_pa, freq_hz);
        let gain = self
            .matching
            .load_voltage_gain(
                self.transducer.electrical_impedance(freq_hz),
                freq_hz,
                self.rectifier.input_resistance_ohms,
            )
            .norm();
        voc * gain
    }

    /// Rectified DC voltage into a DC load `dc_load_ohms` for an incident
    /// pressure amplitude at `freq_hz`. This is the quantity Fig. 3 plots.
    pub fn rectified_voltage_v(&self, pressure_pa: f64, freq_hz: f64, dc_load_ohms: f64) -> f64 {
        self.rectifier
            .dc_into_load_v(self.rectifier_input_v(pressure_pa, freq_hz), dc_load_ohms)
    }

    /// DC power harvested into `dc_load_ohms`, watts.
    pub fn harvested_power_w(
        &self,
        pressure_pa: f64,
        freq_hz: f64,
        dc_load_ohms: f64,
    ) -> f64 {
        let v = self.rectified_voltage_v(pressure_pa, freq_hz, dc_load_ohms);
        if dc_load_ohms <= 0.0 {
            0.0
        } else {
            v * v / dc_load_ohms
        }
    }

    /// Electrical load presented to the piezo terminals in each switch
    /// state.
    fn load_impedance(&self, state: SwitchState, freq_hz: f64) -> Complex64 {
        match state {
            SwitchState::Reflective => self.switch.closed_impedance(),
            SwitchState::Absorptive => self
                .matching
                .input_impedance(freq_hz, self.rectifier.input_resistance_ohms),
        }
    }

    /// Electrical reflection coefficient (Eq. 2) in a given state.
    fn reflection_coefficient(&self, state: SwitchState, freq_hz: f64) -> Complex64 {
        self.transducer
            .reflection_coefficient(self.load_impedance(state, freq_hz), freq_hz)
    }

    /// Amplitude gain from incident pressure to re-radiated (backscattered)
    /// pressure at 1 m, in a given switch state.
    ///
    /// The electrical reflection coefficient only matters to the extent the
    /// wave couples into the electrical domain, so it is weighted by the
    /// squared mechanical response (in and back out of the ceramic) and the
    /// backscatter loss factor.
    pub fn backscatter_gain(&self, state: SwitchState, freq_hz: f64) -> Complex64 {
        let mech = self.transducer.mechanical_response(freq_hz);
        self.reflection_coefficient(state, freq_hz)
            * (mech * mech * self.backscatter_efficiency)
    }

    /// Differential backscatter modulation depth at `freq_hz`:
    /// `|g_reflective − g_absorptive|`. This is the signal amplitude the
    /// hydrophone decodes; it shrinks off-resonance (footnote 6), which is
    /// what caps the usable bitrate in Fig. 8.
    // lint: unitless amplitude difference of two linear gains, in [0, 2]
    pub fn modulation_depth(&self, freq_hz: f64) -> f64 {
        (self.backscatter_gain(SwitchState::Reflective, freq_hz)
            - self.backscatter_gain(SwitchState::Absorptive, freq_hz))
        .norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_15k() -> RectoPiezo {
        RectoPiezo::design(Transducer::pab_node(), 15_000.0).unwrap()
    }

    fn node_18k() -> RectoPiezo {
        RectoPiezo::design(Transducer::pab_node(), 18_000.0).unwrap()
    }

    /// Sweep the rectified voltage like Fig. 3 and return (freqs, volts).
    fn fig3_sweep(node: &RectoPiezo, pressure_pa: f64) -> (Vec<f64>, Vec<f64>) {
        let freqs: Vec<f64> = (110..=210).map(|k| k as f64 * 100.0).collect();
        let volts = freqs
            .iter()
            .map(|&f| node.rectified_voltage_v(pressure_pa, f, 1_000_000.0))
            .collect();
        (freqs, volts)
    }

    #[test]
    fn rectified_voltage_peaks_near_match_frequency() {
        let node = node_15k();
        let (freqs, volts) = fig3_sweep(&node, 960.0);
        let (imax, vmax) = volts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i, v))
            .unwrap();
        assert!(
            (freqs[imax] - 15_000.0).abs() <= 1_000.0,
            "peak at {} Hz",
            freqs[imax]
        );
        assert!(vmax > 2.5, "peak voltage {vmax}");
    }

    #[test]
    fn eighteen_khz_node_peaks_near_eighteen() {
        let node = node_18k();
        let (freqs, volts) = fig3_sweep(&node, 960.0);
        let (imax, _) = volts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!(
            (freqs[imax] - 18_000.0).abs() <= 1_000.0,
            "peak at {} Hz",
            freqs[imax]
        );
    }

    #[test]
    fn responses_are_complementary_like_fig3() {
        // At 15 kHz the 15k node should beat the 18k node, and vice versa.
        let n15 = node_15k();
        let n18 = node_18k();
        let p = 960.0;
        assert!(
            n15.rectified_voltage_v(p, 15_000.0, 1e6) > n18.rectified_voltage_v(p, 15_000.0, 1e6)
        );
        assert!(
            n18.rectified_voltage_v(p, 18_000.0, 1e6) > n15.rectified_voltage_v(p, 18_000.0, 1e6)
        );
    }

    #[test]
    fn usable_band_is_kilohertz_scale() {
        let node = node_15k();
        let (freqs, volts) = fig3_sweep(&node, 960.0);
        let above: Vec<f64> = freqs
            .iter()
            .zip(&volts)
            .filter(|(_, &v)| v >= 2.5)
            .map(|(&f, _)| f)
            .collect();
        assert!(!above.is_empty());
        let bw = above.last().unwrap() - above.first().unwrap();
        assert!(
            (500.0..5_000.0).contains(&bw),
            "usable bandwidth {bw} Hz outside plausible band"
        );
    }

    #[test]
    fn reflective_state_fully_reflects_electrically() {
        let node = node_15k();
        let g = node.reflection_coefficient(SwitchState::Reflective, 15_000.0);
        assert!(g.norm() > 0.99, "|Γ|={}", g.norm());
    }

    #[test]
    fn absorptive_state_absorbs_at_match() {
        let node = node_15k();
        let g = node.reflection_coefficient(SwitchState::Absorptive, 15_000.0);
        assert!(g.norm() < 0.5, "|Γ|={}", g.norm());
    }

    #[test]
    fn modulation_depth_peaks_in_band_and_decays_off_band() {
        let node = node_15k();
        let at_match = node.modulation_depth(15_000.0);
        let off = node.modulation_depth(21_000.0);
        let far = node.modulation_depth(30_000.0);
        assert!(at_match > off, "{at_match} vs {off}");
        assert!(off > far);
    }

    #[test]
    fn harvested_power_scales_with_pressure_squared() {
        let node = node_15k();
        // Well above the rectifier dead zone, doubling pressure roughly
        // quadruples power.
        let p1 = node.harvested_power_w(1800.0, 15_000.0, 20_000.0);
        let p2 = node.harvested_power_w(3600.0, 15_000.0, 20_000.0);
        assert!(p2 / p1 > 3.0, "ratio {}", p2 / p1);
        assert!(p2 / p1 < 9.0);
    }
}
