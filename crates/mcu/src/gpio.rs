//! GPIO pins with transition logging.
//!
//! The backscatter switch is driven by "an output pin of the
//! microcontroller ... connected to the two switching transistors"
//! (§4.2.2). The acoustic simulation rasterises the pin's transition log
//! into the switch-state waveform γ(t).

/// Logic level of a pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinLevel {
    /// Logic low.
    Low,
    /// Logic high.
    High,
}

impl PinLevel {
    /// Toggle the level.
    // lint: allow(dead-pub) test-oracle rasterize_matches_transition_log
    pub fn toggled(self) -> Self {
        match self {
            PinLevel::Low => PinLevel::High,
            PinLevel::High => PinLevel::Low,
        }
    }

    /// As a boolean (`High` = true).
    fn is_high(self) -> bool {
        matches!(self, PinLevel::High)
    }
}

/// A timestamped pin transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinTransition {
    /// Simulation time of the transition, seconds.
    pub time_s: f64,
    /// Level after the transition.
    pub level: PinLevel,
}

/// Well-known pins on the PAB node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pin {
    /// Drives the backscatter switch gates.
    BackscatterSwitch,
    /// Drives the SNR-improving pull-down transistor (§4.2.1).
    PullDown,
}

/// An output pin with a complete transition history.
#[derive(Debug, Clone)]
pub struct OutputPin {
    level: PinLevel,
    log: Vec<PinTransition>,
}

impl OutputPin {
    /// New pin, initially low, with an empty log.
    pub fn new() -> Self {
        OutputPin {
            level: PinLevel::Low,
            log: Vec::new(),
        }
    }

    /// Current level.
    pub fn level(&self) -> PinLevel {
        self.level
    }

    /// Set the level at `time_s`; no-op (and no log entry) if unchanged.
    /// Returns `true` if a transition actually happened.
    pub fn set(&mut self, time_s: f64, level: PinLevel) -> bool {
        if level == self.level {
            return false;
        }
        self.level = level;
        self.log.push(PinTransition { time_s, level });
        true
    }

    /// Toggle at `time_s`.
    #[cfg(test)]
    pub(crate) fn toggle(&mut self, time_s: f64) {
        let next = self.level.toggled();
        self.set(time_s, next);
    }

    /// The full transition log, in time order.
    pub fn transitions(&self) -> &[PinTransition] {
        &self.log
    }

    /// Rasterise the pin history into a boolean waveform of `n` samples at
    /// `fs_hz`, starting at time 0. Before the first transition the level is
    /// the initial `Low`.
    pub fn rasterize(&self, fs_hz: f64, n: usize) -> Vec<bool> {
        let mut out = vec![false; n];
        let mut level = false;
        let mut log_iter = self.log.iter().peekable();
        for (i, o) in out.iter_mut().enumerate() {
            let t = i as f64 / fs_hz;
            while let Some(tr) = log_iter.peek() {
                if tr.time_s <= t {
                    level = tr.level.is_high();
                    log_iter.next();
                } else {
                    break;
                }
            }
            *o = level;
        }
        out
    }
}

impl Default for OutputPin {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_logs_only_changes() {
        let mut p = OutputPin::new();
        assert!(!p.set(0.0, PinLevel::Low)); // already low
        assert!(p.set(1.0, PinLevel::High));
        assert!(!p.set(2.0, PinLevel::High));
        assert!(p.set(3.0, PinLevel::Low));
        assert_eq!(p.transitions().len(), 2);
    }

    #[test]
    fn toggle_alternates() {
        let mut p = OutputPin::new();
        p.toggle(0.5);
        assert_eq!(p.level(), PinLevel::High);
        p.toggle(1.0);
        assert_eq!(p.level(), PinLevel::Low);
        assert_eq!(p.transitions().len(), 2);
    }

    #[test]
    fn rasterize_reproduces_square_wave() {
        let mut p = OutputPin::new();
        // 1 ms half-period square wave starting at t=0.
        for k in 0..10 {
            p.set(
                k as f64 * 1e-3,
                if k % 2 == 0 { PinLevel::High } else { PinLevel::Low },
            );
        }
        let fs_hz = 10_000.0; // 10 samples per half period
        let w = p.rasterize(fs_hz, 100);
        assert!(w[0]); // high at t=0
        assert!(w[5]);
        assert!(!w[10]); // low at t=1 ms
        assert!(w[20]); // high again at 2 ms
        let transitions = w.windows(2).filter(|p| p[0] != p[1]).count();
        assert_eq!(transitions, 9);
    }

    #[test]
    fn rasterize_before_first_transition_is_low() {
        let mut p = OutputPin::new();
        p.set(0.5, PinLevel::High);
        let w = p.rasterize(10.0, 10);
        assert!(!w[0]);
        assert!(!w[4]);
        assert!(w[5]);
    }

    #[test]
    fn pin_level_helpers() {
        assert_eq!(PinLevel::Low.toggled(), PinLevel::High);
        assert!(PinLevel::High.is_high());
        assert!(!PinLevel::Low.is_high());
    }
}
