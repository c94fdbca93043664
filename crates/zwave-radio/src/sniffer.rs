//! A capture utility: the simulated equivalent of the YARD Stick One dongle
//! in scanning mode (paper Section IV, "we used the Yardstick dongle as the
//! Z-Wave transceiver").

use crate::medium::{Medium, RxFrame, Transceiver};

/// A promiscuous capture station with a persistent log.
#[derive(Debug)]
pub struct Sniffer {
    radio: Transceiver,
    log: Vec<RxFrame>,
}

impl Sniffer {
    /// Attaches a sniffer to `medium` at `position_m` metres (the paper's
    /// attacker sits 10-70 m away).
    pub fn attach(medium: &Medium, position_m: f64) -> Self {
        let radio = medium.attach(position_m);
        Sniffer { radio, log: Vec::new() }
    }

    /// Pulls everything received since the last poll into the log and
    /// returns how many new frames arrived.
    pub fn poll(&mut self) -> usize {
        let new = self.radio.drain();
        let n = new.len();
        self.log.extend(new);
        n
    }

    /// All captured frames so far.
    pub fn captures(&self) -> &[RxFrame] {
        &self.log
    }

    /// Clears the capture log.
    pub fn clear(&mut self) {
        self.log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    #[test]
    fn sniffer_captures_everything_on_air() {
        let medium = Medium::new(SimClock::new(), 1);
        let a = medium.attach(0.0);
        let _b = medium.attach(1.0);
        let mut sniffer = Sniffer::attach(&medium, 70.0);
        a.transmit(&[1, 2]);
        a.transmit(&[3, 4]);
        assert_eq!(sniffer.poll(), 2);
        assert_eq!(sniffer.captures().len(), 2);
        assert_eq!(sniffer.captures()[1].bytes, vec![3, 4]);
        // Polling again adds nothing.
        assert_eq!(sniffer.poll(), 0);
    }

    #[test]
    fn clear_resets_log() {
        let medium = Medium::new(SimClock::new(), 1);
        let a = medium.attach(0.0);
        let mut sniffer = Sniffer::attach(&medium, 1.0);
        a.transmit(&[1]);
        sniffer.poll();
        sniffer.clear();
        assert!(sniffer.captures().is_empty());
    }
}
