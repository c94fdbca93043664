//! Radio frequency regions.
//!
//! Z-Wave operates on region-specific sub-GHz channels (paper Figure 4,
//! packet capturing: "verifies that the Z-Wave transceiver dongle is
//! configured with a valid radio frequency and sampling rate (e.g., 868 or
//! 908 MHz)"). A transceiver tuned to the wrong region hears nothing —
//! the first practical hurdle a field attacker configures around.

/// A regulatory RF region and its Z-Wave centre frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Region {
    /// Europe: 868.42 MHz.
    #[default]
    Eu868,
    /// North America: 908.42 MHz.
    Us908,
    /// Australia / New Zealand: 921.42 MHz.
    Anz921,
    /// Japan / Taiwan: 922-926 MHz band.
    Jp923,
}

impl Region {
    /// Centre frequency in kHz.
    pub(crate) fn frequency_khz(self) -> u32 {
        match self {
            Region::Eu868 => 868_420,
            Region::Us908 => 908_420,
            Region::Anz921 => 921_420,
            Region::Jp923 => 923_000,
        }
    }

    /// Whether two radios can hear each other.
    pub(crate) fn interoperates_with(self, other: Region) -> bool {
        self == other
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} MHz", self.frequency_khz() as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_match_the_sub_ghz_band() {
        for region in [Region::Eu868, Region::Us908, Region::Anz921, Region::Jp923] {
            let mhz = region.frequency_khz() / 1000;
            assert!((800..=950).contains(&mhz), "{region:?} at {mhz} MHz");
        }
    }

    #[test]
    fn display_formats_mhz() {
        assert_eq!(Region::Eu868.to_string(), "868.42 MHz");
        assert_eq!(Region::Us908.to_string(), "908.42 MHz");
    }

    #[test]
    fn only_same_region_interoperates() {
        assert!(Region::Eu868.interoperates_with(Region::Eu868));
        assert!(!Region::Eu868.interoperates_with(Region::Us908));
    }
}
