//! Wake/TX energy accounting for battery-drain verdicts.
//!
//! The S0-No-More attack (see `zcover::scenarios`) never crashes anything:
//! its damage is *energy* — every NonceGet the controller answers on
//! behalf of an included-but-offline node costs a radio wake plus the
//! nonce-report airtime, and the verdict is reached when the
//! attack-attributable spend exhausts a fixed budget. The [`EnergyMeter`]
//! is deliberately tiny and order-independent: charges are non-negative
//! and saturate at capacity, so the final spend is
//! `min(capacity, Σ costs)` no matter how the charges interleave — the
//! property `tests/energy_props.rs` pins.

/// Nominal radio transmit power while a frame is on air, in milliwatts
/// (a 700-series Z-Wave SoC transmits at roughly +4 dBm ≈ 2.5 mW RF with
/// ~36 mW drawn from the battery).
pub(crate) const TX_POWER_MW: u64 = 36;

/// Fixed cost of waking the radio for one transmission, in microjoules.
pub(crate) const WAKE_COST_UJ: u64 = 25;

/// The attack-attributable energy budget, in microjoules, whose
/// exhaustion constitutes a `BatteryDrain` verdict. At ~169 µJ per
/// answered nonce (20-byte report at 40 kbit/s plus the wake cost) this
/// is two dozen answered floods — far beyond anything benign S0 traffic
/// spends between sensor wake windows.
pub(crate) const BATTERY_DRAIN_BUDGET_UJ: u64 = 4_000;

/// Energy to transmit a `frame_len`-byte frame: airtime at `bitrate`
/// times the TX draw, plus the fixed wake cost.
pub fn tx_cost_uj(frame_len: usize, bitrate: u32) -> u64 {
    let airtime_us = (frame_len as u64) * 8 * 1_000_000 / u64::from(bitrate.max(1));
    WAKE_COST_UJ + airtime_us * TX_POWER_MW / 1_000
}

/// Energy to transmit `frame_len` bytes at the default Z-Wave R2 rate.
pub(crate) fn tx_cost_default_uj(frame_len: usize) -> u64 {
    tx_cost_uj(frame_len, zwave_radio::medium::DEFAULT_BITRATE)
}

/// A monotone, saturating energy budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyMeter {
    capacity_uj: u64,
    spent_uj: u64,
}

impl EnergyMeter {
    /// A fresh meter with `capacity_uj` microjoules of budget.
    pub fn new(capacity_uj: u64) -> Self {
        EnergyMeter { capacity_uj, spent_uj: 0 }
    }

    /// Charges `cost_uj` against the budget, saturating at capacity.
    /// Returns the amount actually absorbed.
    pub fn charge(&mut self, cost_uj: u64) -> u64 {
        let absorbed = cost_uj.min(self.capacity_uj - self.spent_uj);
        self.spent_uj += absorbed;
        absorbed
    }

    /// Total energy spent so far (never exceeds capacity, never
    /// decreases except through [`EnergyMeter::reset`]).
    pub fn spent_uj(&self) -> u64 {
        self.spent_uj
    }

    /// The configured capacity.
    pub fn capacity_uj(&self) -> u64 {
        self.capacity_uj
    }

    /// Budget still available.
    pub fn remaining_uj(&self) -> u64 {
        self.capacity_uj - self.spent_uj
    }

    /// Whether the budget is fully exhausted.
    pub fn exhausted(&self) -> bool {
        self.spent_uj == self.capacity_uj
    }

    /// Returns the meter to a full budget (factory restore).
    pub fn reset(&mut self) {
        self.spent_uj = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_and_saturates() {
        let mut m = EnergyMeter::new(100);
        assert_eq!(m.charge(40), 40);
        assert_eq!(m.charge(40), 40);
        assert_eq!(m.spent_uj(), 80);
        assert!(!m.exhausted());
        assert_eq!(m.charge(40), 20, "only the remaining budget is absorbed");
        assert!(m.exhausted());
        assert_eq!(m.charge(1), 0, "an exhausted meter absorbs nothing");
        assert_eq!(m.spent_uj(), 100);
    }

    #[test]
    fn reset_restores_the_full_budget() {
        let mut m = EnergyMeter::new(10);
        m.charge(10);
        assert!(m.exhausted());
        m.reset();
        assert_eq!(m.remaining_uj(), 10);
        assert!(!m.exhausted());
    }

    #[test]
    fn tx_cost_scales_with_frame_length() {
        // 20 bytes at 40 kbit/s = 4 ms airtime = 144 µJ + 25 µJ wake.
        assert_eq!(tx_cost_uj(20, 40_000), 169);
        assert!(tx_cost_uj(40, 40_000) > tx_cost_uj(20, 40_000));
        assert_eq!(tx_cost_uj(0, 40_000), WAKE_COST_UJ);
    }

    #[test]
    fn drain_budget_is_a_few_dozen_nonce_answers() {
        let per_answer = tx_cost_default_uj(20);
        let answers = BATTERY_DRAIN_BUDGET_UJ / per_answer;
        assert!((20..40).contains(&answers), "{answers} answers to exhaust the budget");
    }
}
