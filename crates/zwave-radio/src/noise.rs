//! Channel impairment model: loss, corruption and a distance-based link
//! budget for the simulated sub-GHz medium.

use rand::Rng;

/// Configurable channel impairments applied per delivered frame.
///
/// The defaults model a clean bench setup (the paper's testbed sits 10-70 m
/// from the attacker with reliable reception); experiments that need an
/// adversarial channel raise the probabilities explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Probability a frame is lost entirely at a given receiver.
    pub base_loss: f64,
    /// Additional loss probability per metre of distance.
    pub loss_per_meter: f64,
    /// Probability a delivered frame has one random byte corrupted.
    pub corruption: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel { base_loss: 0.0, loss_per_meter: 0.0, corruption: 0.0 }
    }
}

impl NoiseModel {
    /// A perfectly clean channel.
    pub fn clean() -> Self {
        NoiseModel::default()
    }

    /// A lossy channel with the given flat loss probability.
    pub fn lossy(base_loss: f64) -> Self {
        NoiseModel { base_loss, ..NoiseModel::default() }
    }

    /// Whether this model can neither lose nor corrupt a frame at any
    /// distance; [`NoiseModel::roll_loss`] and
    /// [`NoiseModel::corruption_plan`] then never draw from their RNG.
    pub(crate) fn is_clean(&self) -> bool {
        self.base_loss <= 0.0 && self.loss_per_meter <= 0.0 && self.corruption <= 0.0
    }

    /// Loss probability for a receiver at `distance_m` metres.
    pub(crate) fn loss_probability(&self, distance_m: f64) -> f64 {
        (self.base_loss + self.loss_per_meter * distance_m).clamp(0.0, 1.0)
    }

    /// Rolls whether a frame is lost for a receiver at `distance_m`.
    pub(crate) fn roll_loss<R: Rng>(&self, rng: &mut R, distance_m: f64) -> bool {
        let p = self.loss_probability(distance_m);
        p > 0.0 && rng.gen_bool(p)
    }

    /// Rolls whether a frame of `len` bytes gets one byte corrupted,
    /// returning the byte index and XOR mask to apply if so. Splitting the
    /// decision from the write lets the zero-copy delivery path keep the
    /// shared buffer intact unless a corruption actually lands.
    pub(crate) fn corruption_plan<R: Rng>(&self, rng: &mut R, len: usize) -> Option<(usize, u8)> {
        if len == 0 || self.corruption <= 0.0 || !rng.gen_bool(self.corruption.min(1.0)) {
            return None;
        }
        let idx = rng.gen_range(0..len);
        let flip = rng.gen_range(1..=255u8);
        Some((idx, flip))
    }
}

/// Free-space-style received signal strength in dBm for a transmit power
/// typical of a Z-Wave module (about -40 dBm at one metre).
pub(crate) fn rssi_dbm(distance_m: f64) -> f64 {
    let d = distance_m.max(0.1);
    -40.0 - 20.0 * d.log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_channel_never_impairs() {
        let noise = NoiseModel::clean();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!noise.roll_loss(&mut rng, 70.0));
            assert_eq!(noise.corruption_plan(&mut rng, 3), None);
        }
    }

    #[test]
    fn only_a_model_that_can_neither_lose_nor_corrupt_is_clean() {
        assert!(NoiseModel::clean().is_clean());
        assert!(!NoiseModel::lossy(0.01).is_clean());
        assert!(!NoiseModel { loss_per_meter: 0.001, ..NoiseModel::default() }.is_clean());
        assert!(!NoiseModel { corruption: 0.5, ..NoiseModel::default() }.is_clean());
        assert!(!NoiseModel { corruption: f64::NAN, ..NoiseModel::default() }.is_clean());
    }

    #[test]
    fn loss_probability_clamps() {
        let noise = NoiseModel { base_loss: 0.5, loss_per_meter: 0.1, corruption: 0.0 };
        assert_eq!(noise.loss_probability(100.0), 1.0);
        assert!((noise.loss_probability(1.0) - 0.6).abs() < 1e-9);
        assert_eq!(NoiseModel::lossy(0.25).loss_probability(0.0), 0.25);
    }

    #[test]
    fn corruption_changes_exactly_one_byte() {
        let noise = NoiseModel { corruption: 1.0, ..NoiseModel::default() };
        let mut rng = StdRng::seed_from_u64(7);
        let (idx, flip) = noise.corruption_plan(&mut rng, 16).unwrap();
        assert!(idx < 16 && flip != 0);
    }

    #[test]
    fn corruption_skips_empty_frames() {
        let noise = NoiseModel { corruption: 1.0, ..NoiseModel::default() };
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(noise.corruption_plan(&mut rng, 0), None);
    }

    #[test]
    fn lossy_channel_drops_roughly_the_configured_fraction() {
        let noise = NoiseModel::lossy(0.3);
        let mut rng = StdRng::seed_from_u64(42);
        let losses = (0..10_000).filter(|_| noise.roll_loss(&mut rng, 0.0)).count();
        assert!((2_700..3_300).contains(&losses), "losses={losses}");
    }

    #[test]
    fn rssi_decreases_with_distance() {
        assert!(rssi_dbm(1.0) > rssi_dbm(10.0));
        assert!(rssi_dbm(10.0) > rssi_dbm(70.0));
        // ~ -40 dBm at 1 m, ~ -77 dBm at 70 m.
        assert!((rssi_dbm(1.0) + 40.0).abs() < 1e-9);
        assert!((rssi_dbm(70.0) + 76.9).abs() < 0.2);
    }
}
