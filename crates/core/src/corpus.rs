//! Corpus and power-schedule machinery for the coverage-guided mode.
//!
//! The corpus holds every injected payload that lit a new APL dispatch
//! edge (see [`zwave_controller::CoverageMap`]). A splitmix64-derived
//! [`PowerSchedule`] picks the next entry to mutate, weighting entries by
//! their energy — how many new edges they discovered, boosted each time a
//! mutation of theirs finds more. Both structures are plain deterministic
//! state owned by one trial, so coverage campaigns stay bit-identical
//! across executor worker counts, exactly like the PR 1 counters.

/// One retained input: a payload that discovered at least one new edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The encoded APL payload as injected.
    pub payload: Vec<u8>,
    /// Distinct new edges this payload lit when first injected.
    pub new_edges: u64,
    /// Campaign packet count at retention time.
    pub retained_at_packets: u64,
    /// Scheduling weight: starts at `new_edges`, boosted when mutations
    /// of this entry discover further edges.
    pub energy: u64,
}

/// The set of interesting inputs, in retention order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Retains a payload that discovered `new_edges` edges.
    pub fn retain(&mut self, payload: Vec<u8>, new_edges: u64, retained_at_packets: u64) {
        debug_assert!(new_edges > 0, "retention requires new coverage");
        self.entries.push(CorpusEntry {
            payload,
            new_edges,
            retained_at_packets,
            energy: new_edges.max(1),
        })
    }

    /// Adds `amount` energy to entry `index` (its mutations keep paying).
    pub fn boost(&mut self, index: usize, amount: u64) {
        if let Some(e) = self.entries.get_mut(index) {
            e.energy += amount;
        }
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consumes the corpus into its entry list (for the campaign result).
    pub fn into_entries(self) -> Vec<CorpusEntry> {
        self.entries
    }

    /// Energy-weighted selection: walks the entries until the cumulative
    /// energy exceeds `r % total`. Returns `None` on an empty corpus.
    fn select(&self, r: u64) -> Option<usize> {
        let total: u64 = self.entries.iter().map(|e| e.energy).sum();
        if total == 0 {
            return None;
        }
        let mut point = r % total;
        for (i, e) in self.entries.iter().enumerate() {
            if point < e.energy {
                return Some(i);
            }
            point -= e.energy;
        }
        Some(self.entries.len() - 1)
    }
}

/// A deterministic seed scheduler: a splitmix64 stream (the same generator
/// the executor derives per-trial seeds from) drives energy-weighted corpus
/// selection and mutation-depth draws.
#[derive(Debug, Clone)]
pub struct PowerSchedule {
    state: u64,
}

impl PowerSchedule {
    /// Seeds the schedule from the trial seed.
    pub fn new(seed: u64) -> Self {
        PowerSchedule { state: seed }
    }

    /// The next splitmix64 draw.
    pub fn next_u64(&mut self) -> u64 {
        let draw = zwave_radio::splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        draw
    }

    /// Picks the next corpus entry to mutate, energy-weighted.
    pub fn choose(&mut self, corpus: &Corpus) -> Option<usize> {
        if corpus.is_empty() {
            return None;
        }
        let r = self.next_u64();
        corpus.select(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_corpus_selects_nothing() {
        let mut sched = PowerSchedule::new(7);
        assert_eq!(sched.choose(&Corpus::new()), None);
    }

    #[test]
    fn selection_is_energy_weighted_and_deterministic() {
        let mut corpus = Corpus::new();
        corpus.retain(vec![0x20, 0x01], 1, 10);
        corpus.retain(vec![0x25, 0x01], 9, 20);
        let picks: Vec<usize> = {
            let mut sched = PowerSchedule::new(42);
            (0..1000).filter_map(|_| sched.choose(&corpus)).collect()
        };
        let again: Vec<usize> = {
            let mut sched = PowerSchedule::new(42);
            (0..1000).filter_map(|_| sched.choose(&corpus)).collect()
        };
        assert_eq!(picks, again, "schedule must be a pure function of the seed");
        let heavy = picks.iter().filter(|&&i| i == 1).count();
        assert!(heavy > 700, "entry with 9x energy picked only {heavy}/1000 times");
    }

    #[test]
    fn boost_shifts_the_distribution() {
        let mut corpus = Corpus::new();
        corpus.retain(vec![0x20, 0x01], 1, 1);
        corpus.retain(vec![0x25, 0x01], 1, 2);
        corpus.boost(0, 99);
        let mut sched = PowerSchedule::new(3);
        let first = (0..1000).filter_map(|_| sched.choose(&corpus)).filter(|&i| i == 0).count();
        assert!(first > 900, "boosted entry picked only {first}/1000 times");
    }
}
