//! Scripted adversary stations on the medium.
//!
//! An [`AttackerStation`] is a transceiver driven by a pure, pre-computed
//! [`AttackerSchedule`]: the fire time of frame `i` is a function of
//! `(seed, i)` alone — never of when the station was last serviced, how
//! many other stations transmitted, or what the channel did to earlier
//! frames. That is the same determinism discipline the impairment layer
//! follows (per-`(seed, frame-index)` RNGs), and it is what keeps attack
//! campaigns bit-identical across worker counts and replayable from a
//! trace header.
//!
//! The station is *time-driven*, not event-driven: callers service it
//! from their own loop, and a service call transmits every frame whose
//! fire time has passed (catching up after an idle hop in one burst, in
//! index order). A wakeup timer is kept armed at the next fire time so
//! event-hopping drivers ([`crate::Medium::advance_to_next_wakeup`]) land
//! on attack instants instead of skipping them.

use std::time::Duration;

use crate::clock::SimInstant;
use crate::medium::{Medium, Transceiver};
use crate::sched::TimerToken;
use crate::splitmix64;

/// A deterministic transmission schedule: frame `i` fires at
/// `anchor + start + i * period + jitter(seed, i)`, with the jitter
/// strictly below `period / 4` so fire times are strictly monotone in
/// `i`. `count` bounds the script (`None` = fire until the caller stops
/// servicing the station).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackerSchedule {
    /// Instant the schedule is anchored to (usually campaign start).
    pub anchor: SimInstant,
    /// Offset of frame 0 from the anchor.
    pub start: Duration,
    /// Nominal spacing between consecutive frames.
    pub period: Duration,
    /// Seed for the per-index jitter.
    pub seed: u64,
    /// Total frames in the script, or `None` for an unbounded flood.
    pub count: Option<u64>,
}

impl AttackerSchedule {
    /// Deterministic jitter for frame `index`: a pure function of
    /// `(seed, index)`, bounded to a quarter period so the schedule
    /// stays strictly monotone.
    pub fn jitter(&self, index: u64) -> Duration {
        let bound = (self.period.as_micros() as u64 / 4).max(1);
        Duration::from_micros(splitmix64(self.seed ^ splitmix64(index)) % bound)
    }

    /// The fire time of frame `index` — independent of every other index
    /// and of when (or whether) earlier frames were serviced.
    pub fn fire_at(&self, index: u64) -> SimInstant {
        self.anchor
            .plus(self.start)
            .plus(Duration::from_micros(self.period.as_micros() as u64 * index))
            .plus(self.jitter(index))
    }

    /// Whether `index` is within the scripted frame count.
    pub fn in_script(&self, index: u64) -> bool {
        self.count.is_none_or(|n| index < n)
    }
}

/// A scripted adversary radio attached to the medium.
#[derive(Debug)]
pub struct AttackerStation {
    radio: Transceiver,
    schedule: AttackerSchedule,
    next_index: u64,
    frames_sent: u64,
    timer: Option<TimerToken>,
}

impl AttackerStation {
    /// Attaches an attacker at `position_m` metres with `schedule`.
    pub fn attach(medium: &Medium, position_m: f64, schedule: AttackerSchedule) -> Self {
        let station = AttackerStation {
            radio: medium.attach(position_m),
            schedule,
            next_index: 0,
            frames_sent: 0,
            timer: None,
        };
        if station.schedule.in_script(0) {
            // Arm the first wakeup so event-hopping drivers land on it.
            let token = station.radio.schedule_wakeup(station.schedule.fire_at(0));
            AttackerStation { timer: Some(token), ..station }
        } else {
            station
        }
    }

    /// The schedule this station follows.
    pub fn schedule(&self) -> &AttackerSchedule {
        &self.schedule
    }

    /// Frames transmitted so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// The station's radio (for receive-side inspection in tests).
    pub fn radio(&self) -> &Transceiver {
        &self.radio
    }

    /// Transmits every frame whose fire time has passed, in index order
    /// (time-driven catch-up: a service call after an idle hop sends the
    /// whole backlog in one burst). `build` maps a frame index to its
    /// on-air bytes; returning `None` skips that index without ending
    /// the script. Returns the indices transmitted this call and keeps a
    /// wakeup armed at the next fire time.
    pub fn service<F: FnMut(u64) -> Option<Vec<u8>>>(&mut self, mut build: F) -> Vec<u64> {
        let now = self.radio.medium().clock().now();
        let mut sent = Vec::new();
        while self.schedule.in_script(self.next_index)
            && self.schedule.fire_at(self.next_index) <= now
        {
            let index = self.next_index;
            self.next_index += 1;
            if let Some(bytes) = build(index) {
                self.radio.transmit(&bytes);
                self.frames_sent += 1;
                sent.push(index);
            }
        }
        if let Some(token) = self.timer.take() {
            self.radio.cancel_wakeup(token);
        }
        if self.schedule.in_script(self.next_index) {
            self.timer = Some(self.radio.schedule_wakeup(self.schedule.fire_at(self.next_index)));
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    fn schedule(seed: u64) -> AttackerSchedule {
        AttackerSchedule {
            anchor: SimInstant::ZERO,
            start: Duration::from_secs(2),
            period: Duration::from_millis(500),
            seed,
            count: None,
        }
    }

    #[test]
    fn fire_times_are_strictly_monotone() {
        let s = schedule(7);
        for i in 0..200 {
            assert!(s.fire_at(i) < s.fire_at(i + 1), "schedule not monotone at {i}");
        }
    }

    #[test]
    fn jitter_is_bounded_below_a_quarter_period() {
        let s = schedule(11);
        for i in 0..200 {
            assert!(s.jitter(i) < s.period / 4 + Duration::from_micros(1));
        }
    }

    #[test]
    fn service_catches_up_an_idle_gap_in_one_burst() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 3);
        let victim = medium.attach(1.0);
        let mut attacker = AttackerStation::attach(&medium, 30.0, schedule(3));
        assert!(attacker.service(|_| Some(vec![0xAA])).is_empty(), "nothing due yet");
        // Hop far past several fire times without servicing.
        clock.advance(Duration::from_secs(4));
        let sent = attacker.service(|i| Some(vec![i as u8]));
        assert!(sent.len() >= 3, "backlog sent in one burst: {sent:?}");
        assert_eq!(sent, (0..sent.len() as u64).collect::<Vec<_>>(), "index order");
        assert_eq!(victim.drain().len(), sent.len());
    }

    #[test]
    fn bounded_script_stops_at_count() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 5);
        let s = AttackerSchedule { count: Some(4), ..schedule(5) };
        let mut attacker = AttackerStation::attach(&medium, 30.0, s);
        clock.advance(Duration::from_secs(60));
        assert_eq!(attacker.service(|_| Some(vec![1])).len(), 4);
        clock.advance(Duration::from_secs(60));
        assert!(attacker.service(|_| Some(vec![1])).is_empty());
        assert_eq!(attacker.frames_sent(), 4);
    }

    #[test]
    fn skipped_indices_do_not_end_the_script() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 5);
        let s = AttackerSchedule { count: Some(6), ..schedule(5) };
        let mut attacker = AttackerStation::attach(&medium, 30.0, s);
        clock.advance(Duration::from_secs(60));
        let sent = attacker.service(|i| (i % 2 == 0).then(|| vec![i as u8]));
        assert_eq!(sent, vec![0, 2, 4]);
        assert_eq!(attacker.frames_sent(), 3);
    }

    #[test]
    fn wakeup_lands_event_hops_on_fire_instants() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 9);
        let mut attacker = AttackerStation::attach(&medium, 30.0, schedule(9));
        let cap = clock.now().plus(Duration::from_secs(300));
        assert!(medium.advance_to_next_wakeup(cap), "first fire time is a scheduled event");
        assert_eq!(clock.now(), attacker.schedule().fire_at(0));
        assert_eq!(attacker.service(|_| Some(vec![0x55])), vec![0]);
    }
}
