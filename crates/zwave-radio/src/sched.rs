//! Event-driven virtual time: the discrete-event kernel behind the
//! simulated radio stack.
//!
//! The kernel is one queue of live events kept sorted ascending by
//! `(at, seq)`, where `seq` is the monotone scheduling counter. A
//! campaign holds very few live events at a time (3 to 8 on 24 h D1
//! campaigns in every mode and channel profile; 489 at most, under the
//! S0-No-More scenario), so a binary-searched insert into a `VecDeque`
//! is all the structure the workload needs (DESIGN.md §6).
//!
//! # Determinism
//!
//! Release order is globally ascending `(at, seq)`: the queue's front is
//! always the next event. Every new event carries the highest `seq` so
//! far, so it inserts after every queued event at the same instant, and
//! events scheduled in the past insert at their sorted position.
//! Same-instant ties therefore always break by scheduling order, which
//! keeps campaigns bit-identical across worker counts and lets all
//! committed golden traces replay unchanged.
//!
//! The scheduler itself is policy-free: it orders and releases events. The
//! [`crate::medium::Medium`] owns one per simulation and interprets the
//! payloads (frame deliveries, wakeup timers, blackout window edges).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::clock::{SimClock, SimInstant};
use crate::framebuf::FrameBuf;

/// Journal hook: observes every event the scheduler releases, in release
/// order, immediately after the dequeue. Implementations must be pure
/// observers — they see events but cannot reschedule, cancel, or otherwise
/// perturb the simulation, so a scheduler with an observer attached runs
/// the exact same event sequence as one without (the property the trace
/// record/replay machinery in `zcover` relies on).
///
/// The kernel releases its state borrow before it calls the observer, so
/// an observer may hold a clone of the scheduler and query it (`stats`,
/// `pending_events`, `events_processed`) from inside the callback.
pub trait EventObserver {
    /// Called once per released event, after it leaves the kernel
    /// (cancelled timers are never reported).
    fn event_dequeued(&self, event: &Event);
}

/// Shared slot holding the (optional) journal observer; all clones of a
/// [`SimScheduler`] see the same slot.
#[derive(Clone, Default)]
struct ObserverSlot(Rc<RefCell<Option<Rc<dyn EventObserver>>>>);

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.0.borrow().is_some() { "attached" } else { "none" };
        write!(f, "ObserverSlot({state})")
    }
}

/// Handle to one scheduled timer, used to cancel it before it fires.
///
/// The public identity is [`TimerToken::id`] — the small sequential number
/// traces journal. The private fields locate the timer in the queue: its
/// `(at, seq)` key, plus the kernel generation it was armed in, so a token
/// that outlives its simulation (on a recycled kernel, whose `seq` stream
/// restarts) can never cancel an unrelated event of the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken {
    id: u64,
    at: u64,
    seq: u64,
    generation: u64,
}

impl TimerToken {
    /// The token's unique id (diagnostics only).
    pub fn id(self) -> u64 {
        self.id
    }
}

/// One pre-computed frame delivery, carried by a
/// [`EventKind::FrameArrival`] event from transmit time to arrival time.
///
/// Every random channel outcome (loss, corruption, duplication, reorder
/// window) is already decided when the delivery is built — arrival merely
/// enqueues the bytes at the receiver, so scheduling can never perturb the
/// deterministic per-frame RNG streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving station index on the medium.
    pub station: usize,
    /// Frame bytes as they will arrive (possibly corrupted/truncated).
    /// Uncorrupted deliveries share the transmitted buffer; an impairment
    /// that rewrites bytes triggers the copy-on-write.
    pub bytes: FrameBuf,
    /// Received signal strength in centi-dBm.
    pub rssi_cdbm: i32,
    /// Whether an identical back-to-back duplicate accompanies the frame.
    pub duplicated: bool,
    /// How many already-queued frames this delivery may jump ahead of.
    pub reorder_window: usize,
}

/// The payload of a scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A transmitted frame reaches its receivers.
    FrameArrival(Vec<Delivery>),
    /// A cancellable wakeup timer for one actor.
    Timer(TimerToken),
    /// A scripted blackout window opens. Stale generations (scheduled
    /// before the latest impairment install) are ignored by the consumer.
    BlackoutStart {
        /// Impairment-install generation this event belongs to.
        generation: u64,
        /// Index of the blackout stage within the schedule.
        stage: usize,
    },
    /// A scripted blackout window closes (and, for periodic windows, the
    /// next window gets scheduled).
    BlackoutEnd {
        /// Impairment-install generation this event belongs to.
        generation: u64,
        /// Index of the blackout stage within the schedule.
        stage: usize,
    },
}

/// A dequeued event, ready to be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time at which the event fires.
    pub at: SimInstant,
    /// Scheduling sequence number (the deterministic tie-breaker).
    pub seq: u64,
    /// The actor the event belongs to (station index, or
    /// [`SimScheduler::MEDIUM_ACTOR`] for channel-level events).
    pub actor: usize,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// FNV-1a over the full delivery contents (receiver, bytes, rssi,
    /// duplication, reorder window) of a [`EventKind::FrameArrival`];
    /// `0` for every other payload. Journals record frame arrivals as
    /// this short hash instead of a hex dump, which keeps traces small
    /// while still detecting any payload or impairment-outcome change.
    pub fn content_hash(&self) -> u64 {
        let EventKind::FrameArrival(deliveries) = &self.kind else { return 0 };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for d in deliveries {
            for byte in (d.station as u64).to_le_bytes() {
                eat(byte);
            }
            for byte in (d.bytes.len() as u64).to_le_bytes() {
                eat(byte);
            }
            for &byte in &d.bytes {
                eat(byte);
            }
            for byte in d.rssi_cdbm.to_le_bytes() {
                eat(byte);
            }
            eat(u8::from(d.duplicated));
            eat(d.reorder_window as u8);
        }
        h
    }

    /// The queue's sort key.
    fn key(&self) -> (u64, u64) {
        (self.at.as_micros(), self.seq)
    }
}

/// Snapshot of the kernel's occupancy and throughput counters. Every
/// value is a pure function of the simulated workload — never of wall
/// clock or worker count — so the numbers can flow into campaign reports
/// without breaking bit-identical merges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events ever scheduled (frames, timers, blackout edges).
    pub scheduled: u64,
    /// Events released to the consumer.
    pub processed: u64,
    /// Timers cancelled before firing.
    pub cancelled: u64,
    /// Events currently live (scheduled, not yet released or cancelled).
    pub live: u64,
    /// High-water mark of `live` over the kernel's lifetime.
    pub peak_pending: u64,
}

impl SchedStats {
    /// Counter deltas since an `earlier` snapshot of the same kernel.
    /// High-water and residency values (`live`, `peak_pending`) are
    /// carried over as-is: they are marks, not monotone tallies.
    pub fn since(&self, earlier: &SchedStats) -> SchedStats {
        SchedStats {
            scheduled: self.scheduled - earlier.scheduled,
            processed: self.processed - earlier.processed,
            cancelled: self.cancelled - earlier.cancelled,
            live: self.live,
            peak_pending: self.peak_pending,
        }
    }
}

/// The queue and counters, shared by every handle through one `RefCell`.
#[derive(Debug, Default)]
struct SchedState {
    /// Live events, sorted ascending by `(at, seq)`.
    queue: VecDeque<Event>,
    /// Bumped by every [`SimScheduler::recycle`]; tokens armed in an
    /// earlier generation are inert.
    generation: u64,
    next_seq: u64,
    next_token: u64,
    processed: u64,
    scheduled: u64,
    cancelled: u64,
    peak_pending: u64,
}

impl SchedState {
    /// Queues an event at its sorted position and returns its `seq`.
    fn insert(&mut self, at: u64, actor: usize, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.queue.partition_point(|queued| queued.key() < (at, seq));
        self.queue.insert(pos, Event { at: SimInstant::from_micros(at), seq, actor, kind });
        self.scheduled += 1;
        self.peak_pending = self.peak_pending.max(self.queue.len() as u64);
        seq
    }

    /// Releases the earliest event if it is due at or before `target`.
    fn pop_one(&mut self, target: u64) -> Option<Event> {
        if self.queue.front()?.at.as_micros() > target {
            return None;
        }
        self.processed += 1;
        self.queue.pop_front()
    }

    /// The exact instant of the earliest live event (`u64::MAX` when
    /// nothing is queued).
    fn earliest(&self) -> u64 {
        self.queue.front().map_or(u64::MAX, |event| event.at.as_micros())
    }

    /// Drops every event and zeroes every counter, keeping the queue's
    /// allocation for the next simulation. The generation advances, so
    /// stale tokens stay inert.
    fn reset(&mut self) {
        self.queue.clear();
        let queue = std::mem::take(&mut self.queue);
        *self = SchedState { queue, generation: self.generation + 1, ..SchedState::default() };
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            scheduled: self.scheduled,
            processed: self.processed,
            cancelled: self.cancelled,
            live: self.queue.len() as u64,
            peak_pending: self.peak_pending,
        }
    }
}

/// The discrete-event kernel driving one simulation. Cloning yields
/// another handle onto the same queue; each campaign trial owns exactly
/// one (possibly recycled from the previous trial's via
/// [`SimScheduler::recycle`]).
///
/// The handles share `Rc<RefCell<_>>` state, so a scheduler is `!Send`:
/// a home and everything in it runs on one thread, and parallelism lives
/// one level up, across homes.
#[derive(Debug, Clone)]
pub struct SimScheduler {
    state: Rc<RefCell<SchedState>>,
    observer: ObserverSlot,
    clock: SimClock,
    /// The exact instant of the earliest live event (`u64::MAX` when
    /// empty), stored after every change to the queue.
    /// [`SimScheduler::maybe_due`] and [`SimScheduler::next_due`] read it
    /// without borrowing the state, so the hot "is anything due yet?"
    /// probe — the overwhelming majority of a simulation's kernel
    /// queries — is one `Cell` load.
    earliest: Rc<Cell<u64>>,
}

impl SimScheduler {
    /// Actor id used for events that belong to the channel itself rather
    /// than any station (blackout window edges).
    pub const MEDIUM_ACTOR: usize = usize::MAX;

    /// A fresh, empty scheduler owning (a handle to) `clock`.
    pub fn new(clock: SimClock) -> Self {
        SimScheduler {
            state: Rc::new(RefCell::new(SchedState::default())),
            observer: ObserverSlot::default(),
            clock,
            earliest: Rc::new(Cell::new(u64::MAX)),
        }
    }

    /// Rebinds this kernel to a fresh simulation on `clock`: every pending
    /// event is dropped and all counters restart from zero, but the queue
    /// keeps its capacity. Sweep shards use this to run thousands of homes
    /// through one kernel without reallocating per home. The returned
    /// scheduler starts with no observer; outstanding handles and tokens
    /// from the previous simulation become inert.
    pub fn recycle(&self, clock: SimClock) -> SimScheduler {
        self.state.borrow_mut().reset();
        self.earliest.set(u64::MAX);
        SimScheduler {
            state: Rc::clone(&self.state),
            observer: ObserverSlot::default(),
            clock,
            earliest: Rc::clone(&self.earliest),
        }
    }

    /// Attaches (or, with `None`, detaches) the journal observer notified
    /// of every released event. At most one observer is active at a time;
    /// every clone of this scheduler shares the slot.
    pub fn set_observer(&self, observer: Option<Rc<dyn EventObserver>>) {
        *self.observer.0.borrow_mut() = observer;
    }

    /// The virtual clock this scheduler advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Schedules `kind` to fire at `at` on behalf of `actor`; returns the
    /// event's sequence number. `at` may lie in the past — the event then
    /// fires at the next release.
    pub fn schedule(&self, at: SimInstant, actor: usize, kind: EventKind) -> u64 {
        let seq = self.state.borrow_mut().insert(at.as_micros(), actor, kind);
        self.earliest.set(self.earliest.get().min(at.as_micros()));
        seq
    }

    /// Schedules a cancellable wakeup timer for `actor` at `at`.
    pub fn schedule_timer(&self, at: SimInstant, actor: usize) -> TimerToken {
        let mut state = self.state.borrow_mut();
        let token = TimerToken {
            id: state.next_token,
            at: at.as_micros(),
            seq: state.next_seq,
            generation: state.generation,
        };
        state.next_token += 1;
        state.insert(token.at, actor, EventKind::Timer(token));
        self.earliest.set(self.earliest.get().min(token.at));
        token
    }

    /// Cancels a timer: a binary search for its `(at, seq)` and a removal,
    /// so `pending_events` drops at once. A fired, already-cancelled, or
    /// stale token is a harmless no-op — its key is no longer queued, or
    /// its generation is not the kernel's.
    pub fn cancel_timer(&self, token: TimerToken) {
        let mut state = self.state.borrow_mut();
        if token.generation != state.generation {
            return;
        }
        let Ok(pos) = state.queue.binary_search_by_key(&(token.at, token.seq), Event::key) else {
            return;
        };
        state.queue.remove(pos);
        state.cancelled += 1;
        self.earliest.set(state.earliest());
    }

    /// The instant of the earliest live event, if any.
    pub fn next_due(&self) -> Option<SimInstant> {
        match self.earliest.get() {
            // Empty, or an event at the last representable instant.
            u64::MAX => self.state.borrow().queue.front().map(|event| event.at),
            at => Some(SimInstant::from_micros(at)),
        }
    }

    /// Borrow-free probe: whether a live event is due at or before
    /// `target` (confirm with [`SimScheduler::pop_due`] or friends). This
    /// is the hot-path early-out for the "anything due yet?" queries that
    /// dominate a campaign's kernel traffic.
    pub fn maybe_due(&self, target: SimInstant) -> bool {
        self.earliest.get() <= target.as_micros()
    }

    /// Pops the earliest live event with `at <= target`. Events at equal
    /// instants release in scheduling order. An attached [`EventObserver`]
    /// is notified of the released event (after the state borrow is
    /// released, so observers may query the scheduler).
    pub fn pop_due(&self, target: SimInstant) -> Option<Event> {
        let event = {
            let mut state = self.state.borrow_mut();
            let event = state.pop_one(target.as_micros());
            self.earliest.set(state.earliest());
            event
        };
        if let Some(ev) = &event {
            self.notify(std::slice::from_ref(ev));
        }
        event
    }

    /// Drains every due event sharing the *earliest* due instant `<=
    /// target` into `out` under one state borrow; returns how many
    /// were appended. Events scheduled *by the caller while applying the
    /// batch* land in the next batch (they carry higher sequence numbers),
    /// so batched dispatch releases exactly the per-event order. The
    /// observer is notified per event, in order, after the borrow is
    /// released.
    pub fn pop_due_batch(&self, target: SimInstant, out: &mut Vec<Event>) -> usize {
        let start = out.len();
        {
            let mut state = self.state.borrow_mut();
            if let Some(first) = state.pop_one(target.as_micros()) {
                let instant = first.at.as_micros();
                out.push(first);
                while let Some(event) = state.pop_one(instant) {
                    out.push(event);
                }
            }
            self.earliest.set(state.earliest());
        }
        self.notify(&out[start..]);
        out.len() - start
    }

    /// Reports released events to the observer, if one is attached.
    fn notify(&self, released: &[Event]) {
        if released.is_empty() {
            return;
        }
        let observer = self.observer.0.borrow().clone();
        if let Some(observer) = observer {
            for event in released {
                observer.event_dequeued(event);
            }
        }
    }

    /// Total events released so far (the simulation's event throughput).
    pub fn events_processed(&self) -> u64 {
        self.state.borrow().processed
    }

    /// Number of *live* events currently queued. Cancelled timers leave
    /// the count immediately.
    pub fn pending_events(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// Occupancy/throughput snapshot (see [`SchedStats`]).
    pub fn stats(&self) -> SchedStats {
        self.state.borrow().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::time::Duration;

    fn at(us: u64) -> SimInstant {
        SimInstant::ZERO.plus(Duration::from_micros(us))
    }

    #[test]
    fn events_release_in_time_order_regardless_of_insertion() {
        let sched = SimScheduler::new(SimClock::new());
        sched.schedule(at(300), 0, EventKind::FrameArrival(Vec::new()));
        sched.schedule(at(100), 1, EventKind::FrameArrival(Vec::new()));
        sched.schedule(at(200), 2, EventKind::FrameArrival(Vec::new()));
        let order: Vec<u64> =
            std::iter::from_fn(|| sched.pop_due(at(1_000))).map(|e| e.at.as_micros()).collect();
        assert_eq!(order, vec![100, 200, 300]);
    }

    #[test]
    fn same_instant_ties_break_by_scheduling_order() {
        let sched = SimScheduler::new(SimClock::new());
        // Three actors scheduled at the same instant, in actor order 2,0,1:
        // release must follow scheduling order, not actor id.
        for actor in [2usize, 0, 1] {
            sched.schedule(at(500), actor, EventKind::FrameArrival(Vec::new()));
        }
        let actors: Vec<usize> =
            std::iter::from_fn(|| sched.pop_due(at(500))).map(|e| e.actor).collect();
        assert_eq!(actors, vec![2, 0, 1]);
    }

    #[test]
    fn pop_due_respects_the_target_horizon() {
        let sched = SimScheduler::new(SimClock::new());
        sched.schedule(at(100), 0, EventKind::FrameArrival(Vec::new()));
        sched.schedule(at(900), 0, EventKind::FrameArrival(Vec::new()));
        assert_eq!(sched.pop_due(at(500)).unwrap().at, at(100));
        assert_eq!(sched.pop_due(at(500)), None, "later event stays queued");
        assert_eq!(sched.next_due(), Some(at(900)));
    }

    #[test]
    fn an_event_at_the_last_instant_is_still_due() {
        let sched = SimScheduler::new(SimClock::new());
        assert_eq!(sched.next_due(), None);
        sched.schedule(at(u64::MAX), 0, EventKind::FrameArrival(Vec::new()));
        assert_eq!(sched.next_due(), Some(at(u64::MAX)));
        assert!(sched.maybe_due(at(u64::MAX)));
        assert_eq!(sched.pop_due(at(u64::MAX)).map(|e| e.at), Some(at(u64::MAX)));
        assert_eq!(sched.next_due(), None);
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let sched = SimScheduler::new(SimClock::new());
        let keep = sched.schedule_timer(at(100), 7);
        let drop = sched.schedule_timer(at(50), 7);
        sched.cancel_timer(drop);
        let fired: Vec<Event> = std::iter::from_fn(|| sched.pop_due(at(1_000))).collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, EventKind::Timer(keep));
        assert_eq!(fired[0].at, at(100));
        // Cancelling after the fact is a harmless no-op.
        sched.cancel_timer(keep);
        assert_eq!(sched.pop_due(at(2_000)), None);
    }

    #[test]
    fn cancel_unlinks_in_place_and_pending_counts_live_only() {
        let sched = SimScheduler::new(SimClock::new());
        let t = sched.schedule_timer(at(10), 0);
        sched.schedule(at(20), 1, EventKind::FrameArrival(Vec::new()));
        assert_eq!(sched.pending_events(), 2);
        sched.cancel_timer(t);
        assert_eq!(sched.pending_events(), 1, "cancel leaves no tombstone behind");
        assert_eq!(sched.next_due(), Some(at(20)));
        // Double-cancel (and cancel-after-recycle of the node) stays inert.
        sched.cancel_timer(t);
        assert_eq!(sched.pending_events(), 1);
        assert_eq!(sched.stats().cancelled, 1);
    }

    #[test]
    fn processed_counter_counts_released_events_only() {
        let sched = SimScheduler::new(SimClock::new());
        let t = sched.schedule_timer(at(10), 0);
        sched.schedule(at(20), 0, EventKind::FrameArrival(Vec::new()));
        sched.cancel_timer(t);
        while sched.pop_due(at(100)).is_some() {}
        assert_eq!(sched.events_processed(), 1, "cancelled timer is not 'processed'");
    }

    #[test]
    fn observer_sees_released_events_in_order_and_skips_cancelled() {
        struct Log(Mutex<Vec<(u64, usize)>>);
        impl EventObserver for Log {
            fn event_dequeued(&self, event: &Event) {
                self.0.lock().push((event.at.as_micros(), event.actor));
            }
        }
        let sched = SimScheduler::new(SimClock::new());
        let log = Rc::new(Log(Mutex::new(Vec::new())));
        sched.set_observer(Some(log.clone()));
        sched.schedule(at(200), 1, EventKind::FrameArrival(Vec::new()));
        let dead = sched.schedule_timer(at(100), 2);
        sched.schedule(at(300), 3, EventKind::FrameArrival(Vec::new()));
        sched.cancel_timer(dead);
        while sched.pop_due(at(250)).is_some() {}
        assert_eq!(*log.0.lock(), vec![(200, 1)], "cancelled reported or order wrong");
        // Detaching stops the journal; the simulation continues untouched.
        sched.set_observer(None);
        assert!(sched.pop_due(at(1_000)).is_some());
        assert_eq!(log.0.lock().len(), 1);
    }

    #[test]
    fn observers_may_query_the_scheduler_from_inside_the_callback() {
        // The kernel releases its state borrow before notifying; an
        // observer that queries its own scheduler must never find it
        // still borrowed, on either release path.
        struct Probe {
            sched: SimScheduler,
            seen: RefCell<Vec<(usize, u64, usize, u64)>>,
        }
        impl EventObserver for Probe {
            fn event_dequeued(&self, event: &Event) {
                let stats = self.sched.stats();
                assert_eq!(stats.processed, self.sched.events_processed());
                self.seen.borrow_mut().push((
                    event.actor,
                    self.sched.events_processed(),
                    self.sched.pending_events(),
                    stats.scheduled,
                ));
            }
        }
        let sched = SimScheduler::new(SimClock::new());
        let probe = Rc::new(Probe { sched: sched.clone(), seen: RefCell::new(Vec::new()) });
        sched.set_observer(Some(probe.clone()));
        for actor in 1..=3 {
            sched.schedule(at(100), actor, EventKind::FrameArrival(Vec::new()));
        }
        sched.schedule(at(200), 4, EventKind::FrameArrival(Vec::new()));
        assert_eq!(sched.pop_due(at(150)).map(|e| e.actor), Some(1));
        let mut batch = Vec::new();
        assert_eq!(sched.pop_due_batch(at(300), &mut batch), 2);
        // A batch is counted whole before its first notification.
        assert_eq!(*probe.seen.borrow(), vec![(1, 1, 3, 4), (2, 3, 1, 4), (3, 3, 1, 4)]);
        // Detaching breaks the observer's cycle back to the scheduler and
        // stops the journal; the simulation runs on untouched.
        sched.set_observer(None);
        batch.clear();
        assert_eq!(sched.pop_due_batch(at(300), &mut batch), 1);
        assert_eq!(probe.seen.borrow().len(), 3);
        assert_eq!(Rc::strong_count(&probe), 1, "the scheduler let go of the observer");
    }

    #[test]
    fn past_events_fire_immediately() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(5));
        let sched = SimScheduler::new(clock.clone());
        sched.schedule(at(1), 0, EventKind::FrameArrival(Vec::new()));
        assert!(sched.pop_due(clock.now()).is_some());
    }

    #[test]
    fn multi_band_timers_release_in_global_time_order() {
        // One event per timer band (ack timeout, report timer, outage
        // wait, long recovery, far future past 38 h), scheduled in
        // shuffled order; release must be globally time-sorted.
        let sched = SimScheduler::new(SimClock::new());
        let us = [
            45_000_000_000u64, // 12.5 h
            350_000,           // 350 ms
            300_000_000,       // 300 s
            200_000_000_000,   // 55.6 h
            5_000_000,         // 5 s
        ];
        for &t in &us {
            sched.schedule(at(t), 0, EventKind::FrameArrival(Vec::new()));
        }
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop_due(at(u64::MAX / 2)))
            .map(|e| e.at.as_micros())
            .collect();
        let mut want = us.to_vec();
        want.sort_unstable();
        assert_eq!(order, want);
    }

    #[test]
    fn events_straddling_power_of_two_boundaries_release_in_order() {
        // Instants straddling the power-of-two boundaries 2^19 µs and
        // 2^25 µs, scheduled out of order: a regression case from the
        // timing-wheel kernel, whose slot boundaries these were.
        let sched = SimScheduler::new(SimClock::new());
        let a = 600_000u64;
        let b = 524_000u64;
        let c = 40_000_000u64;
        let d = 33_554_000u64;
        for &t in &[a, b, c, d] {
            sched.schedule(at(t), 0, EventKind::FrameArrival(Vec::new()));
        }
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop_due(at(50_000_000)))
            .map(|e| e.at.as_micros())
            .collect();
        assert_eq!(order, vec![b, a, d, c]);
        assert_eq!(sched.pending_events(), 0);
        assert_eq!(sched.events_processed(), 4);
    }

    #[test]
    fn same_instant_events_straddling_a_schedule_gap_stay_ordered() {
        // Two events at the same far instant, scheduled before and after a
        // pop: seq order must still win.
        let sched = SimScheduler::new(SimClock::new());
        sched.schedule(at(2_000_000), 5, EventKind::FrameArrival(Vec::new()));
        sched.schedule(at(1_000), 0, EventKind::FrameArrival(Vec::new()));
        assert_eq!(sched.pop_due(at(1_000)).unwrap().actor, 0);
        // A late same-instant peer and an earlier straggler both insert
        // at their sorted positions.
        sched.schedule(at(2_000_000), 6, EventKind::FrameArrival(Vec::new()));
        sched.schedule(at(1_500_000), 7, EventKind::FrameArrival(Vec::new()));
        let actors: Vec<usize> =
            std::iter::from_fn(|| sched.pop_due(at(3_000_000))).map(|e| e.actor).collect();
        assert_eq!(actors, vec![7, 5, 6]);
    }

    #[test]
    fn pop_due_batch_drains_exactly_one_instant() {
        let sched = SimScheduler::new(SimClock::new());
        for actor in [3usize, 1, 4] {
            sched.schedule(at(700), actor, EventKind::FrameArrival(Vec::new()));
        }
        sched.schedule(at(800), 9, EventKind::FrameArrival(Vec::new()));
        let mut batch = Vec::new();
        assert_eq!(sched.pop_due_batch(at(10_000), &mut batch), 3);
        assert_eq!(batch.iter().map(|e| e.actor).collect::<Vec<_>>(), vec![3, 1, 4]);
        assert!(batch.iter().all(|e| e.at == at(700)));
        batch.clear();
        assert_eq!(sched.pop_due_batch(at(10_000), &mut batch), 1);
        assert_eq!(batch[0].actor, 9);
        batch.clear();
        assert_eq!(sched.pop_due_batch(at(10_000), &mut batch), 0);
    }

    #[test]
    fn recycle_resets_identity_but_keeps_the_queue() {
        let sched = SimScheduler::new(SimClock::new());
        let stale = sched.schedule_timer(at(100), 1);
        sched.schedule(at(50), 0, EventKind::FrameArrival(Vec::new()));
        assert!(sched.pop_due(at(60)).is_some());
        let fresh = sched.recycle(SimClock::new());
        assert_eq!(fresh.pending_events(), 0);
        assert_eq!(fresh.events_processed(), 0);
        assert_eq!(fresh.stats(), SchedStats::default());
        // Token and sequence streams restart exactly like a new kernel's.
        let token = fresh.schedule_timer(at(100), 0);
        assert_eq!(token.id(), 0);
        assert_eq!(fresh.schedule(at(20), 0, EventKind::FrameArrival(Vec::new())), 1);
        // A stale token from the previous simulation must not cancel the
        // new timer that carries the same instant and sequence number.
        fresh.cancel_timer(stale);
        assert_eq!(fresh.pending_events(), 2);
        let fired: Vec<Event> = std::iter::from_fn(|| fresh.pop_due(at(1_000))).collect();
        assert_eq!(fired.len(), 2);
    }

    #[test]
    fn stats_track_peak_and_live_counts() {
        let sched = SimScheduler::new(SimClock::new());
        let t0 = sched.schedule_timer(at(10), 0);
        sched.schedule_timer(at(20), 0);
        sched.schedule_timer(at(30), 0);
        assert_eq!(sched.stats().peak_pending, 3);
        sched.cancel_timer(t0);
        while sched.pop_due(at(100)).is_some() {}
        let stats = sched.stats();
        assert_eq!(stats.scheduled, 3);
        assert_eq!(stats.processed, 2);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.live, 0);
        assert_eq!(stats.peak_pending, 3, "peak survives the drain");
    }
}
