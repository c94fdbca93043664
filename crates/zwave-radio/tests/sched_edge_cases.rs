//! Edge-case coverage for the `SimScheduler` event kernel and the medium's
//! blackout machinery layered on top of it: cancel-after-fire and stale
//! tokens, same-instant timer vs. frame ordering, release across the 2^37 µs
//! (≈ 38 h) boundary, and the generation guard that keeps stale
//! blackout events from a replaced impairment profile from toggling the
//! channel.

use std::time::Duration;

use zwave_radio::sched::{Delivery, EventKind, SimScheduler};
use zwave_radio::{
    ImpairmentProfile, ImpairmentSchedule, ImpairmentStage, Medium, SimClock, SimInstant,
};

fn at(us: u64) -> SimInstant {
    SimInstant::from_micros(us)
}

fn frame_for(station: usize) -> EventKind {
    EventKind::FrameArrival(vec![Delivery {
        station,
        bytes: vec![station as u8].into(),
        rssi_cdbm: -4200,
        duplicated: false,
        reorder_window: 0,
    }])
}

// ---------------------------------------------------------------------
// Cancel-after-fire tombstones
// ---------------------------------------------------------------------

/// Cancelling a timer that already fired is a no-op: the stale tombstone
/// must not swallow any later timer, shift the processed counter, or leave
/// phantom pending events.
#[test]
fn cancel_after_fire_is_a_harmless_no_op() {
    let sched = SimScheduler::new(SimClock::new());
    let first = sched.schedule_timer(at(10), 0);
    let fired = sched.pop_due(at(10)).expect("timer due");
    assert_eq!(fired.kind, EventKind::Timer(first));
    assert_eq!(sched.events_processed(), 1);

    // The cancel lands after the fire: nothing left to discard.
    sched.cancel_timer(first);
    assert_eq!(sched.pending_events(), 0);
    assert_eq!(sched.events_processed(), 1, "cancel bumped the counter");

    // A later timer is unaffected by the stale tombstone.
    let second = sched.schedule_timer(at(20), 0);
    assert_eq!(sched.next_due(), Some(at(20)));
    let fired = sched.pop_due(at(20)).expect("second timer due");
    assert_eq!(fired.kind, EventKind::Timer(second));
    assert_eq!(sched.events_processed(), 2);
    assert_eq!(sched.pending_events(), 0);
}

/// Double-cancel (and cancel after the timer is long gone) stays
/// idempotent, and cancelled timers never count as processed.
#[test]
fn cancelled_timers_are_skipped_without_counting_as_processed() {
    let sched = SimScheduler::new(SimClock::new());
    let keep_a = sched.schedule_timer(at(5), 1);
    let doomed = sched.schedule_timer(at(6), 2);
    let keep_b = sched.schedule_timer(at(7), 3);
    sched.cancel_timer(doomed);
    sched.cancel_timer(doomed); // idempotent

    assert_eq!(sched.pop_due(at(100)).expect("first live timer").kind, EventKind::Timer(keep_a));
    // The cancelled slot between the two live timers releases nothing.
    assert_eq!(sched.pop_due(at(100)).expect("second live timer").kind, EventKind::Timer(keep_b));
    assert!(sched.pop_due(at(100)).is_none());
    assert_eq!(sched.events_processed(), 2, "a cancelled timer was counted");

    // Cancelling once more, long after the node was recycled, is a no-op.
    sched.cancel_timer(doomed);
    assert_eq!(sched.pending_events(), 0);
    assert!(sched.next_due().is_none());
}

/// Cancellation unlinks in place: pending counts drop immediately (no
/// tombstones to surface), and `next_due` never reports a dead wakeup —
/// so idle-skip can't hop to a cancelled instant.
#[test]
fn cancel_unlinks_in_place_and_next_due_skips_dead_wakeups() {
    let sched = SimScheduler::new(SimClock::new());
    let dead_early = sched.schedule_timer(at(10), 0);
    let dead_later = sched.schedule_timer(at(20), 0);
    sched.schedule_timer(at(30), 0);
    sched.cancel_timer(dead_early);
    sched.cancel_timer(dead_later);
    assert_eq!(sched.pending_events(), 1, "cancelled timers still counted as pending");
    assert_eq!(sched.next_due(), Some(at(30)), "next_due reported a cancelled instant");
    assert_eq!(sched.pending_events(), 1);
    assert_eq!(sched.stats().cancelled, 2, "both cancels recorded in kernel stats");
}

/// The same invariant through the station-facing API: a wakeup that fired
/// (and was drained) can be cancelled late without eating the next one.
#[test]
fn cancel_after_fire_does_not_eat_the_next_wakeup() {
    let clock = SimClock::new();
    let medium = Medium::new(clock.clone(), 7);
    let station = medium.attach(0.0);

    let token = station.schedule_wakeup(clock.now().plus(Duration::from_millis(1)));
    clock.advance(Duration::from_millis(2));
    assert_eq!(medium.take_fired_actors(), vec![0]);

    station.cancel_wakeup(token); // late cancel of an already-fired timer
    station.schedule_wakeup(clock.now().plus(Duration::from_millis(1)));
    clock.advance(Duration::from_millis(2));
    assert_eq!(medium.take_fired_actors(), vec![0], "stale tombstone ate the wakeup");
}

// ---------------------------------------------------------------------
// Same-instant timer vs. frame ordering
// ---------------------------------------------------------------------

/// Events scheduled for the same instant release strictly in scheduling
/// order, regardless of kind: a frame queued before a timer comes out
/// before it, and vice versa.
#[test]
fn same_instant_events_release_in_scheduling_order_across_kinds() {
    let sched = SimScheduler::new(SimClock::new());
    let t = at(50);
    sched.schedule(t, 0, frame_for(0));
    let timer_a = sched.schedule_timer(t, 1);
    sched.schedule(t, 2, frame_for(2));
    let timer_b = sched.schedule_timer(t, 3);

    let order: Vec<_> = std::iter::from_fn(|| sched.pop_due(t)).collect();
    assert_eq!(order.len(), 4);
    assert_eq!(order[0].kind, frame_for(0));
    assert_eq!(order[1].kind, EventKind::Timer(timer_a));
    assert_eq!(order[2].kind, frame_for(2));
    assert_eq!(order[3].kind, EventKind::Timer(timer_b));
    // The deterministic tie-breaker is the monotone sequence number.
    assert!(order.windows(2).all(|w| w[0].seq < w[1].seq));
}

/// A cancelled timer sandwiched between two same-instant frames vanishes
/// without disturbing the frames' relative order.
#[test]
fn cancelled_timer_between_same_instant_frames_is_skipped_silently() {
    let sched = SimScheduler::new(SimClock::new());
    let t = at(80);
    sched.schedule(t, 0, frame_for(0));
    let doomed = sched.schedule_timer(t, 1);
    sched.schedule(t, 2, frame_for(2));
    sched.cancel_timer(doomed);

    assert_eq!(sched.pop_due(t).expect("first frame").kind, frame_for(0));
    assert_eq!(sched.pop_due(t).expect("second frame").kind, frame_for(2));
    assert!(sched.pop_due(t).is_none());
    assert_eq!(sched.events_processed(), 2);
}

/// Late-scheduled events with an *earlier* instant still release first:
/// the instant dominates, the sequence number only breaks ties.
#[test]
fn earlier_instant_beats_earlier_sequence_number() {
    let sched = SimScheduler::new(SimClock::new());
    let late_timer = sched.schedule_timer(at(100), 0);
    sched.schedule(at(40), 1, frame_for(1));

    assert_eq!(sched.pop_due(at(100)).expect("frame first").kind, frame_for(1));
    assert_eq!(sched.pop_due(at(100)).expect("timer second").kind, EventKind::Timer(late_timer));
}

/// Events on both sides of the 2^37 µs boundary release in instant order
/// (a regression case from the timing-wheel kernel, whose top level ended
/// there and parked later events on an overflow list).
#[test]
fn overflow_node_whose_region_the_horizon_reaches_via_l0_drain() {
    let region = 1u64 << 37;
    let sched = SimScheduler::new(SimClock::new());
    // A: just before the boundary; B: just past it.
    sched.schedule(at(region - 500), 0, EventKind::FrameArrival(Vec::new()));
    sched.schedule(at(region + 10), 1, EventKind::FrameArrival(Vec::new()));
    let a = sched.pop_due(at(u64::MAX / 2)).expect("A releases");
    assert_eq!(a.at.as_micros(), region - 500);
    let b = sched.pop_due(at(u64::MAX / 2)).expect("B releases");
    assert_eq!(b.at.as_micros(), region + 10);
}

/// An event scheduled past the boundary after the first release must not
/// overtake one queued there earlier.
#[test]
fn overflow_node_is_not_overtaken_by_a_later_event_in_its_region() {
    let region = 1u64 << 37;
    let sched = SimScheduler::new(SimClock::new());
    sched.schedule(at(region - 500), 0, EventKind::FrameArrival(Vec::new()));
    sched.schedule(at(region + 10), 1, EventKind::FrameArrival(Vec::new()));
    let a = sched.pop_due(at(u64::MAX / 2)).expect("A releases");
    assert_eq!(a.at.as_micros(), region - 500);
    sched.schedule(at(region + 5000), 2, EventKind::FrameArrival(Vec::new()));
    let order: Vec<u64> = std::iter::from_fn(|| sched.pop_due(at(u64::MAX / 2)))
        .map(|event| event.at.as_micros())
        .collect();
    assert_eq!(order, [region + 10, region + 5000]);
}

// ---------------------------------------------------------------------
// Blackout generation guard after a profile swap
// ---------------------------------------------------------------------

fn one_shot_blackout(start_s: u64, len_s: u64) -> ImpairmentSchedule {
    ImpairmentSchedule::clean().with(ImpairmentStage::Blackout {
        first_start: Duration::from_secs(start_s),
        every: Duration::ZERO,
        length: Duration::from_secs(len_s),
    })
}

/// Swapping one blackout schedule for another invalidates the old
/// generation's window events: only the *new* schedule's windows open.
#[test]
fn profile_swap_keeps_only_the_new_generations_windows() {
    let clock = SimClock::new();
    let medium = Medium::new(clock.clone(), 5);
    medium.set_impairment(one_shot_blackout(10, 5)); // gen 1: window [10, 15)
    medium.set_impairment(one_shot_blackout(20, 5)); // gen 2: window [20, 25)

    clock.advance(Duration::from_secs(12));
    assert!(!medium.in_blackout(), "stale gen-1 start opened a window");
    clock.advance(Duration::from_secs(9)); // t = 21 s
    assert!(medium.in_blackout(), "gen-2 window failed to open");
    clock.advance(Duration::from_secs(5)); // t = 26 s
    assert!(!medium.in_blackout(), "gen-2 window failed to close");
}

/// Swapping away mid-window recomputes the flag immediately, and the old
/// generation's pending `BlackoutEnd` is ignored when it surfaces.
#[test]
fn swapping_away_mid_window_clears_the_blackout_immediately() {
    let clock = SimClock::new();
    let medium = Medium::new(clock.clone(), 5);
    let a = medium.attach(0.0);
    let b = medium.attach(1.0);
    medium.set_impairment(one_shot_blackout(10, 5)); // window [10, 15)

    clock.advance(Duration::from_secs(12));
    assert!(medium.in_blackout());
    medium.set_impairment(ImpairmentSchedule::clean());
    assert!(!medium.in_blackout(), "swap did not recompute the flag");

    // The channel is live again right away...
    a.transmit(&[0x20]);
    assert_eq!(b.drain().len(), 1, "channel still silenced after swap");
    // ...and the stale gen-1 end event at t = 15 s changes nothing.
    clock.advance(Duration::from_secs(4)); // t = 16 s
    assert!(!medium.in_blackout());
    assert_eq!(medium.stats().blackout_drops, 0);
}

/// A stale `BlackoutEnd` from the replaced generation must not close a
/// window the *new* generation opened.
#[test]
fn stale_end_cannot_close_a_new_generations_window() {
    let clock = SimClock::new();
    let medium = Medium::new(clock.clone(), 5);
    medium.set_impairment(one_shot_blackout(10, 5)); // gen 1: [10, 15)
    clock.advance(Duration::from_secs(12));
    assert!(medium.in_blackout(), "gen-1 window open");

    // Replace mid-window with a schedule whose window spans now: the flag
    // is recomputed true under gen 2, window [11, 21).
    medium.set_impairment(one_shot_blackout(11, 10));
    assert!(medium.in_blackout(), "gen-2 window covers t = 12 s");

    // Gen 1's end event at t = 15 s surfaces here; the generation guard
    // must keep gen 2's window open.
    clock.advance(Duration::from_secs(4)); // t = 16 s
    assert!(medium.in_blackout(), "stale gen-1 end closed the gen-2 window");
    clock.advance(Duration::from_secs(6)); // t = 22 s
    assert!(!medium.in_blackout(), "gen-2 end failed to close its own window");
}

/// The named-profile path: swapping Adversarial (which scripts a periodic
/// blackout) for Clean before the first window must leave the channel
/// permanently clear — no stale periodic reschedule survives the swap.
#[test]
fn swapping_adversarial_for_clean_cancels_future_blackouts() {
    let clock = SimClock::new();
    let medium = Medium::new(clock.clone(), 5);
    medium.set_impairment(ImpairmentProfile::Adversarial.schedule());
    medium.set_impairment(ImpairmentProfile::Clean.schedule());

    // Adversarial's first window opens at t = 10 min for 30 s, repeating
    // every 30 min; sample well past several would-be windows.
    for _ in 0..8 {
        clock.advance(Duration::from_secs(15 * 60));
        assert!(!medium.in_blackout(), "stale adversarial window fired after swap to clean");
    }
    assert_eq!(medium.stats().blackout_drops, 0);
}
