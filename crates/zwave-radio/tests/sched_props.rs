//! Differential property tests for the event kernel. The sorted-scan
//! reference model below is the kernel's specification: any interleaving
//! of schedules (from sub-millisecond to years ahead, and in the past),
//! cancels (live, fired, double), and pops must behave exactly like it —
//! identical release order, identical `next_due`, identical live,
//! processed and peak-pending counts — in shallow queues and in queues
//! more than 500 events deep.

use proptest::prelude::*;

use zwave_radio::sched::{Delivery, EventKind, SimScheduler, TimerToken};
use zwave_radio::{SimClock, SimInstant};

/// One scheduled event in the reference model. The kernel's promises are
/// all about `(at, seq)` order, so the model just stores both and scans.
#[derive(Debug, Clone)]
struct ModelEv {
    at: u64,
    seq: u64,
    actor: usize,
    /// Timer id for timers, `None` for frames (frames carry `actor` as
    /// their payload instead).
    timer: Option<u64>,
    cancelled: bool,
}

#[derive(Debug, Default)]
struct Model {
    events: Vec<ModelEv>,
    next_seq: u64,
    next_timer: u64,
    processed: u64,
    /// High-water mark of `live()`, sampled after every operation.
    peak: usize,
}

impl Model {
    fn schedule(&mut self, at: u64, actor: usize, timer: bool) -> Option<u64> {
        let id = timer.then(|| {
            self.next_timer += 1;
            self.next_timer - 1
        });
        self.events.push(ModelEv { at, seq: self.next_seq, actor, timer: id, cancelled: false });
        self.next_seq += 1;
        id
    }

    /// Cancels the *pending* timer with this id, if it still exists
    /// (cancel-after-fire and double-cancel are no-ops, as in the kernel).
    fn cancel(&mut self, id: u64) {
        if let Some(ev) = self.events.iter_mut().find(|e| e.timer == Some(id) && !e.cancelled) {
            ev.cancelled = true;
        }
    }

    fn live(&self) -> usize {
        self.events.iter().filter(|e| !e.cancelled).count()
    }

    fn next_due(&self) -> Option<u64> {
        self.events.iter().filter(|e| !e.cancelled).map(|e| e.at).min()
    }

    /// Removes and returns `(at, seq, actor, timer)` of the earliest live
    /// event with `at <= target`, exactly the kernel's pop contract.
    fn pop_due(&mut self, target: u64) -> Option<(u64, u64, usize, Option<u64>)> {
        let idx = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.cancelled && e.at <= target)
            .min_by_key(|(_, e)| (e.at, e.seq))
            .map(|(i, _)| i)?;
        let ev = self.events.remove(idx);
        self.processed += 1;
        Some((ev.at, ev.seq, ev.actor, ev.timer))
    }
}

/// Operations decoded from raw `(tag, band, lo, hi)` tuples so the
/// generator needs nothing beyond tuple strategies. The band picks a
/// magnitude from sub-millisecond to years, and its parity sends half of
/// the timers behind the cursor (events scheduled in the past).
#[derive(Debug, Clone, Copy)]
enum Op {
    Timer { band: u8, val: u16 },
    Frame { band: u8, val: u16 },
    Cancel { pick: u16 },
    Advance { band: u8, val: u16 },
    Batch,
}

fn decode_op((tag, band, lo, hi): (u8, u8, u8, u8)) -> Op {
    let val = u16::from_le_bytes([lo, hi]);
    match tag % 8 {
        0 | 1 => Op::Timer { band, val },
        2 | 3 => Op::Frame { band, val },
        4 => Op::Cancel { pick: val },
        5 | 6 => Op::Advance { band, val },
        _ => Op::Batch,
    }
}

/// The S0-No-More shape: a flood of timers and frames armed ahead of the
/// cursor, with cancels, short advances and batches interleaved, so the
/// live queue grows past 500 events while every operation keeps running
/// against it. Even bands land ahead; these five skip the two smallest
/// magnitudes, so short advances release only a few of them.
fn decode_deep_op((tag, band, lo, hi): (u8, u8, u8, u8)) -> Op {
    let val = u16::from_le_bytes([lo, hi]);
    let ahead = [2, 4, 8, 10, 12][usize::from(band % 5)];
    match tag % 16 {
        0..=10 => Op::Timer { band: ahead, val },
        11 => Op::Timer { band: band | 1, val },
        12 => Op::Frame { band: ahead, val },
        13 => Op::Cancel { pick: val },
        14 => Op::Advance { band: 0, val },
        _ => Op::Batch,
    }
}

/// Maps `(band, val)` to a µs delta spanning every timer band the
/// simulation uses: sub-millisecond, ack timeouts, report timers, outage
/// waits, long recoveries, and years past any campaign budget.
fn band_delta(band: u8, val: u16) -> u64 {
    let v = u64::from(val);
    match band % 7 {
        0 => v % 1_024,         // under 1 ms
        1 => v,                 // up to 65 ms
        2 => v * 512,           // up to 33 s
        3 => v * 65_536,        // up to 71 min
        4 => v * 4_194_304,     // up to 3.2 days
        5 => v * 1_073_741_824, // up to 2.2 years
        _ => 1 + v % 100,       // dense same-instant collisions
    }
}

fn frame_kind(actor: usize) -> EventKind {
    EventKind::FrameArrival(vec![Delivery {
        station: actor,
        bytes: vec![actor as u8].into(),
        rssi_cdbm: -4000,
        duplicated: false,
        reorder_window: 0,
    }])
}

/// Drives the real kernel and the model through the ops, comparing every
/// released event and every observable counter after each step. Returns
/// the deepest the queue got.
fn check_lockstep(ops: impl IntoIterator<Item = Op>) -> Result<usize, String> {
    let sched = SimScheduler::new(SimClock::new());
    let mut model = Model::default();
    let mut tokens: Vec<TimerToken> = Vec::new();
    let mut cursor = 0u64;
    let mut actor = 0usize;

    for op in ops {
        match op {
            Op::Timer { band, val } => {
                // Half the bands schedule ahead, the "past" arm behind the
                // cursor, so they insert ahead of events already queued.
                let delta = band_delta(band, val);
                let at = if band % 2 == 0 { cursor + delta } else { cursor.saturating_sub(delta) };
                let token = sched.schedule_timer(SimInstant::from_micros(at), actor);
                let id = model.schedule(at, actor, true).expect("model issues timer ids");
                prop_assert_eq!(token.id(), id, "timer id stream diverged");
                tokens.push(token);
                actor += 1;
            }
            Op::Frame { band, val } => {
                let at = cursor + band_delta(band, val);
                sched.schedule(SimInstant::from_micros(at), actor, frame_kind(actor));
                model.schedule(at, actor, false);
                actor += 1;
            }
            Op::Cancel { pick } => {
                if !tokens.is_empty() {
                    let token = tokens[usize::from(pick) % tokens.len()];
                    sched.cancel_timer(token);
                    model.cancel(token.id());
                }
            }
            Op::Advance { band, val } => {
                cursor += band_delta(band, val);
                loop {
                    let got = sched.pop_due(SimInstant::from_micros(cursor));
                    let want = model.pop_due(cursor);
                    match (got, want) {
                        (None, None) => break,
                        (Some(ev), Some((at, seq, actor, timer))) => {
                            prop_assert_eq!(ev.at.as_micros(), at, "pop released wrong instant");
                            prop_assert_eq!(ev.seq, seq, "pop released wrong sequence");
                            prop_assert_eq!(ev.actor, actor, "pop released wrong actor");
                            match timer {
                                Some(id) => match ev.kind {
                                    EventKind::Timer(tok) => prop_assert_eq!(tok.id(), id),
                                    other => {
                                        return Err(format!("expected timer {id}, got {other:?}"))
                                    }
                                },
                                None => prop_assert_eq!(ev.kind, frame_kind(actor)),
                            }
                        }
                        (got, want) => {
                            return Err(format!("pop diverged: kernel {got:?} vs model {want:?}"))
                        }
                    }
                }
            }
            Op::Batch => {
                // One batch = every event of the earliest due instant, in
                // seq order; the model pops one-by-one at that instant.
                let mut batch = Vec::new();
                sched.pop_due_batch(SimInstant::from_micros(cursor), &mut batch);
                if let Some(first) = batch.first() {
                    let instant = first.at.as_micros();
                    for ev in &batch {
                        prop_assert_eq!(ev.at.as_micros(), instant, "batch crossed instants");
                        let (at, seq, _, _) =
                            model.pop_due(cursor).expect("model has the batched event");
                        prop_assert_eq!((ev.at.as_micros(), ev.seq), (at, seq));
                    }
                    // A batch is *complete*: nothing due at its instant
                    // may survive it on either side.
                    prop_assert!(
                        sched.next_due().is_none_or(|t| t.as_micros() > instant),
                        "kernel left a same-instant event behind after a batch"
                    );
                    prop_assert!(
                        model.next_due().is_none_or(|t| t > instant),
                        "model left a same-instant event behind after a batch"
                    );
                }
            }
        }
        prop_assert_eq!(
            sched.next_due().map(|t| t.as_micros()),
            model.next_due(),
            "next_due diverged"
        );
        prop_assert_eq!(sched.pending_events(), model.live(), "live count diverged");
        prop_assert_eq!(sched.events_processed(), model.processed, "processed count diverged");
        model.peak = model.peak.max(model.live());
        prop_assert_eq!(sched.stats().peak_pending, model.peak as u64, "peak diverged");
    }
    Ok(model.peak)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The kernel is observationally identical to a sorted-scan reference
    /// across every band, cancel pattern, and pop cadence.
    #[test]
    fn kernel_matches_sorted_scan_reference(
        raw_ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..64,
        ),
    ) {
        check_lockstep(raw_ops.into_iter().map(decode_op))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same equivalence in queues more than 500 events deep, the
    /// S0-No-More scenario's depth, with cancels interleaved throughout.
    #[test]
    fn deep_queues_match_sorted_scan_reference(
        raw_ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1_000..1_200,
        ),
    ) {
        let peak = check_lockstep(raw_ops.into_iter().map(decode_deep_op))?;
        prop_assert!(peak >= 500, "generator reached only {} live events", peak);
    }
}
