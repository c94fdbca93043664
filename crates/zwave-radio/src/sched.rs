//! Event-driven virtual time: the discrete-event kernel behind the
//! simulated radio stack.
//!
//! The seed implementation *polled*; PR 2 replaced that with a binary-heap
//! discrete-event queue; this revision replaces the heap with a
//! hierarchical timing wheel (Varghese–Lauck) sized for the workload's
//! real timer bands:
//!
//! | level | slots | tick quantum      | span      | covers                      |
//! |-------|-------|-------------------|-----------|-----------------------------|
//! | L0    | 512   | 2^10 µs ≈ 1 ms    | ≈ 524 ms  | 350 ms ack timeouts         |
//! | L1    | 64    | 2^19 µs ≈ 0.52 s  | ≈ 33.6 s  | report / wake timers        |
//! | L2    | 64    | 2^25 µs ≈ 33.6 s  | ≈ 35.8 m  | 45–300 s outage waits       |
//! | L3    | 64    | 2^31 µs ≈ 35.8 m  | ≈ 38.2 h  | 24 h campaign budgets       |
//! | OF    | list  | —                 | ∞         | far-future overflow         |
//!
//! `SHIFT[l+1] = SHIFT[l] + BITS[l]`, so one level-`l+1` slot covers
//! exactly one full rotation of level `l`: when the collection horizon
//! crosses into a higher-level slot, that slot's events *cascade* down and
//! always land in the lower level's fresh rotation. Events beyond even
//! L3's rotation park on the overflow list and are re-planted when the
//! horizon enters their 2^37 µs region.
//!
//! Event nodes live in a slab arena with an intrusive doubly-linked list
//! per slot and a free list, so schedule/cancel/fire recycle nodes instead
//! of allocating, and [`SimScheduler::cancel_timer`] unlinks its node in
//! place — O(1), no tombstones riding the queue (`pending_events` counts
//! live events only). Per-level occupancy bitmaps let the horizon skip
//! empty slots without iterating them.
//!
//! # Determinism
//!
//! Release order is *exactly* the heap's: globally ascending `(at, seq)`,
//! where `seq` is the monotone scheduling counter. The argument:
//!
//! - Collected-but-unreleased events sit in the `due` buffer, kept sorted
//!   by `(at, seq)`; every due event's `at` precedes the collection
//!   horizon, and every wheel-resident event's `at` is at or past it, so
//!   the due front is always the global minimum.
//! - Slots partition time into disjoint, increasing ranges and are drained
//!   in horizon order; each drained slot is sorted by `(at, seq)` before
//!   it is appended, which keeps `due` globally sorted.
//! - Events scheduled *behind* the horizon insert into `due` at their
//!   sorted position — precisely where the heap would surface them.
//!
//! Same-instant ties therefore always break by scheduling order, never by
//! wheel geometry, which keeps campaigns bit-identical across worker
//! counts and lets all committed golden traces replay unchanged.
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
/// traces journal. The private fields are the kernel's O(1) route back to
/// the timer's arena node: the node index plus the node generation that
/// was current when the timer was armed, so a token outliving its timer
/// (or its whole simulation, for a recycled kernel) can never cancel an
/// unrelated reuse of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken {
    id: u64,
    node: u32,
    gen: u32,
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
    /// Timers cancelled before firing (unlinked in place).
    pub cancelled: u64,
    /// Events currently live (scheduled, not yet released or cancelled).
    pub live: u64,
    /// High-water mark of `live` over the kernel's lifetime.
    pub peak_pending: u64,
    /// Filings per wheel level `[L0, L1, L2, L3, overflow]`, including
    /// cascade re-filings — the kernel-occupancy profile of the workload.
    pub level_filings: [u64; WHEEL_LEVELS + 1],
}

impl SchedStats {
    /// Counter deltas since an `earlier` snapshot of the same kernel.
    /// High-water and residency values (`live`, `peak_pending`) are
    /// carried over as-is: they are marks, not monotone tallies.
    pub fn since(&self, earlier: &SchedStats) -> SchedStats {
        let mut level_filings = [0u64; WHEEL_LEVELS + 1];
        for (level, delta) in level_filings.iter_mut().enumerate() {
            *delta = self.level_filings[level] - earlier.level_filings[level];
        }
        SchedStats {
            scheduled: self.scheduled - earlier.scheduled,
            processed: self.processed - earlier.processed,
            cancelled: self.cancelled - earlier.cancelled,
            live: self.live,
            peak_pending: self.peak_pending,
            level_filings,
        }
    }
}

/// Number of hierarchical wheel levels (the overflow list is extra).
pub const WHEEL_LEVELS: usize = 4;

/// Per-level slot-index shift: slot quantum is `2^SHIFT[level]` µs.
const SHIFT: [u32; WHEEL_LEVELS] = [10, 19, 25, 31];
/// Per-level slot-count bits (`SHIFT[l+1] = SHIFT[l] + BITS[l]`, so one
/// upper slot spans exactly one lower rotation — the cascade invariant).
const BITS: [u32; WHEEL_LEVELS] = [9, 6, 6, 6];
/// First flat-slot index of each level.
const SLOT_BASE: [usize; WHEEL_LEVELS] = [0, 512, 576, 640];
/// Flat slot count across all levels.
const WHEEL_SLOTS: usize = 704;
/// First occupancy-bitmap word of each level.
const WORD_BASE: [usize; WHEEL_LEVELS] = [0, 8, 9, 10];
/// Occupancy words overall (8 for L0's 512 slots, 1 per upper level).
const OCC_WORDS: usize = 11;
/// Everything at or beyond `2^TOP_SHIFT` µs past the horizon's region
/// start overflows (≈ 38 h).
const TOP_SHIFT: u32 = 37;

/// Null link / "node is free".
const NIL: u32 = u32::MAX;
/// `Node::home` for a node parked on the far-future overflow list (also
/// its index into `slots`, which makes unlinking uniform).
const HOME_OVERFLOW: u32 = WHEEL_SLOTS as u32;
/// `Node::home` for a node already collected into the due buffer.
const HOME_DUE: u32 = u32::MAX - 1;

/// One arena node: an event plus its intrusive links.
#[derive(Debug)]
struct Node {
    at: u64,
    seq: u64,
    actor: usize,
    kind: Option<EventKind>,
    prev: u32,
    next: u32,
    /// Wheel slot index, [`HOME_OVERFLOW`], [`HOME_DUE`], or [`NIL`] when
    /// the node is on the free list.
    home: u32,
    /// Bumped on every free; stale [`TimerToken`]s fail the match.
    gen: u32,
    /// Cancelled while sitting in the due buffer (freed when it
    /// surfaces; never counted as live or released).
    cancelled: bool,
}

impl Node {
    fn vacant() -> Self {
        Node {
            at: 0,
            seq: 0,
            actor: 0,
            kind: None,
            prev: NIL,
            next: NIL,
            home: NIL,
            gen: 0,
            cancelled: false,
        }
    }

    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// The wheel, arena and counters, shared by every handle through one
/// `RefCell`.
#[derive(Debug)]
struct SchedState {
    /// Intrusive list heads: one per wheel slot, plus the overflow list.
    slots: Vec<u32>,
    /// Per-level occupancy bitmaps (set bit = non-empty slot).
    occ: [u64; OCC_WORDS],
    /// Slab arena of event nodes, recycled through `free`.
    nodes: Vec<Node>,
    free: u32,
    /// Collected events awaiting release, sorted ascending by `(at, seq)`.
    due: VecDeque<u32>,
    /// All events with `at < collected_until` have been moved to `due`
    /// (or released); the wheel only holds events at or past it.
    collected_until: u64,
    /// Live nodes resident in wheel slots or overflow (excludes `due`).
    wheel_live: u64,
    /// Live nodes on the overflow list.
    overflow_live: u64,
    /// Live events overall (scheduled, not released, not cancelled).
    live: u64,
    next_seq: u64,
    next_token: u64,
    processed: u64,
    scheduled: u64,
    cancelled_count: u64,
    peak_pending: u64,
    filings: [u64; WHEEL_LEVELS + 1],
    /// Scratch for draining/cascading a slot (kept to avoid realloc).
    drain: Vec<u32>,
}

impl Default for SchedState {
    fn default() -> Self {
        SchedState {
            slots: vec![NIL; WHEEL_SLOTS + 1],
            occ: [0; OCC_WORDS],
            nodes: Vec::new(),
            free: NIL,
            due: VecDeque::new(),
            collected_until: 0,
            wheel_live: 0,
            overflow_live: 0,
            live: 0,
            next_seq: 0,
            next_token: 0,
            processed: 0,
            scheduled: 0,
            cancelled_count: 0,
            peak_pending: 0,
            filings: [0; WHEEL_LEVELS + 1],
            drain: Vec::new(),
        }
    }
}

fn level_of(home: u32) -> usize {
    match home {
        0..=511 => 0,
        512..=575 => 1,
        576..=639 => 2,
        _ => 3,
    }
}

impl SchedState {
    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            idx
        } else {
            self.nodes.push(Node::vacant());
            (self.nodes.len() - 1) as u32
        }
    }

    fn free_node(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.kind = None;
        node.gen = node.gen.wrapping_add(1);
        node.home = NIL;
        node.cancelled = false;
        node.prev = NIL;
        node.next = self.free;
        self.free = idx;
    }

    fn link(&mut self, idx: u32, home: u32) {
        let head = self.slots[home as usize];
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = head;
        node.home = home;
        if head != NIL {
            self.nodes[head as usize].prev = idx;
        }
        self.slots[home as usize] = idx;
    }

    /// Detaches a wheel-resident node from its slot list, maintaining the
    /// occupancy bitmap and residency counters. O(1).
    fn unlink(&mut self, idx: u32) {
        let (prev, next, home) = {
            let node = &self.nodes[idx as usize];
            (node.prev, node.next, node.home)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.slots[home as usize] = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        if home == HOME_OVERFLOW {
            self.overflow_live -= 1;
        } else if self.slots[home as usize] == NIL {
            let level = level_of(home);
            let slot = home as usize - SLOT_BASE[level];
            self.occ[WORD_BASE[level] + slot / 64] &= !(1u64 << (slot % 64));
        }
        self.wheel_live -= 1;
    }

    /// Files a node at its home for the current horizon: the lowest wheel
    /// level whose current rotation contains `at`, the overflow list when
    /// even L3's rotation ends first, or straight into the due buffer
    /// (sorted) when `at` is already behind the horizon.
    fn place(&mut self, idx: u32) {
        let at = self.nodes[idx as usize].at;
        let cu = self.collected_until;
        if at < cu {
            self.insert_due_sorted(idx);
            return;
        }
        for level in 0..WHEEL_LEVELS {
            let rotation = SHIFT[level] + BITS[level];
            if at >> rotation == cu >> rotation {
                let slot = ((at >> SHIFT[level]) as usize) & ((1usize << BITS[level]) - 1);
                self.link(idx, (SLOT_BASE[level] + slot) as u32);
                self.occ[WORD_BASE[level] + slot / 64] |= 1u64 << (slot % 64);
                self.filings[level] += 1;
                self.wheel_live += 1;
                return;
            }
        }
        self.link(idx, HOME_OVERFLOW);
        self.overflow_live += 1;
        self.wheel_live += 1;
        self.filings[WHEEL_LEVELS] += 1;
    }

    fn insert_due_sorted(&mut self, idx: u32) {
        let key = self.nodes[idx as usize].key();
        let nodes = &self.nodes;
        let pos = self.due.partition_point(|&i| nodes[i as usize].key() < key);
        self.nodes[idx as usize].home = HOME_DUE;
        self.due.insert(pos, idx);
    }

    /// First set slot at `level` with in-level index `>= from`, if any.
    fn find_set_from(&self, level: usize, from: usize) -> Option<usize> {
        let nslots = 1usize << BITS[level];
        if from >= nslots {
            return None;
        }
        let base = WORD_BASE[level];
        let words = nslots.div_ceil(64);
        let mut word_idx = from / 64;
        let mut word = self.occ[base + word_idx] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx >= words {
                return None;
            }
            word = self.occ[base + word_idx];
        }
    }

    /// Takes every node out of a slot into the drain scratch, clearing the
    /// slot and its occupancy bit. Returns the scratch (callers must put
    /// it back).
    fn take_slot(&mut self, level: usize, slot: usize) -> Vec<u32> {
        let mut drain = std::mem::take(&mut self.drain);
        drain.clear();
        let home = SLOT_BASE[level] + slot;
        let mut cur = self.slots[home];
        while cur != NIL {
            drain.push(cur);
            cur = self.nodes[cur as usize].next;
        }
        self.slots[home] = NIL;
        self.occ[WORD_BASE[level] + slot / 64] &= !(1u64 << (slot % 64));
        self.wheel_live -= drain.len() as u64;
        drain
    }

    /// Advances the collection horizon to the next occupied time range and
    /// moves its events into the due buffer (sorted). Must only be called
    /// with `wheel_live > 0`; one call drains exactly one L0 slot, running
    /// whatever cascades / overflow re-plants that requires.
    fn collect_step(&mut self) {
        loop {
            let cu = self.collected_until;
            // Upper-level slots the horizon has *entered* must be pulled
            // down first. Placement never files into a current slot (a
            // node sharing the current index shares the next-lower
            // level's rotation, so it lands lower), but a slot becomes
            // current whenever the horizon advances into it, and any
            // nodes filed there under an older horizon now belong at a
            // lower level. Re-placing strictly descends, so this settles.
            let mut redistributed = false;
            for level in 1..WHEEL_LEVELS {
                let idx = ((cu >> SHIFT[level]) as usize) & ((1usize << BITS[level]) - 1);
                if self.slots[SLOT_BASE[level] + idx] != NIL {
                    let drain = self.take_slot(level, idx);
                    for &i in &drain {
                        self.place(i);
                    }
                    self.drain = drain;
                    redistributed = true;
                    break;
                }
            }
            if redistributed {
                continue;
            }
            // L0: drain the next occupied slot of the current rotation.
            let idx0 = ((cu >> SHIFT[0]) as usize) & ((1usize << BITS[0]) - 1);
            if let Some(slot) = self.find_set_from(0, idx0) {
                let rotation = SHIFT[0] + BITS[0];
                let start = (cu >> rotation << rotation) + ((slot as u64) << SHIFT[0]);
                let mut drain = self.take_slot(0, slot);
                let nodes = &self.nodes;
                drain.sort_unstable_by_key(|&i| nodes[i as usize].key());
                for &i in &drain {
                    let node = &mut self.nodes[i as usize];
                    node.prev = NIL;
                    node.next = NIL;
                    node.home = HOME_DUE;
                    self.due.push_back(i);
                }
                self.drain = drain;
                self.collected_until = start + (1u64 << SHIFT[0]);
                // Draining a region's last L0 slot carries the horizon into
                // the next 2^37 µs region: overflow nodes filed there now
                // belong in the wheel, ahead of anything scheduled later.
                if self.overflow_live > 0 && self.collected_until >> TOP_SHIFT != cu >> TOP_SHIFT {
                    self.replant_overflow();
                }
                return;
            }
            // L1..L3: jump the horizon to the next occupied upper slot
            // and cascade it down. Current slots are empty here (drained
            // above), so the search starts past them; lowest level first
            // is earliest-first, because every occupied slot of level
            // `l`'s current rotation lies inside level `l+1`'s current
            // (empty) slot and therefore precedes any later `l+1` slot.
            let mut cascaded = false;
            for level in 1..WHEEL_LEVELS {
                let idx = ((cu >> SHIFT[level]) as usize) & ((1usize << BITS[level]) - 1);
                if let Some(slot) = self.find_set_from(level, idx + 1) {
                    let rotation = SHIFT[level] + BITS[level];
                    let start = (cu >> rotation << rotation) + ((slot as u64) << SHIFT[level]);
                    debug_assert!(start > cu, "cascade must advance the horizon");
                    self.collected_until = start;
                    let drain = self.take_slot(level, slot);
                    for &i in &drain {
                        self.place(i);
                    }
                    self.drain = drain;
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Every level is empty: jump the horizon to the overflow
            // list's earliest 2^37 µs region and re-plant it. The jump
            // can't skip anything: the wheel is empty, and overflow nodes
            // of the horizon's own region were re-planted when it entered
            // that region.
            debug_assert!(self.overflow_live > 0, "collect_step on an empty wheel");
            let mut min_at = u64::MAX;
            let mut cur = self.slots[HOME_OVERFLOW as usize];
            while cur != NIL {
                min_at = min_at.min(self.nodes[cur as usize].at);
                cur = self.nodes[cur as usize].next;
            }
            let region = min_at >> TOP_SHIFT << TOP_SHIFT;
            debug_assert!(region > cu, "overflow node behind the horizon");
            self.collected_until = region;
            self.replant_overflow();
        }
    }

    /// Re-files every overflow node against the current horizon: nodes of
    /// the horizon's region drop into the wheel levels, later ones go back
    /// on the overflow list.
    fn replant_overflow(&mut self) {
        let mut drain = std::mem::take(&mut self.drain);
        drain.clear();
        let mut cur = self.slots[HOME_OVERFLOW as usize];
        while cur != NIL {
            drain.push(cur);
            cur = self.nodes[cur as usize].next;
        }
        self.slots[HOME_OVERFLOW as usize] = NIL;
        self.overflow_live -= drain.len() as u64;
        self.wheel_live -= drain.len() as u64;
        for &i in &drain {
            self.place(i);
        }
        self.drain = drain;
    }

    /// Releases the earliest live event with `at <= target`, if any.
    fn pop_one(&mut self, target: u64) -> Option<Event> {
        loop {
            if let Some(&front) = self.due.front() {
                if self.nodes[front as usize].cancelled {
                    self.due.pop_front();
                    self.free_node(front);
                    continue;
                }
                if self.nodes[front as usize].at > target {
                    return None;
                }
                self.due.pop_front();
                let node = &mut self.nodes[front as usize];
                let event = Event {
                    at: SimInstant::from_micros(node.at),
                    seq: node.seq,
                    actor: node.actor,
                    kind: node.kind.take().expect("due node has a payload"),
                };
                self.free_node(front);
                self.processed += 1;
                self.live -= 1;
                return Some(event);
            }
            if self.wheel_live == 0 {
                return None;
            }
            self.collect_step();
        }
    }

    /// Frees every node and zeroes every counter, keeping the arena's
    /// allocations (slab, due buffer, drain scratch) for the next
    /// simulation. Generations advance, so stale tokens stay inert.
    fn reset(&mut self) {
        while let Some(idx) = self.due.pop_front() {
            self.free_node(idx);
        }
        for home in 0..=WHEEL_SLOTS {
            let mut cur = self.slots[home];
            self.slots[home] = NIL;
            while cur != NIL {
                let next = self.nodes[cur as usize].next;
                self.free_node(cur);
                cur = next;
            }
        }
        self.occ = [0; OCC_WORDS];
        self.collected_until = 0;
        self.wheel_live = 0;
        self.overflow_live = 0;
        self.live = 0;
        self.next_seq = 0;
        self.next_token = 0;
        self.processed = 0;
        self.scheduled = 0;
        self.cancelled_count = 0;
        self.peak_pending = 0;
        self.filings = [0; WHEEL_LEVELS + 1];
    }

    fn note_scheduled(&mut self) {
        self.scheduled += 1;
        self.live += 1;
        self.peak_pending = self.peak_pending.max(self.live);
    }

    /// A cheap lower bound on the earliest live event's instant, without
    /// collecting: the due front if one exists (it is the global minimum,
    /// though it may be a not-yet-freed cancelled node — still a valid
    /// bound), else the collection horizon (every wheel event is at or
    /// past it), else nothing pending.
    fn current_lower_bound(&self) -> u64 {
        match self.due.front() {
            Some(&front) => self.nodes[front as usize].at,
            None if self.wheel_live > 0 => self.collected_until,
            None => u64::MAX,
        }
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            scheduled: self.scheduled,
            processed: self.processed,
            cancelled: self.cancelled_count,
            live: self.live,
            peak_pending: self.peak_pending,
            level_filings: self.filings,
        }
    }
}

/// The discrete-event kernel driving one simulation. Cloning yields
/// another handle onto the same wheel; each campaign trial owns exactly
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
    /// Lower bound on the earliest live event's instant (`u64::MAX` when
    /// empty): always `<=` the true earliest, refreshed exactly where the
    /// state is borrowed mutably. [`SimScheduler::maybe_due`] reads it so
    /// the hot "is anything due yet?" probe — the overwhelming majority of
    /// a simulation's kernel queries — is one `Cell` load with no borrow.
    /// It is kept apart from `current_lower_bound()` on purpose: that
    /// bound can be looser, and a looser probe enters `pop_one` (and so
    /// collects wheel slots) earlier, which changes the level later
    /// events are filed at.
    earliest_lb: Rc<Cell<u64>>,
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
            earliest_lb: Rc::new(Cell::new(u64::MAX)),
        }
    }

    /// Rebinds this kernel to a fresh simulation on `clock`: every pending
    /// event is dropped, all counters restart from zero, but the arena
    /// (slab, due buffer, scratch) keeps its allocations. Sweep shards use
    /// this to run thousands of homes through one wheel without
    /// reallocating per home. The returned scheduler starts with no
    /// observer; outstanding handles and tokens from the previous
    /// simulation become inert.
    pub fn recycle(&self, clock: SimClock) -> SimScheduler {
        self.state.borrow_mut().reset();
        self.earliest_lb.set(u64::MAX);
        SimScheduler {
            state: Rc::clone(&self.state),
            observer: ObserverSlot::default(),
            clock,
            earliest_lb: Rc::clone(&self.earliest_lb),
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
        let mut state = self.state.borrow_mut();
        let seq = state.next_seq;
        state.next_seq += 1;
        let idx = state.alloc();
        {
            let node = &mut state.nodes[idx as usize];
            node.at = at.as_micros();
            node.seq = seq;
            node.actor = actor;
            node.kind = Some(kind);
        }
        state.note_scheduled();
        state.place(idx);
        self.earliest_lb.set(self.earliest_lb.get().min(at.as_micros()));
        seq
    }

    /// Schedules a cancellable wakeup timer for `actor` at `at`.
    pub fn schedule_timer(&self, at: SimInstant, actor: usize) -> TimerToken {
        let mut state = self.state.borrow_mut();
        let id = state.next_token;
        state.next_token += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        let idx = state.alloc();
        let token = TimerToken { id, node: idx, gen: state.nodes[idx as usize].gen };
        {
            let node = &mut state.nodes[idx as usize];
            node.at = at.as_micros();
            node.seq = seq;
            node.actor = actor;
            node.kind = Some(EventKind::Timer(token));
        }
        state.note_scheduled();
        state.place(idx);
        self.earliest_lb.set(self.earliest_lb.get().min(at.as_micros()));
        token
    }

    /// Cancels a timer: O(1), unlinked from its wheel slot in place (a
    /// timer already collected for release is marked and skipped). A
    /// fired, already-cancelled, or stale token is a harmless no-op — the
    /// node generation in the token no longer matches.
    pub fn cancel_timer(&self, token: TimerToken) {
        let mut state = self.state.borrow_mut();
        let Some(node) = state.nodes.get(token.node as usize) else { return };
        if node.gen != token.gen {
            return;
        }
        match node.home {
            HOME_DUE => {
                if !state.nodes[token.node as usize].cancelled {
                    state.nodes[token.node as usize].cancelled = true;
                    state.live -= 1;
                    state.cancelled_count += 1;
                }
            }
            NIL => {}
            _ => {
                state.unlink(token.node);
                state.free_node(token.node);
                state.live -= 1;
                state.cancelled_count += 1;
            }
        }
    }

    /// The instant of the earliest live event, if any.
    pub fn next_due(&self) -> Option<SimInstant> {
        let mut state = self.state.borrow_mut();
        loop {
            if let Some(&front) = state.due.front() {
                if state.nodes[front as usize].cancelled {
                    state.due.pop_front();
                    state.free_node(front);
                    continue;
                }
                let at = state.nodes[front as usize].at;
                self.earliest_lb.set(at);
                return Some(SimInstant::from_micros(at));
            }
            if state.wheel_live == 0 {
                self.earliest_lb.set(u64::MAX);
                return None;
            }
            state.collect_step();
        }
    }

    /// Borrow-free probe: `false` *guarantees* no live event is due at or
    /// before `target`; `true` means one might be (confirm via
    /// [`SimScheduler::pop_due`] or friends). The bound behind this is
    /// refreshed by every call that mutates the wheel, so the simulation
    /// never misses a due event — this is the hot-path early-out for the
    /// "anything due yet?" queries that dominate a campaign's kernel
    /// traffic.
    pub fn maybe_due(&self, target: SimInstant) -> bool {
        self.earliest_lb.get() <= target.as_micros()
    }

    /// Pops the earliest live event with `at <= target`. Events at equal
    /// instants release in scheduling order. An attached [`EventObserver`]
    /// is notified of the released event (after the state borrow is
    /// released, so observers may query the scheduler).
    pub fn pop_due(&self, target: SimInstant) -> Option<Event> {
        let event = {
            let mut state = self.state.borrow_mut();
            let event = state.pop_one(target.as_micros());
            self.earliest_lb.set(state.current_lower_bound());
            event
        };
        if let Some(ev) = &event {
            let observer = self.observer.0.borrow().clone();
            if let Some(observer) = observer {
                observer.event_dequeued(ev);
            }
        }
        event
    }

    /// Drains every due event sharing the *earliest* due instant `<=
    /// target` into `out` under one state borrow; returns how many
    /// were appended. Events scheduled *by the caller while applying the
    /// batch* land in the next batch (they carry higher sequence numbers),
    /// so batched dispatch releases exactly the heap's order. The observer
    /// is notified per event, in order, after the borrow is released.
    pub fn pop_due_batch(&self, target: SimInstant, out: &mut Vec<Event>) -> usize {
        let start = out.len();
        {
            let mut state = self.state.borrow_mut();
            let target = target.as_micros();
            if let Some(first) = state.pop_one(target) {
                let instant = first.at.as_micros();
                out.push(first);
                // Same-instant peers are necessarily in the due buffer
                // already: one L0 slot holds the whole instant and was
                // drained as a unit (past-scheduled stragglers are
                // sorted in as well).
                while let Some(&front) = state.due.front() {
                    let node = &state.nodes[front as usize];
                    if node.cancelled {
                        state.due.pop_front();
                        state.free_node(front);
                        continue;
                    }
                    if node.at != instant {
                        break;
                    }
                    state.due.pop_front();
                    let node = &mut state.nodes[front as usize];
                    let event = Event {
                        at: SimInstant::from_micros(node.at),
                        seq: node.seq,
                        actor: node.actor,
                        kind: node.kind.take().expect("due node has a payload"),
                    };
                    state.free_node(front);
                    state.processed += 1;
                    state.live -= 1;
                    out.push(event);
                }
            }
            self.earliest_lb.set(state.current_lower_bound());
        }
        let popped = out.len() - start;
        if popped > 0 {
            let observer = self.observer.0.borrow().clone();
            if let Some(observer) = observer {
                for event in &out[start..] {
                    observer.event_dequeued(event);
                }
            }
        }
        popped
    }

    /// Total events released so far (the simulation's event throughput).
    pub fn events_processed(&self) -> u64 {
        self.state.borrow().processed
    }

    /// Number of *live* events currently queued. Cancelled timers leave
    /// the count immediately — there are no tombstones to surface.
    pub fn pending_events(&self) -> usize {
        self.state.borrow().live as usize
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
        // release must follow scheduling order, not actor id or slot shape.
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
        // One event per wheel band (L0 ack timeout, L1 report timer, L2
        // outage wait, L3 long recovery, overflow far-future), scheduled
        // in shuffled order; release must be globally time-sorted.
        let sched = SimScheduler::new(SimClock::new());
        let us = [
            45_000_000_000u64, // 12.5 h -> L3
            350_000,           // 350 ms -> L0
            300_000_000,       // 300 s  -> L2
            200_000_000_000,   // 55.6 h -> overflow
            5_000_000,         // 5 s    -> L1
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
        let filings = sched.stats().level_filings;
        assert!(filings[WHEEL_LEVELS] >= 1, "far-future event never parked in overflow");
        assert!(filings[0] >= us.len() as u64, "every event cascades down to L0 eventually");
    }

    #[test]
    fn events_parked_in_a_slot_the_horizon_enters_are_still_released() {
        // A node filed into upper-level slot `k` while the horizon was
        // elsewhere must not go dark when the horizon later advances
        // *into* slot `k`: entering a slot demotes its nodes to a lower
        // level rather than letting the past-the-current-index cascade
        // search skip them. B's release moves the horizon to exactly
        // 2^19 µs (making A's L1 slot current); D's release moves it to
        // exactly 2^25 µs (making C's L2 slot current).
        let sched = SimScheduler::new(SimClock::new());
        let a = 600_000u64; //             L1 slot 1
        let b = 524_000u64; //             L0 slot 511, last of rotation 0
        let c = 40_000_000u64; //          L2 slot 1
        let d = 33_554_000u64; //          L1 slot 63, last 1024 us of L2 slot 0
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
        // pop that advances the horizon: seq order must still win.
        let sched = SimScheduler::new(SimClock::new());
        sched.schedule(at(2_000_000), 5, EventKind::FrameArrival(Vec::new()));
        sched.schedule(at(1_000), 0, EventKind::FrameArrival(Vec::new()));
        assert_eq!(sched.pop_due(at(1_000)).unwrap().actor, 0);
        // The horizon has collected past 2 s; a late same-instant peer and
        // an earlier straggler both insert at their sorted positions.
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
    fn recycle_resets_identity_but_keeps_the_arena() {
        let sched = SimScheduler::new(SimClock::new());
        let stale = sched.schedule_timer(at(100), 1);
        sched.schedule(at(50), 0, EventKind::FrameArrival(Vec::new()));
        assert!(sched.pop_due(at(60)).is_some());
        let fresh = sched.recycle(SimClock::new());
        assert_eq!(fresh.pending_events(), 0);
        assert_eq!(fresh.events_processed(), 0);
        assert_eq!(fresh.stats(), SchedStats::default());
        // Token and sequence streams restart exactly like a new kernel's.
        let token = fresh.schedule_timer(at(10), 0);
        assert_eq!(token.id(), 0);
        assert_eq!(fresh.schedule(at(20), 0, EventKind::FrameArrival(Vec::new())), 1);
        // A stale token from the previous simulation must not cancel the
        // recycled node now occupying its arena slot.
        fresh.cancel_timer(stale);
        assert_eq!(fresh.pending_events(), 2);
        let fired: Vec<Event> = std::iter::from_fn(|| fresh.pop_due(at(1_000))).collect();
        assert_eq!(fired.len(), 2);
    }

    #[test]
    fn stats_track_peak_live_and_filings() {
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
        assert_eq!(stats.level_filings[0], 3);
    }
}
