//! The shared RF medium: broadcast delivery with per-receiver impairments,
//! promiscuous sniffing, airtime accounting on the virtual clock, and
//! transmission statistics.
//!
//! # Event-driven delivery
//!
//! Transmission is split in two on the [`SimScheduler`]:
//!
//! - **Transmit time** decides everything random. The frame is serialized
//!   onto the channel (`arrival = max(now, air_busy_until) + airtime`),
//!   the Gilbert–Elliott state steps once, and every per-receiver outcome
//!   (loss, corruption, duplication, reorder window) is drawn from RNGs
//!   keyed on `(seed, frame index, receiver)` — never on call order. The
//!   surviving deliveries ride a single [`EventKind::FrameArrival`] event.
//! - **Arrival time** (any receive-side query) releases due events and
//!   merely enqueues the pre-computed bytes at each receiver.
//!
//! Crucially the shared clock does *not* move inside `transmit`: two
//! stations transmitting back-to-back from the same handler observe the
//! same `now`, and their frames serialize on `air_busy_until` in transmit
//! order. Queries (`recv_where`, `drain`, `pending`, `stats`) first *flush*:
//! they release every event due by `max(now, air_busy_until)` and advance
//! the clock there, so receive-side observers still see airtime-accounted
//! time exactly as before.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use rand::Rng;

use crate::clock::{SimClock, SimInstant};
use crate::framebuf::FrameBuf;
use crate::impairment::{delivery_rng, frame_rng, ImpairmentSchedule, ImpairmentStage};
use crate::noise::{rssi_dbm, NoiseModel};
use crate::region::Region;
use crate::sched::{Delivery, Event, EventKind, SimScheduler, TimerToken};

/// Default on-air data rate: Z-Wave R2, 40 kbit/s.
pub const DEFAULT_BITRATE: u32 = 40_000;

/// Frames a station's receive queue holds before the oldest is dropped,
/// modelling a transceiver's finite rx ring. Actively-serviced radios
/// never come close (they drain every poll); the cap matters for stations
/// nobody services — a passive sniffer left attached through a fuzzing
/// campaign would otherwise pin every frame the campaign ever broadcast,
/// and with shared [`FrameBuf`] deliveries that keeps each frame's
/// allocation alive, so memory would grow with campaign length.
pub const RX_QUEUE_CAP: usize = 512;

/// Emptied delivery lists the medium keeps for reuse by `transmit`. The
/// channel serializes frames and every receive-side query releases the
/// due arrivals, so only a few frames are ever in flight at once.
const SPARE_DELIVERY_LISTS: usize = 8;

/// A frame as received by one station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxFrame {
    /// Raw frame bytes as they arrived (possibly corrupted). Shared with
    /// every other receiver of the same uncorrupted transmission.
    pub bytes: FrameBuf,
    /// Simulated arrival time.
    pub at: SimInstant,
    /// Received signal strength in centi-dBm (scaled to keep `Eq`).
    pub rssi_cdbm: i32,
}

/// Aggregate medium statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Frames handed to the medium for transmission.
    pub frames_sent: u64,
    /// Per-receiver deliveries that succeeded (including duplicates).
    pub deliveries: u64,
    /// Per-receiver deliveries lost to the channel.
    pub losses: u64,
    /// Delivered frames that suffered byte corruption (noise or bit flips).
    pub corruptions: u64,
    /// Extra copies delivered by a duplication stage.
    pub duplicates: u64,
    /// Deliveries that jumped ahead of already-queued frames.
    pub reorders: u64,
    /// Deliveries truncated to a strict prefix.
    pub truncations: u64,
    /// Per-receiver deliveries suppressed by a blackout window.
    pub blackout_drops: u64,
    /// Delivered frames evicted unread from a full receive queue
    /// (the station's rx ring overflowed; see [`RX_QUEUE_CAP`]).
    pub rx_overflows: u64,
}

impl MediumStats {
    /// Absorbs another medium's counters into this one, component-wise and
    /// saturating. Addition over `u64` is commutative and associative, so
    /// absorbing N per-shard snapshots yields the same aggregate for any
    /// absorption order — the invariant that keeps a sharded sweep's
    /// channel accounting bit-identical across worker counts (pinned by
    /// `tests/stats_props.rs`).
    pub fn merge(&mut self, other: &MediumStats) {
        self.frames_sent = self.frames_sent.saturating_add(other.frames_sent);
        self.deliveries = self.deliveries.saturating_add(other.deliveries);
        self.losses = self.losses.saturating_add(other.losses);
        self.corruptions = self.corruptions.saturating_add(other.corruptions);
        self.duplicates = self.duplicates.saturating_add(other.duplicates);
        self.reorders = self.reorders.saturating_add(other.reorders);
        self.truncations = self.truncations.saturating_add(other.truncations);
        self.blackout_drops = self.blackout_drops.saturating_add(other.blackout_drops);
        self.rx_overflows = self.rx_overflows.saturating_add(other.rx_overflows);
    }

    /// Component-wise difference vs an earlier snapshot (saturating, so a
    /// medium reset between snapshots yields zeros rather than wrapping).
    pub fn since(&self, earlier: &MediumStats) -> MediumStats {
        MediumStats {
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            deliveries: self.deliveries.saturating_sub(earlier.deliveries),
            losses: self.losses.saturating_sub(earlier.losses),
            corruptions: self.corruptions.saturating_sub(earlier.corruptions),
            duplicates: self.duplicates.saturating_sub(earlier.duplicates),
            reorders: self.reorders.saturating_sub(earlier.reorders),
            truncations: self.truncations.saturating_sub(earlier.truncations),
            blackout_drops: self.blackout_drops.saturating_sub(earlier.blackout_drops),
            rx_overflows: self.rx_overflows.saturating_sub(earlier.rx_overflows),
        }
    }
}

#[derive(Debug)]
struct Station {
    queue: VecDeque<RxFrame>,
    position_m: f64,
    enabled: bool,
    region: Region,
    /// Frames this station's full rx ring evicted unread (its share of
    /// [`MediumStats::rx_overflows`]).
    rx_overflows: u64,
}

#[derive(Debug)]
struct MediumInner {
    stations: Vec<Station>,
    noise: NoiseModel,
    seed: u64,
    impairment: ImpairmentSchedule,
    /// Current Gilbert–Elliott channel state (true = bad/bursty state),
    /// shared by all receivers and advanced once per transmitted frame.
    ge_bad: bool,
    stats: MediumStats,
    bitrate: u32,
    /// Station indices whose wakeup timers fired, in fire order.
    fired: Vec<usize>,
    /// Whether a scripted blackout window is currently open (maintained by
    /// `BlackoutStart`/`BlackoutEnd` events).
    in_blackout: bool,
    /// Bumped by every `set_impairment`; blackout events from older
    /// generations are ignored when they surface.
    blackout_gen: u64,
    /// The event batch `drain_due` releases into, kept between flushes.
    /// Taken out for the drain and put back after it, so a flush nested
    /// inside an apply finds an empty slot and builds its own batch.
    batch: Vec<Event>,
    /// Emptied delivery lists of applied frame arrivals, reused by
    /// `transmit` (at most [`SPARE_DELIVERY_LISTS`]).
    spare_deliveries: Vec<Vec<Delivery>>,
}

/// The shared radio medium. Cloning yields another handle to the same air.
///
/// The handles share `Rc<RefCell<_>>` state, so a medium (like the home it
/// carries) is `!Send`: it is built and run on one thread.
#[derive(Debug, Clone)]
pub struct Medium {
    inner: Rc<RefCell<MediumInner>>,
    sched: SimScheduler,
    clock: SimClock,
    /// Microseconds until which the channel is occupied; transmissions
    /// serialize behind it, and queries flush (at least) up to it. A
    /// `Cell` apart from `inner` (written only by `transmit`) so the
    /// per-query `flush` probe is one load with no borrow.
    air_busy_until: Rc<Cell<u64>>,
}

impl Medium {
    /// Creates a clean medium on `clock` with a deterministic RNG seed.
    pub fn new(clock: SimClock, seed: u64) -> Self {
        Medium::with_noise(clock, seed, NoiseModel::clean())
    }

    /// Creates a medium with an explicit impairment model.
    pub fn with_noise(clock: SimClock, seed: u64, noise: NoiseModel) -> Self {
        Medium::with_scheduler(seed, noise, SimScheduler::new(clock))
    }

    /// Creates a clean medium driven by an existing (typically recycled)
    /// scheduler kernel; the medium runs on the kernel's clock. Sweep
    /// shards use this to reuse one kernel and its queue across the homes they
    /// step instead of reallocating per home.
    pub fn with_recycled(seed: u64, sched: SimScheduler) -> Self {
        Medium::with_scheduler(seed, NoiseModel::clean(), sched)
    }

    fn with_scheduler(seed: u64, noise: NoiseModel, sched: SimScheduler) -> Self {
        let clock = sched.clock().clone();
        Medium {
            inner: Rc::new(RefCell::new(MediumInner {
                stations: Vec::new(),
                noise,
                seed,
                impairment: ImpairmentSchedule::clean(),
                ge_bad: false,
                stats: MediumStats::default(),
                bitrate: DEFAULT_BITRATE,
                fired: Vec::new(),
                in_blackout: false,
                blackout_gen: 0,
                batch: Vec::new(),
                spare_deliveries: Vec::new(),
            })),
            sched,
            clock,
            air_busy_until: Rc::new(Cell::new(0)),
        }
    }

    /// The virtual clock this medium advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The discrete-event scheduler driving this medium's simulation.
    pub fn scheduler(&self) -> &SimScheduler {
        &self.sched
    }

    /// Attaches a new transceiver at `position_m` metres from the origin,
    /// tuned to the default EU region.
    pub fn attach(&self, position_m: f64) -> Transceiver {
        self.attach_with_region(position_m, Region::default())
    }

    /// Attaches a transceiver tuned to an explicit RF region; radios in
    /// different regions cannot hear each other.
    pub fn attach_with_region(&self, position_m: f64, region: Region) -> Transceiver {
        let mut inner = self.inner.borrow_mut();
        inner.stations.push(Station {
            queue: VecDeque::new(),
            position_m,
            enabled: true,
            region,
            rx_overflows: 0,
        });
        Transceiver { medium: self.clone(), index: inner.stations.len() - 1 }
    }

    /// Replaces the impairment model.
    pub fn set_noise(&self, noise: NoiseModel) {
        self.inner.borrow_mut().noise = noise;
    }

    /// Installs a composable impairment schedule, resetting the bursty
    /// channel to its good state and (re)scripting blackout window events.
    pub fn set_impairment(&self, schedule: ImpairmentSchedule) {
        let mut inner = self.inner.borrow_mut();
        inner.impairment = schedule;
        inner.ge_bad = false;
        inner.blackout_gen += 1;
        let generation = inner.blackout_gen;
        let now = self.clock.now().as_micros();
        inner.in_blackout = inner.impairment.blacked_out(now);
        let blackouts: Vec<(usize, ImpairmentStage)> = inner
            .impairment
            .stages()
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, s)| matches!(s, ImpairmentStage::Blackout { .. }))
            .collect();
        drop(inner);
        for (stage_idx, stage) in blackouts {
            self.schedule_blackout_window(generation, stage_idx, &stage, now);
        }
    }

    /// Schedules the `BlackoutStart`/`BlackoutEnd` pair for the first
    /// window of `stage` whose end lies after `from_micros` (if any).
    fn schedule_blackout_window(
        &self,
        generation: u64,
        stage_idx: usize,
        stage: &ImpairmentStage,
        from_micros: u64,
    ) {
        let ImpairmentStage::Blackout { first_start, every, length } = stage else {
            return;
        };
        let start = first_start.as_micros() as u64;
        let len = length.as_micros() as u64;
        let period = every.as_micros() as u64;
        let k = match from_micros.saturating_sub(start).checked_div(period) {
            None => {
                // period == 0: a one-shot window.
                if start + len <= from_micros {
                    return; // already over
                }
                0
            }
            Some(mut k) => {
                if start + k * period + len <= from_micros {
                    k += 1;
                }
                k
            }
        };
        let w_start = SimInstant::from_micros(start + k * period);
        let w_end = SimInstant::from_micros(start + k * period + len);
        self.sched.schedule(
            w_start,
            SimScheduler::MEDIUM_ACTOR,
            EventKind::BlackoutStart { generation, stage: stage_idx },
        );
        self.sched.schedule(
            w_end,
            SimScheduler::MEDIUM_ACTOR,
            EventKind::BlackoutEnd { generation, stage: stage_idx },
        );
    }

    /// Whether a scripted blackout window is open right now.
    pub fn in_blackout(&self) -> bool {
        self.flush();
        self.inner.borrow().in_blackout
    }

    /// Current statistics snapshot (flushes in-flight frames first).
    pub fn stats(&self) -> MediumStats {
        self.flush();
        self.inner.borrow().stats
    }

    /// Releases every event due by `max(now, air_busy_until)` and advances
    /// the clock there. Idempotent; called by every receive-side query.
    ///
    /// Dispatch is batched: each kernel borrow drains *all* events sharing
    /// the next due instant, then applies them after the borrow ends.
    /// Events an apply schedules (a periodic blackout window's
    /// successor, say) carry higher sequence numbers and surface in a
    /// later batch, so the release order is exactly the per-event one.
    fn flush(&self) {
        let air_busy = SimInstant::from_micros(self.air_busy_until.get());
        let now = self.clock.now();
        let target = now.max(air_busy);
        // The borrow-free probe keeps the (dominant) nothing-due flushes
        // off the kernel state entirely.
        if self.sched.maybe_due(target) {
            self.drain_due(target);
        }
        // Time never runs backwards, so an idle channel has nothing to
        // advance: skip the clock store.
        if target > now {
            self.clock.advance_to(target);
        }
    }

    /// Applies every due event up to `target` in same-instant batches,
    /// into the medium's one batch buffer: after the first few flushes no
    /// flush allocates.
    fn drain_due(&self, target: SimInstant) {
        let mut batch = std::mem::take(&mut self.inner.borrow_mut().batch);
        while self.sched.pop_due_batch(target, &mut batch) > 0 {
            for event in batch.drain(..) {
                self.apply(event);
            }
        }
        self.inner.borrow_mut().batch = batch;
    }

    /// Applies one released event to the medium state.
    fn apply(&self, event: Event) {
        match event.kind {
            EventKind::FrameArrival(mut deliveries) => {
                let mut inner = self.inner.borrow_mut();
                let MediumInner { stations, stats, spare_deliveries, .. } = &mut *inner;
                for d in deliveries.drain(..) {
                    let station = &mut stations[d.station];
                    let frame = RxFrame { bytes: d.bytes, at: event.at, rssi_cdbm: d.rssi_cdbm };
                    // Bounded reordering: the frame jumps ahead of at most
                    // `reorder_window` already-queued frames.
                    let at = station.queue.len().saturating_sub(d.reorder_window);
                    if at < station.queue.len() {
                        stats.reorders += 1;
                    }
                    stats.deliveries += 1;
                    if d.duplicated {
                        stats.duplicates += 1;
                        stats.deliveries += 1;
                        station.queue.insert(at, frame.clone());
                        station.queue.insert(at + 1, frame);
                    } else {
                        station.queue.insert(at, frame);
                    }
                    // Finite rx ring: an unserviced station sheds its
                    // oldest frames rather than pinning every broadcast
                    // for the lifetime of the run.
                    while station.queue.len() > RX_QUEUE_CAP {
                        station.queue.pop_front();
                        station.rx_overflows += 1;
                        stats.rx_overflows += 1;
                    }
                }
                if spare_deliveries.len() < SPARE_DELIVERY_LISTS {
                    spare_deliveries.push(deliveries);
                }
            }
            EventKind::Timer(_) => self.inner.borrow_mut().fired.push(event.actor),
            EventKind::BlackoutStart { generation, .. } => {
                let mut inner = self.inner.borrow_mut();
                if generation == inner.blackout_gen {
                    inner.in_blackout = true;
                }
            }
            EventKind::BlackoutEnd { generation, stage } => {
                let (reschedule, stage_params) = {
                    let mut inner = self.inner.borrow_mut();
                    if generation != inner.blackout_gen {
                        (false, None)
                    } else {
                        inner.in_blackout = inner.impairment.blacked_out(event.at.as_micros());
                        (true, inner.impairment.stages().get(stage).copied())
                    }
                };
                if reschedule {
                    if let Some(params) = stage_params {
                        self.schedule_blackout_window(
                            generation,
                            stage,
                            &params,
                            event.at.as_micros(),
                        );
                    }
                }
            }
        }
    }

    /// Hops virtual time forward to the next scheduled event, releasing it
    /// — or to `cap` when nothing is due before then. Returns whether an
    /// event was released. This is the "one event hop" primitive that lets
    /// idle-heavy waits (outage recovery, quiet periods) skip dead time.
    pub fn advance_to_next_wakeup(&self, cap: SimInstant) -> bool {
        self.flush();
        match self.sched.next_due() {
            Some(at) if at <= cap => {
                self.drain_due(at);
                self.clock.advance_to(at);
                true
            }
            _ => {
                self.clock.advance_to(cap);
                false
            }
        }
    }

    /// Drains the list of stations whose wakeup timers have fired
    /// (flushing due events first). Each station appears at most once, in
    /// first-fire order.
    pub fn take_fired_actors(&self) -> Vec<usize> {
        self.flush();
        let fired = std::mem::take(&mut self.inner.borrow_mut().fired);
        let mut unique = Vec::with_capacity(fired.len());
        for actor in fired {
            if !unique.contains(&actor) {
                unique.push(actor);
            }
        }
        unique
    }

    /// Serializes the frame onto the channel and schedules its arrival;
    /// returns the arrival instant. Every random outcome is decided here,
    /// from RNGs keyed on `(seed, frame index, receiver)`.
    ///
    /// Receivers share `frame`'s allocation: on a clean channel an
    /// N-receiver broadcast is N reference-count bumps, and only an
    /// impairment that actually rewrites bytes pays for a private copy.
    fn transmit(&self, from: usize, frame: &FrameBuf) -> SimInstant {
        let bits = (frame.len() as u64) * 8;
        let mut inner = self.inner.borrow_mut();
        let airtime = Duration::from_micros(bits * 1_000_000 / inner.bitrate as u64);
        // The channel is half-duplex: frames serialize in transmit order
        // behind whatever is already in flight. The shared clock does NOT
        // move here — mid-handler transmit order can never skew time.
        let air_busy = SimInstant::from_micros(self.air_busy_until.get());
        let start = self.clock.now().max(air_busy);
        let arrival = start.plus(airtime);
        self.air_busy_until.set(arrival.as_micros());

        let frame_index = inner.stats.frames_sent;
        inner.stats.frames_sent += 1;
        let tx_pos = inner.stations[from].position_m;
        let tx_region = inner.stations[from].region;
        let noise = inner.noise;
        let seed = inner.seed;

        // Advance the shared Gilbert–Elliott state exactly once per frame,
        // from an RNG keyed on (seed, frame index) — never on call order.
        if let Some(ge) = inner.impairment.gilbert_elliott() {
            let mut rng = frame_rng(seed, frame_index);
            inner.ge_bad = ge.step(inner.ge_bad, &mut rng);
        }
        let ge_bad = inner.ge_bad;
        let blacked_out = inner.impairment.blacked_out(arrival.as_micros());
        // With no stage and a noise model that can neither lose nor
        // corrupt, no receiver would draw from its RNG: every receiver gets
        // the shared frame unchanged.
        let clean = inner.impairment.is_clean() && noise.is_clean();

        // Split borrows: stats updated while iterating stations.
        let MediumInner { stations, stats, impairment, spare_deliveries, .. } = &mut *inner;
        let mut deliveries = spare_deliveries.pop().unwrap_or_default();
        deliveries.reserve(stations.len());
        for (i, station) in stations.iter().enumerate() {
            if i == from || !station.enabled || !station.region.interoperates_with(tx_region) {
                continue;
            }
            if blacked_out {
                stats.blackout_drops += 1;
                continue;
            }
            let distance = (station.position_m - tx_pos).abs();
            let rssi_cdbm = (rssi_dbm(distance) * 100.0) as i32;
            if clean {
                deliveries.push(Delivery {
                    station: i,
                    bytes: frame.clone(),
                    rssi_cdbm,
                    duplicated: false,
                    reorder_window: 0,
                });
                continue;
            }
            // Every random outcome at this receiver derives from
            // (seed, frame index, receiver index): deterministic regardless
            // of how many draws other frames or receivers consumed.
            let mut rng = delivery_rng(seed, frame_index, i as u64);
            if noise.roll_loss(&mut rng, distance) {
                stats.losses += 1;
                continue;
            }
            let mut delivered = frame.clone();
            let mut corrupted = false;
            if let Some((idx, flip)) = noise.corruption_plan(&mut rng, delivered.len()) {
                delivered.make_mut()[idx] ^= flip;
                corrupted = true;
            }
            let mut lost = false;
            let mut duplicated = false;
            let mut reorder_window = 0usize;
            for stage in impairment.stages() {
                match *stage {
                    ImpairmentStage::Loss { probability } => {
                        lost |= probability > 0.0 && rng.gen_bool(probability.min(1.0));
                    }
                    ImpairmentStage::BurstyLoss(ge) => {
                        lost |= ge.roll_loss(ge_bad, &mut rng);
                    }
                    ImpairmentStage::Duplicate { probability } => {
                        duplicated |= probability > 0.0 && rng.gen_bool(probability.min(1.0));
                    }
                    ImpairmentStage::Reorder { probability, window } => {
                        if probability > 0.0 && rng.gen_bool(probability.min(1.0)) {
                            reorder_window = reorder_window.max(window);
                        }
                    }
                    ImpairmentStage::Truncate { probability } => {
                        if probability > 0.0
                            && rng.gen_bool(probability.min(1.0))
                            && delivered.len() > 1
                        {
                            let keep = rng.gen_range(1..delivered.len());
                            delivered.truncate(keep);
                            stats.truncations += 1;
                        }
                    }
                    ImpairmentStage::BitFlip { probability } => {
                        if probability > 0.0
                            && rng.gen_bool(probability.min(1.0))
                            && !delivered.is_empty()
                        {
                            let idx = rng.gen_range(0..delivered.len());
                            let bit = rng.gen_range(0..8u8);
                            delivered.make_mut()[idx] ^= 1 << bit;
                            corrupted = true;
                        }
                    }
                    ImpairmentStage::Blackout { .. } => {} // handled per frame above
                }
            }
            if lost {
                stats.losses += 1;
                continue;
            }
            if corrupted {
                stats.corruptions += 1;
            }
            deliveries.push(Delivery {
                station: i,
                bytes: delivered,
                rssi_cdbm,
                duplicated,
                reorder_window,
            });
        }
        drop(inner);
        // Scheduled even with zero surviving deliveries: the frame still
        // occupied the channel and the event keeps time accounting exact.
        self.sched.schedule(arrival, from, EventKind::FrameArrival(deliveries));
        arrival
    }
}

/// One attached radio. Obtained from [`Medium::attach`].
#[derive(Debug, Clone)]
pub struct Transceiver {
    medium: Medium,
    index: usize,
}

impl Transceiver {
    /// Broadcasts `bytes` onto the air. The frame serializes behind any
    /// in-flight transmission; the returned instant is when it arrives at
    /// the receivers (`now` plus queued airtime).
    ///
    /// Copies `bytes` into a shared [`FrameBuf`] (one allocation);
    /// callers that already hold a `FrameBuf` (retransmissions, frames
    /// built with `MacFrame::to_buf`) should use
    /// [`Transceiver::transmit_buf`] to skip even that copy.
    pub fn transmit(&self, bytes: &[u8]) -> SimInstant {
        self.medium.transmit(self.index, &FrameBuf::from_slice(bytes))
    }

    /// Broadcasts an already-shared frame buffer onto the air without
    /// copying it: receivers get reference-counted clones, so resending a
    /// held frame allocates nothing.
    pub fn transmit_buf(&self, frame: &FrameBuf) -> SimInstant {
        self.medium.transmit(self.index, frame)
    }

    /// Pops the next received frame whose bytes `wanted` accepts, dropping
    /// every rejected frame queued ahead of it (releasing due deliveries
    /// first). However many frames it drops, this is one flush and one
    /// borrow: the station transmits nothing between rejected frames, so a
    /// flush per frame would find nothing new.
    ///
    /// `wanted` runs while the medium is borrowed and must not touch the
    /// medium.
    /// A station passes the filter that rejects exactly the frames it
    /// would discard without any side effect.
    pub fn recv_where(&self, wanted: impl Fn(&[u8]) -> bool) -> Option<RxFrame> {
        self.medium.flush();
        let mut inner = self.medium.inner.borrow_mut();
        let queue = &mut inner.stations[self.index].queue;
        while let Some(frame) = queue.pop_front() {
            if wanted(&frame.bytes) {
                return Some(frame);
            }
        }
        None
    }

    /// Drains every queued frame (releasing due deliveries first).
    pub fn drain(&self) -> Vec<RxFrame> {
        self.medium.flush();
        self.medium.inner.borrow_mut().stations[self.index].queue.drain(..).collect()
    }

    /// Empties the receive queue exactly as [`Transceiver::drain`] does
    /// and reports whether any dropped frame's bytes satisfy `matches`,
    /// without collecting the frames. `matches` runs in queue order and
    /// not at all after the first hit.
    ///
    /// `matches` runs while the medium is borrowed and must not touch the
    /// medium.
    pub fn drain_any(&self, mut matches: impl FnMut(&[u8]) -> bool) -> bool {
        self.medium.flush();
        let mut inner = self.medium.inner.borrow_mut();
        let queue = &mut inner.stations[self.index].queue;
        let found = queue.iter().any(|frame| matches(&frame.bytes));
        queue.clear();
        found
    }

    /// Number of frames waiting in the receive queue (releasing due
    /// deliveries first).
    pub fn pending(&self) -> usize {
        self.medium.flush();
        self.medium.inner.borrow().stations[self.index].queue.len()
    }

    /// Frames this station's full rx ring has evicted unread (releasing
    /// due deliveries first; see [`RX_QUEUE_CAP`]). Summed over every
    /// station of a medium this is [`MediumStats::rx_overflows`].
    pub fn rx_overflows(&self) -> u64 {
        self.medium.flush();
        self.medium.inner.borrow().stations[self.index].rx_overflows
    }

    /// Schedules a cancellable wakeup for this station at `at`. The wakeup
    /// is a hint, not a command: when it fires, the station surfaces in
    /// [`Medium::take_fired_actors`] so a driver knows to poll it — the
    /// station's own deadline checks decide what (if anything) to do.
    pub fn schedule_wakeup(&self, at: SimInstant) -> TimerToken {
        self.medium.sched.schedule_timer(at, self.index)
    }

    /// Cancels a wakeup scheduled by [`Transceiver::schedule_wakeup`].
    pub fn cancel_wakeup(&self, token: TimerToken) {
        self.medium.sched.cancel_timer(token);
    }

    /// This radio's station index on the medium (its actor id in scheduler
    /// events).
    pub fn station_index(&self) -> usize {
        self.index
    }

    /// Powers the radio on or off; a disabled radio receives nothing.
    pub fn set_enabled(&self, on: bool) {
        self.medium.inner.borrow_mut().stations[self.index].enabled = on;
    }

    /// The RF region this radio is tuned to.
    pub fn region(&self) -> Region {
        self.medium.inner.borrow().stations[self.index].region
    }

    /// Retunes the radio to another region (the attacker's dongle supports
    /// all Z-Wave frequencies).
    pub fn set_region(&self, region: Region) {
        self.medium.inner.borrow_mut().stations[self.index].region = region;
    }

    /// The medium this radio is attached to.
    pub fn medium(&self) -> &Medium {
        &self.medium
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairment::ImpairmentProfile;

    #[test]
    fn broadcast_reaches_all_other_stations() {
        let medium = Medium::new(SimClock::new(), 1);
        let a = medium.attach(0.0);
        let b = medium.attach(5.0);
        let c = medium.attach(70.0);
        a.transmit(&[1, 2, 3]);
        assert_eq!(a.recv_where(|_| true), None, "sender does not hear itself");
        assert_eq!(b.recv_where(|_| true).unwrap().bytes, vec![1, 2, 3]);
        assert_eq!(c.recv_where(|_| true).unwrap().bytes, vec![1, 2, 3]);
    }

    #[test]
    fn drain_any_empties_the_ring_and_answers_as_drain_then_any() {
        let medium = Medium::new(SimClock::new(), 1);
        let a = medium.attach(0.0);
        let b = medium.attach(5.0);
        let c = medium.attach(9.0);
        let probes: [fn(&[u8]) -> bool; 4] =
            [|_| false, |_| true, |bytes| bytes[0] == 3, |bytes| bytes[0] > 9];
        for probe in probes {
            for byte in [1u8, 2, 3, 4] {
                a.transmit(&[byte]);
            }
            let expected = b.drain().iter().any(|f| probe(&f.bytes));
            let mut seen = Vec::new();
            let found = c.drain_any(|bytes| {
                seen.push(bytes[0]);
                probe(bytes)
            });
            assert_eq!(found, expected);
            assert_eq!(c.pending(), 0, "the ring is emptied whatever the answer");
            let stop = seen.iter().position(|&byte| probe(&[byte])).map_or(4, |i| i + 1);
            assert_eq!(seen, [1, 2, 3, 4][..stop], "frames are tried in order, up to the hit");
        }
        assert!(!c.drain_any(|_| true), "an empty ring matches nothing");
        assert_eq!(medium.stats().deliveries, 32);
    }

    #[test]
    fn recv_where_drops_rejected_frames_up_to_the_first_wanted_one() {
        let medium = Medium::new(SimClock::new(), 1);
        let a = medium.attach(0.0);
        let b = medium.attach(5.0);
        for byte in [1u8, 2, 3, 4] {
            a.transmit(&[byte]);
        }
        let even = |bytes: &[u8]| bytes[0].is_multiple_of(2);
        assert_eq!(b.recv_where(even).unwrap().bytes, vec![2]);
        assert_eq!(b.pending(), 2, "frame 1 was dropped, 3 and 4 wait");
        assert_eq!(b.recv_where(|bytes| bytes[0] > 9), None);
        assert_eq!(b.pending(), 0, "a miss drains the ring");
        assert_eq!(medium.stats().deliveries, 4);
    }

    #[test]
    fn airtime_advances_clock() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 1);
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        // 40 bytes at 40 kbit/s = 8 ms. The clock does not move inside the
        // transmit call itself...
        let arrival = a.transmit(&[0u8; 40]);
        assert_eq!(arrival.as_micros(), 8_000);
        assert_eq!(clock.now(), SimInstant::ZERO);
        // ...but any receive-side query flushes airtime into the clock.
        assert_eq!(b.pending(), 1);
        assert_eq!(clock.now().as_micros(), 8_000);
    }

    #[test]
    fn back_to_back_transmissions_serialize_on_the_channel() {
        // Regression: `transmit` used to advance the shared clock in-call,
        // so two stations transmitting from the same handler observed
        // order-dependent timestamps. Airtime now serializes on the
        // channel; transmit order decides arrival order, and the final
        // clock is the total airtime either way.
        let run = |swap: bool| {
            let clock = SimClock::new();
            let medium = Medium::new(clock.clone(), 11);
            let a = medium.attach(0.0);
            let b = medium.attach(1.0);
            let c = medium.attach(2.0);
            let (first, second) = if swap { (&b, &a) } else { (&a, &b) };
            let t1 = first.transmit(&[0x11; 10]); // 2 ms airtime
            assert_eq!(clock.now(), SimInstant::ZERO, "clock moved mid-handler");
            let t2 = second.transmit(&[0x22; 30]); // 6 ms airtime
            assert!(t1 < t2, "frames must serialize in transmit order");
            let received = c.drain();
            (t1, t2, received.len(), clock.now())
        };
        let (a1, a2, n_ab, end_ab) = run(false);
        let (b1, b2, n_ba, end_ba) = run(true);
        assert_eq!((a1.as_micros(), a2.as_micros()), (2_000, 8_000));
        assert_eq!((b1.as_micros(), b2.as_micros()), (2_000, 8_000));
        assert_eq!(n_ab, n_ba, "delivery count depends on transmit order");
        assert_eq!(end_ab, end_ba, "total airtime depends on transmit order");
        assert_eq!(end_ab.as_micros(), 8_000);
    }

    #[test]
    fn rx_frames_carry_time_and_rssi() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 1);
        let a = medium.attach(0.0);
        let b = medium.attach(10.0);
        a.transmit(&[0xAA; 10]);
        let rx = b.recv_where(|_| true).unwrap();
        assert_eq!(rx.at, clock.now());
        let rssi_dbm = f64::from(rx.rssi_cdbm) / 100.0;
        assert!((rssi_dbm + 60.0).abs() < 0.1, "rssi={rssi_dbm}");
    }

    #[test]
    fn disabled_radio_hears_nothing() {
        let medium = Medium::new(SimClock::new(), 1);
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        b.set_enabled(false);
        a.transmit(&[1]);
        assert_eq!(b.pending(), 0);
        b.set_enabled(true);
        a.transmit(&[2]);
        assert_eq!(b.recv_where(|_| true).unwrap().bytes, vec![2]);
    }

    #[test]
    fn lossy_medium_drops_frames() {
        let medium = Medium::with_noise(SimClock::new(), 7, NoiseModel::lossy(1.0));
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        for _ in 0..10 {
            a.transmit(&[9]);
        }
        assert_eq!(b.pending(), 0);
        let stats = medium.stats();
        assert_eq!(stats.frames_sent, 10);
        assert_eq!(stats.losses, 10);
        assert_eq!(stats.deliveries, 0);
    }

    #[test]
    fn corrupting_medium_flips_bytes_and_counts() {
        let medium = Medium::with_noise(
            SimClock::new(),
            7,
            NoiseModel { corruption: 1.0, ..NoiseModel::default() },
        );
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        a.transmit(&[0u8; 8]);
        let rx = b.recv_where(|_| true).unwrap();
        assert_ne!(rx.bytes, vec![0u8; 8]);
        assert_eq!(medium.stats().corruptions, 1);
    }

    #[test]
    fn drain_empties_queue_in_order() {
        let medium = Medium::new(SimClock::new(), 1);
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        a.transmit(&[1]);
        a.transmit(&[2]);
        a.transmit(&[3]);
        let frames = b.drain();
        assert_eq!(frames.iter().map(|f| f.bytes[0]).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn corruption_is_deterministic_per_seed_and_frame_index() {
        // Regression: corruption used to consume a shared call-order RNG, so
        // an unrelated extra transmission shifted every later outcome. Now
        // frame N's corruption at receiver R is a pure function of
        // (seed, N, R): pin the exact corrupted bytes for a fixed seed.
        let run = |warmup: usize| {
            let medium = Medium::with_noise(
                SimClock::new(),
                7,
                NoiseModel { corruption: 1.0, ..NoiseModel::default() },
            );
            let a = medium.attach(0.0);
            let b = medium.attach(1.0);
            // Consume extra RNG-free queue operations; they must not matter.
            for _ in 0..warmup {
                let _ = b.pending();
            }
            let mut frames = Vec::new();
            for n in 0..4u8 {
                a.transmit(&[n; 8]);
                frames.push(b.recv_where(|_| true).unwrap().bytes);
            }
            frames
        };
        let first = run(0);
        assert_eq!(first, run(25));
        // Pin the corrupted positions themselves so the derivation can never
        // silently change: exactly one byte differs per frame, at a fixed
        // index, for seed 7.
        let positions: Vec<usize> = first
            .iter()
            .enumerate()
            .map(|(n, f)| f.iter().position(|&byte| byte != n as u8).unwrap())
            .collect();
        assert_eq!(positions, vec![0, 4, 0, 5], "corrupted-byte positions moved for seed 7");
    }

    #[test]
    fn same_frame_corrupts_differently_at_each_receiver() {
        let medium = Medium::with_noise(
            SimClock::new(),
            7,
            NoiseModel { corruption: 1.0, ..NoiseModel::default() },
        );
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        let c = medium.attach(2.0);
        a.transmit(&[0u8; 16]);
        assert_ne!(b.recv_where(|_| true).unwrap().bytes, c.recv_where(|_| true).unwrap().bytes);
    }

    #[test]
    fn duplication_delivers_identical_back_to_back_copies() {
        let medium = Medium::new(SimClock::new(), 3);
        medium.set_impairment(
            ImpairmentSchedule::clean().with(ImpairmentStage::Duplicate { probability: 1.0 }),
        );
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        a.transmit(&[0xDE, 0xAD]);
        let frames = b.drain();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], frames[1]);
        assert_eq!(frames[0].bytes, vec![0xDE, 0xAD]);
        assert_eq!(medium.stats().duplicates, 1);
        assert_eq!(medium.stats().deliveries, 2);
    }

    #[test]
    fn reordering_respects_its_window() {
        let medium = Medium::new(SimClock::new(), 3);
        medium.set_impairment(
            ImpairmentSchedule::clean()
                .with(ImpairmentStage::Reorder { probability: 1.0, window: 2 }),
        );
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        for n in 0..6u8 {
            a.transmit(&[n]);
        }
        let order: Vec<u8> = b.drain().iter().map(|f| f.bytes[0]).collect();
        // Every frame may jump ahead of at most 2 queued frames, so frame n
        // can never appear more than 2 positions before its send order.
        for (pos, &n) in order.iter().enumerate() {
            assert!(pos + 2 >= n as usize, "frame {n} displaced beyond window: order {order:?}");
        }
        assert!(medium.stats().reorders > 0);
    }

    #[test]
    fn truncation_yields_strict_nonempty_prefixes() {
        let medium = Medium::new(SimClock::new(), 5);
        medium.set_impairment(
            ImpairmentSchedule::clean().with(ImpairmentStage::Truncate { probability: 1.0 }),
        );
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        let payload = [1u8, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..10 {
            a.transmit(&payload);
        }
        for frame in b.drain() {
            assert!(!frame.bytes.is_empty() && frame.bytes.len() < payload.len());
            assert_eq!(frame.bytes[..], payload[..frame.bytes.len()]);
        }
        assert_eq!(medium.stats().truncations, 10);
    }

    #[test]
    fn blackout_silences_the_channel_on_schedule() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 5);
        medium.set_impairment(ImpairmentSchedule::clean().with(ImpairmentStage::Blackout {
            first_start: Duration::from_secs(10),
            every: Duration::ZERO,
            length: Duration::from_secs(5),
        }));
        let a = medium.attach(0.0);
        let b = medium.attach(1.0);
        a.transmit(&[1]);
        assert_eq!(b.drain().len(), 1, "before the window");
        clock.advance(Duration::from_secs(11));
        a.transmit(&[2]);
        assert_eq!(b.drain().len(), 0, "inside the window");
        assert_eq!(medium.stats().blackout_drops, 1);
        clock.advance(Duration::from_secs(10));
        a.transmit(&[3]);
        assert_eq!(b.drain().len(), 1, "after the window");
    }

    #[test]
    fn blackout_windows_fire_as_paired_events() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 5);
        medium.set_impairment(ImpairmentSchedule::clean().with(ImpairmentStage::Blackout {
            first_start: Duration::from_secs(10),
            every: Duration::from_secs(30),
            length: Duration::from_secs(5),
        }));
        assert!(!medium.in_blackout());
        clock.advance(Duration::from_secs(12));
        assert!(medium.in_blackout(), "start event opened the first window");
        clock.advance(Duration::from_secs(5)); // t = 17 s
        assert!(!medium.in_blackout(), "end event closed the first window");
        clock.advance(Duration::from_secs(25)); // t = 42 s, second window 40-45 s
        assert!(medium.in_blackout(), "periodic window was rescheduled");
        clock.advance(Duration::from_secs(5)); // t = 47 s
        assert!(!medium.in_blackout());
    }

    #[test]
    fn reinstalling_impairments_invalidates_stale_blackout_events() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 5);
        medium.set_impairment(ImpairmentSchedule::clean().with(ImpairmentStage::Blackout {
            first_start: Duration::from_secs(10),
            every: Duration::ZERO,
            length: Duration::from_secs(5),
        }));
        // Replace the schedule before the window opens: the stale start
        // event must not flip the channel into a blackout.
        medium.set_impairment(ImpairmentSchedule::clean());
        clock.advance(Duration::from_secs(12));
        assert!(!medium.in_blackout(), "stale generation toggled the blackout flag");
    }

    #[test]
    fn wakeup_timers_fire_into_the_actor_list() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 1);
        let a = medium.attach(0.0);
        a.schedule_wakeup(clock.now().plus(Duration::from_millis(5)));
        assert!(medium.take_fired_actors().is_empty(), "timer fired early");
        clock.advance(Duration::from_millis(10));
        assert_eq!(medium.take_fired_actors(), vec![a.station_index()]);
        assert!(medium.take_fired_actors().is_empty(), "fired list drains");
        // A cancelled wakeup never fires.
        let token = a.schedule_wakeup(clock.now().plus(Duration::from_millis(5)));
        a.cancel_wakeup(token);
        clock.advance(Duration::from_millis(10));
        assert!(medium.take_fired_actors().is_empty());
    }

    #[test]
    fn advance_to_next_wakeup_hops_straight_to_the_event() {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), 1);
        let a = medium.attach(0.0);
        a.schedule_wakeup(clock.now().plus(Duration::from_secs(2)));
        let cap = clock.now().plus(Duration::from_secs(300));
        assert!(medium.advance_to_next_wakeup(cap), "timer was due before the cap");
        assert_eq!(clock.now().as_micros(), 2_000_000, "hopped exactly to the timer");
        assert_eq!(medium.take_fired_actors(), vec![a.station_index()]);
        // Nothing left: the hop runs to the cap and reports no event.
        assert!(!medium.advance_to_next_wakeup(cap));
        assert_eq!(clock.now(), cap);
    }

    #[test]
    fn impairment_outcomes_are_independent_of_unrelated_traffic_order() {
        // Two media with the same seed and schedule: in the second, station
        // d is deaf (different region) so it consumes no impairment draws.
        // Frame-for-frame outcomes at b must still be identical.
        let schedule = ImpairmentProfile::Adversarial.schedule();
        let run = |extra_station: bool| {
            let medium = Medium::new(SimClock::new(), 99);
            medium.set_impairment(schedule.clone());
            let a = medium.attach(0.0);
            let b = medium.attach(1.0);
            if extra_station {
                let d = medium.attach(2.0);
                d.set_enabled(false);
            }
            for n in 0..40u8 {
                a.transmit(&[n, n, n, n]);
            }
            b.drain().into_iter().map(|f| f.bytes).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stats_since_subtracts_componentwise() {
        let before = MediumStats { frames_sent: 3, deliveries: 2, losses: 1, ..Default::default() };
        let after = MediumStats { frames_sent: 10, deliveries: 6, losses: 4, ..Default::default() };
        let delta = after.since(&before);
        assert_eq!(delta.frames_sent, 7);
        assert_eq!(delta.deliveries, 4);
        assert_eq!(delta.losses, 3);
        assert_eq!(MediumStats::default().since(&after).frames_sent, 0, "saturates");
    }

    #[test]
    fn unserviced_station_sheds_oldest_frames_at_rx_queue_cap() {
        let medium = Medium::new(SimClock::new(), 7);
        let tx = medium.attach(0.0);
        let rx = medium.attach(1.0);
        let extra = 37usize;
        for i in 0..RX_QUEUE_CAP + extra {
            tx.transmit(&(i as u32).to_be_bytes());
        }
        let held = rx.drain();
        assert_eq!(held.len(), RX_QUEUE_CAP, "queue is capped");
        // The *newest* frames are retained; the oldest were evicted.
        let first = u32::from_be_bytes(held[0].bytes.as_slice().try_into().unwrap());
        assert_eq!(first as usize, extra);
        let last = u32::from_be_bytes(held.last().unwrap().bytes.as_slice().try_into().unwrap());
        assert_eq!(last as usize, RX_QUEUE_CAP + extra - 1);
        assert_eq!(medium.stats().rx_overflows, extra as u64);
        // A serviced station never overflows.
        for i in 0..RX_QUEUE_CAP + extra {
            tx.transmit(&(i as u32).to_be_bytes());
            assert_eq!(rx.drain().len(), 1);
        }
        assert_eq!(medium.stats().rx_overflows, extra as u64, "no further evictions");
    }

    #[test]
    fn rx_overflows_are_attributed_to_the_station_that_shed_them() {
        let medium = Medium::new(SimClock::new(), 7);
        let tx = medium.attach(0.0);
        let serviced = medium.attach(1.0);
        let idle = medium.attach(2.0);
        let idle_too = medium.attach(3.0);
        for i in 0..RX_QUEUE_CAP + 10 {
            tx.transmit(&(i as u32).to_be_bytes());
            serviced.drain();
            if i == 20 {
                idle_too.drain();
            }
        }
        assert_eq!(serviced.rx_overflows(), 0);
        assert_eq!(tx.rx_overflows(), 0, "a sender does not hear itself");
        assert_eq!(idle.rx_overflows(), 10);
        assert_eq!(idle_too.rx_overflows(), 0, "drained once, never full");
        let attributed: u64 =
            [&tx, &serviced, &idle, &idle_too].iter().map(|t| t.rx_overflows()).sum();
        assert_eq!(attributed, medium.stats().rx_overflows);
    }
}
