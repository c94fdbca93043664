//! Steady-state allocation budget for the zero-copy frame path.
//!
//! A counting global allocator measures how many heap allocations one
//! delivered frame costs on a clean channel once the medium is warm. With
//! the shared `FrameBuf` fan-out, a broadcast allocates the frame once and
//! every receiver's delivery is a ref-count bump, so the per-delivered-
//! frame figure must stay small and — crucially — must not scale with the
//! receiver count. Before the refactor each delivery copied the frame, so
//! this budget is the regression tripwire for anyone reintroducing a
//! per-receiver copy.
//!
//! A second phase holds the whole fuzz iteration to a per-packet budget:
//! twenty complete D1 campaigns must inject exactly the packets they always
//! have, and spend at most 12.5 heap allocations per packet. The loop
//! measured 57.49 with a clone-per-receiver frame path and per-call crypto
//! key expansion, 34.46 with `Arc<Vec<u8>>` frames, and 11.27 with one
//! `Rc<[u8]>` allocation per frame, inline MAC payloads and recycled
//! medium buffers.
//!
//! This file deliberately holds a single test: the allocation counter is
//! process-global, and a second test running on a sibling thread would
//! perturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use zcover_suite::zcover::{FuzzConfig, ZCover};
use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed};
use zcover_suite::zwave_radio::{Medium, SimClock};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per delivered frame the steady-state broadcast loop may
/// spend. One transmit to RECEIVERS stations costs one allocation for the
/// frame buffer plus one per receiver for the `Vec` its `drain` returns;
/// amortised per delivery that lands at ~1.1. The old
/// clone-per-receiver path spent an extra allocation per delivery and
/// blows the budget.
const PER_DELIVERY_BUDGET: f64 = 2.0;

const RECEIVERS: u64 = 8;
const ROUNDS: u64 = 200;

/// Heap allocations per injected packet a full campaign may spend.
const PER_PACKET_BUDGET: f64 = 12.5;

/// Packets the twenty campaigns inject: any change here moved the fuzzer.
const CAMPAIGN_PACKETS: u64 = 182_364;

/// One 2 h ZCover campaign on a D1 testbed; returns the packets it
/// injected.
fn run_campaign(seed: u64) -> u64 {
    let mut tb = Testbed::new(DeviceModel::D1, seed);
    let config = FuzzConfig::full(Duration::from_secs(2 * 3600), seed);
    let report = ZCover::attach(&tb, 70.0).run_campaign(&mut tb, config).expect("D1 fingerprints");
    report.campaign.packets_sent
}

#[test]
fn steady_state_allocations_per_delivered_frame() {
    let medium = Medium::new(SimClock::new(), 7);
    let tx = medium.attach(0.0);
    let receivers: Vec<_> = (0..RECEIVERS).map(|i| medium.attach(1.0 + i as f64)).collect();
    let payload = [0xCB, 0x95, 0xA3, 0x4A, 0x0F, 0x20, 0x01, 0x00, 0x2A];

    // Warm up: queues, recycled medium buffers and lazily-initialised
    // state allocate here.
    for _ in 0..20 {
        tx.transmit(&payload);
        for r in &receivers {
            let _ = r.drain();
        }
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut delivered = 0u64;
    for _ in 0..ROUNDS {
        tx.transmit(&payload);
        for r in &receivers {
            delivered += r.drain().len() as u64;
        }
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(delivered, ROUNDS * RECEIVERS, "clean channel must deliver everything");
    let per_delivery = spent as f64 / delivered as f64;
    assert!(
        per_delivery <= PER_DELIVERY_BUDGET,
        "steady-state frame path allocates {per_delivery:.2} heap blocks per delivered frame \
         ({spent} allocations / {delivered} deliveries); budget is {PER_DELIVERY_BUDGET}. \
         Did a per-receiver copy sneak back into the broadcast fan-out?"
    );

    // Campaign phase, after a warm-up campaign off the count.
    run_campaign(99);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let packets: u64 = (1..=20).map(run_campaign).sum();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(packets, CAMPAIGN_PACKETS, "the campaigns injected a different packet count");
    let per_packet = spent as f64 / packets as f64;
    assert!(
        per_packet <= PER_PACKET_BUDGET,
        "a campaign allocates {per_packet:.2} heap blocks per injected packet \
         ({spent} allocations / {packets} packets); budget is {PER_PACKET_BUDGET}"
    );
}
