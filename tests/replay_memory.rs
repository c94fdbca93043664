//! Replay memory gate: re-executing a recorded campaign must not hold a
//! second copy of its journal.
//!
//! `replay` compares each record against the decoded recording as the
//! re-run emits it, so besides the recording it holds only the re-executed
//! home and the records between two fuzzer callbacks. A counting global
//! allocator tracks live and peak live heap bytes; the peak that replay
//! adds on top of the decoded trace must stay under an eighth of the
//! decoded events' own size. A replay that journals the whole re-run and
//! diffs afterwards needs at least that full size again and fails here.
//!
//! This file deliberately holds a single test: the byte counters are
//! process-global, and a second test running on a sibling thread would
//! perturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use zcover_suite::zcover::{record_campaign, replay, FuzzConfig, ImpairmentProfile, Record, Trace};
use zcover_suite::zwave_controller::testbed::DeviceModel;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves, as
        // a moving realloc holds both.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn replay_holds_no_second_journal() {
    let config = FuzzConfig::full(Duration::from_secs(2 * 3600), 7)
        .with_impairment(ImpairmentProfile::Lossy);
    let bytes =
        record_campaign(DeviceModel::D1, "full", config).expect("records").trace.to_zct_bytes();
    let trace = Trace::from_bytes(&bytes).expect("decodes");
    drop(bytes);
    let events = trace.events.len();
    assert!(events > 10_000, "a 2 h campaign journals more than {events} events");

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = replay(&trace).expect("replays");
    let added = PEAK.load(Ordering::Relaxed) - before;

    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.replayed_events, events);
    let budget = events * std::mem::size_of::<Record>() / 8;
    assert!(
        added < budget,
        "replaying {events} events peaked {added} heap bytes above the decoded trace; \
         budget is {budget} (an eighth of the decoded events). Is the re-run journal \
         kept whole again?"
    );
}
