//! Integration tests for RF-region behaviour on the shared medium.

use zwave_radio::{Medium, Region, SimClock};

#[test]
fn cross_region_radios_are_mutually_deaf() {
    let medium = Medium::new(SimClock::new(), 1);
    let eu = medium.attach_with_region(0.0, Region::Eu868);
    let us = medium.attach_with_region(1.0, Region::Us908);
    let eu2 = medium.attach_with_region(2.0, Region::Eu868);

    eu.transmit(&[1, 2, 3]);
    assert_eq!(us.pending(), 0, "US radio must not hear the EU frame");
    assert_eq!(eu2.recv_where(|_| true).unwrap().bytes, vec![1, 2, 3]);

    us.transmit(&[4]);
    assert_eq!(eu.pending(), 0);
    assert_eq!(eu2.pending(), 0);
}

#[test]
fn retuning_restores_reception() {
    // The attacker's dongle scans regions until it finds the network —
    // the Figure 4 "valid radio frequency" configuration step.
    let medium = Medium::new(SimClock::new(), 1);
    let hub = medium.attach_with_region(0.0, Region::Us908);
    let dongle = medium.attach_with_region(70.0, Region::Eu868);

    hub.transmit(&[0xAA]);
    assert_eq!(dongle.pending(), 0);

    for region in [Region::Eu868, Region::Us908, Region::Anz921, Region::Jp923] {
        dongle.set_region(region);
        hub.transmit(&[0xBB]);
        if dongle.pending() > 0 {
            break;
        }
    }
    assert_eq!(dongle.region(), Region::Us908);
    assert_eq!(dongle.recv_where(|_| true).unwrap().bytes, vec![0xBB]);
}

#[test]
fn default_attach_is_eu() {
    let medium = Medium::new(SimClock::new(), 1);
    let radio = medium.attach(0.0);
    assert_eq!(radio.region(), Region::Eu868);
}
