//! Pins every station's receive filter to what the station does without
//! it. `poll` drops each frame `accepts` rejects at the rx ring, before it
//! costs a decode; that is only sound when `receive` — the unfiltered
//! per-frame path — would have discarded the frame with no side effect.
//!
//! Candidate frames come from random bytes and from well-formed frames
//! with a random home id (own or foreign), destination, header type
//! (including Ack with and without a payload), routed header and payload
//! (including payloads each station reacts to: a valid S2 door-lock
//! command, Basic Set, an S0 nonce report, a NIF request). For every
//! frame a filter rejects:
//! - `receive` leaves the station's whole state unchanged (its `Debug`
//!   rendering, which spans its counters, coverage, sequence numbers and
//!   the medium it transmits on), and
//! - delivering the frame over the air and polling moves nothing but the
//!   injection itself: `frames_sent` and the scheduler move by exactly
//!   that one frame, and the station's counters, coverage and state stay.
//!
//! The controller's filter is its transceiver's home-id filter, which
//! `receive` also applies first; its edge (frames of our home too short
//! to decode still pass) is pinned by example below.

use std::fmt::Debug;

use proptest::prelude::*;

use zwave_controller::devices::{SimDoorLock, SimSensor, SimSwitch};
use zwave_controller::{DeviceModel, SimController, SimRepeater};
use zwave_controller::{LOCK_NODE, SENSOR_NODE, SWITCH_NODE};
use zwave_crypto::s2::{network_keys, S2Session};
use zwave_crypto::{s0, NetworkKey};
use zwave_protocol::frame::FrameControl;
use zwave_protocol::{nif, ChecksumKind, HeaderType, HomeId, MacFrame, NodeId, RoutingHeader};
use zwave_radio::{FrameBuf, Medium, SimClock, Transceiver};

const HOME: HomeId = HomeId(0xC0FF_EE01);
const FOREIGN: HomeId = HomeId(0x0BAD_F00D);
const REPEATER: NodeId = NodeId(0x05);
const ATTACKER: NodeId = NodeId(0x0F);
const SEI: [u8; 16] = [0x11; 16];
const REI: [u8; 16] = [0x22; 16];

/// One station of each kind on a shared medium, plus the attacker radio
/// that injects candidate frames.
struct World {
    medium: Medium,
    attacker: Transceiver,
    controller: SimController,
    lock: SimDoorLock,
    switch: SimSwitch,
    sensor: SimSensor,
    repeater: SimRepeater,
}

fn lock_key() -> NetworkKey {
    NetworkKey::from_seed(0x10C4)
}

fn world() -> World {
    let medium = Medium::new(SimClock::new(), 7);
    let mut config = DeviceModel::D1.config();
    config.home_id = HOME;
    let controller = SimController::new(config, &medium, 0.0);
    let session = S2Session::responder(network_keys(&lock_key()), &SEI, &REI);
    let lock = SimDoorLock::new(&medium, 8.0, HOME, LOCK_NODE, session);
    let switch = SimSwitch::new(&medium, 12.0, HOME, SWITCH_NODE, NodeId::CONTROLLER);
    // The sensor reports to an absent hub, so waking it (to make it read
    // its ring) draws no reply.
    let mut sensor = SimSensor::new(&medium, 15.0, HOME, SENSOR_NODE, NodeId(0x30), &lock_key());
    sensor.wake();
    let repeater = SimRepeater::new(&medium, 16.0, HOME, REPEATER);
    let attacker = medium.attach(40.0);
    let mut w = World { medium, attacker, controller, lock, switch, sensor, repeater };
    // Consume the wake-up traffic: the world starts quiet.
    w.controller.poll();
    w.lock.poll();
    w.switch.poll();
    w.repeater.poll();
    w
}

/// A valid S2 Door Lock Operation Set (bolt withdrawn) from the attacker
/// node, for a lock whose session has not decrypted anything yet.
fn s2_lock_command() -> Vec<u8> {
    let mut hub = S2Session::initiator(network_keys(&lock_key()), &SEI, &REI);
    hub.encapsulate(HOME.0, ATTACKER.0, LOCK_NODE.0, &[0x62, 0x01, 0x00])
}

/// Nodes a candidate frame may address or route through.
const NODES: [NodeId; 7] =
    [NodeId::CONTROLLER, LOCK_NODE, SWITCH_NODE, SENSOR_NODE, REPEATER, ATTACKER, NodeId(0xFF)];

/// The well-formed candidate: home (0 = foreign, else own), destination,
/// header type (3 = Ack carrying a payload), ack flag, payload kind,
/// routed header (direction, hop, repeater picks), spare bytes, and
/// checksum (0 = corrupt).
type FrameSpec = (u8, usize, u8, bool, u8, (bool, u8, Vec<usize>), Vec<u8>, u8);

fn arb_frame_spec() -> impl Strategy<Value = FrameSpec> {
    (
        0u8..4,
        0..NODES.len(),
        0u8..5,
        any::<bool>(),
        0u8..6,
        (any::<bool>(), 0u8..4, proptest::collection::vec(0..NODES.len(), 1..=4)),
        proptest::collection::vec(any::<u8>(), 0..=20),
        0u8..4,
    )
}

fn build(spec: FrameSpec) -> Vec<u8> {
    let (home, dst, kind, ack_requested, payload_kind, (outbound, hop, route), spare, checksum) =
        spec;
    let mut apl = match payload_kind {
        0 => spare,
        1 => vec![0x20, 0x01, 0xFF],
        2 => s2_lock_command(),
        3 => {
            let mut report = vec![0x98, s0::cmd::NONCE_REPORT];
            report.extend_from_slice(&[0xA5; 8]);
            report
        }
        4 => nif::encode_nif_request(),
        _ => Vec::new(),
    };
    let header_type = match kind {
        0 => HeaderType::Singlecast,
        1 => HeaderType::Multicast,
        2 => {
            apl.clear();
            HeaderType::Ack
        }
        3 => HeaderType::Ack,
        _ => HeaderType::Routed,
    };
    if header_type == HeaderType::Ack && kind == 3 && apl.is_empty() {
        apl.push(0x20);
    }
    let payload = if header_type == HeaderType::Routed {
        let repeaters = route.iter().map(|&i| NODES[i]).collect();
        let mut payload = RoutingHeader { outbound, hop, repeaters }.encode();
        payload.extend_from_slice(&apl);
        payload
    } else {
        apl
    };
    let fc = FrameControl { header_type, ack_requested, sequence: 3, ..FrameControl::default() };
    let home = if home == 0 { FOREIGN } else { HOME };
    let frame = MacFrame::try_new(home, ATTACKER, fc, NODES[dst], payload, ChecksumKind::Cs8)
        .expect("candidate payloads fit a MAC frame");
    let mut wire = frame.encode();
    if checksum == 0 {
        let last = wire.len() - 1;
        wire[last] ^= 0x5A;
    }
    wire
}

/// `receive` on a frame `accepts` rejected must leave the station, and
/// the medium it transmits on, exactly as they were.
fn receive_is_a_no_op<S: Debug>(
    medium: &Medium,
    station: &mut S,
    raw: &[u8],
    receive: impl FnOnce(&mut S, &FrameBuf),
) -> Result<(), String> {
    let sent = medium.stats().frames_sent;
    let before = format!("{station:?}");
    receive(station, &FrameBuf::from_slice(raw));
    prop_assert_eq!(medium.stats().frames_sent, sent);
    prop_assert!(format!("{station:?}") == before, "receive changed state on {raw:02X?}");
    Ok(())
}

/// Every station's verdict on `raw`, and the unfiltered path run on each
/// station that rejects it.
fn check_receive(w: &mut World, raw: &[u8]) -> Result<(), String> {
    if !w.controller.accepts(raw) {
        receive_is_a_no_op(&w.medium, &mut w.controller, raw, |s, f| s.receive(f))?;
    }
    if !w.lock.accepts(raw) {
        receive_is_a_no_op(&w.medium, &mut w.lock, raw, |s, f| s.receive(f))?;
    }
    if !w.switch.accepts(raw) {
        receive_is_a_no_op(&w.medium, &mut w.switch, raw, |s, f| s.receive(f))?;
    }
    if !w.sensor.accepts(raw) {
        receive_is_a_no_op(&w.medium, &mut w.sensor, raw, |s, f| s.receive(f))?;
    }
    if !w.repeater.accepts(raw) {
        receive_is_a_no_op(&w.medium, &mut w.repeater, raw, |s, f| s.receive(f))?;
    }
    Ok(())
}

/// The counters, coverage and state each station exposes.
fn observe(w: &World) -> String {
    format!(
        "{:?} {:?} {:?} {} {} | {} {} | {} {} {} | {} {} {} | {}",
        w.controller.stats(),
        w.controller.link_stats(),
        w.controller.health(),
        w.controller.coverage().edges(),
        w.controller.fault_log().len(),
        w.lock.is_locked(),
        w.lock.coverage().edges(),
        w.switch.is_on(),
        w.switch.coverage().edges(),
        w.switch.routed_acks_received(),
        w.sensor.reports_sent(),
        w.sensor.is_sleeping(),
        w.sensor.coverage().edges(),
        w.repeater.frames_forwarded(),
    )
}

/// Injects `raw` over the air and polls every station that rejects it:
/// only the injection itself may move the medium and the scheduler.
fn check_poll(w: &mut World, raw: &[u8]) -> Result<(), String> {
    let sent = w.medium.stats().frames_sent;
    let scheduled = w.medium.scheduler().stats().scheduled;
    let seen = observe(w);
    w.attacker.transmit(raw);
    if !w.controller.accepts(raw) {
        w.controller.poll();
    }
    if !w.lock.accepts(raw) {
        w.lock.poll();
    }
    if !w.switch.accepts(raw) {
        w.switch.poll();
    }
    if !w.sensor.accepts(raw) {
        w.sensor.poll();
    }
    if !w.repeater.accepts(raw) {
        w.repeater.poll();
    }
    prop_assert_eq!(w.medium.stats().frames_sent, sent + 1);
    prop_assert_eq!(w.medium.scheduler().stats().scheduled, scheduled + 1);
    prop_assert!(observe(w) == seen, "polling a rejected {raw:02X?} changed a station");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Random bytes, half of them under our home id: whatever a filter
    /// rejects, receiving it changes nothing.
    #[test]
    fn rejected_random_bytes_are_no_ops(
        own_home in any::<bool>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..=70),
    ) {
        // Half the candidates start with our home id: the controller keeps
        // those even when they are too short or malformed to decode.
        let mut raw = if own_home { HOME.to_bytes().to_vec() } else { Vec::new() };
        raw.extend_from_slice(&bytes);
        raw.truncate(bytes.len());
        let mut w = world();
        check_receive(&mut w, &raw)?;
        check_poll(&mut w, &raw)?;
    }

    /// Well-formed frames of every header type and address: whatever a
    /// filter rejects, receiving it changes nothing.
    #[test]
    fn rejected_well_formed_frames_are_no_ops(spec in arb_frame_spec()) {
        let raw = build(spec);
        let mut w = world();
        check_receive(&mut w, &raw)?;
        check_poll(&mut w, &raw)?;
    }
}

#[test]
fn filters_pass_the_frames_their_stations_act_on() {
    let w = world();
    let frame = |home, dst, header_type, payload: Vec<u8>| {
        let fc = FrameControl { header_type, ack_requested: true, ..FrameControl::default() };
        MacFrame::try_new(home, ATTACKER, fc, dst, payload, ChecksumKind::Cs8).unwrap().encode()
    };
    let bare_ack = |dst| MacFrame::ack(HOME, ATTACKER, dst, 1).encode();

    // An Ack-type frame with a payload still reaches the lock (which would
    // decapsulate S2 from it) and the switch; a bare ack reaches neither.
    let loaded_ack = frame(HOME, LOCK_NODE, HeaderType::Ack, s2_lock_command());
    assert!(w.lock.accepts(&loaded_ack));
    assert!(!w.lock.accepts(&bare_ack(LOCK_NODE)));
    assert!(w.switch.accepts(&frame(HOME, SWITCH_NODE, HeaderType::Ack, vec![0x20, 0x01, 0xFF])));
    assert!(!w.switch.accepts(&bare_ack(SWITCH_NODE)));
    // An empty singlecast asking for an ack is still acked by the lock.
    assert!(w.lock.accepts(&frame(HOME, LOCK_NODE, HeaderType::Singlecast, Vec::new())));
    // The sensor only parses payloads addressed to it.
    assert!(w.sensor.accepts(&frame(HOME, SENSOR_NODE, HeaderType::Singlecast, vec![0x20])));
    assert!(!w.sensor.accepts(&frame(HOME, SENSOR_NODE, HeaderType::Singlecast, Vec::new())));
    assert!(!w.sensor.accepts(&frame(HOME, LOCK_NODE, HeaderType::Singlecast, vec![0x20])));
    // Routed frames reach every relay whatever their destination.
    let routed = frame(HOME, NodeId::CONTROLLER, HeaderType::Routed, vec![0x01, 0x00, 0x01, 0x05]);
    assert!(w.repeater.accepts(&routed) && w.switch.accepts(&routed));
    assert!(!w.repeater.accepts(&frame(HOME, REPEATER, HeaderType::Singlecast, vec![0x20])));
    // The controller keeps everything of its home, even frames too short
    // to decode (its MAC quirks fire on those), and nothing foreign.
    assert!(w.controller.accepts(&HOME.to_bytes()));
    assert!(!w.controller.accepts(&HOME.to_bytes()[..3]));
    assert!(!w.controller.accepts(&frame(
        FOREIGN,
        NodeId::CONTROLLER,
        HeaderType::Singlecast,
        vec![0x20]
    )));
    for station_accepts in [
        w.lock.accepts(&frame(FOREIGN, LOCK_NODE, HeaderType::Singlecast, vec![0x20])),
        w.switch.accepts(&frame(FOREIGN, SWITCH_NODE, HeaderType::Routed, vec![0x01, 0, 1, 3])),
        w.sensor.accepts(&frame(FOREIGN, SENSOR_NODE, HeaderType::Singlecast, vec![0x20])),
        w.repeater.accepts(&frame(FOREIGN, REPEATER, HeaderType::Routed, vec![0x01, 0, 1, 5])),
    ] {
        assert!(!station_accepts, "a foreign home's frame passed a filter");
    }
}

#[test]
fn the_unfiltered_path_acts_on_the_frames_the_generator_builds() {
    // The candidates are not vacuous: a Basic Set switches the switch, the
    // S2 command withdraws the bolt even inside an Ack-type frame, a
    // routed frame naming the repeater is relayed.
    let mut w = world();
    let basic_set = build((1, 2, 0, true, 1, (true, 0, vec![0]), Vec::new(), 1));
    assert!(w.switch.accepts(&basic_set));
    w.switch.receive(&basic_set);
    assert!(w.switch.is_on());

    let s2_in_ack = build((1, 1, 3, false, 2, (true, 0, vec![0]), Vec::new(), 1));
    assert!(w.lock.accepts(&s2_in_ack));
    assert!(w.lock.is_locked());
    w.lock.receive(&s2_in_ack);
    assert!(!w.lock.is_locked());

    let relayed = build((1, 0, 4, false, 0, (true, 0, vec![4]), vec![0x20, 0x02], 1));
    assert!(w.repeater.accepts(&relayed));
    w.repeater.receive(&relayed);
    assert_eq!(w.repeater.frames_forwarded(), 1);
}
