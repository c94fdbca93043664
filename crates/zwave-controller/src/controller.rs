//! The simulated Z-Wave controller (hub) under test.
//!
//! A [`SimController`] owns a radio, a node database, health state, and —
//! depending on the model — a PC-controller host program or a cloud/app
//! link. Its receive path mirrors real firmware:
//!
//! 1. home-id filter → 2. (vulnerable) pre-parse MAC quirks → 3. MAC
//!    validation (length, checksum, header) → 4. health gate → 5. MAC ack →
//! 6. application-layer dispatch, where the Table III vulnerabilities live.

use std::collections::BTreeSet;

use zwave_protocol::apl::ApplicationPayload;
use zwave_protocol::nif::{self, NodeInfoFrame};
use zwave_protocol::registry::{proprietary, Registry};
use zwave_protocol::{CommandClassId, HomeId, MacFrame, NodeId};
use zwave_radio::{FrameBuf, Medium, SimInstant};

use zwave_crypto::s2::S2Session;

use crate::coverage::{state as cov, CoverageMap};
use crate::energy::{self, EnergyMeter};
use crate::health::{EffectKind, FaultLog, FaultRecord, Health, RootCause};
use crate::host::{AppLink, HostProgram};
use crate::link::{LinkPolicy, LinkStats, PendingTx, DUP_WINDOW};
use crate::node::{NodeRadio, Sent};
use crate::nvm::{NodeDatabase, NodeRecord};
use crate::vulns::{self, MacQuirk, VulnContext, VulnEffect};

/// S0 NETWORK_KEY_SET command id (the frame bug #18 accepts in
/// plaintext during a downgraded re-inclusion).
const S0_KEY_SET: u8 = 0x06;

/// Where the controller stands in a node (re-)inclusion exchange. The
/// Crushing-the-Wave scenario arms this window; bugs #17 and #18 only
/// fire inside it, so ordinary fuzzing traffic cannot reach them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReinclusionState {
    /// No inclusion in progress.
    Idle,
    /// The given node is being re-included and the key-exchange window
    /// is open.
    Armed(NodeId),
    /// An S2→S0 downgrade was accepted for the node (bug #17 fired);
    /// the key exchange continues under S0 rules.
    Downgraded(NodeId),
}

/// Static description of a controller model (one row of Table II).
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Testbed index, e.g. "D4".
    pub idx: &'static str,
    /// Brand name.
    pub brand: &'static str,
    /// Model string.
    pub model: &'static str,
    /// Release year.
    pub year: u16,
    /// Network home id (Table IV values).
    pub home_id: HomeId,
    /// Whether a PC controller program drives this device over USB.
    pub usb_host: bool,
    /// Whether this is a cloud-connected smart hub with a phone app.
    pub smart_hub: bool,
    /// Command classes advertised in the NIF (15 or 17 per Table IV).
    pub listed: Vec<CommandClassId>,
    /// Model-specific shallow MAC parsing quirks (the VFuzz findings).
    pub mac_quirks: Vec<MacQuirk>,
}

/// Receive-path statistics, for the fuzzers' response analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Frames seen on our home id.
    pub frames_seen: u64,
    /// Frames dropped by MAC validation.
    pub mac_rejected: u64,
    /// Application payloads dispatched.
    pub apl_processed: u64,
    /// Application payloads ignored as unsupported.
    pub apl_ignored: u64,
    /// MAC acks transmitted.
    pub acks_sent: u64,
    /// Application responses transmitted.
    pub responses_sent: u64,
}

/// The simulated controller.
#[derive(Debug)]
pub struct SimController {
    config: ControllerConfig,
    pub(crate) radio: NodeRadio,
    implemented: BTreeSet<u8>,
    nvm: NodeDatabase,
    factory_nvm: NodeDatabase,
    health: Health,
    host: Option<HostProgram>,
    app: Option<AppLink>,
    faults: FaultLog,
    fault_cursor: usize,
    stats: ControllerStats,
    link: LinkPolicy,
    link_stats: LinkStats,
    pending_tx: Option<PendingTx>,
    recent_rx: std::collections::VecDeque<FrameBuf>,
    s2_sessions: Vec<(NodeId, S2Session)>,
    patched_bugs: BTreeSet<u8>,
    associations: std::collections::BTreeMap<u8, Vec<u8>>,
    config_params: std::collections::BTreeMap<u8, u8>,
    s0_key: zwave_crypto::NetworkKey,
    /// Working keys derived from `s0_key` once per key change, not per
    /// MESSAGE_ENCAP frame. Invalidated by [`SimController::set_s0_key`].
    s0_cache: zwave_crypto::s0::S0Keys,
    /// Expanded schedule of `s0_key` for internal nonce generation.
    s0_nonce_cipher: zwave_crypto::aes::Aes128,
    s0_nonce_counter: u64,
    last_s0_nonce: Option<[u8; 8]>,
    /// APL dispatch-edge coverage — a pure observation of dispatched
    /// payloads; recording never influences behaviour, RNG, or timing.
    coverage: CoverageMap,
    /// Inclusion-exchange window state (bugs #17/#18 fire inside it).
    reinclusion: ReinclusionState,
    /// Wake/TX energy attributable to bug #16's offline-node nonce
    /// answers; exhaustion is the `BatteryDrain` verdict.
    attack_energy: EnergyMeter,
    /// Nonce reports sent on behalf of offline nodes (bug #16 counter).
    offline_nonce_answers: u64,
    /// Whether the one-shot `BatteryDrain` fault was already pushed.
    battery_drain_reported: bool,
    /// Whether the payload currently being dispatched arrived on the
    /// final leg of a source-routed frame (bug #19's predicate). Set
    /// around the routed dispatch call only, so encapsulated inner
    /// payloads of a routed frame inherit it.
    rx_via_route: bool,
}

/// Association groups the controller advertises.
pub(crate) const ASSOCIATION_GROUPS: u8 = 3;
/// Maximum members per association group.
pub(crate) const MAX_ASSOCIATIONS_PER_GROUP: usize = 5;

impl SimController {
    /// Attaches a controller to `medium` at `position_m` and builds its
    /// factory state. The implemented CMDCL set is the 43
    /// controller-relevant specification classes plus the two proprietary
    /// classes — 45 in total, matching Table V.
    pub fn new(config: ControllerConfig, medium: &Medium, position_m: f64) -> Self {
        let mut implemented: BTreeSet<u8> =
            Registry::global().controller_relevant().map(|c| c.id.0).collect();
        for spec in proprietary::all() {
            implemented.insert(spec.id.0);
        }
        let mut nvm = NodeDatabase::new();
        nvm.insert(NodeRecord {
            node_id: NodeId::CONTROLLER,
            device_type: zwave_protocol::nif::BasicDeviceType::StaticController,
            generic: 0x02,
            specific: 0x07,
            listening: true,
            secure: true,
            wakeup_interval_s: None,
            offline: false,
            supported: config.listed.clone(),
        });
        let radio = NodeRadio::attach(medium, position_m, config.home_id, NodeId::CONTROLLER);
        let host = config.usb_host.then(HostProgram::new);
        let app = config.smart_hub.then(AppLink::new);
        let s0_key = zwave_crypto::NetworkKey::from_seed(0x5050_5050);
        SimController {
            factory_nvm: nvm.snapshot(),
            nvm,
            config,
            radio,
            implemented,
            health: Health::Operational,
            host,
            app,
            faults: FaultLog::new(),
            fault_cursor: 0,
            stats: ControllerStats::default(),
            link: LinkPolicy::default(),
            link_stats: LinkStats::default(),
            pending_tx: None,
            recent_rx: std::collections::VecDeque::with_capacity(DUP_WINDOW),
            s2_sessions: Vec::new(),
            patched_bugs: BTreeSet::new(),
            associations: std::collections::BTreeMap::new(),
            config_params: std::collections::BTreeMap::new(),
            s0_cache: zwave_crypto::s0::S0Keys::derive(&s0_key),
            s0_nonce_cipher: zwave_crypto::aes::Aes128::new(s0_key.bytes()),
            s0_key,
            s0_nonce_counter: 0,
            last_s0_nonce: None,
            coverage: CoverageMap::new(),
            reinclusion: ReinclusionState::Idle,
            attack_energy: EnergyMeter::new(energy::BATTERY_DRAIN_BUDGET_UJ),
            offline_nonce_answers: 0,
            battery_drain_reported: false,
            rx_via_route: false,
        }
    }

    /// Opens a re-inclusion window for `node` — the testbed's stand-in
    /// for the user pressing the inclusion button to re-pair a device
    /// that fell off the network. Bugs #17/#18 are only reachable while
    /// the window is open.
    pub fn arm_reinclusion(&mut self, node: NodeId) {
        self.reinclusion = ReinclusionState::Armed(node);
    }

    /// Grants the legacy S0 network key this controller answers S0
    /// encapsulation with (testbed pairing). Re-derives the cached working
    /// keys and nonce cipher so no hot-path key expansion is needed later.
    pub(crate) fn set_s0_key(&mut self, key: zwave_crypto::NetworkKey) {
        self.s0_cache = zwave_crypto::s0::S0Keys::derive(&key);
        self.s0_nonce_cipher = zwave_crypto::aes::Aes128::new(key.bytes());
        self.s0_key = key;
    }

    /// The controller's S0 network key (testbed convenience).
    pub fn s0_key(&self) -> &zwave_crypto::NetworkKey {
        &self.s0_key
    }

    fn next_s0_nonce(&mut self) -> [u8; 8] {
        self.s0_nonce_counter += 1;
        // Distinct, deterministic internal nonces: a cipher pass over the
        // counter so values are unpredictable to the simulation user too.
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&self.s0_nonce_counter.to_be_bytes());
        let out = self.s0_nonce_cipher.encrypt(block);
        let mut nonce = [0u8; 8];
        nonce.copy_from_slice(&out[..8]);
        self.last_s0_nonce = Some(nonce);
        nonce
    }

    /// Applies a firmware/SDK update fixing the given Table III bugs — the
    /// Silicon Labs remediation path of Section V-B ("SiLabs confirmed
    /// mitigation plans ... and announced a Z-Wave SDK update"). A patched
    /// path rejects the malicious payload instead of processing it.
    pub fn apply_patches(&mut self, bug_ids: &[u8]) {
        self.patched_bugs.extend(bug_ids.iter().copied());
    }

    /// The model description.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The network home id.
    pub fn home_id(&self) -> HomeId {
        self.config.home_id
    }

    /// The advertised (listed) command classes.
    pub fn listed(&self) -> &[CommandClassId] {
        &self.config.listed
    }

    /// The full implemented CMDCL set (listed + unlisted + proprietary).
    pub fn implemented(&self) -> &BTreeSet<u8> {
        &self.implemented
    }

    /// Read access to the node database (the verification oracle).
    pub fn nvm(&self) -> &NodeDatabase {
        &self.nvm
    }

    /// Mutable access to the node database (testbed setup).
    pub fn nvm_mut(&mut self) -> &mut NodeDatabase {
        &mut self.nvm
    }

    /// Marks the current NVM content as factory state for future restores.
    pub fn commit_factory_state(&mut self) {
        self.factory_nvm = self.nvm.snapshot();
    }

    /// Current health, settled against the clock.
    pub fn health(&self) -> Health {
        self.health.settled(self.now())
    }

    /// The PC controller program, when this model is USB-hosted.
    pub fn host(&self) -> Option<&HostProgram> {
        self.host.as_ref()
    }

    /// The app link, when this model is a smart hub.
    pub fn app(&self) -> Option<&AppLink> {
        self.app.as_ref()
    }

    /// Receive-path statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// APL dispatch-edge coverage recorded so far.
    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    /// Link-layer counters: retransmissions, ack timeouts, duplicates
    /// suppressed.
    pub fn link_stats(&self) -> LinkStats {
        self.link_stats
    }

    /// The full fault log.
    pub fn fault_log(&self) -> &FaultLog {
        &self.faults
    }

    /// Drains fault records appended since the last call — the
    /// manual-verification oracle the fuzz harness consults.
    pub fn take_new_faults(&mut self) -> Vec<FaultRecord> {
        let new = self.faults.records()[self.fault_cursor..].to_vec();
        self.fault_cursor = self.faults.records().len();
        new
    }

    /// Registers an established S2 session with a paired node.
    pub(crate) fn pair_s2(&mut self, node: NodeId, session: S2Session) {
        self.s2_sessions.retain(|(n, _)| *n != node);
        self.s2_sessions.push((node, session));
    }

    /// Whether the controller answers a liveness ping right now: the
    /// paper's NOP-based crash verification signal.
    pub fn is_responsive(&self) -> bool {
        self.health.is_responsive(self.now())
    }

    /// Factory reset between fuzzing trials: restores NVM, health, host
    /// and app state. The fault log survives (it is the experiment record).
    pub fn restore_factory(&mut self) {
        let snapshot = self.factory_nvm.snapshot();
        self.nvm.restore(&snapshot);
        self.health = Health::Operational;
        if let Some(token) = self.pending_tx.take().and_then(|p| p.timer) {
            self.radio.transceiver().cancel_wakeup(token);
        }
        self.recent_rx.clear();
        if let Some(host) = &mut self.host {
            host.restart();
        }
        if let Some(app) = &mut self.app {
            app.recover();
        }
        self.reinclusion = ReinclusionState::Idle;
        self.attack_energy.reset();
        self.offline_nonce_answers = 0;
        self.battery_drain_reported = false;
        self.rx_via_route = false;
    }

    fn now(&self) -> SimInstant {
        self.radio.transceiver().medium().clock().now()
    }

    /// Sends an application payload to `dst` as an acknowledged singlecast.
    /// The frame is tracked for retransmission until `dst` acks it or the
    /// [`LinkPolicy`] retry budget runs out.
    pub(crate) fn send_apl(&mut self, dst: NodeId, payload: Vec<u8>) {
        let Some(Sent { bytes, arrival, seq }) = self.radio.send(dst, &payload) else { return };
        self.stats.responses_sent += 1;
        // A newer transmission supersedes any still-unacked predecessor
        // (single in-flight frame, like the real single-buffer MAC).
        if let Some(token) = self.pending_tx.take().and_then(|p| p.timer) {
            self.radio.transceiver().cancel_wakeup(token);
        }
        // The arrival instant (transmit time plus queued airtime) anchors
        // the ack wait: the receiver cannot ack before the frame lands.
        let deadline = arrival.plus(self.link.wait_after(1));
        self.pending_tx = Some(PendingTx {
            bytes,
            dst,
            seq,
            attempts: 1,
            deadline,
            timer: Some(self.radio.transceiver().schedule_wakeup(deadline)),
        });
    }

    /// Polls the door lock's state through the paired S2 session — the
    /// "normal traffic" ZCover's passive scanner observes.
    pub fn query_door_lock(&mut self, lock: NodeId) {
        let home = self.config.home_id.0;
        let (src, dst) = (self.radio.node_id().0, lock.0);
        if let Some((_, session)) = self.s2_sessions.iter_mut().find(|(n, _)| *n == lock) {
            let encap = session.encapsulate(home, src, dst, &[0x62, 0x02]);
            self.radio.send(lock, &encap);
        }
    }

    /// Processes every frame waiting on the radio, then services the
    /// retransmission timer for any still-unacked transmission.
    pub fn poll(&mut self) {
        while let Some(rx) = self.radio.recv_where(|raw| self.accepts(raw)) {
            self.receive(&rx.bytes);
        }
        self.service_retransmission();
    }

    /// The transceiver's hardware home-id filter: whether `raw` belongs
    /// to this network at all. [`SimController::poll`] drops every other
    /// frame at the receive ring, before it costs a decode;
    /// [`SimController::receive`] applies the same filter first.
    pub fn accepts(&self, raw: &[u8]) -> bool {
        MacFrame::peek_home_id(raw) == Some(self.config.home_id)
    }

    /// Retransmits the pending frame when its ack wait has expired, or
    /// abandons it once the retry budget is spent.
    fn service_retransmission(&mut self) {
        let now = self.now();
        let Some(pending) = self.pending_tx.as_ref() else { return };
        if now < pending.deadline {
            return;
        }
        if pending.attempts > self.link.max_retries {
            self.pending_tx = None;
            self.link_stats.ack_timeouts += 1;
            return;
        }
        // Identical bytes on air: same sequence number, so the receiver's
        // duplicate filter absorbs the copy if only the ack was lost. The
        // clone is a ref-count bump on the shared frame buffer.
        let bytes = pending.bytes.clone();
        let attempts = pending.attempts + 1;
        let arrival = self.radio.resend(&bytes);
        self.link_stats.retransmissions += 1;
        // The expired wakeup already fired (that is what got us polled), so
        // only the fresh one needs arming.
        let deadline = arrival.plus(self.link.wait_after(attempts));
        let timer = Some(self.radio.transceiver().schedule_wakeup(deadline));
        if let Some(pending) = self.pending_tx.as_mut() {
            pending.attempts = attempts;
            pending.deadline = deadline;
            pending.timer = timer;
        }
    }

    /// Duplicate filter: returns `true` (and counts it) when `raw` matches
    /// a recently dispatched frame byte-for-byte; otherwise remembers it.
    /// Remembering is a ref-count bump: the window shares the receive
    /// buffer instead of copying it.
    fn is_duplicate(&mut self, raw: &FrameBuf) -> bool {
        if self.recent_rx.iter().any(|seen| seen == raw) {
            self.link_stats.duplicates_suppressed += 1;
            return true;
        }
        if self.recent_rx.len() == DUP_WINDOW {
            self.recent_rx.pop_front();
        }
        self.recent_rx.push_back(raw.clone());
        false
    }

    /// Processes one frame as if it had just arrived, with no receive
    /// filter: what [`SimController::poll`] does for each frame
    /// [`SimController::accepts`] passes.
    pub fn receive(&mut self, raw: &FrameBuf) {
        // 1. Hardware home-id filter.
        if !self.accepts(raw) {
            return;
        }
        self.stats.frames_seen += 1;

        // 2. Pre-parse MAC quirks: firmware touches the length field before
        //    validating the checksum, so these fire on malformed frames.
        if let Some(quirk) = vulns::check_mac_quirks(&self.config.mac_quirks, raw) {
            let until = self.now().plus(vulns::MAC_QUIRK_OUTAGE);
            self.health = Health::BusyUntil(until);
            // Wakeup hint so an event-driven driver re-polls at recovery.
            self.radio.transceiver().schedule_wakeup(until);
            self.faults.push(FaultRecord {
                at: self.now(),
                bug_id: 100 + quirk.id,
                cmdcl: 0xFF,
                cmd: 0xFF,
                effect: EffectKind::MacParsingGlitch,
                root_cause: RootCause::Implementation,
                outage: Some(vulns::MAC_QUIRK_OUTAGE),
                trigger: raw.to_vec(),
            });
            return;
        }

        // 3. MAC validation.
        let Ok(frame) = MacFrame::decode(raw) else {
            self.stats.mac_rejected += 1;
            return;
        };

        // 4. Health gate: a busy or downed controller processes nothing.
        self.health = self.health.settled(self.now());
        if !self.health.is_responsive(self.now()) {
            return;
        }

        // 5. Addressing + MAC ack. Multicast frames carry a node mask in
        //    front of the payload and are never acknowledged.
        if frame.frame_control().header_type == zwave_protocol::frame::HeaderType::Multicast {
            let Ok((header, apl)) = zwave_protocol::MulticastHeader::decode(frame.payload()) else {
                return;
            };
            if !header.contains(self.radio.node_id()) {
                return;
            }
            if self.is_duplicate(raw) {
                return;
            }
            if let Ok(payload) = ApplicationPayload::parse(apl) {
                self.dispatch(frame.src(), &payload, false);
            }
            return;
        }
        if frame.dst() != self.radio.node_id() && !frame.dst().is_broadcast() {
            return;
        }
        if frame.is_ack() {
            // The ack we were waiting on clears the retransmission timer.
            if let Some(pending) = &self.pending_tx {
                if frame.src() == pending.dst && frame.frame_control().sequence == pending.seq {
                    if let Some(token) = self.pending_tx.take().and_then(|p| p.timer) {
                        self.radio.transceiver().cancel_wakeup(token);
                    }
                }
            }
            return;
        }
        if self.radio.ack_if_requested(&frame) {
            self.stats.acks_sent += 1;
        }
        // Duplicate suppression comes *after* the MAC ack: a retransmitted
        // frame means the sender missed our ack, so we re-ack but do not
        // re-process the application payload.
        if self.is_duplicate(raw) {
            return;
        }

        // 6. Application dispatch. Routed frames addressed to us carry a
        //    routing header to strip; frames still in transit through the
        //    mesh are left to the repeaters.
        if frame.frame_control().header_type == zwave_protocol::frame::HeaderType::Routed {
            let Ok((header, apl)) = zwave_protocol::RoutingHeader::decode(frame.payload()) else {
                return;
            };
            if !header.on_final_leg() {
                return; // a repeater, not us, must handle this copy
            }
            // The end-to-end confirmation the route originator waits
            // for; the MAC ack of this last-leg copy already went out.
            if header.outbound && self.radio.send_routed_ack(frame.src(), &header) {
                self.stats.responses_sent += 1;
            }
            if let Ok(payload) = ApplicationPayload::parse(apl) {
                self.rx_via_route = true;
                self.dispatch(frame.src(), &payload, false);
                self.rx_via_route = false;
            }
            return;
        }
        let Ok(payload) = ApplicationPayload::parse(frame.payload()) else {
            return; // empty payload: the ack was the whole exchange
        };
        self.dispatch(frame.src(), &payload, false);
    }

    fn dispatch(&mut self, src: NodeId, payload: &ApplicationPayload, encrypted: bool) {
        let cc = payload.command_class();
        let cmd = payload.command().unwrap_or(0);

        // NOP ping: the MAC ack already answered it.
        if cc == CommandClassId::NO_OPERATION {
            self.coverage.record(cc.0, cmd, cov::PLAIN);
            self.stats.apl_processed += 1;
            return;
        }

        if !self.implemented.contains(&cc.0) {
            self.coverage.record(cc.0, cmd, cov::IGNORED);
            self.stats.apl_ignored += 1;
            return;
        }
        self.stats.apl_processed += 1;

        // S2 message encapsulation: unwrap and re-dispatch as encrypted.
        if cc == CommandClassId::SECURITY_2 && payload.command() == Some(0x03) {
            self.coverage.record(cc.0, cmd, cov::ENCAP);
            let home = self.config.home_id.0;
            let (s, d) = (src.0, self.radio.node_id().0);
            let bytes = payload.encode();
            if let Some((_, session)) = self.s2_sessions.iter_mut().find(|(n, _)| *n == src) {
                if let Ok(inner) = session.decapsulate(home, s, d, &bytes) {
                    if let Ok(inner_payload) = ApplicationPayload::parse(&inner) {
                        self.dispatch(src, &inner_payload, true);
                    }
                }
            }
            return;
        }

        // S0: nonce requests, message encapsulation, and key exchange.
        if cc == CommandClassId::SECURITY_0 {
            self.coverage.record(cc.0, cmd, cov::ENCAP);
            match payload.command() {
                Some(zwave_crypto::s0::cmd::NONCE_GET) => {
                    // Bug #16 (S0-No-More): the firmware answers every
                    // NONCE_GET — even one claiming to come from a node
                    // the controller itself has marked offline, which a
                    // healthy peer never sends. Each such answer spends
                    // a radio wake plus the report's airtime.
                    let flawed = vulns::offline_nonce_flaw(src.0, &self.vuln_ctx(encrypted));
                    if flawed {
                        if self.patched_bugs.contains(&16) {
                            // Patched firmware checks node liveness
                            // before spending energy on an answer.
                            self.coverage.record(cc.0, cmd, cov::PATCHED);
                            return;
                        }
                        self.coverage.record(cc.0, cmd, cov::ATTACK);
                    }
                    let nonce = self.next_s0_nonce();
                    let mut report = vec![0x98, zwave_crypto::s0::cmd::NONCE_REPORT];
                    report.extend_from_slice(&nonce);
                    if flawed {
                        self.offline_nonce_answers += 1;
                        // MAC framing wraps the 10-byte payload in a
                        // 9-byte header plus the checksum: 20 on air.
                        let cost = energy::tx_cost_default_uj(report.len() + 10);
                        self.attack_energy.charge(cost);
                        if self.attack_energy.exhausted() && !self.battery_drain_reported {
                            self.battery_drain_reported = true;
                            self.faults.push(FaultRecord {
                                at: self.now(),
                                bug_id: 16,
                                cmdcl: cc.0,
                                cmd,
                                effect: EffectKind::BatteryDrain,
                                root_cause: RootCause::Specification,
                                outage: None,
                                trigger: payload.encode(),
                            });
                        }
                    }
                    self.send_apl(src, report);
                }
                Some(S0_KEY_SET) => {
                    // Bug #18 (Crushing the Wave): a plaintext
                    // NETWORK_KEY_SET is accepted while a downgraded
                    // re-inclusion is in flight, resetting the S0 key
                    // without user confirmation and locking every
                    // previously paired device out.
                    let flawed =
                        vulns::key_reset_flaw(payload.params().len(), &self.vuln_ctx(encrypted));
                    if flawed && self.patched_bugs.contains(&18) {
                        self.coverage.record(cc.0, cmd, cov::PATCHED);
                        self.send_apl(src, vec![0x22, 0x02, 0x00]);
                        return;
                    }
                    if flawed {
                        self.coverage.record(cc.0, cmd, cov::ATTACK);
                        let mut key = [0u8; 16];
                        key.copy_from_slice(&payload.params()[..16]);
                        self.set_s0_key(zwave_crypto::NetworkKey::new(key));
                        // The exchange concludes; the window closes.
                        self.reinclusion = ReinclusionState::Idle;
                        self.faults.push(FaultRecord {
                            at: self.now(),
                            bug_id: 18,
                            cmdcl: cc.0,
                            cmd,
                            effect: EffectKind::Lockout,
                            root_cause: RootCause::Specification,
                            outage: None,
                            trigger: payload.encode(),
                        });
                        // KEY_VERIFY, as if the exchange were legal.
                        self.send_apl(src, vec![0x98, 0x07]);
                    } else {
                        self.send_apl(src, vec![0x22, 0x02, 0x00]);
                    }
                }
                Some(zwave_crypto::s0::cmd::MESSAGE_ENCAP) => {
                    let Some(receiver_nonce) = self.last_s0_nonce else { return };
                    let bytes = payload.encode();
                    if let Ok(inner) = zwave_crypto::s0::decapsulate(
                        &self.s0_cache,
                        src.0,
                        self.radio.node_id().0,
                        &receiver_nonce,
                        &bytes,
                    ) {
                        self.last_s0_nonce = None; // single use
                        if let Ok(inner_payload) = ApplicationPayload::parse(&inner) {
                            self.dispatch(src, &inner_payload, true);
                        }
                    }
                }
                _ => self.send_apl(src, vec![0x22, 0x02, 0x00]),
            }
            return;
        }

        // CRC-16 encapsulation: verify the trailer and re-dispatch the
        // inner command (still *unencrypted* — a checksum is not a MAC).
        if cc == CommandClassId::CRC16_ENCAP && payload.command() == Some(0x01) {
            self.coverage.record(cc.0, cmd, cov::ENCAP);
            let bytes = payload.encode();
            if bytes.len() > 4 {
                let (body, trailer) = bytes.split_at(bytes.len() - 2);
                let received = u16::from_be_bytes([trailer[0], trailer[1]]);
                if zwave_protocol::checksum::crc16_ccitt(body) == received {
                    if let Ok(inner_payload) = ApplicationPayload::parse(&body[2..]) {
                        self.dispatch(src, &inner_payload, encrypted);
                    }
                }
            }
            return;
        }

        // Supervision: unwrap, dispatch the inner command, confirm.
        if cc == CommandClassId::SUPERVISION && payload.command() == Some(0x01) {
            self.coverage.record(cc.0, cmd, cov::ENCAP);
            let params = payload.params();
            if params.len() >= 3 {
                let session_id = params[0];
                let declared = params[1] as usize;
                let inner = &params[2..];
                if declared == inner.len() {
                    if let Ok(inner_payload) = ApplicationPayload::parse(inner) {
                        self.dispatch(src, &inner_payload, encrypted);
                    }
                    // SUPERVISION REPORT: success, no further updates.
                    self.send_apl(src, vec![0x6C, 0x02, session_id & 0x3F, 0xFF, 0x00]);
                }
            }
            return;
        }

        // The seeded vulnerability gate.
        let triggered = vulns::check(payload, &self.vuln_ctx(encrypted));
        if let Some(t) = triggered {
            if self.patched_bugs.contains(&t.bug_id) {
                // Patched firmware validates and rejects the payload.
                self.coverage.record(cc.0, cmd, cov::PATCHED);
                self.send_apl(src, vec![0x22, 0x02, 0x00]);
                return;
            }
            // Attack-scenario bugs (#16+) get their own dispatch state
            // so coverage-guided mode can tell them from Table III hits.
            let state = if t.bug_id >= 16 { cov::ATTACK } else { cov::VULN };
            self.coverage.record(cc.0, cmd, state);
            self.apply_vuln_effect(&t, payload);
            return;
        }

        self.coverage.record(cc.0, cmd, if encrypted { cov::ENCRYPTED } else { cov::PLAIN });
        self.handle_legit(src, payload);
    }

    /// The device context the vulnerability predicates consult.
    fn vuln_ctx(&self, encrypted: bool) -> VulnContext<'_> {
        VulnContext {
            nvm: &self.nvm,
            implemented: &self.implemented,
            encrypted,
            usb_host: self.config.usb_host,
            smart_hub: self.config.smart_hub,
            self_node: self.radio.node_id().0,
            reinclusion_armed: matches!(self.reinclusion, ReinclusionState::Armed(_)),
            downgrade_active: matches!(self.reinclusion, ReinclusionState::Downgraded(_)),
            via_route: self.rx_via_route,
        }
    }

    fn apply_vuln_effect(&mut self, t: &vulns::Triggered, payload: &ApplicationPayload) {
        use zwave_protocol::nif::BasicDeviceType;
        match &t.effect {
            VulnEffect::TamperNode { node, new_type } => {
                if let Some(rec) = self.nvm.get_mut(NodeId(*node)) {
                    rec.device_type = BasicDeviceType::from_byte(*new_type)
                        .unwrap_or(BasicDeviceType::RoutingSlave);
                    rec.secure = false;
                }
            }
            VulnEffect::InsertRogue { node, type_byte } => {
                let mut rec = NodeRecord::new(
                    NodeId(*node),
                    BasicDeviceType::from_byte(*type_byte).unwrap_or(BasicDeviceType::Controller),
                );
                rec.listening = true;
                self.nvm.insert(rec);
            }
            VulnEffect::RemoveNode { node } => {
                self.nvm.remove(NodeId(*node));
            }
            VulnEffect::OverwriteDatabase => {
                self.nvm.clear();
                // The table fills with attacker-controlled fakes.
                for fake in [0x0A, 0x63, 0xC8] {
                    self.nvm.insert(NodeRecord::new(NodeId(fake), BasicDeviceType::Controller));
                }
            }
            VulnEffect::AppDos => {
                if let Some(app) = &mut self.app {
                    app.deny_service();
                }
                if let Some(host) = &mut self.host {
                    host.deny_service();
                }
            }
            VulnEffect::HostCrash => {
                if let Some(host) = &mut self.host {
                    host.crash();
                }
            }
            VulnEffect::Busy(d) => {
                let until = self.now().plus(*d);
                self.health = Health::BusyUntil(until);
                // Wakeup hint so an event-driven driver re-polls at
                // recovery instead of stepping through the outage.
                self.radio.transceiver().schedule_wakeup(until);
            }
            VulnEffect::ClearWakeup { node } => {
                if let Some(rec) = self.nvm.get_mut(NodeId(*node)) {
                    rec.wakeup_interval_s = None;
                }
            }
            VulnEffect::HostDos => {
                if let Some(host) = &mut self.host {
                    host.deny_service();
                }
            }
            VulnEffect::AcceptDowngrade => {
                if let ReinclusionState::Armed(node) = self.reinclusion {
                    self.reinclusion = ReinclusionState::Downgraded(node);
                    // The re-included node loses its S2 pairing.
                    if let Some(rec) = self.nvm.get_mut(node) {
                        rec.secure = false;
                    }
                }
            }
        }
        self.faults.push(FaultRecord {
            at: self.now(),
            bug_id: t.bug_id,
            cmdcl: payload.command_class().0,
            cmd: payload.command().unwrap_or(0),
            effect: t.effect_kind,
            root_cause: t.root_cause,
            outage: t.outage,
            trigger: payload.encode(),
        });
    }

    fn handle_legit(&mut self, src: NodeId, payload: &ApplicationPayload) {
        let cc = payload.command_class();
        let cmd = payload.command();
        match (cc.0, cmd) {
            // NIF request → NIF report with the *listed* classes only.
            (0x01, Some(nif::ZWAVE_PROTOCOL_CMD_REQUEST_NODE_INFO)) => {
                let frame = NodeInfoFrame::static_controller(self.config.listed.clone());
                self.send_apl(src, frame.encode());
            }
            // Other implemented protocol commands: confirm completion —
            // the response signal systematic validation testing keys on.
            (0x01, Some(c)) if proprietary::ZWAVE_PROTOCOL.command(c).is_some() => {
                self.send_apl(src, vec![0x01, 0x07, 0x00]);
            }
            (0x02, Some(0x01)) => {
                // Zensor bind request → bind accept.
                self.send_apl(src, vec![0x02, 0x02, self.radio.node_id().0]);
            }
            (0x02, Some(c)) if proprietary::ZENSOR_NET.command(c).is_some() => {
                self.send_apl(src, vec![0x22, 0x01, 0x00, 0x00]);
            }
            // Basic Get → Basic Report.
            (0x20, Some(0x02)) => self.send_apl(src, vec![0x20, 0x03, 0xFF]),
            // Version Get → Version Report.
            (0x86, Some(0x11)) => {
                self.send_apl(src, vec![0x86, 0x12, 0x07, 0x01, 0x02, 0x05, 0x00])
            }
            // Version CommandClassGet for an implemented class → Report.
            (0x86, Some(0x13)) if !payload.params().is_empty() => {
                let queried = payload.params()[0];
                let version =
                    Registry::global().get(CommandClassId(queried)).map_or(1, |s| s.version);
                self.send_apl(src, vec![0x86, 0x14, queried, version]);
            }
            // Manufacturer Specific Get → Report.
            (0x72, Some(0x04)) => {
                self.send_apl(src, vec![0x72, 0x05, 0x00, 0x86, 0x00, 0x01, 0x00, 0x5A]);
            }
            // Association: stateful group management (lifeline reporting).
            (0x85, Some(0x01)) if payload.params().len() >= 2 => {
                let group = payload.params()[0];
                for &node in &payload.params()[1..] {
                    let members = self.associations.entry(group).or_default();
                    if !members.contains(&node) && members.len() < MAX_ASSOCIATIONS_PER_GROUP {
                        members.push(node);
                    }
                }
            }
            (0x85, Some(0x02)) if !payload.params().is_empty() => {
                let group = payload.params()[0];
                let mut report = vec![0x85, 0x03, group, MAX_ASSOCIATIONS_PER_GROUP as u8, 0x00];
                report.extend(self.associations.get(&group).into_iter().flatten());
                self.send_apl(src, report);
            }
            (0x85, Some(0x04)) if !payload.params().is_empty() => {
                let group = payload.params()[0];
                let removals = &payload.params()[1..];
                if let Some(members) = self.associations.get_mut(&group) {
                    if removals.is_empty() {
                        members.clear();
                    } else {
                        members.retain(|n| !removals.contains(n));
                    }
                }
            }
            (0x85, Some(0x05)) => {
                self.send_apl(src, vec![0x85, 0x06, ASSOCIATION_GROUPS]);
            }
            // Configuration: a persistent parameter store.
            (0x70, Some(0x04)) if payload.params().len() >= 3 => {
                let param = payload.params()[0];
                let value = *payload.params().last().expect("len >= 3");
                self.config_params.insert(param, value);
            }
            (0x70, Some(0x05)) if !payload.params().is_empty() => {
                let param = payload.params()[0];
                let value = self.config_params.get(&param).copied().unwrap_or(0);
                self.send_apl(src, vec![0x70, 0x06, param, 0x01, value]);
            }
            // Any other command of an implemented class: the firmware
            // processed it; reply with Application Status so the sender can
            // tell "supported" from silence.
            _ => {
                self.send_apl(src, vec![0x22, 0x02, 0x00]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use zwave_radio::{SimClock, Transceiver};

    fn test_config() -> ControllerConfig {
        ControllerConfig {
            idx: "D1",
            brand: "ZooZ",
            model: "ZST10",
            year: 2022,
            home_id: HomeId(0xE7DE3F3D),
            usb_host: true,
            smart_hub: false,
            listed: vec![CommandClassId::BASIC, CommandClassId::VERSION],
            mac_quirks: vec![MacQuirk { id: 1, description: "len zero" }],
        }
    }

    fn setup() -> (Medium, SimController, Transceiver) {
        let medium = Medium::new(SimClock::new(), 7);
        let controller = SimController::new(test_config(), &medium, 0.0);
        let attacker = medium.attach(70.0);
        (medium, controller, attacker)
    }

    fn frame(home: u32, src: u8, dst: u8, payload: Vec<u8>) -> Vec<u8> {
        MacFrame::singlecast(HomeId(home), NodeId(src), NodeId(dst), payload).encode()
    }

    #[test]
    fn implemented_set_is_45_classes() {
        let (_m, c, _a) = setup();
        assert_eq!(c.implemented().len(), 45);
        assert!(c.implemented().contains(&0x01));
        assert!(c.implemented().contains(&0x02));
        assert!(c.implemented().contains(&0x9F));
    }

    #[test]
    fn controller_acks_valid_frames() {
        let (_m, mut c, attacker) = setup();
        attacker.transmit(&frame(0xE7DE3F3D, 0x02, 0x01, vec![0x00]));
        c.poll();
        let ack = attacker.recv_where(|_| true).expect("expected a MAC ack");
        let decoded = MacFrame::decode(&ack.bytes).unwrap();
        assert!(decoded.is_ack());
        assert_eq!(c.stats().acks_sent, 1);
    }

    #[test]
    fn wrong_home_id_is_invisible() {
        let (_m, mut c, attacker) = setup();
        attacker.transmit(&frame(0xDEADBEEF, 0x02, 0x01, vec![0x00]));
        c.poll();
        assert_eq!(c.stats().frames_seen, 0);
        assert_eq!(attacker.pending(), 0);
    }

    #[test]
    fn corrupt_checksum_rejected_at_mac() {
        let (_m, mut c, attacker) = setup();
        let mut raw = frame(0xE7DE3F3D, 0x02, 0x01, vec![0x20, 0x01, 0xFF]);
        let last = raw.len() - 1;
        raw[last] ^= 0x55;
        attacker.transmit(&raw);
        c.poll();
        assert_eq!(c.stats().mac_rejected, 1);
        assert_eq!(c.stats().apl_processed, 0);
    }

    #[test]
    fn nif_request_returns_listed_classes() {
        let (_m, mut c, attacker) = setup();
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, nif::encode_nif_request()));
        c.poll();
        let _ack = attacker.recv_where(|_| true).unwrap();
        let reply = attacker.recv_where(|_| true).expect("expected NIF report");
        let decoded = MacFrame::decode(&reply.bytes).unwrap();
        let nif = NodeInfoFrame::decode(decoded.payload()).unwrap();
        assert_eq!(nif.supported, vec![CommandClassId::BASIC, CommandClassId::VERSION]);
    }

    #[test]
    fn unimplemented_class_gets_silence_beyond_ack() {
        let (_m, mut c, attacker) = setup();
        // 0x62 DOOR_LOCK is slave-side, not in the controller set.
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x62, 0x02]));
        c.poll();
        let _ack = attacker.recv_where(|_| true).unwrap();
        assert_eq!(attacker.pending(), 0);
        assert_eq!(c.stats().apl_ignored, 1);
    }

    #[test]
    fn implemented_class_yields_a_response() {
        let (_m, mut c, attacker) = setup();
        // Proprietary 0x01 ASSIGN_IDS → command complete.
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x01, 0x03, 0x00, 0x00]));
        c.poll();
        let _ack = attacker.recv_where(|_| true).unwrap();
        let reply = attacker.recv_where(|_| true).expect("expected processing response");
        let decoded = MacFrame::decode(&reply.bytes).unwrap();
        assert_eq!(decoded.payload(), &[0x01, 0x07, 0x00]);
    }

    #[test]
    fn bug02_rogue_insert_via_radio() {
        let (_m, mut c, attacker) = setup();
        assert!(!c.nvm().contains(NodeId(0x0A)));
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x01, 0x0D, 0x0A, 0x01]));
        c.poll();
        assert!(c.nvm().contains(NodeId(0x0A)));
        let faults = c.take_new_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].bug_id, 2);
        // Cursor drained.
        assert!(c.take_new_faults().is_empty());
    }

    #[test]
    fn bug07_makes_controller_unresponsive_for_68s() {
        let (m, mut c, attacker) = setup();
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x5A, 0x01, 0x00]));
        c.poll();
        assert!(!c.is_responsive());
        // A ping during the outage gets no ack.
        attacker.drain();
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x00]));
        c.poll();
        assert_eq!(attacker.pending(), 0);
        // After 68 virtual seconds the controller answers again.
        m.clock().advance(Duration::from_secs(68));
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x00]));
        c.poll();
        assert_eq!(attacker.pending(), 1);
        assert!(c.is_responsive());
    }

    #[test]
    fn bug06_crashes_host_but_not_controller() {
        let (_m, mut c, attacker) = setup();
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x9F, 0x01, 0x00, 0x00]));
        c.poll();
        assert!(!c.host().unwrap().is_usable());
        assert!(c.is_responsive(), "the stick itself keeps running");
        assert_eq!(c.take_new_faults()[0].bug_id, 6);
    }

    #[test]
    fn mac_quirk_fires_on_len_zero_before_checksum() {
        let (_m, mut c, attacker) = setup();
        let mut raw = frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x20, 0x01, 0xFF]);
        raw[7] = 0x00; // LEN = 0; checksum now also broken
        attacker.transmit(&raw);
        c.poll();
        let faults = c.take_new_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].bug_id, 101);
        assert_eq!(faults[0].effect, EffectKind::MacParsingGlitch);
    }

    #[test]
    fn factory_restore_recovers_everything() {
        let (_m, mut c, attacker) = setup();
        // Wipe the DB and DoS the host.
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x01, 0x0D, 0xFF]));
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x73, 0x04, 0x00]));
        c.poll();
        assert!(c.nvm().contains(NodeId(0x0A)));
        assert!(!c.host().unwrap().is_usable());
        c.restore_factory();
        assert!(!c.nvm().contains(NodeId(0x0A)));
        assert!(c.nvm().contains(NodeId(0x01)));
        assert!(c.host().unwrap().is_usable());
        assert!(c.is_responsive());
    }

    #[test]
    fn duplicate_frame_is_reacked_but_not_reprocessed() {
        let (_m, mut c, attacker) = setup();
        // Bug #02 rogue insert, transmitted twice byte-identically (a MAC
        // retransmission after a lost ack).
        let raw = frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x01, 0x0D, 0x0A, 0x01]);
        attacker.transmit(&raw);
        c.poll();
        assert_eq!(c.take_new_faults().len(), 1);
        attacker.drain();
        attacker.transmit(&raw);
        c.poll();
        // Re-acked so the sender stops retrying, but the payload is not
        // dispatched a second time.
        assert_eq!(c.stats().acks_sent, 2);
        assert!(c.take_new_faults().is_empty(), "duplicate must not re-trigger the fault");
        assert_eq!(c.link_stats().duplicates_suppressed, 1);
    }

    #[test]
    fn repeated_pings_with_fresh_sequence_numbers_are_not_duplicates() {
        let (_m, mut c, attacker) = setup();
        // NOP pings repeat the same payload; their rolling sequence number
        // keeps them distinct for far longer than the dup window.
        for seq in 0..12u8 {
            let mut fc = zwave_protocol::frame::FrameControl::singlecast(seq & 0x0F);
            fc.sequence = seq & 0x0F;
            let f = MacFrame::try_new(
                HomeId(0xE7DE3F3D),
                NodeId(0x0F),
                fc,
                NodeId(0x01),
                vec![0x00],
                zwave_protocol::ChecksumKind::Cs8,
            )
            .unwrap();
            attacker.transmit(&f.encode());
        }
        c.poll();
        assert_eq!(c.link_stats().duplicates_suppressed, 0);
        assert_eq!(c.stats().apl_processed, 12);
    }

    #[test]
    fn unacked_response_is_retransmitted_with_backoff_then_abandoned() {
        let (m, mut c, attacker) = setup();
        // A Basic Get whose response goes to node 0x0F — nobody acks it.
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x20, 0x02]));
        c.poll();
        attacker.drain();
        // First retransmission after the 350 ms ack timeout...
        m.clock().advance(Duration::from_millis(400));
        c.poll();
        assert_eq!(c.link_stats().retransmissions, 1);
        assert_eq!(attacker.drain().len(), 1);
        // ...second after the doubled backoff...
        m.clock().advance(Duration::from_millis(800));
        c.poll();
        assert_eq!(c.link_stats().retransmissions, 2);
        // ...then the retry budget is spent and the frame is abandoned.
        m.clock().advance(Duration::from_secs(2));
        c.poll();
        assert_eq!(c.link_stats().retransmissions, 2);
        assert_eq!(c.link_stats().ack_timeouts, 1);
        m.clock().advance(Duration::from_secs(10));
        c.poll();
        assert_eq!(c.link_stats().ack_timeouts, 1, "abandoned frame stays abandoned");
    }

    #[test]
    fn retransmissions_resend_identical_bytes() {
        let (m, mut c, attacker) = setup();
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x20, 0x02]));
        c.poll();
        let first: Vec<Vec<u8>> = attacker
            .drain()
            .iter()
            .filter_map(|f| MacFrame::decode(&f.bytes).ok().filter(|d| !d.is_ack()))
            .map(|d| d.encode())
            .collect();
        assert_eq!(first.len(), 1, "one Basic Report expected");
        m.clock().advance(Duration::from_millis(400));
        c.poll();
        let retry = attacker.drain();
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].bytes, first[0], "retransmission must reuse the same frame bytes");
    }

    #[test]
    fn ack_from_destination_cancels_retransmission() {
        let (m, mut c, attacker) = setup();
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x20, 0x02]));
        c.poll();
        // Find the response and ack it back with the matching sequence.
        let response = attacker
            .drain()
            .iter()
            .filter_map(|f| MacFrame::decode(&f.bytes).ok())
            .find(|d| !d.is_ack())
            .expect("basic report");
        let ack = MacFrame::ack(
            HomeId(0xE7DE3F3D),
            response.dst(),
            NodeId(0x01),
            response.frame_control().sequence,
        );
        attacker.transmit(&ack.encode());
        c.poll();
        m.clock().advance(Duration::from_secs(5));
        c.poll();
        assert_eq!(c.link_stats().retransmissions, 0);
        assert_eq!(c.link_stats().ack_timeouts, 0);
    }

    /// An S0 NONCE_GET spoofed as coming from `src`.
    fn nonce_get(src: u8) -> Vec<u8> {
        frame(0xE7DE3F3D, src, 0x01, vec![0x98, zwave_crypto::s0::cmd::NONCE_GET])
    }

    /// Like `frame` but with an explicit sequence number, to repeat a
    /// payload without tripping the duplicate filter.
    fn frame_seq(src: u8, seq: u8, payload: Vec<u8>) -> Vec<u8> {
        let mut fc = zwave_protocol::frame::FrameControl::singlecast(seq);
        fc.sequence = seq;
        MacFrame::try_new(
            HomeId(0xE7DE3F3D),
            NodeId(src),
            fc,
            NodeId(0x01),
            payload,
            zwave_protocol::ChecksumKind::Cs8,
        )
        .unwrap()
        .encode()
    }

    fn mark_offline(c: &mut SimController, node: u8) {
        let mut rec = NodeRecord::new(NodeId(node), zwave_protocol::nif::BasicDeviceType::Slave);
        rec.listening = false;
        rec.offline = true;
        rec.wakeup_interval_s = Some(4000);
        c.nvm_mut().insert(rec);
    }

    #[test]
    fn bug16_offline_nonce_answers_exhaust_the_energy_budget() {
        let (_m, mut c, attacker) = setup();
        mark_offline(&mut c, 0x05);
        assert_eq!(c.attack_energy.spent_uj(), 0);
        // Each flood frame needs a fresh sequence number to clear the
        // duplicate filter, like the real attacker schedule produces.
        for i in 0..40u8 {
            let mut fc = zwave_protocol::frame::FrameControl::singlecast(i & 0x0F);
            fc.sequence = i & 0x0F;
            let f = MacFrame::try_new(
                HomeId(0xE7DE3F3D),
                NodeId(0x05),
                fc,
                NodeId(0x01),
                vec![0x98, zwave_crypto::s0::cmd::NONCE_GET],
                zwave_protocol::ChecksumKind::Cs8,
            )
            .unwrap();
            attacker.transmit(&f.encode());
            c.poll();
        }
        assert_eq!(c.offline_nonce_answers, 40);
        assert!(c.attack_energy.exhausted());
        let faults = c.take_new_faults();
        assert_eq!(faults.len(), 1, "the BatteryDrain verdict is one-shot");
        assert_eq!(faults[0].bug_id, 16);
        assert_eq!(faults[0].effect, EffectKind::BatteryDrain);
        // Factory restore refills the budget.
        c.restore_factory();
        assert_eq!(c.attack_energy.spent_uj(), 0);
        assert_eq!(c.offline_nonce_answers, 0);
    }

    #[test]
    fn bug16_online_nodes_charge_nothing() {
        let (_m, mut c, attacker) = setup();
        // Node 0x05 exists but is online: normal S0 service.
        let rec = NodeRecord::new(NodeId(0x05), zwave_protocol::nif::BasicDeviceType::Slave);
        c.nvm_mut().insert(rec);
        attacker.transmit(&nonce_get(0x05));
        c.poll();
        assert_eq!(c.offline_nonce_answers, 0);
        assert_eq!(c.attack_energy.spent_uj(), 0);
        assert!(c.take_new_faults().is_empty());
        // The nonce itself is still answered (ack + report on air).
        assert!(attacker.pending() >= 2);
    }

    #[test]
    fn bug16_patched_firmware_stays_silent_and_spends_nothing() {
        let (_m, mut c, attacker) = setup();
        mark_offline(&mut c, 0x05);
        c.apply_patches(&[16]);
        attacker.transmit(&nonce_get(0x05));
        c.poll();
        let frames = attacker.drain();
        // The MAC ack still goes out, but no nonce report follows.
        assert!(frames.iter().all(|f| MacFrame::decode(&f.bytes).is_ok_and(|d| d.is_ack())));
        assert_eq!(c.offline_nonce_answers, 0);
        assert_eq!(c.attack_energy.spent_uj(), 0);
    }

    #[test]
    fn bug17_downgrade_needs_the_armed_window() {
        let (_m, mut c, attacker) = setup();
        let rec = {
            let mut r = NodeRecord::new(NodeId(0x02), zwave_protocol::nif::BasicDeviceType::Slave);
            r.secure = true;
            r
        };
        c.nvm_mut().insert(rec);
        let kex_set = frame(0xE7DE3F3D, 0x02, 0x01, vec![0x9F, 0x06, 0x80]);
        attacker.transmit(&kex_set);
        c.poll();
        assert!(c.take_new_faults().is_empty(), "inert outside re-inclusion");
        assert_eq!(c.reinclusion, ReinclusionState::Idle);

        c.arm_reinclusion(NodeId(0x02));
        attacker.drain();
        attacker.transmit(&frame_seq(0x02, 0x09, vec![0x9F, 0x06, 0x80]));
        c.poll();
        let faults = c.take_new_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].bug_id, 17);
        assert_eq!(faults[0].effect, EffectKind::SecurityDowngrade);
        assert_eq!(c.reinclusion, ReinclusionState::Downgraded(NodeId(0x02)));
        assert!(!c.nvm().get(NodeId(0x02)).unwrap().secure, "S2 pairing lost");
    }

    #[test]
    fn bug18_key_reset_lands_only_after_the_downgrade() {
        let (_m, mut c, attacker) = setup();
        let original_key = *c.s0_key().bytes();
        let mut key_set = vec![0x98, 0x06];
        key_set.extend_from_slice(&[0xA5; 16]);
        let key_frame = frame(0xE7DE3F3D, 0x02, 0x01, key_set);
        attacker.transmit(&key_frame);
        c.poll();
        assert!(c.take_new_faults().is_empty(), "no downgrade, no reset");
        assert_eq!(c.s0_key().bytes(), &original_key);

        c.arm_reinclusion(NodeId(0x02));
        attacker.drain();
        attacker.transmit(&frame(0xE7DE3F3D, 0x02, 0x01, vec![0x9F, 0x06, 0x80]));
        c.poll();
        assert_eq!(c.take_new_faults().len(), 1); // the downgrade
                                                  // A fresh sequence number keeps the repeat clear of the
                                                  // duplicate filter (the first copy is still in its window).
        let mut key_set = vec![0x98, 0x06];
        key_set.extend_from_slice(&[0xA5; 16]);
        attacker.transmit(&frame_seq(0x02, 0x07, key_set));
        c.poll();
        let faults = c.take_new_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].bug_id, 18);
        assert_eq!(faults[0].effect, EffectKind::Lockout);
        assert_eq!(c.s0_key().bytes(), &[0xA5; 16], "attacker key installed");
        assert_eq!(c.reinclusion, ReinclusionState::Idle, "window closed");
        // Restore undoes the armed state (the key is testbed-managed).
        c.restore_factory();
        assert_eq!(c.reinclusion, ReinclusionState::Idle);
    }

    #[test]
    fn version_get_for_implemented_class_is_legit() {
        let (_m, mut c, attacker) = setup();
        attacker.transmit(&frame(0xE7DE3F3D, 0x0F, 0x01, vec![0x86, 0x13, 0x20]));
        c.poll();
        let _ack = attacker.recv_where(|_| true).unwrap();
        let reply = attacker.recv_where(|_| true).expect("version report");
        let decoded = MacFrame::decode(&reply.bytes).unwrap();
        assert_eq!(&decoded.payload()[..3], &[0x86, 0x14, 0x20]);
        assert!(c.fault_log().is_empty());
    }
}

#[cfg(test)]
mod app_state_tests {
    use super::*;
    use zwave_radio::{SimClock, Transceiver};

    fn setup() -> (Medium, SimController, Transceiver) {
        let medium = Medium::new(SimClock::new(), 7);
        let controller = SimController::new(crate::testbed::DeviceModel::D1.config(), &medium, 0.0);
        let attacker = medium.attach(10.0);
        (medium, controller, attacker)
    }

    fn group(c: &SimController, group: u8) -> &[u8] {
        c.associations.get(&group).map_or(&[], Vec::as_slice)
    }

    fn send(attacker: &Transceiver, c: &mut SimController, payload: Vec<u8>) {
        let frame = MacFrame::singlecast(HomeId(0xE7DE3F3D), NodeId(0x03), NodeId(0x01), payload);
        attacker.transmit(&frame.encode());
        c.poll();
    }

    #[test]
    fn association_set_get_remove_cycle() {
        let (_m, mut c, attacker) = setup();
        send(&attacker, &mut c, vec![0x85, 0x01, 0x01, 0x02, 0x03]);
        assert_eq!(group(&c, 1), &[0x02, 0x03]);
        // Duplicate members are not added twice.
        send(&attacker, &mut c, vec![0x85, 0x01, 0x01, 0x02]);
        assert_eq!(group(&c, 1), &[0x02, 0x03]);

        // Get → Report with the members.
        attacker.drain();
        send(&attacker, &mut c, vec![0x85, 0x02, 0x01]);
        let frames = attacker.drain();
        let report = frames
            .iter()
            .filter_map(|f| MacFrame::decode(&f.bytes).ok())
            .find(|m| !m.is_ack())
            .expect("association report");
        assert_eq!(report.payload(), &[0x85, 0x03, 0x01, 0x05, 0x00, 0x02, 0x03]);

        // Remove one member; then clear the group.
        send(&attacker, &mut c, vec![0x85, 0x04, 0x01, 0x02]);
        assert_eq!(group(&c, 1), &[0x03]);
        send(&attacker, &mut c, vec![0x85, 0x04, 0x01]);
        assert!(group(&c, 1).is_empty());
    }

    #[test]
    fn association_groups_are_capacity_bounded() {
        let (_m, mut c, attacker) = setup();
        let mut payload = vec![0x85, 0x01, 0x02];
        payload.extend(10u8..30);
        send(&attacker, &mut c, payload);
        assert_eq!(group(&c, 2).len(), MAX_ASSOCIATIONS_PER_GROUP);
    }

    #[test]
    fn groupings_report_advertises_three_groups() {
        let (_m, mut c, attacker) = setup();
        attacker.drain();
        send(&attacker, &mut c, vec![0x85, 0x05]);
        let frames = attacker.drain();
        let report = frames
            .iter()
            .filter_map(|f| MacFrame::decode(&f.bytes).ok())
            .find(|m| !m.is_ack())
            .unwrap();
        assert_eq!(report.payload(), &[0x85, 0x06, ASSOCIATION_GROUPS]);
    }

    #[test]
    fn configuration_parameters_persist() {
        let (_m, mut c, attacker) = setup();
        assert_eq!(c.config_params.get(&7).copied(), None);
        send(&attacker, &mut c, vec![0x70, 0x04, 0x07, 0x01, 0x2A]);
        assert_eq!(c.config_params.get(&7).copied(), Some(0x2A));

        attacker.drain();
        send(&attacker, &mut c, vec![0x70, 0x05, 0x07]);
        let frames = attacker.drain();
        let report = frames
            .iter()
            .filter_map(|f| MacFrame::decode(&f.bytes).ok())
            .find(|m| !m.is_ack())
            .unwrap();
        assert_eq!(report.payload(), &[0x70, 0x06, 0x07, 0x01, 0x2A]);
        // Unset parameters read back as zero.
        attacker.drain();
        send(&attacker, &mut c, vec![0x70, 0x05, 0x55]);
        let frames = attacker.drain();
        let report = frames
            .iter()
            .filter_map(|f| MacFrame::decode(&f.bytes).ok())
            .find(|m| !m.is_ack())
            .unwrap();
        assert_eq!(report.payload(), &[0x70, 0x06, 0x55, 0x01, 0x00]);
    }
}
