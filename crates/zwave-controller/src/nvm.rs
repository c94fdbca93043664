//! The controller's non-volatile node database — the memory that the
//! paper's memory-tampering attacks (Figures 8-11) corrupt.

use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;
use zwave_protocol::nif::BasicDeviceType;
use zwave_protocol::{CommandClassId, NodeId};

/// One node entry in the controller's device table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NodeRecord {
    /// The node's id.
    pub node_id: NodeId,
    /// Basic device type (the field bug #01 flips to "routing slave").
    pub device_type: BasicDeviceType,
    /// Generic device class byte.
    pub generic: u8,
    /// Specific device class byte.
    pub specific: u8,
    /// Whether the node is always listening (mains powered).
    pub listening: bool,
    /// Whether the node was paired with S2.
    pub secure: bool,
    /// Wake-up interval in seconds for sleeping nodes (bug #12 clears it).
    pub wakeup_interval_s: Option<u32>,
    /// Whether the controller has marked this included node as offline —
    /// a sleeping battery node that missed its wake-up windows, or a
    /// failed node awaiting removal. Bug #16's flaw is answering S0
    /// nonce requests on behalf of such nodes anyway.
    pub offline: bool,
    /// Command classes the node advertised at inclusion.
    pub supported: Vec<CommandClassId>,
}

impl NodeRecord {
    /// A minimal record for a newly registered node.
    pub fn new(node_id: NodeId, device_type: BasicDeviceType) -> Self {
        NodeRecord {
            node_id,
            device_type,
            generic: 0,
            specific: 0,
            listening: true,
            secure: false,
            wakeup_interval_s: None,
            offline: false,
            supported: Vec::new(),
        }
    }
}

/// The controller's node database with backup/restore support.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeDatabase {
    nodes: BTreeMap<u8, NodeRecord>,
    /// Count of writes, to detect silent tampering cheaply.
    generation: u64,
}

impl NodeDatabase {
    /// An empty database.
    pub(crate) fn new() -> Self {
        NodeDatabase::default()
    }

    /// Inserts or replaces a node entry; returns the previous entry.
    pub fn insert(&mut self, record: NodeRecord) -> Option<NodeRecord> {
        self.generation += 1;
        self.nodes.insert(record.node_id.0, record)
    }

    /// Removes a node entry.
    pub(crate) fn remove(&mut self, node_id: NodeId) -> Option<NodeRecord> {
        let removed = self.nodes.remove(&node_id.0);
        if removed.is_some() {
            self.generation += 1;
        }
        removed
    }

    /// Looks up a node.
    pub fn get(&self, node_id: NodeId) -> Option<&NodeRecord> {
        self.nodes.get(&node_id.0)
    }

    /// Mutable lookup (bumps the generation counter).
    pub(crate) fn get_mut(&mut self, node_id: NodeId) -> Option<&mut NodeRecord> {
        let entry = self.nodes.get_mut(&node_id.0);
        if entry.is_some() {
            self.generation += 1;
        }
        entry
    }

    /// Whether the database contains `node_id`.
    pub fn contains(&self, node_id: NodeId) -> bool {
        self.nodes.contains_key(&node_id.0)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes every entry (bug #04's database overwrite starts here).
    pub(crate) fn clear(&mut self) {
        self.generation += 1;
        self.nodes.clear();
    }

    /// Monotonic write counter; unequal generations mean the table was
    /// touched.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A deep snapshot for before/after comparisons (the oracle the
    /// memory-tampering experiments diff).
    pub fn snapshot(&self) -> NodeDatabase {
        self.clone()
    }

    /// Restores the table from a snapshot (factory reset between trials).
    pub(crate) fn restore(&mut self, snapshot: &NodeDatabase) {
        self.nodes = snapshot.nodes.clone();
        self.generation += 1;
    }

    /// Renders the device table the way the PC controller program displays
    /// it in Figures 8-11.
    pub fn dump(&self) -> String {
        let mut out = String::from("ID  | type              | secure | wakeup\n");
        for rec in self.nodes.values() {
            let ty = match rec.device_type {
                BasicDeviceType::Controller => "controller",
                BasicDeviceType::StaticController => "static controller",
                BasicDeviceType::Slave => "slave",
                BasicDeviceType::RoutingSlave => "routing slave",
            };
            let wakeup = rec.wakeup_interval_s.map_or_else(|| "-".to_string(), |w| format!("{w}s"));
            out.push_str(&format!(
                "#{:<3}| {:<18}| {:<7}| {}\n",
                rec.node_id.0,
                ty,
                if rec.secure { "S2" } else { "no" },
                wakeup
            ));
        }
        out
    }
}

impl fmt::Display for NodeDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock_record() -> NodeRecord {
        NodeRecord {
            node_id: NodeId(2),
            device_type: BasicDeviceType::Slave,
            generic: 0x40,
            specific: 0x03,
            listening: false,
            secure: true,
            wakeup_interval_s: Some(3600),
            offline: false,
            supported: vec![CommandClassId::DOOR_LOCK, CommandClassId::BATTERY],
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut db = NodeDatabase::new();
        assert!(db.is_empty());
        db.insert(lock_record());
        assert_eq!(db.len(), 1);
        assert!(db.contains(NodeId(2)));
        assert_eq!(db.get(NodeId(2)).unwrap().generic, 0x40);
        let removed = db.remove(NodeId(2)).unwrap();
        assert!(removed.secure);
        assert!(db.is_empty());
        assert!(db.remove(NodeId(2)).is_none());
    }

    #[test]
    fn generation_tracks_writes() {
        let mut db = NodeDatabase::new();
        let g0 = db.generation();
        db.insert(lock_record());
        assert!(db.generation() > g0);
        let g1 = db.generation();
        // Reads do not bump.
        let _ = db.get(NodeId(2));
        let _ = db.contains(NodeId(2));
        assert_eq!(db.generation(), g1);
        // Mutable access does.
        db.get_mut(NodeId(2)).unwrap().device_type = BasicDeviceType::RoutingSlave;
        assert!(db.generation() > g1);
    }

    #[test]
    fn snapshot_and_restore() {
        let mut db = NodeDatabase::new();
        db.insert(lock_record());
        let snap = db.snapshot();
        db.clear();
        assert!(db.is_empty());
        db.restore(&snap);
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(NodeId(2)), snap.get(NodeId(2)));
    }

    #[test]
    fn dump_shows_figures_8_to_11_fields() {
        let mut db = NodeDatabase::new();
        db.insert(NodeRecord::new(NodeId(1), BasicDeviceType::StaticController));
        db.insert(lock_record());
        let dump = db.dump();
        assert!(dump.contains("#1"));
        assert!(dump.contains("static controller"));
        assert!(dump.contains("#2"));
        assert!(dump.contains("slave"));
        assert!(dump.contains("S2"));
        assert!(dump.contains("3600s"));
    }
}
