//! String interning: repeated event names become one-byte ids.
//!
//! A journal repeats a handful of strings millions of times (`packet`,
//! `plan`, `outage`, ...). The writer assigns each distinct string an id
//! in first-appearance order — a pure function of the event stream, so
//! two recordings of the same campaign produce byte-identical tables —
//! and the table itself is serialized once, in the footer. New event
//! names cost a table entry, not a format-version bump: that is the
//! forward-compatibility rule for fuzz-level events.

use std::collections::HashMap;

use crate::varint::{put_string, put_u64, Cursor};
use crate::ZctError;

/// An append-only string table mapping ids (dense, from 0) to strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InternTable {
    strings: Vec<String>,
    ids: HashMap<String, u64>,
}

impl InternTable {
    /// An empty table.
    pub fn new() -> InternTable {
        InternTable::default()
    }

    /// The id for `value`, assigning the next dense id on first sight.
    pub fn intern(&mut self, value: &str) -> u64 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.strings.len() as u64;
        self.strings.push(value.to_string());
        self.ids.insert(value.to_string(), id);
        id
    }

    /// The string behind `id`, if assigned.
    pub fn resolve(&self, id: u64) -> Option<&str> {
        self.strings.get(usize::try_from(id).ok()?).map(String::as_str)
    }

    /// Serializes the table (count, then length-prefixed strings in id
    /// order).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.strings.len() as u64);
        for s in &self.strings {
            put_string(out, s);
        }
    }

    /// Reads a table back.
    ///
    /// # Errors
    ///
    /// [`ZctError::Malformed`] on truncation or invalid UTF-8.
    pub fn decode(cursor: &mut Cursor<'_>) -> Result<InternTable, ZctError> {
        let start = cursor.offset();
        let count = cursor.u64("intern table count")?;
        if count > cursor.remaining() as u64 {
            // Each entry costs at least one byte; an absurd count is
            // rejected before any allocation.
            return Err(ZctError::malformed(
                start,
                format!(
                    "intern table claims {count} entries with {} bytes left",
                    cursor.remaining()
                ),
            ));
        }
        let mut table = InternTable::new();
        for i in 0..count {
            let s = cursor.string("intern table entry")?;
            if table.intern(&s) != i {
                return Err(ZctError::malformed(start, format!("duplicate intern entry {s:?}")));
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_stable() {
        let mut table = InternTable::new();
        assert_eq!(table.intern("packet"), 0);
        assert_eq!(table.intern("plan"), 1);
        assert_eq!(table.intern("packet"), 0);
        assert_eq!(table.resolve(1), Some("plan"));
        assert_eq!(table.resolve(2), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut table = InternTable::new();
        for name in ["packet", "plan", "outage", "packet", "ack_timeout"] {
            table.intern(name);
        }
        let mut buf = Vec::new();
        table.encode(&mut buf);
        let back = InternTable::decode(&mut Cursor::new(&buf, 0)).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn absurd_count_is_malformed_not_oom() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert!(InternTable::decode(&mut Cursor::new(&buf, 0)).is_err());
    }

    #[test]
    fn duplicate_entries_are_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        put_string(&mut buf, "packet");
        put_string(&mut buf, "packet");
        assert!(InternTable::decode(&mut Cursor::new(&buf, 0)).is_err());
    }
}
