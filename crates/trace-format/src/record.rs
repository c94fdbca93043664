//! The structured event vocabulary of a campaign trace, and the per-record
//! codec.
//!
//! A [`Record`] is the binary twin of one JSONL journal line: every line
//! shape the JSONL format ever emits has a structured variant here, plus
//! [`Record::Raw`] as the lossless escape hatch — a line the mapper does
//! not recognize survives a binary round trip verbatim, so JSONL export
//! parity holds even for journal shapes invented after this build.
//!
//! Encoding is stateful within a block: virtual timestamps and scheduler
//! sequence numbers are zigzag deltas against a [`DeltaCtx`] that resets
//! at each block boundary, which keeps common records at 4–6 bytes while
//! leaving every block independently decodable.

use crate::intern::InternTable;
use crate::varint::{put_i64, put_string, put_u64, Cursor};
use crate::ZctError;

/// The payload of a scheduler-dequeue record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedKind {
    /// A frame arrival: delivery count and the 64-bit content hash over
    /// every delivery tuple.
    Frame {
        /// Number of per-receiver deliveries.
        n: u64,
        /// FNV-1a hash of the full post-impairment delivery outcome.
        hash: u64,
    },
    /// A wakeup timer firing, by token id.
    Timer {
        /// The timer token id.
        id: u64,
    },
    /// A scripted blackout window opening.
    BlackoutStart {
        /// Impairment-install generation.
        generation: u64,
        /// Stage index within the schedule.
        stage: u64,
    },
    /// A scripted blackout window closing.
    BlackoutEnd {
        /// Impairment-install generation.
        generation: u64,
        /// Stage index within the schedule.
        stage: u64,
    },
}

/// One journal event, structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A scheduler dequeue (`"t":"sched"`).
    Sched {
        /// Virtual time in microseconds.
        at_us: u64,
        /// Scheduler sequence number (the deterministic tie-breaker).
        seq: u64,
        /// Actor index; `-1` is the medium itself.
        actor: i64,
        /// The event payload.
        kind: SchedKind,
    },
    /// A fuzzer lifecycle event (`"t":"fuzz"`), by interned name.
    Fuzz {
        /// Virtual time in microseconds.
        at_us: u64,
        /// Event name (`packet`, `plan`, `outage`, ...).
        ev: String,
    },
    /// An oracle verdict (`"t":"oracle"`).
    Oracle {
        /// Virtual time of first discovery in microseconds.
        at_us: u64,
        /// Table III bug id.
        bug: u64,
        /// CMDCL of the triggering payload.
        cmdcl: u64,
        /// CMD of the triggering payload.
        cmd: u64,
    },
    /// A corpus retention event (`"t":"corpus"`, coverage mode).
    Corpus {
        /// Virtual time in microseconds.
        at_us: u64,
        /// New coverage edges the retained input discovered.
        edges: u64,
        /// Corpus size after retention.
        size: u64,
    },
    /// A scripted adversary frame (`"t":"attack"`).
    Attack {
        /// Virtual time in microseconds.
        at_us: u64,
        /// Index into the attacker schedule.
        index: u64,
    },
    /// The closing summary (`"t":"end"`).
    End {
        /// Virtual time the campaign ended, in microseconds.
        at_us: u64,
        /// Total fuzz packets injected.
        packets: u64,
        /// Unique vulnerabilities found.
        findings: u64,
        /// Scheduler events released over the whole trial.
        sched_events: u64,
    },
    /// A journal line this build has no structured shape for, preserved
    /// verbatim (forward compatibility: newer writers' lines survive).
    Raw(String),
}

impl Record {
    /// The record's virtual timestamp, when it has one.
    pub fn at_us(&self) -> Option<u64> {
        match self {
            Record::Sched { at_us, .. }
            | Record::Fuzz { at_us, .. }
            | Record::Oracle { at_us, .. }
            | Record::Corpus { at_us, .. }
            | Record::Attack { at_us, .. }
            | Record::End { at_us, .. } => Some(*at_us),
            Record::Raw(_) => None,
        }
    }
}

/// Wire tags, one per record shape. New shapes append; existing tags are
/// frozen (the version-1 forward-compat rule).
const TAG_SCHED_FRAME: u64 = 0;
const TAG_SCHED_TIMER: u64 = 1;
const TAG_SCHED_BLACKOUT_START: u64 = 2;
const TAG_SCHED_BLACKOUT_END: u64 = 3;
const TAG_FUZZ: u64 = 4;
const TAG_ORACLE: u64 = 5;
const TAG_CORPUS: u64 = 6;
const TAG_ATTACK: u64 = 7;
const TAG_END: u64 = 8;
const TAG_RAW: u64 = 9;

/// The delta state threading through one block's records. Fresh at every
/// block boundary, so blocks decode independently.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaCtx {
    prev_at_us: u64,
    prev_seq: u64,
}

impl DeltaCtx {
    fn delta_at(&mut self, at_us: u64) -> i64 {
        let delta = at_us.wrapping_sub(self.prev_at_us) as i64;
        self.prev_at_us = at_us;
        delta
    }

    fn undelta_at(&mut self, delta: i64) -> u64 {
        self.prev_at_us = self.prev_at_us.wrapping_add(delta as u64);
        self.prev_at_us
    }

    fn delta_seq(&mut self, seq: u64) -> i64 {
        let delta = seq.wrapping_sub(self.prev_seq) as i64;
        self.prev_seq = seq;
        delta
    }

    fn undelta_seq(&mut self, delta: i64) -> u64 {
        self.prev_seq = self.prev_seq.wrapping_add(delta as u64);
        self.prev_seq
    }
}

/// Encodes one record, updating the delta context and interning table.
pub fn encode_record(
    out: &mut Vec<u8>,
    record: &Record,
    ctx: &mut DeltaCtx,
    intern: &mut InternTable,
) {
    match record {
        Record::Sched { at_us, seq, actor, kind } => {
            let tag = match kind {
                SchedKind::Frame { .. } => TAG_SCHED_FRAME,
                SchedKind::Timer { .. } => TAG_SCHED_TIMER,
                SchedKind::BlackoutStart { .. } => TAG_SCHED_BLACKOUT_START,
                SchedKind::BlackoutEnd { .. } => TAG_SCHED_BLACKOUT_END,
            };
            put_u64(out, tag);
            put_i64(out, ctx.delta_at(*at_us));
            put_i64(out, ctx.delta_seq(*seq));
            put_i64(out, *actor);
            match kind {
                SchedKind::Frame { n, hash } => {
                    put_u64(out, *n);
                    out.extend_from_slice(&hash.to_le_bytes());
                }
                SchedKind::Timer { id } => put_u64(out, *id),
                SchedKind::BlackoutStart { generation, stage }
                | SchedKind::BlackoutEnd { generation, stage } => {
                    put_u64(out, *generation);
                    put_u64(out, *stage);
                }
            }
        }
        Record::Fuzz { at_us, ev } => {
            put_u64(out, TAG_FUZZ);
            put_i64(out, ctx.delta_at(*at_us));
            put_u64(out, intern.intern(ev));
        }
        Record::Oracle { at_us, bug, cmdcl, cmd } => {
            put_u64(out, TAG_ORACLE);
            put_i64(out, ctx.delta_at(*at_us));
            put_u64(out, *bug);
            put_u64(out, *cmdcl);
            put_u64(out, *cmd);
        }
        Record::Corpus { at_us, edges, size } => {
            put_u64(out, TAG_CORPUS);
            put_i64(out, ctx.delta_at(*at_us));
            put_u64(out, *edges);
            put_u64(out, *size);
        }
        Record::Attack { at_us, index } => {
            put_u64(out, TAG_ATTACK);
            put_i64(out, ctx.delta_at(*at_us));
            put_u64(out, *index);
        }
        Record::End { at_us, packets, findings, sched_events } => {
            put_u64(out, TAG_END);
            put_i64(out, ctx.delta_at(*at_us));
            put_u64(out, *packets);
            put_u64(out, *findings);
            put_u64(out, *sched_events);
        }
        Record::Raw(line) => {
            put_u64(out, TAG_RAW);
            put_string(out, line);
        }
    }
}

/// Decodes one record, updating the delta context.
///
/// # Errors
///
/// [`ZctError::Malformed`] on truncation, an unknown tag, or a fuzz
/// record referencing an id the interning table lacks.
pub fn decode_record(
    cursor: &mut Cursor<'_>,
    ctx: &mut DeltaCtx,
    intern: &InternTable,
) -> Result<Record, ZctError> {
    let start = cursor.offset();
    let tag = cursor.u64("record tag")?;
    let record = match tag {
        TAG_SCHED_FRAME | TAG_SCHED_TIMER | TAG_SCHED_BLACKOUT_START | TAG_SCHED_BLACKOUT_END => {
            let at_us = ctx.undelta_at(cursor.i64("sched at_us delta")?);
            let seq = ctx.undelta_seq(cursor.i64("sched seq delta")?);
            let actor = cursor.i64("sched actor")?;
            let kind = match tag {
                TAG_SCHED_FRAME => SchedKind::Frame {
                    n: cursor.u64("frame delivery count")?,
                    hash: cursor.u64_le("frame content hash")?,
                },
                TAG_SCHED_TIMER => SchedKind::Timer { id: cursor.u64("timer id")? },
                TAG_SCHED_BLACKOUT_START => SchedKind::BlackoutStart {
                    generation: cursor.u64("blackout generation")?,
                    stage: cursor.u64("blackout stage")?,
                },
                _ => SchedKind::BlackoutEnd {
                    generation: cursor.u64("blackout generation")?,
                    stage: cursor.u64("blackout stage")?,
                },
            };
            Record::Sched { at_us, seq, actor, kind }
        }
        TAG_FUZZ => {
            let at_us = ctx.undelta_at(cursor.i64("fuzz at_us delta")?);
            let id = cursor.u64("fuzz event id")?;
            let ev = intern
                .resolve(id)
                .ok_or_else(|| {
                    ZctError::malformed(start, format!("fuzz event id {id} not in intern table"))
                })?
                .to_string();
            Record::Fuzz { at_us, ev }
        }
        TAG_ORACLE => Record::Oracle {
            at_us: ctx.undelta_at(cursor.i64("oracle at_us delta")?),
            bug: cursor.u64("oracle bug id")?,
            cmdcl: cursor.u64("oracle cmdcl")?,
            cmd: cursor.u64("oracle cmd")?,
        },
        TAG_CORPUS => Record::Corpus {
            at_us: ctx.undelta_at(cursor.i64("corpus at_us delta")?),
            edges: cursor.u64("corpus edges")?,
            size: cursor.u64("corpus size")?,
        },
        TAG_ATTACK => Record::Attack {
            at_us: ctx.undelta_at(cursor.i64("attack at_us delta")?),
            index: cursor.u64("attack index")?,
        },
        TAG_END => Record::End {
            at_us: ctx.undelta_at(cursor.i64("end at_us delta")?),
            packets: cursor.u64("end packets")?,
            findings: cursor.u64("end findings")?,
            sched_events: cursor.u64("end sched_events")?,
        },
        TAG_RAW => Record::Raw(cursor.string("raw line")?),
        unknown => return Err(ZctError::malformed(start, format!("unknown record tag {unknown}"))),
    };
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Sched {
                at_us: 4800,
                seq: 0,
                actor: 0,
                kind: SchedKind::Frame { n: 4, hash: 0x3318_ba6f_259d_8727 },
            },
            Record::Sched { at_us: 6800, seq: 1, actor: -1, kind: SchedKind::Timer { id: 9 } },
            Record::Sched {
                at_us: 7000,
                seq: 2,
                actor: -1,
                kind: SchedKind::BlackoutStart { generation: 1, stage: 0 },
            },
            Record::Sched {
                at_us: 9000,
                seq: 5,
                actor: -1,
                kind: SchedKind::BlackoutEnd { generation: 1, stage: 0 },
            },
            Record::Fuzz { at_us: 9500, ev: "packet".to_string() },
            Record::Fuzz { at_us: 9600, ev: "plan".to_string() },
            Record::Oracle { at_us: 10_000, bug: 3, cmdcl: 0x25, cmd: 1 },
            Record::Corpus { at_us: 10_500, edges: 7, size: 3 },
            Record::Attack { at_us: 11_000, index: 42 },
            Record::End { at_us: 36_000_000, packets: 523, findings: 4, sched_events: 1900 },
            Record::Raw("{\"t\":\"novel\",\"x\":1}".to_string()),
        ]
    }

    #[test]
    fn every_record_shape_roundtrips() {
        let records = sample_records();
        let mut intern = InternTable::new();
        let mut buf = Vec::new();
        let mut ctx = DeltaCtx::default();
        for record in &records {
            encode_record(&mut buf, record, &mut ctx, &mut intern);
        }
        let mut cursor = Cursor::new(&buf, 0);
        let mut ctx = DeltaCtx::default();
        let decoded: Vec<Record> = (0..records.len())
            .map(|_| decode_record(&mut cursor, &mut ctx, &intern).unwrap())
            .collect();
        assert_eq!(decoded, records);
        assert!(cursor.is_empty());
    }

    #[test]
    fn timestamps_may_regress_between_records() {
        // Deltas are signed: an out-of-order timestamp (possible across
        // independent sub-streams) must round-trip, not wrap.
        let records = vec![
            Record::Fuzz { at_us: 1_000_000, ev: "packet".to_string() },
            Record::Fuzz { at_us: 999_999, ev: "packet".to_string() },
            Record::Fuzz { at_us: u64::MAX, ev: "packet".to_string() },
            Record::Fuzz { at_us: 0, ev: "packet".to_string() },
        ];
        let mut intern = InternTable::new();
        let mut buf = Vec::new();
        let mut ctx = DeltaCtx::default();
        for record in &records {
            encode_record(&mut buf, record, &mut ctx, &mut intern);
        }
        let mut cursor = Cursor::new(&buf, 0);
        let mut ctx = DeltaCtx::default();
        for record in &records {
            assert_eq!(&decode_record(&mut cursor, &mut ctx, &intern).unwrap(), record);
        }
    }

    #[test]
    fn unknown_tag_and_missing_intern_id_are_malformed() {
        let intern = InternTable::new();
        let mut buf = Vec::new();
        put_u64(&mut buf, 99);
        assert!(matches!(
            decode_record(&mut Cursor::new(&buf, 0), &mut DeltaCtx::default(), &intern),
            Err(ZctError::Malformed { .. })
        ));
        let mut buf = Vec::new();
        let mut table = InternTable::new();
        encode_record(
            &mut buf,
            &Record::Fuzz { at_us: 5, ev: "packet".to_string() },
            &mut DeltaCtx::default(),
            &mut table,
        );
        // Decoding against an *empty* table: the id resolves to nothing.
        assert!(matches!(
            decode_record(&mut Cursor::new(&buf, 0), &mut DeltaCtx::default(), &intern),
            Err(ZctError::Malformed { .. })
        ));
    }

    #[test]
    fn common_records_are_compact() {
        // The size claim the format exists for: a frame dequeue with a
        // small timestamp delta fits in ~14 bytes (vs ~90 as JSONL).
        let mut intern = InternTable::new();
        let mut ctx = DeltaCtx::default();
        let mut buf = Vec::new();
        encode_record(
            &mut buf,
            &Record::Sched {
                at_us: 1000,
                seq: 0,
                actor: 0,
                kind: SchedKind::Frame { n: 4, hash: u64::MAX },
            },
            &mut ctx,
            &mut intern,
        );
        let first = buf.len();
        encode_record(
            &mut buf,
            &Record::Sched {
                at_us: 3000,
                seq: 1,
                actor: 1,
                kind: SchedKind::Frame { n: 4, hash: u64::MAX },
            },
            &mut ctx,
            &mut intern,
        );
        assert!(first <= 16, "first frame record took {first} bytes");
        assert!(buf.len() - first <= 16, "delta frame record took {} bytes", buf.len() - first);
        let mut fuzz = Vec::new();
        encode_record(
            &mut fuzz,
            &Record::Fuzz { at_us: 3100, ev: "packet".to_string() },
            &mut ctx,
            &mut intern,
        );
        assert!(fuzz.len() <= 4, "fuzz record took {} bytes", fuzz.len());
    }
}
