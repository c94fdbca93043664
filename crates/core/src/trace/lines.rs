//! The JSONL rendering of trace records — the exact line grammar the
//! golden traces are pinned in.
//!
//! `render` is the *only* producer of journal lines; `parse` is its
//! verified inverse: a line parses into a structured [`Record`] only when
//! re-rendering that record reproduces the line byte for byte. Anything
//! else — unknown `"t"` values, extra fields, whitespace variations —
//! survives as [`Record::Raw`], so `JSONL → binary → JSONL` is lossless
//! for *every* input line, not just the shapes this build knows.

use trace_format::{Record, SchedKind};

/// Extracts a top-level field from one flat JSON object line (quoted
/// strings are unquoted; no nesting support — trace lines are flat by
/// construction).
pub(crate) fn field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        Some(quoted[..quoted.find('"')?].to_string())
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    }
}

fn num(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// Renders one record as its canonical JSONL line.
pub(crate) fn render(record: &Record) -> String {
    match record {
        Record::Sched { at_us, seq, actor, kind } => {
            let prefix =
                format!("{{\"t\":\"sched\",\"at_us\":{at_us},\"seq\":{seq},\"actor\":{actor}");
            match kind {
                SchedKind::Frame { n, hash } => {
                    format!("{prefix},\"ev\":\"frame\",\"n\":{n},\"h\":\"{hash:016x}\"}}")
                }
                SchedKind::Timer { id } => format!("{prefix},\"ev\":\"timer\",\"id\":{id}}}"),
                SchedKind::BlackoutStart { generation, stage } => format!(
                    "{prefix},\"ev\":\"blackout_start\",\"gen\":{generation},\"stage\":{stage}}}"
                ),
                SchedKind::BlackoutEnd { generation, stage } => format!(
                    "{prefix},\"ev\":\"blackout_end\",\"gen\":{generation},\"stage\":{stage}}}"
                ),
            }
        }
        Record::Fuzz { at_us, ev } => {
            format!("{{\"t\":\"fuzz\",\"at_us\":{at_us},\"ev\":\"{ev}\"}}")
        }
        Record::Oracle { at_us, bug, cmdcl, cmd } => format!(
            "{{\"t\":\"oracle\",\"at_us\":{at_us},\"ev\":\"finding\",\"bug\":{bug},\
             \"cmdcl\":{cmdcl},\"cmd\":{cmd}}}"
        ),
        Record::Corpus { at_us, edges, size } => format!(
            "{{\"t\":\"corpus\",\"at_us\":{at_us},\"ev\":\"retain\",\"edges\":{edges},\
             \"size\":{size}}}"
        ),
        Record::Attack { at_us, index } => {
            format!("{{\"t\":\"attack\",\"at_us\":{at_us},\"ev\":\"frame\",\"index\":{index}}}")
        }
        Record::End { at_us, packets, findings, sched_events } => format!(
            "{{\"t\":\"end\",\"at_us\":{at_us},\"packets\":{packets},\"findings\":{findings},\
             \"sched_events\":{sched_events}}}"
        ),
        Record::Raw(line) => line.clone(),
    }
}

/// Structural parse of one canonical line shape; `None` for anything the
/// grammar does not cover. Callers go through [`parse`], which verifies
/// the result by re-rendering.
fn try_parse(line: &str) -> Option<Record> {
    match field(line, "t")?.as_str() {
        "sched" => {
            let at_us = num(line, "at_us")?;
            let seq = num(line, "seq")?;
            let actor: i64 = field(line, "actor")?.parse().ok()?;
            let kind = match field(line, "ev")?.as_str() {
                "frame" => SchedKind::Frame {
                    n: num(line, "n")?,
                    hash: u64::from_str_radix(&field(line, "h")?, 16).ok()?,
                },
                "timer" => SchedKind::Timer { id: num(line, "id")? },
                "blackout_start" => SchedKind::BlackoutStart {
                    generation: num(line, "gen")?,
                    stage: num(line, "stage")?,
                },
                "blackout_end" => SchedKind::BlackoutEnd {
                    generation: num(line, "gen")?,
                    stage: num(line, "stage")?,
                },
                _ => return None,
            };
            Some(Record::Sched { at_us, seq, actor, kind })
        }
        "fuzz" => Some(Record::Fuzz { at_us: num(line, "at_us")?, ev: field(line, "ev")? }),
        "oracle" => Some(Record::Oracle {
            at_us: num(line, "at_us")?,
            bug: num(line, "bug")?,
            cmdcl: num(line, "cmdcl")?,
            cmd: num(line, "cmd")?,
        }),
        "corpus" => Some(Record::Corpus {
            at_us: num(line, "at_us")?,
            edges: num(line, "edges")?,
            size: num(line, "size")?,
        }),
        "attack" => Some(Record::Attack { at_us: num(line, "at_us")?, index: num(line, "index")? }),
        "end" => Some(Record::End {
            at_us: num(line, "at_us")?,
            packets: num(line, "packets")?,
            findings: num(line, "findings")?,
            sched_events: num(line, "sched_events")?,
        }),
        _ => None,
    }
}

/// Parses one journal line into a [`Record`]. Infallible: a line either
/// maps to a structured record whose rendering reproduces it exactly, or
/// it is preserved verbatim as [`Record::Raw`].
pub(crate) fn parse(line: &str) -> Record {
    match try_parse(line) {
        Some(record) if render(&record) == line => record,
        _ => Record::Raw(line.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extractor_handles_strings_and_numbers() {
        let line = "{\"t\":\"sched\",\"at_us\":1234,\"ev\":\"frame\",\"h\":\"00ff\"}";
        assert_eq!(field(line, "at_us").as_deref(), Some("1234"));
        assert_eq!(field(line, "ev").as_deref(), Some("frame"));
        assert_eq!(field(line, "h").as_deref(), Some("00ff"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn every_canonical_shape_roundtrips_structurally() {
        let records = vec![
            Record::Sched {
                at_us: 4800,
                seq: 0,
                actor: -1,
                kind: SchedKind::Frame { n: 4, hash: 0x3318_ba6f_259d_8727 },
            },
            Record::Sched { at_us: 6800, seq: 1, actor: 2, kind: SchedKind::Timer { id: 9 } },
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
            Record::Oracle { at_us: 10_000, bug: 3, cmdcl: 0x25, cmd: 1 },
            Record::Corpus { at_us: 10_500, edges: 7, size: 3 },
            Record::Attack { at_us: 11_000, index: 42 },
            Record::End { at_us: 36_000_000, packets: 523, findings: 4, sched_events: 1900 },
        ];
        for record in records {
            let line = render(&record);
            assert_eq!(parse(&line), record, "{line}");
        }
    }

    #[test]
    fn exact_golden_lines_parse_structurally() {
        // Literal lines from the committed goldens: the grammar must map
        // each to a structured record, not fall back to Raw.
        for line in [
            "{\"t\":\"sched\",\"at_us\":4800,\"seq\":0,\"actor\":0,\"ev\":\"frame\",\"n\":4,\
             \"h\":\"3318ba6f259d8727\"}",
            "{\"t\":\"sched\",\"at_us\":964632,\"seq\":92,\"actor\":-1,\
             \"ev\":\"blackout_start\",\"gen\":1,\"stage\":0}",
            "{\"t\":\"fuzz\",\"at_us\":2107224,\"ev\":\"packet\"}",
            "{\"t\":\"oracle\",\"at_us\":3164924,\"ev\":\"finding\",\"bug\":3,\"cmdcl\":37,\
             \"cmd\":1}",
            "{\"t\":\"end\",\"at_us\":36000000,\"packets\":60,\"findings\":5,\
             \"sched_events\":1192}",
        ] {
            let record = parse(line);
            assert!(!matches!(record, Record::Raw(_)), "{line}");
            assert_eq!(render(&record), line);
        }
    }

    #[test]
    fn non_canonical_lines_survive_as_raw() {
        for line in [
            "{\"t\":\"novel\",\"at_us\":1}",
            "{\"t\":\"fuzz\", \"at_us\":1,\"ev\":\"packet\"}",
            "{\"t\":\"fuzz\",\"at_us\":1,\"ev\":\"packet\",\"extra\":2}",
            "{\"t\":\"sched\",\"at_us\":1,\"seq\":0,\"actor\":0,\"ev\":\"frame\",\"n\":1,\
             \"h\":\"00FF\"}",
            "not json at all",
        ] {
            let record = parse(line);
            assert!(matches!(record, Record::Raw(_)), "{line}");
            assert_eq!(render(&record), line);
        }
    }
}
