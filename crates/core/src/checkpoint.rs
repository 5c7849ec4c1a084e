//! Versioned checkpoint/restart for sweeps.
//!
//! A [`SweepCheckpoint`] holds the completed cells of a sweep, so a
//! killed grid run restarts without recomputing finished cells. The
//! cell is the unit of restart: one engine run is a single function
//! call of well under a millisecond, cheaper to repeat than to save.
//!
//! The format is line-oriented text with a leading version string and a
//! mandatory trailing integrity line. Floating-point state is stored as
//! raw IEEE-754 bit patterns (16 hex digits), so a serialize → parse
//! round trip is exact and a restored report cannot drift by even one
//! ULP. Unknown versions are rejected with an error naming both
//! versions — never misparsed.

use crate::report::{PerfReport, PhaseBreakdown};
use pvs_vectorsim::metrics::VectorMetrics;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version tag on the first line of a serialized [`SweepCheckpoint`]
/// (the canonical spelling lives in [`crate::schema`]).
pub const SWEEP_CHECKPOINT_VERSION: &str = crate::schema::SWEEP_CHECKPOINT_V1;

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Append the integrity line + terminator: `sum <fnv1a-16hex>` over
/// every byte serialized so far, then `end`. A reader verifies the sum
/// before field parsing, so a flipped bit inside an f64 hex pattern is
/// rejected instead of silently resuming from wrong state.
fn seal(mut out: String) -> String {
    let _ = writeln!(out, "sum {:016x}", crate::hash::fnv1a(out.as_bytes()));
    out.push_str("end\n");
    out
}

/// Verify the integrity line. A document without one is damaged: every
/// writer seals, so a missing `sum` record means the tail was cut or the
/// line was stripped.
fn check_integrity(text: &str) -> Result<(), String> {
    // The integrity line is always the second-to-last record; records
    // never start with "sum ", so the last match is the seal.
    let at = text
        .rfind("\nsum ")
        .ok_or("truncated checkpoint: missing integrity line")?;
    let covered = &text[..at + 1];
    let stored = text[at + 1..]
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("sum "))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or("malformed checkpoint integrity line")?;
    let computed = crate::hash::fnv1a(covered.as_bytes());
    if stored != computed {
        return Err(format!(
            "checkpoint checksum mismatch: stored {stored:016x}, computed {computed:016x} — \
             the file is corrupt or was edited"
        ));
    }
    Ok(())
}

fn f64_from_hex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bit pattern {s:?}: {e}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| format!("bad {what} {s:?}: {e}"))
}

/// Line cursor with positions for error messages.
struct Lines<'a> {
    it: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            it: text.lines(),
            line_no: 0,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.line_no += 1;
        self.it.next()
    }

    fn expect_field(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self
            .next()
            .ok_or_else(|| format!("truncated checkpoint: missing {key:?}"))?;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' ').or(Some(rest).filter(|r| r.is_empty())))
            .ok_or_else(|| format!("line {}: expected {key:?}, got {line:?}", self.line_no))
    }
}

/// Check the version line of a checkpoint document and return a cursor
/// past it.
fn open_versioned<'a>(text: &'a str, version: &str) -> Result<Lines<'a>, String> {
    let mut lines = Lines::new(text);
    match lines.next() {
        Some(v) if v == version => Ok(lines),
        Some(v) => Err(format!(
            "unknown checkpoint version {v:?} (this build reads {version:?})"
        )),
        None => Err("empty checkpoint document".to_string()),
    }
}

fn write_report(out: &mut String, index: usize, r: &PerfReport) {
    let _ = writeln!(out, "cell {index}");
    let _ = writeln!(out, "machine {}", r.machine);
    let _ = writeln!(out, "procs {}", r.procs);
    let _ = writeln!(
        out,
        "scalars {} {} {} {} {}",
        f64_hex(r.time_s),
        f64_hex(r.comm_s),
        f64_hex(r.flops_per_p),
        f64_hex(r.gflops_per_p),
        f64_hex(r.pct_peak),
    );
    if let Some(m) = r.vector_metrics {
        let _ = writeln!(
            out,
            "vm {} {} {}",
            m.vector_element_ops, m.vector_instructions, m.scalar_ops
        );
    }
    for b in &r.phases {
        let _ = writeln!(
            out,
            "bd {} {} {} {}",
            f64_hex(b.seconds),
            f64_hex(b.flops),
            u8::from(b.is_comm),
            b.name
        );
    }
    out.push_str("endcell\n");
}

fn parse_report(lines: &mut Lines<'_>) -> Result<PerfReport, String> {
    let machine = lines.expect_field("machine")?.to_string();
    let procs = parse_num(lines.expect_field("procs")?, "procs")?;
    let sline = lines.expect_field("scalars")?;
    let sc: Vec<&str> = sline.split_whitespace().collect();
    if sc.len() != 5 {
        return Err(format!("scalars line needs 5 fields, got {}", sc.len()));
    }
    let mut report = PerfReport {
        machine,
        procs,
        time_s: f64_from_hex(sc[0])?,
        comm_s: f64_from_hex(sc[1])?,
        flops_per_p: f64_from_hex(sc[2])?,
        gflops_per_p: f64_from_hex(sc[3])?,
        pct_peak: f64_from_hex(sc[4])?,
        vector_metrics: None,
        phases: Vec::new(),
    };
    loop {
        let line = lines
            .next()
            .ok_or_else(|| "truncated checkpoint: missing \"endcell\"".to_string())?;
        if line == "endcell" {
            return Ok(report);
        }
        if let Some(rest) = line.strip_prefix("vm ") {
            let m: Vec<&str> = rest.split_whitespace().collect();
            if m.len() != 3 {
                return Err(format!("vm line needs 3 fields, got {}", m.len()));
            }
            report.vector_metrics = Some(VectorMetrics {
                vector_element_ops: parse_num(m[0], "vector_element_ops")?,
                vector_instructions: parse_num(m[1], "vector_instructions")?,
                scalar_ops: parse_num(m[2], "scalar_ops")?,
            });
        } else if let Some(rest) = line.strip_prefix("bd ") {
            let mut f = rest.splitn(4, ' ');
            let seconds = f64_from_hex(f.next().ok_or("bd line: missing seconds")?)?;
            let flops = f64_from_hex(f.next().ok_or("bd line: missing flops")?)?;
            let is_comm = match f.next().ok_or("bd line: missing is_comm")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("bd line: bad is_comm {other:?}")),
            };
            let name = f.next().ok_or("bd line: missing name")?.to_string();
            report.phases.push(PhaseBreakdown {
                name,
                seconds,
                flops,
                is_comm,
            });
        } else {
            return Err(format!(
                "line {}: unexpected record {line:?}",
                lines.line_no
            ));
        }
    }
}

/// Completed cells of a sweep, keyed by job index: what a restarted
/// sweep reads back so it recomputes only the cells still missing.
#[derive(Debug, Clone, Default)]
pub struct SweepCheckpoint {
    total: usize,
    completed: BTreeMap<usize, PerfReport>,
}

impl SweepCheckpoint {
    /// Empty checkpoint for a sweep of `total` jobs.
    pub fn new(total: usize) -> Self {
        Self {
            total,
            completed: BTreeMap::new(),
        }
    }

    /// Number of jobs in the sweep this checkpoint tracks.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of cells recorded so far.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Whether cell `index` has a recorded result.
    pub fn contains(&self, index: usize) -> bool {
        self.completed.contains_key(&index)
    }

    /// Record the result of cell `index`.
    pub fn record(&mut self, index: usize, report: PerfReport) {
        assert!(index < self.total, "cell {index} outside sweep of {}", self.total);
        self.completed.insert(index, report);
    }

    /// Whether every cell has a result.
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.total
    }

    /// All results in job order; `None` until [`SweepCheckpoint::is_complete`].
    pub fn reports_in_order(&self) -> Option<Vec<PerfReport>> {
        if !self.is_complete() {
            return None;
        }
        Some(self.completed.values().cloned().collect())
    }

    /// Render to the versioned text format.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(SWEEP_CHECKPOINT_VERSION);
        out.push('\n');
        let _ = writeln!(out, "total {}", self.total);
        for (&i, r) in &self.completed {
            write_report(&mut out, i, r);
        }
        seal(out)
    }

    /// Parse the versioned text format; rejects unknown versions,
    /// checksum mismatches, and malformed documents with a one-line
    /// description.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = open_versioned(text, SWEEP_CHECKPOINT_VERSION)?;
        check_integrity(text)?;
        let total = parse_num(lines.expect_field("total")?, "total")?;
        let mut ck = SweepCheckpoint::new(total);
        loop {
            let line = lines
                .next()
                .ok_or_else(|| "truncated checkpoint: missing \"end\"".to_string())?;
            if line == "end" {
                return Ok(ck);
            }
            if line.starts_with("sum ") {
                continue; // integrity line, already verified up front
            }
            let Some(ix) = line.strip_prefix("cell ") else {
                return Err(format!(
                    "line {}: unexpected record {line:?}",
                    lines.line_no
                ));
            };
            let index: usize = parse_num(ix, "cell index")?;
            if index >= total {
                return Err(format!("cell {index} outside sweep of {total}"));
            }
            let report = parse_report(&mut lines)?;
            ck.completed.insert(index, report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, 6.02214076e23, f64::MIN_POSITIVE, -7.25] {
            let back = f64_from_hex(&f64_hex(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v}");
        }
    }

    #[test]
    fn unknown_version_is_rejected_not_misparsed() {
        // Unsealed on purpose: the version check comes first, so the
        // error names both version strings rather than the missing seal.
        let doc = "pvs-core/sweep-checkpoint-v99\ntotal 1\n";
        let err = SweepCheckpoint::parse(doc).unwrap_err();
        assert!(err.contains("unknown checkpoint version"), "{err}");
        assert!(err.contains("v99"), "{err}");
        assert!(err.contains(SWEEP_CHECKPOINT_VERSION), "{err}");
    }

    #[test]
    fn truncated_document_is_rejected() {
        let err = SweepCheckpoint::parse("pvs-core/sweep-checkpoint-v1\ntotal 4\n").unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn empty_document_is_rejected() {
        assert!(SweepCheckpoint::parse("").is_err());
    }

    #[test]
    fn sweep_checkpoint_round_trips_reports_bitwise() {
        let report = PerfReport {
            machine: "Earth Simulator".into(),
            procs: 64,
            time_s: 1.0 / 3.0,
            comm_s: 0.1 + 0.2,
            flops_per_p: 4.2e13,
            gflops_per_p: 12.600000000000001,
            pct_peak: 15.75,
            vector_metrics: Some(VectorMetrics {
                vector_element_ops: 123456789,
                vector_instructions: 482253,
                scalar_ops: 17,
            }),
            phases: vec![
                PhaseBreakdown {
                    name: "stream collide".into(),
                    seconds: 0.25,
                    flops: 1e9,
                    is_comm: false,
                },
                PhaseBreakdown {
                    name: "halo".into(),
                    seconds: 0.125,
                    flops: 0.0,
                    is_comm: true,
                },
            ],
        };
        let mut ck = SweepCheckpoint::new(2);
        ck.record(1, report.clone());
        let back = SweepCheckpoint::parse(&ck.serialize()).unwrap();
        assert_eq!(back.total(), 2);
        assert!(!back.is_complete());
        assert!(back.contains(1) && !back.contains(0));
        let r = &back.completed[&1];
        assert_eq!(r.machine, report.machine);
        assert_eq!(r.time_s.to_bits(), report.time_s.to_bits());
        assert_eq!(r.comm_s.to_bits(), report.comm_s.to_bits());
        assert_eq!(r.gflops_per_p.to_bits(), report.gflops_per_p.to_bits());
        assert_eq!(r.vector_metrics, report.vector_metrics);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "stream collide");
        assert_eq!(r.phases[0].seconds.to_bits(), 0.25f64.to_bits());
        assert!(r.phases[1].is_comm);
    }

    fn fixture_checkpoint() -> SweepCheckpoint {
        let report = PerfReport {
            machine: "ES".into(),
            procs: 64,
            time_s: 1.0 / 3.0,
            comm_s: 0.1 + 0.2,
            flops_per_p: 4.2e13,
            gflops_per_p: 12.6,
            pct_peak: 15.75,
            vector_metrics: None,
            phases: vec![PhaseBreakdown {
                name: "stream".into(),
                seconds: 0.25,
                flops: 1e9,
                is_comm: false,
            }],
        };
        let mut ck = SweepCheckpoint::new(1);
        ck.record(0, report);
        ck
    }

    #[test]
    fn serialized_checkpoints_carry_a_verifiable_integrity_line() {
        let doc = fixture_checkpoint().serialize();
        assert!(doc.contains("\nsum "), "{doc}");
        assert!(doc.ends_with("end\n"), "{doc}");
        SweepCheckpoint::parse(&doc).unwrap();
    }

    #[test]
    fn every_byte_truncation_of_a_sweep_checkpoint_is_rejected() {
        let doc = fixture_checkpoint().serialize();
        // Any strict prefix that cuts real content must fail with a
        // structured error, never a panic or a silent misparse. (Cutting
        // only the final newline leaves a complete document.)
        for cut in 0..doc.len() - 1 {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let truncated = &doc[..cut];
            assert!(
                SweepCheckpoint::parse(truncated).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn every_single_character_flip_is_rejected() {
        let doc = fixture_checkpoint().serialize();
        // Flip each byte to a different hex-ish character: the integrity
        // line catches damage anywhere, including inside f64 bit
        // patterns that would otherwise parse to silently-wrong floats.
        let bytes = doc.as_bytes();
        for i in 0..bytes.len() {
            let replacement = if bytes[i] == b'5' { b'6' } else { b'5' };
            if !bytes[i].is_ascii_alphanumeric() {
                continue; // structural bytes already covered by field parsers
            }
            let mut mutated = bytes.to_vec();
            mutated[i] = replacement;
            let text = String::from_utf8(mutated).unwrap();
            assert!(
                SweepCheckpoint::parse(&text).is_err(),
                "flip at byte {i} parsed: {text:?}"
            );
        }
    }

    #[test]
    fn documents_without_an_integrity_line_are_rejected() {
        let sealed = fixture_checkpoint().serialize();
        let stripped: String = sealed
            .lines()
            .filter(|l| !l.starts_with("sum "))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = SweepCheckpoint::parse(&stripped).unwrap_err();
        assert!(err.contains("missing integrity line"), "{err}");
    }

    #[test]
    fn cell_index_outside_sweep_is_rejected() {
        let mut doc = String::from("pvs-core/sweep-checkpoint-v1\ntotal 1\n");
        doc.push_str("cell 5\nmachine ES\nprocs 4\n");
        doc.push_str(&format!(
            "scalars {} {} {} {} {}\nendcell\n",
            f64_hex(1.0),
            f64_hex(0.0),
            f64_hex(0.0),
            f64_hex(0.0),
            f64_hex(0.0)
        ));
        let err = SweepCheckpoint::parse(&super::seal(doc)).unwrap_err();
        assert!(err.contains("outside sweep"), "{err}");
    }
}
