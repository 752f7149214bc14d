//! The correctness gate, run in a process of its own after the measured
//! one: every corrected read of every output must equal the sequential
//! oracle's, and the correction gain is scored against the truth.

use crate::util::JsonObj;
use crate::workloads::Files;
use genio::fasta::{RawRecord, RecordReader};
use reptile::AccuracyReport;
use std::io::BufReader;
use std::path::Path;

/// Every record's payload, indexed by `id - 1` (ids run `1..=n`).
fn load_by_id(path: &Path) -> Result<Vec<Vec<u8>>, String> {
    let err = |e: String| format!("{}: {e}", path.display());
    let file = std::fs::File::open(path).map_err(|e| err(e.to_string()))?;
    let records =
        RecordReader::new(BufReader::new(file)).read_all().map_err(|e| err(e.to_string()))?;
    for (i, r) in records.iter().enumerate() {
        if r.id != i as u64 + 1 {
            return Err(err(format!("record {i} has id {}, expected {}", r.id, i + 1)));
        }
    }
    Ok(records.into_iter().map(|r| r.line).collect())
}

/// Outcome of comparing the outputs with the oracle.
#[derive(Default)]
struct Verdict {
    /// Output files compared.
    outputs: u64,
    /// Records read from them.
    records: u64,
    /// Records whose sequence differs from the oracle's.
    mismatched: u64,
    /// Records with an id outside the input, or repeated within one
    /// output.
    unknown: u64,
    /// Input reads absent from an output (each output is one whole
    /// pass over the input).
    missing: u64,
}

/// Compare every output of the run in `dir` with the oracle, and score
/// the outputs against the truth.
pub fn check(dir: &Path) -> Result<String, String> {
    let files = Files::new(dir);
    let oracle = load_by_id(&files.oracle())?;
    let truth = load_by_id(&files.truth())?;
    let inputs = genio::qual::load_dataset(&files.input_fasta(), &files.input_qual())
        .map_err(|e| format!("load inputs: {e}"))?;
    let mut v = Verdict::default();
    let mut acc = AccuracyReport::default();
    for path in files.outputs() {
        let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut reader = RecordReader::new(BufReader::new(file));
        let mut seen = vec![false; oracle.len()];
        let mut rec = RawRecord { id: 0, line: Vec::new() };
        v.outputs += 1;
        while reader.next_record_into(&mut rec).map_err(|e| format!("{}: {e}", path.display()))? {
            v.records += 1;
            let Some(i) = (rec.id as usize).checked_sub(1).filter(|&i| i < oracle.len()) else {
                v.unknown += 1;
                continue;
            };
            if std::mem::replace(&mut seen[i], true) {
                v.unknown += 1;
                continue;
            }
            if rec.line != oracle[i] {
                v.mismatched += 1;
            }
            if rec.line.len() == inputs[i].seq.len() {
                let corrected = dnaseq::Read { seq: rec.line.clone(), ..inputs[i].clone() };
                acc.merge(&AccuracyReport::score_read(&inputs[i], &corrected, &truth[i]));
            }
        }
        v.missing += seen.iter().filter(|&&s| !s).count() as u64;
    }
    let mut o = JsonObj::default();
    o.int("outputs", v.outputs)
        .int("records", v.records)
        .int("mismatched", v.mismatched)
        .int("unknown", v.unknown)
        .int("missing", v.missing)
        .num("correction_gain", acc.gain())
        .int("errors_removed", acc.true_positives)
        .int("errors_introduced", acc.false_positives);
    Ok(o.render())
}
