//! Input generation and the sequential oracle, run in a process of its
//! own so that neither the generator, the truth nor the oracle output
//! is resident in the measured process.
//!
//! Everything is derived from the seed: the same seed writes the same
//! files. The oracle is `reptile`'s sequential corrector on the same
//! input: [`reptile::correct_dataset`] for the file-to-file workloads,
//! and for `serve_mix` the same corrector ([`reptile::correct_read`])
//! against the spectrum built from the snapshot's reads.

use crate::util::JsonObj;
use crate::workloads::{self, Files, Workload, JOB_READS, NP, PARITY};
use dnaseq::Read;
use genio::{MixComponent, OpenLoopGen, RequestMix};
use reptile::{correct_dataset, correct_read, LocalSpectra};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Write `(id, seq)` records as FASTA.
pub fn write_fasta<'a>(
    path: &Path,
    records: impl Iterator<Item = (u64, &'a [u8])>,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, seq) in records {
        genio::fasta::write_record(&mut out, id, seq)?;
    }
    out.flush()
}

/// Generate the inputs, truth and oracle output of `w` under `dir`;
/// returns a JSON summary line.
pub fn generate(w: Workload, seed: u64, dir: &Path, smoke: bool) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let files = Files::new(dir);
    let params = w.params();
    let t = Instant::now();
    let mut summary = JsonObj::default();
    let (reads, truth, oracle) = if w.is_batch() {
        let ds = w.batch_profile(smoke).generate(seed);
        let (oracle, _) = correct_dataset(&ds.reads, &params);
        summary.int("errors_injected", ds.errors_injected);
        (ds.reads, ds.truth, oracle)
    } else {
        let spectrum = workloads::serve_spectrum_profile(smoke).generate(seed);
        let built = LocalSpectra::build(&spectrum.reads, &params);
        drop(spectrum);
        let per_rank = reptile_dist::snapshot::save_snapshot_serial(
            &files.snapshot(),
            &params,
            NP,
            PARITY,
            &built.kmers,
            &built.tiles,
        )
        .map_err(|e| format!("save snapshot: {e}"))?;
        summary.int("snapshot_bytes", per_rank.iter().sum());
        let (reads, truth) = serve_request_list(seed, smoke);
        let mut spectra = built;
        let oracle = reads
            .iter()
            .map(|r| {
                let mut read = r.clone();
                correct_read(&mut read, &mut spectra, &params);
                read
            })
            .collect::<Vec<Read>>();
        (reads, truth, oracle)
    };
    genio::qual::write_dataset(&files.input_fasta(), &files.input_qual(), &reads)
        .map_err(|e| format!("write inputs: {e}"))?;
    let io = |e: std::io::Error| format!("write oracle/truth: {e}");
    write_fasta(&files.oracle(), oracle.iter().map(|r| (r.id, &r.seq[..]))).map_err(io)?;
    write_fasta(&files.truth(), reads.iter().zip(&truth).map(|(r, t)| (r.id, &t[..])))
        .map_err(io)?;
    summary.int("reads", reads.len() as u64).num("gen_s", t.elapsed().as_secs_f64());
    Ok(summary.render())
}

/// The serve request list: `serve_requests` reads drawn from the 75/25
/// mix of 60 bp reads at 0.3% error and 100 bp reads at 0.8% error, all
/// from the spectrum's genome, re-numbered `1..=n` in submission order,
/// with the truth of each.
fn serve_request_list(seed: u64, smoke: bool) -> (Vec<Read>, Vec<Vec<u8>>) {
    let pool_reads = if smoke { 400 } else { 12_000 };
    let pools = [
        workloads::serve_pool_profile(smoke, pool_reads, 60, 0.003).generate(seed),
        workloads::serve_pool_profile(smoke, pool_reads / 2, 100, 0.008).generate(seed),
    ];
    let mix = RequestMix::new(vec![
        MixComponent { weight: 3.0, reads: pools[0].reads.clone() },
        MixComponent { weight: 1.0, reads: pools[1].reads.clone() },
    ]);
    let n = workloads::serve_requests(smoke);
    debug_assert_eq!(n % JOB_READS, 0);
    let mut gen = OpenLoopGen::new(mix, 1.0, seed ^ 0x10B5);
    gen.generate(n)
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            // pool read ids are 1..=n in pool order
            let truth = pools[a.component].truth[a.read.id as usize - 1].clone();
            (Read { id: i as u64 + 1, ..a.read }, truth)
        })
        .unzip()
}
