//! Per-layer probes of a traced run: direct, timed calls into the
//! public functions of the layers the engines are built from, on the
//! workload's own inputs. Each call runs inside a span.

use crate::trace::Tracer;
use crate::util::Metrics;
use crate::workloads::{Files, Workload, JOB_READS, NP};
use dnaseq::{FusedScratch, Read};
use mpisim::{Source, TagSel, Universe};
use reptile::{correct_dataset, correct_read, prefetch_keys, LocalSpectra, ReptileParams};
use reptile_dist::RecoveryPolicy;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Reads the per-read kernels (correction, prefetch) are timed over.
const KERNEL_READS: usize = 4_000;
/// Least time a repeated kernel measurement runs.
const MIN_KERNEL_TIME: Duration = Duration::from_millis(300);
/// Round trips of the message-plane ping-pong.
const ROUND_TRIPS: usize = 20_000;

/// Run every probe; `snapshot` is the workload's snapshot, if it has
/// one (the one a serve engine loads, or the one `build_ooc` saved).
pub fn run(
    w: Workload,
    files: &Files,
    snapshot: Option<&Path>,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let params = w.params();
    let t = Instant::now();
    let reads = tr
        .span("genio.load_dataset", || {
            genio::qual::load_dataset(&files.input_fasta(), &files.input_qual())
        })
        .map_err(|e| format!("load inputs: {e}"))?;
    m.put("genio.ingest_s", t.elapsed().as_secs_f64(), "s");

    let ns = tr.span("dnaseq.fused_scan_into", || fused_scan_ns_per_base(&reads, &params));
    m.put("dnaseq.fused_scan_ns_per_base", ns, "ns/base");
    m.put("mpisim.roundtrip_us", tr.span("mpisim.ping_pong", ping_pong_us), "us");

    let loaded = match snapshot {
        Some(dir) => {
            let t = Instant::now();
            let load = tr
                .span("snapshot.load_snapshot_serial", || {
                    reptile_dist::snapshot::load_snapshot_serial(
                        dir,
                        &params,
                        NP,
                        RecoveryPolicy::Strict,
                        None,
                    )
                })
                .map_err(|e| format!("load snapshot: {e}"))?;
            m.put("snapshot.load_s", t.elapsed().as_secs_f64(), "s");
            m.put("snapshot.bytes_read", load.per_rank_bytes.iter().sum::<u64>() as f64, "bytes");
            Some(LocalSpectra { kmers: load.kmers, tiles: load.tiles })
        }
        None => {
            m.put("snapshot.load_s", 0.0, "s");
            m.put("snapshot.bytes_read", 0.0, "bytes");
            None
        }
    };

    // The single-threaded baseline: the whole sequential corrector on
    // the same input (for serve, the request list against the served
    // spectrum, which the serve path never builds).
    let t = Instant::now();
    let mut spectra = if w.is_batch() {
        tr.span("reptile.correct_dataset", || black_box(correct_dataset(&reads, &params)));
        let serial = t.elapsed().as_secs_f64();
        m.put("reptile.serial_s", serial, "s");
        match loaded {
            Some(s) => s,
            None => tr.span("reptile.LocalSpectra::build", || LocalSpectra::build(&reads, &params)),
        }
    } else {
        let mut spectra = loaded.ok_or("serve workload has no snapshot")?;
        tr.span("reptile.correct_read", || correct_all(&reads, &mut spectra, &params));
        m.put("reptile.serial_s", t.elapsed().as_secs_f64(), "s");
        spectra
    };

    let sample = &reads[..reads.len().min(KERNEL_READS)];
    let ns = tr.span("reptile.correct_read", || {
        per_item_ns(sample.len(), || correct_all(sample, &mut spectra, &params))
    });
    m.put("reptile.correct_ns_per_read", ns, "ns/read");

    let mut keys = 0usize;
    let ns = tr.span("reptile.prefetch_keys", || {
        per_item_ns(sample.len(), || {
            keys =
                sample.chunks(JOB_READS).map(|c| black_box(prefetch_keys(c, &params)).len()).sum()
        })
    });
    m.put("reptile.prefetch_ns_per_read", ns, "ns/read");
    m.put("reptile.prefetch_keys_per_read", keys as f64 / sample.len().max(1) as f64, "keys/read");
    Ok(())
}

fn correct_all(reads: &[Read], spectra: &mut LocalSpectra, params: &ReptileParams) {
    for r in reads {
        let mut read = r.clone();
        black_box(correct_read(&mut read, spectra, params));
        black_box(&read);
    }
}

/// Repeat `f` (which handles `items` items) until it has run for at
/// least [`MIN_KERNEL_TIME`]; nanoseconds per item.
fn per_item_ns(items: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || t.elapsed() < MIN_KERNEL_TIME {
        f();
        reps += 1;
    }
    t.elapsed().as_nanos() as f64 / (reps as f64 * items.max(1) as f64)
}

/// Nanoseconds per base of the fused k-mer/tile scan over `reads`.
fn fused_scan_ns_per_base(reads: &[Read], params: &ReptileParams) -> f64 {
    let codec = params.tile_codec();
    let mut scratch = FusedScratch::default();
    let bases: usize = reads.iter().map(Read::len).sum();
    let mut acc = 0u64;
    let ns = per_item_ns(bases, || {
        for r in reads {
            codec.fused_scan_into(&r.seq, &mut scratch, |item| {
                acc = acc.wrapping_add(item.kmer);
            });
        }
    });
    black_box(acc);
    ns
}

/// Mean round trip of a 24-byte tagged message between two ranks,
/// microseconds.
fn ping_pong_us() -> f64 {
    const TAG: u32 = 7;
    let per_rank = Universe::new(2).run(|comm| {
        let payload = [0u8; 24];
        comm.barrier();
        let t = Instant::now();
        for _ in 0..ROUND_TRIPS {
            if comm.rank() == 0 {
                comm.send_from_slice(1, TAG, &payload);
                black_box(comm.recv(Source::Rank(1), TagSel::Tag(TAG)));
            } else {
                let msg = comm.recv(Source::Rank(0), TagSel::Tag(TAG));
                comm.send(0, TAG, msg.payload);
            }
        }
        t.elapsed().as_secs_f64()
    });
    per_rank[0] * 1e6 / ROUND_TRIPS as f64
}
