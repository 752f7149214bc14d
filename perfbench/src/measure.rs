//! The measured process: runs one workload on its inputs for the given
//! time, writes every corrected output for the checker, and reports
//! end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! This process holds only the workload's inputs and what the program
//! makes of them, so its `VmHWM` is the program's peak memory. The peak
//! is reset before each pass and read after it; `peak_rss_mib` is the
//! median over passes. Every run starts with one untimed warm-up pass.

use crate::gen::write_fasta;
use crate::probes;
use crate::trace::{SpanId, Tracer};
use crate::util::{median, peak_rss_mib, percentile, ratio, reset_peak_rss, JsonObj, Metrics};
use crate::workloads::{serve_config, Files, Workload, JOB_READS};
use dnaseq::Read;
use reptile_dist::{
    Engine, EngineConfig, RunReport, ServeEngine, ServeReport, SubmitError, ThreadedEngine,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest file-to-file passes an untraced run makes.
const MIN_PASSES: usize = 3;
/// `ServeEngine::start` calls per serve run (`setup_s` is their median).
const SERVE_STARTS: usize = 21;
/// How long the serve client sleeps between empty drains.
const DRAIN_POLL: Duration = Duration::from_micros(100);
/// A job with no progress for this long is abandoned; its missing
/// responses count as failed reads.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// What the measured process was asked to do.
pub struct Opts<'a> {
    /// The workload.
    pub workload: Workload,
    /// Work directory holding the generated inputs.
    pub dir: &'a Path,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where to write the spans of a traced run.
    pub spans: Option<&'a Path>,
    /// Self-test hook: change one base of the first corrected read so
    /// the oracle gate must trip.
    pub corrupt: bool,
}

/// Run the workload; returns the JSON result line.
pub fn measure(o: &Opts) -> Result<String, String> {
    let files = Files::new(o.dir);
    let mut tr = Tracer::new(o.trace);
    let mut metrics = Metrics::default();
    let mut info = JsonObj::default();
    let (attempted, failed, snapshot) = if o.workload.is_batch() {
        batch(o, &files, &mut tr, &mut metrics, &mut info)?
    } else {
        serve(o, &files, &mut tr, &mut metrics, &mut info)?
    };
    if o.trace {
        probes::run(o.workload, &files, snapshot.as_deref(), &mut tr, &mut metrics)?;
        let layers: Vec<String> = tr.layers().iter().map(|l| crate::util::quote(l)).collect();
        info.raw("layers", &format!("[{}]", layers.join(", "))).int("spans", tr.len() as u64);
        if let Some(path) = o.spans {
            tr.write(path).map_err(|e| format!("write spans {}: {e}", path.display()))?;
        }
    }
    let mut out = JsonObj::default();
    out.int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &metrics.render())
        .raw("info", &info.render());
    Ok(out.render())
}

/// Count the records of a FASTA file.
fn count_records(path: &Path) -> Result<u64, String> {
    use std::io::BufRead;
    let err = |e: std::io::Error| format!("read {}: {e}", path.display());
    let file = std::io::BufReader::new(std::fs::File::open(path).map_err(err)?);
    let mut n = 0;
    for line in file.split(b'\n') {
        n += u64::from(line.map_err(err)?.first() == Some(&b'>'));
    }
    Ok(n)
}

/// Self-test corruption: change the first base of the first read.
fn corrupt_first(reads: &mut [Read]) {
    if let Some(b) = reads.first_mut().and_then(|r| r.seq.first_mut()) {
        *b = if *b == b'A' { b'C' } else { b'A' };
    }
}

// ---------------------------------------------------------------------
// File-to-file workloads
// ---------------------------------------------------------------------

/// One timed file-to-file pass.
struct Pass {
    /// Call through last output byte, seconds.
    wall: f64,
    /// Reads in the corrected output.
    reads: u64,
    /// Time writing the corrected FASTA.
    output_s: f64,
    /// Peak resident memory during the pass, MiB.
    peak_mib: f64,
    report: RunReport,
}

impl Pass {
    fn reads_per_s(&self) -> f64 {
        self.reads as f64 / self.wall
    }
}

/// Run the engine on the input files and write the corrected FASTA —
/// the `reptile-correct` path — timing it from the call through the
/// last output byte.
fn batch_pass(
    w: Workload,
    files: &Files,
    i: usize,
    tr: &mut Tracer,
    corrupt: bool,
) -> Result<Pass, String> {
    let save = files.saved_snapshot(i);
    let cfg = w.engine_config(Some(&save), None);
    let out_path = files.output(i);
    reset_peak_rss();
    let t0 = Instant::now();
    let run_span = tr.open("engine_mt.try_run_files");
    let run = ThreadedEngine
        .try_run_files(&cfg, &files.input_fasta(), &files.input_qual())
        .map_err(|e| format!("engine run: {e}"))?;
    tr.close(run_span);
    let mut corrected = run.corrected;
    if corrupt {
        corrupt_first(&mut corrected);
    }
    let t1 = Instant::now();
    tr.span("genio.write_record", || {
        write_fasta(&out_path, corrected.iter().map(|r| (r.id, &r.seq[..])))
    })
    .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    let end = Instant::now();
    let pass = Pass {
        wall: (end - t0).as_secs_f64(),
        reads: corrected.len() as u64,
        output_s: (end - t1).as_secs_f64(),
        peak_mib: peak_rss_mib(),
        report: run.report,
    };
    annotate_run_span(tr, run_span, &pass.report);
    Ok(pass)
}

/// Attach the run report to the engine span, and add the phases the
/// report times as derived children.
fn annotate_run_span(tr: &mut Tracer, span: SpanId, r: &RunReport) {
    if !tr.on() {
        return;
    }
    let max_ns = |f: fn(&reptile_dist::RankReport) -> u64| {
        r.ranks.iter().map(f).max().unwrap_or(0) as f64 * 1e-9
    };
    let comm = r.ranks.iter().map(|x| x.comm_secs).fold(0.0, f64::max);
    for (k, v) in [
        ("construct_s", r.construct_secs()),
        ("correct_s", r.correct_secs()),
        ("comm_s", comm),
        ("remote_lookups", r.remote_lookups() as f64),
        ("errors_corrected", r.errors_corrected() as f64),
        ("spill_runs", r.spill_runs() as f64),
        ("snapshot_bytes_written", r.snapshot_bytes_written() as f64),
        ("exchange_bytes", r.exchanged_bytes() as f64),
    ] {
        tr.attr(span, k, v);
    }
    tr.derived(span, "spectrum.construct", r.construct_secs());
    tr.derived(span, "spectrum.extract", max_ns(|x| x.build.extract_ns));
    tr.derived(span, "spectrum.exchange", max_ns(|x| x.build.exchange_ns));
    tr.derived(span, "ooc.merge", r.merge_secs());
    tr.derived(span, "snapshot.save", r.snapshot_save_secs());
    tr.derived(span, "engine_mt.correct", r.correct_secs());
    tr.derived(span, "engine_mt.comm", comm);
}

/// One untimed warm-up pass, then timed passes until `secs` have gone by
/// since the start (and at least `min` timed passes). The warm-up pass's
/// output is checked like the others but left out of every metric.
fn batch_phase(
    w: Workload,
    files: &Files,
    secs: f64,
    min: usize,
    corrupt: bool,
) -> Result<(Pass, Vec<Pass>), String> {
    let start = Instant::now();
    let pass = |i: usize| -> Result<Pass, String> {
        let p = batch_pass(w, files, i, &mut Tracer::new(false), corrupt && i == 0)?;
        let _ = std::fs::remove_dir_all(files.saved_snapshot(i));
        Ok(p)
    };
    let warm = pass(0)?;
    let mut passes = Vec::new();
    while passes.len() < min || start.elapsed().as_secs_f64() < secs {
        passes.push(pass(passes.len() + 1)?);
    }
    Ok((warm, passes))
}

fn batch(
    o: &Opts,
    files: &Files,
    tr: &mut Tracer,
    metrics: &mut Metrics,
    info: &mut JsonObj,
) -> Result<(u64, u64, Option<PathBuf>), String> {
    let w = o.workload;
    let n_input = count_records(&files.input_fasta())?;
    let secs = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let min = if o.trace { 1 } else { MIN_PASSES };
    let (warm, mut passes) = batch_phase(w, files, secs, min, o.corrupt)?;
    let untraced_rps = median(&passes.iter().map(Pass::reads_per_s).collect::<Vec<_>>());
    let mut snapshot = None;
    if o.trace {
        // one more pass with the recorder on; its snapshot stays for
        // the direct-load probe
        let i = passes.len() + 1;
        let pass = batch_pass(w, files, i, tr, false)?;
        batch_layer_metrics(&pass, &w.engine_config(None, None), untraced_rps, metrics);
        passes.push(pass);
        snapshot = Some(files.saved_snapshot(i)).filter(|d| d.exists());
    } else {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall * 1e3).collect();
        let setup: Vec<f64> = passes.iter().map(|p| p.report.construct_secs()).collect();
        metrics.put("reads_per_s", untraced_rps, "1/s");
        metrics.put("setup_s", median(&setup), "s");
        metrics.put("latency_p50_ms", median(&walls), "ms");
        metrics.put("latency_p99_ms", percentile(&walls, 99.0), "ms");
        let peaks: Vec<f64> = passes.iter().map(|p| p.peak_mib).collect();
        metrics.put("peak_rss_mib", median(&peaks), "MiB");
    }
    let rps: Vec<f64> = passes.iter().map(Pass::reads_per_s).collect();
    info.int("passes", passes.len() as u64)
        .int("latency_samples", passes.len() as u64)
        .raw("warmup_reads_per_s", &format!("{:?}", warm.reads_per_s()))
        .raw("reads_per_s", &format!("{rps:?}"));
    passes.push(warm);
    let attempted = n_input * passes.len() as u64;
    // The engine marks no single read as degraded: a pass that degraded
    // any lookup fails all of its reads.
    let degraded = |p: &&Pass| p.report.ranks.iter().any(|r| r.lookups.keys_degraded > 0);
    let failed = n_input * passes.iter().filter(degraded).count() as u64;
    Ok((attempted, failed, snapshot))
}

/// Per-layer metrics of a traced file-to-file pass.
fn batch_layer_metrics(p: &Pass, cfg: &EngineConfig, untraced_rps: f64, m: &mut Metrics) {
    let r = &p.report;
    let lk = |f: fn(&reptile_dist::LookupStats) -> u64| {
        r.ranks.iter().map(|x| f(&x.lookups)).sum::<u64>()
    };
    let max_s = |f: fn(&reptile_dist::RankReport) -> u64| {
        r.ranks.iter().map(f).max().unwrap_or(0) as f64 * 1e-9
    };
    let comm_max = r.ranks.iter().map(|x| x.comm_secs).fold(0.0, f64::max);
    let comm_sum: f64 = r.ranks.iter().map(|x| x.comm_secs).sum();
    let remote = r.remote_lookups();
    m.put("engine_mt.comm_s", comm_max, "s");
    m.put("engine_mt.correct_s", r.correct_secs(), "s");
    m.put("engine_mt.us_per_remote_lookup", ratio(comm_sum * 1e6, remote as f64), "us");
    m.put("engine_mt.remote_lookups", remote as f64, "count");
    m.put("engine_mt.remote_messages", lk(|l| l.remote_messages) as f64, "count");
    m.put("engine_mt.requests_retried", lk(|l| l.requests_retried) as f64, "count");
    m.put("engine_mt.keys_degraded", lk(|l| l.keys_degraded) as f64, "count");
    m.put("engine_mt.unaccounted_s", p.wall - r.construct_secs() - r.correct_secs(), "s");
    m.put("spectrum.extract_s", max_s(|x| x.build.extract_ns), "s");
    m.put("spectrum.exchange_s", max_s(|x| x.build.exchange_ns), "s");
    m.put("spectrum.overlap_frac", r.build_overlap_fraction(), "frac");
    m.put("spectrum.exchange_bytes", r.exchanged_bytes() as f64, "bytes");
    m.put("spectrum.exchange_compression", r.exchange_compression(), "ratio");
    m.put("ooc.spill_runs", r.spill_runs() as f64, "count");
    m.put("ooc.spill_bytes", r.spill_bytes() as f64, "bytes");
    m.put("ooc.merge_s", r.merge_secs(), "s");
    m.put("ooc.peak_accounted_bytes", r.ooc_peak_bytes() as f64, "bytes");
    let budget = cfg.memory_budget.unwrap_or(0) as f64;
    m.put("ooc.peak_budget_frac", ratio(r.ooc_peak_bytes() as f64, budget), "frac");
    m.put("snapshot.save_s", r.snapshot_save_secs(), "s");
    m.put("snapshot.bytes_written", r.snapshot_bytes_written() as f64, "bytes");
    m.put("genio.output_s", p.output_s, "s");
    m.put(
        "reptile.prefetch_useful_frac",
        ratio(lk(|l| l.prefetch_hits) as f64, lk(|l| l.batched_keys) as f64),
        "frac",
    );
    // no serve engine runs on a file-to-file workload
    for (name, unit) in [
        ("serve.queue_ms_p50", "ms"),
        ("serve.service_ms_p50", "ms"),
        ("serve.handoff_ms_p50", "ms"),
        ("serve.client_lag_ms_max", "ms"),
        ("serve.mean_batch", "count"),
        ("serve.backpressure_retries", "count"),
    ] {
        m.put(name, 0.0, unit);
    }
    m.put("bench.trace_overhead_frac", 1.0 - p.reads_per_s() / untraced_rps, "frac");
}

// ---------------------------------------------------------------------
// Serve workload
// ---------------------------------------------------------------------

/// What the client saw in one measured phase.
#[derive(Default)]
struct Client {
    submitted: u64,
    /// Responses marked degraded. (Refused or lost requests are missing
    /// from the output, where the checker counts them.)
    degraded: u64,
    backpressure_retries: u64,
    latency_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    handoff_ms: Vec<f64>,
    /// Reads per second of each pass over the request list, first
    /// submit through last output byte.
    pass_rps: Vec<f64>,
    /// Median and 99th-percentile request latency of each pass, ms.
    pass_p50_ms: Vec<f64>,
    pass_p99_ms: Vec<f64>,
    /// Peak resident memory of each pass, MiB.
    pass_peak_mib: Vec<f64>,
    /// Time spent writing corrected reads.
    output_s: f64,
}

impl Client {
    /// Submit one job (retrying on backpressure) and drain until all of
    /// it is back; returns the corrected reads in job order. Latency is
    /// timed on the client, from the submit call to the return of the
    /// drain that delivered the response.
    fn job(
        &mut self,
        engine: &ServeEngine,
        job: &[Read],
        next_trace: &mut u64,
        tr: &mut Tracer,
        span: SpanId,
    ) -> Vec<Read> {
        let base = *next_trace;
        *next_trace += job.len() as u64;
        let mut submit_at = Vec::with_capacity(job.len());
        let mut slots: Vec<Option<Read>> = vec![None; job.len()];
        let mut expected = 0usize;
        for (j, read) in job.iter().enumerate() {
            submit_at.push(Instant::now());
            let mut pending = read.clone();
            loop {
                match engine.submit(base + j as u64, pending) {
                    Ok(()) => {
                        expected += 1;
                        break;
                    }
                    Err(SubmitError::Backpressure { read, retry_after, .. }) => {
                        self.backpressure_retries += 1;
                        std::thread::sleep(retry_after);
                        pending = read;
                    }
                    Err(SubmitError::Closed(_)) => break,
                }
            }
        }
        self.submitted += job.len() as u64;
        let mut got = 0usize;
        let mut progress = Instant::now();
        while got < expected && progress.elapsed() < STALL_LIMIT {
            let batch = engine.drain();
            let now = Instant::now();
            if batch.is_empty() {
                std::thread::sleep(DRAIN_POLL);
                continue;
            }
            progress = now;
            for r in batch {
                // a late response to an abandoned job is not this job's
                let Some(j) = r.trace_id.checked_sub(base).map(|j| j as usize) else { continue };
                if j >= job.len() {
                    continue;
                }
                let lat = (now - submit_at[j]).as_secs_f64() * 1e3;
                let queue = r.queue.as_secs_f64() * 1e3;
                let service = r.service.as_secs_f64() * 1e3;
                self.latency_ms.push(lat);
                self.queue_ms.push(queue);
                self.service_ms.push(service);
                self.handoff_ms.push(lat - queue - service);
                tr.interval(
                    span,
                    "serve.request",
                    submit_at[j],
                    now,
                    vec![
                        ("trace_id", r.trace_id as f64),
                        ("queue_ms", queue),
                        ("service_ms", service),
                        ("batch_len", r.batch_len as f64),
                    ],
                );
                self.degraded += u64::from(r.degraded);
                slots[j] = Some(r.read);
                got += 1;
            }
        }
        slots.into_iter().flatten().collect()
    }
}

/// Closed loop over the request list, one job of `JOB_READS` reads at
/// a time, in whole passes until `secs` have gone by (and at least `min`
/// passes). Pass `i` writes its corrected reads to output `first + i`.
#[allow(clippy::too_many_arguments)]
fn client_phase(
    engine: &ServeEngine,
    requests: &[Read],
    files: &Files,
    first: usize,
    secs: f64,
    min: usize,
    corrupt: bool,
    tr: &mut Tracer,
) -> Result<Client, String> {
    let mut c = Client::default();
    let mut next_trace = (first * requests.len()) as u64;
    let start = Instant::now();
    while c.pass_rps.len() < min || start.elapsed().as_secs_f64() < secs {
        let path = files.output(first + c.pass_rps.len());
        let io = |e: std::io::Error| format!("write {}: {e}", path.display());
        let pass_span = tr.open("serve.pass");
        reset_peak_rss();
        let lat0 = c.latency_ms.len();
        let t0 = Instant::now();
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
        let mut completed = 0usize;
        for job in requests.chunks(JOB_READS) {
            let job_span = tr.open("serve.job");
            let mut corrected = c.job(engine, job, &mut next_trace, tr, job_span);
            if corrupt && completed == 0 && c.pass_rps.is_empty() {
                corrupt_first(&mut corrected);
            }
            completed += corrected.len();
            let t = Instant::now();
            let write_span = tr.open("genio.write_record");
            for r in &corrected {
                genio::fasta::write_record(&mut out, r.id, &r.seq).map_err(io)?;
            }
            tr.close(write_span);
            c.output_s += t.elapsed().as_secs_f64();
            tr.close(job_span);
        }
        out.flush().map_err(io)?;
        c.pass_rps.push(completed as f64 / t0.elapsed().as_secs_f64());
        c.pass_peak_mib.push(peak_rss_mib());
        c.pass_p50_ms.push(median(&c.latency_ms[lat0..]));
        c.pass_p99_ms.push(percentile(&c.latency_ms[lat0..], 99.0));
        tr.close(pass_span);
    }
    Ok(c)
}

fn serve(
    o: &Opts,
    files: &Files,
    tr: &mut Tracer,
    metrics: &mut Metrics,
    info: &mut JsonObj,
) -> Result<(u64, u64, Option<PathBuf>), String> {
    let requests = genio::qual::load_dataset(&files.input_fasta(), &files.input_qual())
        .map_err(|e| format!("load requests: {e}"))?;
    let cfg = o.workload.engine_config(None, Some(&files.snapshot()));
    let start = |tr: &mut Tracer| -> Result<(ServeEngine, f64), String> {
        let span = tr.open("serve.start");
        let t = Instant::now();
        let engine = ServeEngine::start(cfg.clone(), serve_config(), Vec::new())
            .map_err(|e| format!("serve start: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        tr.close(span);
        Ok((engine, secs))
    };
    let (engine, secs) = start(tr)?;
    let mut setup = vec![secs];

    let secs = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let min = if o.trace { 1 } else { MIN_PASSES };
    let off = &mut Tracer::new(false);
    // One untimed warm-up pass over the request list, counted in the
    // run's time; its output is checked but left out of every metric.
    let t = Instant::now();
    let warm = client_phase(&engine, &requests, files, 0, 0.0, 1, o.corrupt, off)?;
    let rest = secs - t.elapsed().as_secs_f64();
    let client = client_phase(&engine, &requests, files, 1, rest, min, false, off)?;
    let traced = if o.trace {
        let first = 1 + client.pass_rps.len();
        Some(client_phase(&engine, &requests, files, first, secs, 1, false, tr)?)
    } else {
        None
    };
    let shutdown_span = tr.open("serve.shutdown");
    let report = engine.shutdown().map_err(|e| format!("serve shutdown: {e}"))?;
    tr.attr(shutdown_span, "snapshot_bytes_read", report.snapshot_bytes_read as f64);
    tr.attr(shutdown_span, "remote_lookups", report.lookups.remote_total() as f64);
    tr.attr(shutdown_span, "batches", report.batches as f64);
    tr.close(shutdown_span);
    // More start-ups for a steadier `setup_s`, after the serving phase so
    // that the memory their tables leave behind stays out of its peaks.
    for _ in 1..SERVE_STARTS {
        let (engine, secs) = start(tr)?;
        setup.push(secs);
        engine.shutdown().map_err(|e| format!("serve shutdown: {e}"))?;
    }

    let mut attempted = warm.submitted + client.submitted;
    let mut failed = warm.degraded + client.degraded;
    let measured = match &traced {
        Some(t) => {
            attempted += t.submitted;
            failed += t.degraded;
            serve_layer_metrics(t, &client, &report, metrics);
            t
        }
        None => {
            metrics.put("reads_per_s", median(&client.pass_rps), "1/s");
            metrics.put("setup_s", median(&setup), "s");
            // Per-pass percentiles, then the median over passes: a host
            // stall in one pass moves one sample, not the pooled tail.
            metrics.put("latency_p50_ms", median(&client.pass_p50_ms), "ms");
            metrics.put("latency_p99_ms", median(&client.pass_p99_ms), "ms");
            metrics.put("peak_rss_mib", median(&client.pass_peak_mib), "MiB");
            &client
        }
    };
    info.int("latency_samples", measured.latency_ms.len() as u64)
        .int("passes", measured.pass_rps.len() as u64)
        .raw("reads_per_s", &format!("{:?}", measured.pass_rps))
        .raw("latency_p99_ms", &format!("{:?}", measured.pass_p99_ms))
        .raw("setup_s", &format!("{setup:?}"));
    Ok((attempted, failed, Some(files.snapshot())))
}

/// Per-layer metrics of the traced serve phase (`t`), against the
/// untraced phase (`u`) on the same engine.
fn serve_layer_metrics(t: &Client, u: &Client, r: &ServeReport, m: &mut Metrics) {
    m.put("serve.queue_ms_p50", median(&t.queue_ms), "ms");
    m.put("serve.service_ms_p50", median(&t.service_ms), "ms");
    m.put("serve.handoff_ms_p50", median(&t.handoff_ms), "ms");
    m.put("serve.client_lag_ms_max", t.handoff_ms.iter().copied().fold(0.0, f64::max), "ms");
    m.put("serve.mean_batch", r.mean_batch(), "count");
    m.put(
        "serve.backpressure_retries",
        (t.backpressure_retries + u.backpressure_retries) as f64,
        "count",
    );
    let l = &r.lookups;
    m.put("engine_mt.remote_lookups", l.remote_total() as f64, "count");
    m.put("engine_mt.remote_messages", l.remote_messages as f64, "count");
    m.put("engine_mt.requests_retried", l.requests_retried as f64, "count");
    m.put("engine_mt.keys_degraded", l.keys_degraded as f64, "count");
    m.put(
        "reptile.prefetch_useful_frac",
        ratio(l.prefetch_hits as f64, l.batched_keys as f64),
        "frac",
    );
    // The serve plane builds nothing, spills nothing, saves nothing, and
    // its report splits no engine time.
    for (name, unit) in [
        ("engine_mt.comm_s", "s"),
        ("engine_mt.correct_s", "s"),
        ("engine_mt.us_per_remote_lookup", "us"),
        ("engine_mt.unaccounted_s", "s"),
        ("spectrum.extract_s", "s"),
        ("spectrum.exchange_s", "s"),
        ("spectrum.overlap_frac", "frac"),
        ("spectrum.exchange_bytes", "bytes"),
        ("spectrum.exchange_compression", "ratio"),
        ("ooc.spill_runs", "count"),
        ("ooc.spill_bytes", "bytes"),
        ("ooc.merge_s", "s"),
        ("ooc.peak_accounted_bytes", "bytes"),
        ("ooc.peak_budget_frac", "frac"),
        ("snapshot.save_s", "s"),
        ("snapshot.bytes_written", "bytes"),
    ] {
        m.put(name, 0.0, unit);
    }
    m.put("genio.output_s", t.output_s, "s");
    let rps = |c: &Client| median(&c.pass_rps);
    m.put("bench.trace_overhead_frac", 1.0 - rps(t) / rps(u), "frac");
}
