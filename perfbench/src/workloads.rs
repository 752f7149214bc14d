//! The three workloads: inputs, parameters and engine settings.
//!
//! * `correct_remote` — file-to-file correction with base heuristics:
//!   every k-mer/tile lookup of a foreign key is a single-key round trip
//!   through the Step IV comm thread, so the service plane does almost
//!   all the work.
//! * `build_ooc` — file-to-file correction with both spectra replicated
//!   (no remote lookups), a memory budget that forces the out-of-core
//!   spill/merge build, and a parity-protected snapshot save: the build
//!   side does most of the work.
//! * `serve_mix` — one closed-loop client sending 200-read jobs through a
//!   [`reptile_dist::ServeEngine`] started from a snapshot, with
//!   micro-batches capped at [`SERVE_MAX_BATCH`] reads.
//!
//! Every run uses `np = 2` ranks and one build thread per rank.

use genio::dataset::DatasetProfile;
use reptile::ReptileParams;
use reptile_dist::{EngineConfig, HeuristicConfig, ServeConfig};
use std::path::{Path, PathBuf};

/// Ranks in every run.
pub const NP: usize = 2;
/// Extraction threads per rank in every build.
pub const BUILD_THREADS: usize = 1;
/// Reads per serve job.
pub const JOB_READS: usize = 200;
/// Parity shards per table kind in every saved snapshot.
pub const PARITY: usize = 1;
/// Most reads a serve worker takes into one micro-batch. Below the job
/// size, so each job is served in several batches spread over both
/// ranks' workers. Under the default cap (256) one worker takes most of
/// a job in a single batch, and how the job splits between the two
/// workers turns on which thread wakes first; the per-read latency then
/// follows that race rather than the program.
pub const SERVE_MAX_BATCH: usize = JOB_READS / 8;

/// The serve engine's admission settings.
pub fn serve_config() -> ServeConfig {
    ServeConfig { max_batch: SERVE_MAX_BATCH, ..ServeConfig::default() }
}

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// File-to-file, remote-lookup bound.
    CorrectRemote,
    /// File-to-file, build/spill/snapshot bound.
    BuildOoc,
    /// ServeEngine requests from a snapshot.
    ServeMix,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "correct_remote" => Some(Workload::CorrectRemote),
            "build_ooc" => Some(Workload::BuildOoc),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    /// Whether this is a file-to-file workload.
    pub fn is_batch(self) -> bool {
        self != Workload::ServeMix
    }

    /// Corrector parameters.
    pub fn params(self) -> ReptileParams {
        match self {
            // k=12 keeps random-genome k-mers near-unique; thresholds
            // sized for the E.coli profile's coverage.
            Workload::CorrectRemote | Workload::BuildOoc => ReptileParams {
                k: 12,
                tile_overlap: 6,
                kmer_threshold: 5,
                tile_threshold: 4,
                ..ReptileParams::default()
            },
            Workload::ServeMix => ReptileParams {
                k: 12,
                tile_overlap: 6,
                kmer_threshold: 4,
                tile_threshold: 3,
                ..ReptileParams::for_tests()
            },
        }
    }

    /// The dataset of a file-to-file workload.
    pub fn batch_profile(self, smoke: bool) -> DatasetProfile {
        let divisor = match (self, smoke) {
            (_, true) => 8_000,
            (Workload::BuildOoc, false) => 50,
            (_, false) => 1_000,
        };
        DatasetProfile::ecoli_like().scaled(divisor)
    }

    /// Engine settings. `save` is the snapshot directory of a
    /// `build_ooc` iteration; `snapshot` the one a serve engine loads.
    pub fn engine_config(self, save: Option<&Path>, snapshot: Option<&Path>) -> EngineConfig {
        let params = self.params();
        let b = EngineConfig::builder(NP, params).build_threads(BUILD_THREADS);
        let b = match self {
            Workload::CorrectRemote => b.heuristics(HeuristicConfig::base()),
            Workload::BuildOoc => {
                let h = HeuristicConfig {
                    replicate_kmers: true,
                    replicate_tiles: true,
                    batch_reads: true,
                    ..HeuristicConfig::base()
                };
                let b = b.heuristics(h).memory_budget(4 * reptile_dist::ooc::min_budget(&params));
                match save {
                    Some(dir) => b.save_spectrum(dir).parity(PARITY),
                    None => b,
                }
            }
            Workload::ServeMix => {
                let h = HeuristicConfig {
                    aggregate_lookups: true,
                    replicate_tiles: true,
                    ..HeuristicConfig::base()
                };
                let b = b.heuristics(h);
                match snapshot {
                    Some(dir) => b.load_spectrum(dir),
                    None => b,
                }
            }
        };
        b.build().expect("workload engine config is valid")
    }
}

/// The serve workload's reference spectrum: deep 60 bp coverage.
pub fn serve_spectrum_profile(smoke: bool) -> DatasetProfile {
    let (n_reads, genome_len) = if smoke { (3_000, 8_000) } else { (80_000, 250_000) };
    DatasetProfile {
        name: "serve-spectrum".into(),
        genome_len,
        read_len: 60,
        n_reads,
        base_error_rate: 0.003,
        hotspot_count: 2,
        hotspot_multiplier: 4.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
}

/// One request pool of the serve mix: the spectrum's genome (same seed
/// and genome length) read at another length and error rate.
pub fn serve_pool_profile(
    smoke: bool,
    n_reads: usize,
    read_len: usize,
    err: f64,
) -> DatasetProfile {
    DatasetProfile { read_len, n_reads, base_error_rate: err, ..serve_spectrum_profile(smoke) }
}

/// Requests in the serve workload's request list (whole jobs).
pub fn serve_requests(smoke: bool) -> usize {
    if smoke {
        3 * JOB_READS
    } else {
        120 * JOB_READS
    }
}

/// File names inside a run's work directory.
pub struct Files {
    dir: PathBuf,
}

impl Files {
    /// The layout under `dir`.
    pub fn new(dir: &Path) -> Files {
        Files { dir: dir.to_path_buf() }
    }

    fn at(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Input FASTA (the reads a batch run corrects, or the serve
    /// request list).
    pub fn input_fasta(&self) -> PathBuf {
        self.at("input.fa")
    }

    /// Input qualities.
    pub fn input_qual(&self) -> PathBuf {
        self.at("input.qual")
    }

    /// Sequential-oracle output, one record per input read.
    pub fn oracle(&self) -> PathBuf {
        self.at("oracle.fa")
    }

    /// Error-free sequence of every input read.
    pub fn truth(&self) -> PathBuf {
        self.at("truth.fa")
    }

    /// The serve workload's snapshot.
    pub fn snapshot(&self) -> PathBuf {
        self.at("snapshot")
    }

    /// Snapshot written by iteration `i` of a `build_ooc` run.
    pub fn saved_snapshot(&self, i: usize) -> PathBuf {
        self.at(&format!("saved-{i}"))
    }

    /// Corrected output of measured pass `i`.
    pub fn output(&self, i: usize) -> PathBuf {
        self.at(&format!("out-{i:03}.fa"))
    }

    /// Every corrected output written so far, in pass order.
    pub fn outputs(&self) -> Vec<PathBuf> {
        (0..).map(|i| self.output(i)).take_while(|p| p.exists()).collect()
    }
}
