//! Benchmark of the two user paths — file-to-file correction through
//! the threaded engine, and requests through a `ServeEngine` — measured
//! end to end and layer by layer.
//!
//! `perfbench/run.py` drives three processes per run, so that the
//! measured one holds only the workload's inputs:
//!
//! ```text
//! perfbench gen     --workload W --seed N --dir D [--smoke]
//! perfbench measure --workload W --dir D --seconds S --trace 0|1 [--spans FILE] [--corrupt]
//! perfbench check   --dir D
//! perfbench host
//! ```
//!
//! Each prints one JSON object as its last line of standard output.

mod check;
mod gen;
mod measure;
mod probes;
mod trace;
mod util;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use workloads::Workload;

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        const FLAGS: [&str; 2] = ["smoke", "corrupt"];
        let mut values = HashMap::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let name =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg}"))?;
            let value = if FLAGS.contains(&name) {
                String::new()
            } else {
                it.next().ok_or_else(|| format!("--{name} needs a value"))?.clone()
            };
            values.insert(name.to_string(), value);
        }
        Ok(Args { values })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.values.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}"))
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))
    }

    fn dir(&self) -> Result<PathBuf, String> {
        self.get("dir").map(PathBuf::from)
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse().map_err(|_| format!("--{name}: {v} is not a number"))
    }
}

/// Host record: what the numbers were measured on.
fn host() -> String {
    let mut o = util::JsonObj::default();
    o.str("cpu_model", &util::cpu_model())
        .int("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)
        .str("simd_kernel", dnaseq::simd::Kernel::best().name())
        .int("np", workloads::NP as u64)
        .int("build_threads", workloads::BUILD_THREADS as u64);
    o.render()
}

fn run(raw: &[String]) -> Result<String, String> {
    let (cmd, rest) = raw.split_first().ok_or("usage: perfbench gen|measure|check|host ...")?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "gen" => {
            gen::generate(args.workload()?, args.number("seed")?, &args.dir()?, args.has("smoke"))
        }
        "measure" => {
            let dir = args.dir()?;
            let spans = args.values.get("spans").map(PathBuf::from);
            let seconds: f64 = args.number("seconds")?;
            if !(seconds > 0.0 && seconds.is_finite()) {
                return Err(format!("--seconds must be positive, got {seconds}"));
            }
            measure::measure(&measure::Opts {
                workload: args.workload()?,
                dir: &dir,
                seconds,
                trace: args.number::<u8>("trace")? != 0,
                spans: spans.as_deref(),
                corrupt: args.has("corrupt"),
            })
        }
        "check" => check::check(&args.dir()?),
        "host" => Ok(host()),
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
