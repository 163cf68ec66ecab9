//! The PatchDB benchmark harness: runs one named workload and prints one
//! JSON result line. See `perfbench/README.md` for the workloads, the
//! metrics, and how to run it.

mod build;
mod inputs;
mod load;
mod procfs;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `patchdb` CLI binary the serve workloads boot.
    pub patchdb: PathBuf,
    /// Scratch directory for snapshots and exports.
    pub work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <build|identify-fresh|identify-hot|scan> \
                     --seed <n> --seconds <s> --trace <0|1> --patchdb <bin> --work <dir>";

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter();
        let (mut workload, mut seed, mut seconds, mut trace, mut patchdb, mut work) =
            (None, None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                "--patchdb" => patchdb = Some(PathBuf::from(value)),
                "--work" => work = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let missing = |name: &str| format!("missing {name}");
        let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
        }
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            patchdb: patchdb.ok_or_else(|| missing("--patchdb"))?,
            work: work.ok_or_else(|| missing("--work"))?,
        })
    }
}

/// Worker threads for every parallel stage: pinned, never auto-sized,
/// and never above the machine's processor count.
pub fn pinned_threads() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    2.min(nproc)
}

/// 64-bit FNV-1a digest, for byte-identity checks and cache keys.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))
        .and_then(|()| match args.workload.as_str() {
            "build" => build::run(&args),
            "identify-fresh" => serve::run(&args, serve::Kind::Fresh),
            "identify-hot" => serve::run(&args, serve::Kind::Hot),
            "scan" => serve::run(&args, serve::Kind::Scan),
            other => Err(format!("unknown workload `{other}`\n{USAGE}")),
        });
    match result.and_then(|report: Report| {
        for failure in &report.check_failures {
            eprintln!("perfbench: check failed: {failure}");
        }
        report.check_declared(&report::declared(args.trace))?;
        report.to_json()
    }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
