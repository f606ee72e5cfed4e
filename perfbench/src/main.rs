#![forbid(unsafe_code)]
//! # vsim-perfbench — the repository benchmark
//!
//! One driver, three workloads, each a closed loop of at most `nproc`
//! client threads over the public API of the query, index, store and
//! matching layers:
//!
//! | workload | inputs | clients |
//! |----------|--------|---------|
//! | `knn_mem` | Aircraft n = 5000, k = 7, in-memory `FilterRefineIndex` | `nproc` planned 10-NN clients, a cold pool per query |
//! | `knn_file_evict` | the same index saved to a checksummed page file, reopened with pread | `nproc` clients sharing one `BufferPool` of a quarter of the file's pages |
//! | `churn_50k` | `DynamicIndex` over 50,000 perturbations of the Aircraft sets (ten per shape) | one writer (insert/delete, publish every 40 ops) and `nproc - 1` readers on pinned epochs |
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload knn_mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) measures the same loop, then replays the
//! seeded requests with a span around each layer call and reports the
//! per-layer metrics. Every run checks its outputs against a
//! single-threaded brute-force oracle. Input generation (the Aircraft
//! dataset, cached on disk; queries; the 50k derivation; the writer's
//! op log) happens before any timing; the seed chooses the queries.
//!
//! The last stdout line is the result object `{correct, attempted,
//! failed, metrics}`: the end-to-end metrics of an untraced run or the
//! per-layer metrics of a traced one. The line before it is the full
//! report: the host/input stamp, every metric with its sample count,
//! numbers only one workload has (insert, delete and publish latencies,
//! the epoch copy breakdown, save + open time) and the failed checks.
//! Span files and the page files of a run go to the work directory
//! under `$CARGO_TARGET_DIR` (default `perfbench/target`).

mod check;
mod churn;
mod inputs;
mod knn;
mod report;
mod requests;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;

pub const WORKLOADS: [&str; 3] = ["knn_mem", "knn_file_evict", "churn_50k"];

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub clients: usize,
    pub work_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work_dir: target.join("perfbench-work"),
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// only (a benchmark checkout without one reports `unknown`).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(name).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
        }),
    };
    id.filter(|id| !id.is_empty()).unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or_else(|| "unknown".into(), |v| v.trim_start_matches([' ', '\t', ':']).to_string())
}

fn stamp(cfg: &Config) -> Vec<(String, String)> {
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    [
        ("workload", cfg.workload.clone()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("commit", commit()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("profile", profile.to_string()),
        ("nproc", cfg.clients.to_string()),
        ("cpu", cpu_model()),
        ("dataset", "aircraft".to_string()),
        ("dataset_seed", inputs::AIRCRAFT_SEED.to_string()),
        ("dataset_n", inputs::AIRCRAFT_N.to_string()),
        ("k_covers", inputs::K_COVERS.to_string()),
        ("kq", inputs::KQ.to_string()),
        ("trace_tolerance", requests::TRACE_TOLERANCE.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(1);
    }
    let stamp = stamp(&cfg);
    let base = inputs::aircraft(&cfg.work_dir.join("cache"));
    let mut r = Report::default();
    match cfg.workload.as_str() {
        "knn_mem" => knn::run(&cfg, knn::Backing::Memory, &base, &mut r),
        "knn_file_evict" => knn::run(&cfg, knn::Backing::FileEvict, &base, &mut r),
        _ => churn::run(&cfg, &base, &mut r),
    }
    println!("{}", report::report_line(&stamp, &r));
    println!("{}", report::result_line(&r, cfg.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let c = parse(&args("--workload churn_50k --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((c.seed, c.seconds, c.trace), (7, 3, true));
        assert!(parse(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&args("--workload knn_mem --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload knn_mem --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&args("--workload knn_mem --seconds 1 --trace 0")).is_err());
    }
}
