//! `sibench`: the repository benchmark.
//!
//! ```text
//! sibench --workload <cold_solve|hot_serve|stream_persist> --seed <n>
//!         --seconds <s> --trace <0|1> --serve-bin <path> --work-dir <dir>
//! ```
//!
//! Spawns a real `si_serve` child, drives the chosen workload at it over
//! loopback HTTP/1.1 keep-alive from this one process (one server worker,
//! one connection for the gated closed loops), checks every checked
//! response bit for bit against an in-process reference, and prints every
//! metric by name with its unit. `--trace 0` ends with the end-to-end
//! metrics; `--trace 1` runs the same workload and then the traced
//! in-process run (see [`trace`]) and ends with the per-layer metrics. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any wrong output or broken `/metrics` invariant makes the
//! exit code 1.
//!
//! Normally started through `run.sh`, which builds both binaries first.

mod client;
mod jobs;
mod pin;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use stats::Metrics;
use workloads::Ctx;

/// The gated end-to-end metrics, in output order: name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("server_cpu_ms_per_job", "ms"),
];

/// Connections of the timed closed loops, and `si_serve` workers. One job
/// in flight at a time leaves a core of a small host to everything else,
/// so the figures measure the program rather than the scheduler.
const CONNECTIONS: usize = 1;

const WORKLOADS: [&str; 3] = ["cold_solve", "hot_serve", "stream_persist"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin, mut work_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed must be an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds must be a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// The last stdout line: `names` in order, each with its value and unit.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    m: &Metrics,
    names: &[(&str, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = m.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(s, "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("{title}:");
    for x in &m.0 {
        println!("  {:<38} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

/// Refuses to run when `BENCHMARK.json` in the working directory names
/// other metrics, or other units, than this harness prints.
fn check_ledger() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc = si_service::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", trace::PER_LAYER)] {
        let listed: Vec<(&str, &str)> = doc
            .get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("");
                (field("name"), field("unit"))
            })
            .collect();
        if listed != table {
            return Err(format!(
                "BENCHMARK.json {key} does not match the metrics this harness prints"
            ));
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    check_ledger()?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let work = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        serve_bin: args.serve_bin.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        threads,
        connections: CONNECTIONS,
    };
    println!(
        "sibench {} seed={} seconds={} trace={} threads={threads} connections=workers={CONNECTIONS}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match args.workload.as_str() {
        "cold_solve" => workloads::cold_solve(&ctx),
        "hot_serve" => workloads::hot_serve(&ctx),
        _ => workloads::stream_persist(&ctx),
    }?;
    print_metrics("end-to-end (untraced)", &result.e2e);
    print_metrics("workload-specific (untraced)", &result.extra);
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    for p in &result.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = result.problems.is_empty() && result.failed == 0 && result.attempted > 0;
    let line = if args.trace {
        let layers = trace::per_layer(&ctx, &args.workload, &result)?;
        print_metrics("per-layer (traced run)", &layers);
        result_line(
            correct,
            result.attempted,
            result.failed,
            &layers,
            trace::PER_LAYER,
        )
    } else {
        result_line(
            correct,
            result.attempted,
            result.failed,
            &result.e2e,
            END_TO_END,
        )
    };
    // Keep the span file of a traced run; everything else is scratch.
    if args.trace {
        for entry in std::fs::read_dir(&work).into_iter().flatten().flatten() {
            if entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    } else {
        let _ = std::fs::remove_dir_all(&work);
    }
    println!("{line}");
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("sibench: {msg}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("sibench: {msg}");
            std::process::exit(1);
        }
    }
}
