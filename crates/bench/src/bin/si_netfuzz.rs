//! `si_netfuzz`: seeded fuzz harness for the netlist service workload.
//!
//! Drives thousands of generated netlists — the fixed nasty corpus, raw
//! byte soup, pristine valid circuits, and grammar-aware mutants — through
//! the *full* admission path of a live service (byte cap → strict parse →
//! priced budget → solve) and requires every single outcome to be typed:
//!
//! 1. **No panics** — each submission runs under `catch_unwind`; a panic
//!    anywhere in parse, pricing, keying, or solving fails the run. A
//!    worker panic would surface as `Internal`, which gate 3 also fails.
//! 2. **No hangs** — any case slower than [`MAX_CASE`] fails the run.
//! 3. **Typed outcomes only** — accepted jobs solve or fail analysis
//!    (`200`/`422`); malformed text is `NetlistRejected` (`422`);
//!    oversized circuits are `BudgetExceeded` (`413`). Anything else
//!    (`Transient`, `Internal`, untyped HTTP answers) fails the run.
//! 4. **Budget precedes factorization** — an over-budget netlist submitted
//!    to a fresh service leaves the engine's solve counter at zero.
//!
//! ```text
//! si_netfuzz [--http] [--iters N] [--seed N]
//! ```
//!
//! Every failing case is written to `target/experiments/netfuzz_artifacts/`
//! for replay; the run's seed makes the whole schedule reproducible. Exit
//! code 0 only when all four gates hold.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use si_bench::harness::{self, metric, Flag, Gates, SubmitError, Target};
use si_bench::netfuzz::{self, NASTY_CORPUS};
use si_bench::run_report::experiments_dir;
use si_service::http::HttpConfig;
use si_service::jobspec::JobSpec;
use si_service::service::ServiceConfig;
use si_service::ServiceError;

/// Worker threads of the fuzzed service.
const WORKERS: usize = 2;
/// Admission queue depth of the fuzzed service.
const QUEUE: usize = 64;
/// A case slower than this counts as a hang.
const MAX_CASE: Duration = Duration::from_millis(2_000);

/// How one fuzz case ended, after forcing every outcome into a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Solved { cached: bool },
    RejectedParse,
    RejectedBudget,
    AnalysisFailed,
    InvalidSpec,
    Untyped,
    Panicked,
}

/// Buckets a submission's result. Over HTTP, [`harness::wire_error`]
/// already demands the status the wire contract gives each typed error
/// (`422`, `413`, `422`, `400`).
fn classify(result: Result<bool, SubmitError>) -> Outcome {
    match result {
        Ok(cached) => Outcome::Solved { cached },
        Err(SubmitError::Typed(ServiceError::NetlistRejected(_))) => Outcome::RejectedParse,
        Err(SubmitError::Typed(ServiceError::BudgetExceeded { .. })) => Outcome::RejectedBudget,
        Err(SubmitError::Typed(ServiceError::Analysis(_))) => Outcome::AnalysisFailed,
        Err(SubmitError::Typed(ServiceError::InvalidSpec(_))) => Outcome::InvalidSpec,
        Err(_) => Outcome::Untyped,
    }
}

fn main() {
    let flags = harness::flags(&[
        Flag::switch("--http"),
        Flag::int("--iters", 12_000, NASTY_CORPUS.len()),
        Flag::int("--seed", 42, 0),
    ]);
    let (http, iters, seed) = (
        flags.on("--http"),
        flags.int("--iters"),
        flags.int("--seed") as u64,
    );
    let target = Target::start(
        ServiceConfig {
            workers: WORKERS,
            queue_capacity: QUEUE,
            ..ServiceConfig::default()
        },
        http.then(HttpConfig::default),
    );
    let service = target.service();
    let submit = |netlist: String| classify(target.submit(&JobSpec::Netlist { netlist }));

    let mut gates = Gates::new("si_netfuzz");
    let artifacts = experiments_dir().join("netfuzz_artifacts");
    let mut artifact_count = 0usize;
    let mut save_artifact = |i: usize, kind: &str, text: &str| {
        if artifact_count >= 25 {
            return;
        }
        artifact_count += 1;
        if std::fs::create_dir_all(&artifacts).is_ok() {
            let _ = std::fs::write(artifacts.join(format!("case_{i:06}_{kind}.snl")), text);
        }
    };

    // ---- Gate 4 first, on the still-virgin engine: an over-budget
    // netlist must be rejected 413 with the solve counter untouched.
    let big_outcome = submit(netfuzz::oversized(9000));
    gates.require(
        big_outcome == Outcome::RejectedBudget,
        format!("oversized netlist was not budget-rejected: {big_outcome:?}"),
    );
    let solves_after_reject = metric(&service.metrics(), "engine", "solves");
    gates.require(
        solves_after_reject == 0.0,
        format!("budget rejection reached the solver: engine.solves = {solves_after_reject}"),
    );

    // ---- The fuzz loop: nasty corpus first, then the seeded mix.
    let started = Instant::now();
    let (mut solved, mut cache_hits, mut rejected_parse, mut rejected_budget) = (0u64, 0, 0, 0);
    let (mut analysis_failed, mut invalid_spec, mut untyped, mut panics, mut hangs) =
        (0u64, 0, 0, 0, 0);
    let mut max_case_wall = Duration::ZERO;
    for i in 0..iters {
        let text = netfuzz::case(seed, i);
        let case_started = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| submit(text.clone())))
            .unwrap_or(Outcome::Panicked);
        let case_wall = case_started.elapsed();
        max_case_wall = max_case_wall.max(case_wall);
        if case_wall > MAX_CASE {
            hangs += 1;
            save_artifact(i, "hang", &text);
            if hangs <= 3 {
                eprintln!("case {i} took {case_wall:?} (> {MAX_CASE:?})");
            }
        }
        match outcome {
            Outcome::Solved { cached } => {
                solved += 1;
                cache_hits += u64::from(cached);
            }
            Outcome::RejectedParse => rejected_parse += 1,
            Outcome::RejectedBudget => rejected_budget += 1,
            Outcome::AnalysisFailed => analysis_failed += 1,
            Outcome::InvalidSpec => {
                invalid_spec += 1;
                save_artifact(i, "invalid_spec", &text);
            }
            Outcome::Untyped => {
                untyped += 1;
                save_artifact(i, "untyped", &text);
                if untyped <= 3 {
                    eprintln!("case {i} produced an untyped outcome:\n{text}");
                }
            }
            Outcome::Panicked => {
                panics += 1;
                save_artifact(i, "panic", &text);
                if panics <= 3 {
                    eprintln!("case {i} panicked:\n{text}");
                }
            }
        }
    }
    let wall = started.elapsed();

    // ---- Gates. A netlist spec can never be `InvalidSpec` (that bucket
    // is for malformed job documents, which the generators do not emit),
    // so it counts as untyped here.
    let untyped = untyped + invalid_spec;
    gates.require(panics == 0, format!("{panics} cases panicked"));
    gates.require(
        hangs == 0,
        format!("{hangs} cases exceeded {} ms", MAX_CASE.as_millis()),
    );
    gates.require(
        untyped == 0,
        format!("{untyped} cases escaped the typed 200/413/422 surface"),
    );
    // Sanity: the mix must actually exercise both sides of the boundary.
    gates.require(solved > 0, "no generated netlist ever solved");
    gates.require(
        rejected_parse > 0,
        "no generated netlist was ever parse-rejected",
    );

    let metrics = service.metrics();
    let report = &mut gates.report;
    report.note("mode", if http { "http" } else { "in_process" });
    report.note(
        "plan",
        format!(
            "seed {seed}, {iters} cases ({} fixed nasty + seeded mix of raw/valid/mutant)",
            NASTY_CORPUS.len()
        ),
    );
    report.metric("cases", iters as f64);
    report.metric("solved", solved as f64);
    report.metric("cache_hits", cache_hits as f64);
    report.metric("rejected_parse", rejected_parse as f64);
    report.metric("rejected_budget", rejected_budget as f64);
    report.metric("analysis_failed", analysis_failed as f64);
    report.metric("panics", panics as f64);
    report.metric("hangs", hangs as f64);
    report.metric("untyped", untyped as f64);
    for key in [
        "netlist_submitted",
        "netlist_rejected_parse",
        "netlist_rejected_budget",
    ] {
        report.metric(key, metric(&metrics, "service", key));
    }
    report.metric("max_case_us", max_case_wall.as_micros() as f64);
    report.metric("wall_s", wall.as_secs_f64());
    report.set_solver(service.engine_stats());
    gates.summary = format!(
        "netfuzz: {iters} cases | {solved} solved ({cache_hits} cached), {rejected_parse} parse-rejected, \
         {rejected_budget} budget-rejected, {analysis_failed} analysis-failed | \
         {panics} panics, {hangs} hangs, {untyped} untyped | slowest case {max_case_wall:?}"
    );

    target.shutdown();
    gates.finish();
}
