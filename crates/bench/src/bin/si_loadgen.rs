//! `si_loadgen`: drives the job service and reports throughput, latency
//! percentiles, and cache effectiveness as a [`RunReport`].
//!
//! Two phases, same client threads:
//!
//! 1. **cold** — every job is distinct, so every submission pays for a
//!    full solve. This measures raw engine throughput through the pool.
//! 2. **hot** — 90 % of submissions repeat a small working set that the
//!    cold phase already solved, so they resolve as cache hits or
//!    coalesced flights. The throughput ratio hot/cold is the headline
//!    `speedup` metric; the acceptance bar is ≥ 5×.
//!
//! ```text
//! si_loadgen [--http] [--clients N] [--cold N] [--hot N]
//!            [--stages N] [--steps N] [--batch] [--scenarios N]
//!            [--netlist] [--restart]
//! si_loadgen --cluster --router HOST:PORT --replica HOST:PORT...
//!            [--kill-pid PID] [--clients N] [--cold N] [--hot N]
//!            [--stages N] [--steps N]
//! si_loadgen --stream
//! ```
//!
//! By default the service is driven in-process (deterministic, no
//! sockets); `--http` binds a real loopback `HttpServer` and issues the
//! same workload as HTTP requests.
//!
//! `--batch` adds a third phase: the same N DC operating points submitted
//! once as N individual `delay_line_dc` jobs and once as a single
//! `delay_line_dc_batch` job. The scenario-throughput ratio batch/singles
//! is reported as the `batch_speedup` metric.
//!
//! `--restart` adds a cold-restart phase: the service runs with a
//! persistent disk cache tier, is torn down after the hot phase (taking
//! the whole memory tier with it), and a fresh instance on the same cache
//! directory replays the hot workload. The working set must come back from
//! disk, not be re-solved: the gate is restart throughput within 2x of
//! warm, at least one disk hit, and disk-served results bit-identical to
//! fresh solves on a brand-new workspace.
//!
//! `--netlist` swaps the canned transient workload for user-submitted
//! `netlist` jobs: every submission carries dialect-v1 text through the
//! full admission gauntlet — parse, canonicalization, pricing — before the
//! solve. DC netlist solves are cheap relative to the parse-per-submission
//! overhead, so the 5x speedup bar does not apply; the acceptance bar is
//! instead *exact coalescing*: every hot-phase duplicate must be served
//! from cache via its canonical fingerprints, and no submission may error.
//!
//! `--cluster` replaces the whole run: instead of driving one service, the
//! generator drives an `si_router` front end over external `si_serve`
//! replicas. Phases and acceptance gates:
//!
//! 1. **warmup** — one transient job per topology (`--cold` topologies,
//!    stage counts `--stages`, `--stages`+1, …; `--steps` solves per
//!    job, so replicas are compute-bound) seeds every shard owner.
//! 2. **affinity** — topology-major blocks of distinct-value jobs; the
//!    growth in the replicas' `symbolic_cache_misses` counters counts
//!    how often a solve landed on a workspace whose (single-slot)
//!    symbolic state held a different topology. Perfect routing costs
//!    exactly one miss per block, so `affinity = blocks / misses` — the
//!    gate is ≥ 0.9. Replicas must run `--workers 1` and stage counts
//!    must clear the sparse-backend cutoff (CI uses `--stages 48`).
//! 3. **cluster vs single** — the same interleaved distinct-value
//!    workload through the router versus directly against the first
//!    replica; the topology sequence cycles shard *owners* round-robin
//!    (ownership is discovered during warmup from per-shard `forwards`
//!    deltas) so each replica gets 1/R of the jobs even when the raw
//!    key draw skews the ring. The gate is cluster throughput ≥ 2x the
//!    single replica on hosts with a core per replica; on starved
//!    containers, where process parallelism is physically impossible,
//!    it degrades to a no-collapse floor.
//! 4. **kill storm** (`--kill-pid`) — the workload re-runs while the
//!    given replica is SIGKILLed a quarter of the way in. Clients retry
//!    through the router; the gates are zero lost jobs, at least one
//!    rerouted request in the router metrics, and every response
//!    bit-identical to a fresh in-process solve.
//!
//! `--stream` also replaces the whole run: the same 64K-sample
//! `tran_stream` job is driven twice against two fresh services with their
//! own disk tiers — once uninterrupted, once with a single injected
//! mid-chunk worker panic. The retry resumes from the last checkpoint, so
//! the gates are: both spectra bit-identical to an in-process reference,
//! at least one checkpoint resume in the faulted service's metrics, and
//! resumed wall time under 1.5x the uninterrupted run (resume must not
//! degenerate into a full rerun).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use si_analog::engine::EngineWorkspace;
use si_bench::harness::{
    self, bit_identical, metric, scrape, Flag, Flags, Gates, SubmitError, Target,
};
use si_bench::run_report::RunReport;
use si_service::http::{http_request, HttpConfig};
use si_service::jobspec::JobSpec;
use si_service::service::ServiceConfig;
use si_service::{FaultInjector, FaultPlan, ServiceError};

/// Worker threads of the driven service.
const WORKERS: usize = 4;
/// Admission queue depth of the driven service.
const QUEUE: usize = 64;

fn main() {
    let flags = harness::flags(&[
        Flag::switch("--http"),
        Flag::int("--clients", 4, 1),
        Flag::int("--cold", 24, 1),
        Flag::int("--hot", 240, 1),
        Flag::int("--stages", 32, 1),
        Flag::int("--steps", 96, 1),
        Flag::switch("--batch"),
        Flag::int("--scenarios", 32, 2),
        Flag::switch("--netlist"),
        Flag::switch("--restart"),
        Flag::switch("--cluster"),
        Flag::text("--router"),
        Flag::text("--replica"),
        Flag::int("--kill-pid", 0, 0),
        Flag::switch("--stream"),
    ]);
    harness::run_mode(
        &flags,
        &[("--cluster", run_cluster), ("--stream", run_stream)],
        run_phases,
    );
}

/// The `k`-th distinct transient job: same structure, one element value
/// (the input current) retuned, so every job has its own cache key.
fn tran_job(stages: usize, steps: usize, k: usize) -> JobSpec {
    JobSpec::DelayLineTran {
        stages,
        bias_ua: 20.0,
        input_ua: 0.5 + 0.01 * k as f64,
        steps,
        dt_ns: 50.0,
        clock_hz: 1e6,
    }
}

/// The `k`-th distinct job of the cold/hot phases. In `--netlist` mode the
/// job is dialect-v1 text — a diode-connected NMOS ladder with `--stages`
/// rungs — so every submission pays the parse/canonicalize/price
/// gauntlet, and duplicates coalesce via canonical fingerprints.
fn job(flags: &Flags, k: usize) -> JobSpec {
    let stages = flags.int("--stages");
    if !flags.on("--netlist") {
        return tran_job(stages, flags.int("--steps"), k);
    }
    let mut text = String::from(".version 1\nV1 vdd 0 3.3\n");
    for s in 0..stages {
        let ua = if s == 0 { 20.0 + 0.01 * k as f64 } else { 20.0 };
        text.push_str(&format!("I{s} vdd d{s} {ua:.4}u\n"));
        text.push_str(&format!("M{s} d{s} d{s} 0 0 NMOS W_UM=10 L_UM=2\n"));
    }
    JobSpec::Netlist { netlist: text }
}

struct Phase {
    wall: Duration,
    latencies: Vec<Duration>,
    cached: usize,
    overloaded: usize,
    errors: usize,
}

/// Fans `specs` out over `clients` threads round-robin and collects
/// latencies. Deterministic job order per thread.
fn run_phase(target: &Target, specs: &[JobSpec], clients: usize) -> Phase {
    let start = Instant::now();
    let results = harness::fan_out(specs.len(), clients, None, |_, k| {
        let sent = Instant::now();
        target
            .submit(&specs[k])
            .map(|cached| (sent.elapsed(), cached))
    });
    let mut phase = Phase {
        wall: start.elapsed(),
        latencies: Vec::with_capacity(specs.len()),
        cached: 0,
        overloaded: 0,
        errors: 0,
    };
    for result in results {
        match result {
            Ok((latency, cached)) => {
                phase.latencies.push(latency);
                phase.cached += usize::from(cached);
            }
            Err(SubmitError::Typed(ServiceError::Overloaded { .. })) => phase.overloaded += 1,
            Err(_) => phase.errors += 1,
        }
    }
    phase.latencies.sort_unstable();
    phase
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

fn throughput(n: usize, wall: Duration) -> f64 {
    n as f64 / wall.as_secs_f64().max(1e-9)
}

/// The default run: cold and hot phases, plus the `--batch` and
/// `--restart` phases when asked for.
fn run_phases(flags: &Flags) -> Gates {
    let (clients, cold_n, hot_n) = (
        flags.int("--clients"),
        flags.int("--cold"),
        flags.int("--hot"),
    );
    let (stages, scenarios) = (flags.int("--stages"), flags.int("--scenarios"));
    let http = || flags.on("--http").then(HttpConfig::default);
    // The restart phase needs results to outlive the first service
    // instance, so it runs with the persistent disk tier enabled.
    let cache_dir = flags
        .on("--restart")
        .then(|| harness::scratch_dir("loadgen-restart"));
    let config = || ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE,
        default_deadline: None,
        cache_dir: cache_dir.clone(),
        ..ServiceConfig::default()
    };
    let target = Target::start(config(), http());
    let service = std::sync::Arc::clone(target.service());

    // Cold: every spec distinct → all misses, all real solves.
    let cold_specs: Vec<JobSpec> = (0..cold_n).map(|k| job(flags, k)).collect();
    let cold = run_phase(&target, &cold_specs, clients);

    // Hot: 90 % duplicates drawn from the cold working set (already
    // cached), 10 % fresh. The duplicate index cycles deterministically.
    let hot_specs: Vec<JobSpec> = (0..hot_n)
        .map(|k| job(flags, if k % 10 == 9 { cold_n + k } else { k % cold_n }))
        .collect();
    let hot = run_phase(&target, &hot_specs, clients);

    // Batch phase: the same scenario set as N single DC jobs versus one
    // batch job. Distinct input currents give every single job its own
    // cache key, so both sides pay for real solves.
    let batch = flags.on("--batch").then(|| {
        let inputs: Vec<f64> = (0..scenarios).map(|k| 0.5 + 0.05 * k as f64).collect();
        let single_specs: Vec<JobSpec> = inputs
            .iter()
            .map(|&input_ua| JobSpec::DelayLineDc {
                stages,
                bias_ua: 20.0,
                input_ua,
            })
            .collect();
        let singles = run_phase(&target, &single_specs, clients);
        let batch_spec = JobSpec::DelayLineDcBatch {
            stages,
            bias_ua: 20.0,
            inputs_ua: inputs,
        };
        (singles, run_phase(&target, &[batch_spec], 1))
    });

    // Restart phase: tear the warm service down — the pool drains, so
    // every write-through to the disk tier has landed — and bring a fresh
    // instance up on the same cache directory. Replaying the hot workload
    // now exercises the disk tier: the memory tier is empty, so every
    // working-set key must be promoted from disk instead of re-solved.
    let (target, restart) = if cache_dir.is_some() {
        target.shutdown();
        let restarted = Target::start(config(), http());
        let phase = run_phase(&restarted, &hot_specs, clients);
        // Zero correctness drift: every disk-served working-set result
        // must equal a fresh solve on a brand-new workspace, bit for bit.
        let mut fresh_ws = EngineWorkspace::new();
        let bit_mismatches = cold_specs
            .iter()
            .filter(|spec| {
                let served = restarted
                    .service()
                    .submit_blocking(spec, None)
                    .expect("post-restart resolve")
                    .0;
                let fresh = spec.run(&mut fresh_ws).expect("fresh solve");
                !bit_identical(&served.values, &fresh.values)
            })
            .count();
        (restarted, Some((phase, bit_mismatches)))
    } else {
        (target, None)
    };

    let throughput_cold = throughput(cold_n, cold.wall);
    let throughput_hot = throughput(hot_n, hot.wall);
    let speedup = throughput_hot / throughput_cold.max(1e-9);
    let hit_ratio = metric(&service.metrics(), "cache", "hit_ratio");

    let mut gates = Gates::new("si_loadgen");
    let report = &mut gates.report;
    report.note(
        "mode",
        if flags.on("--http") {
            "http"
        } else {
            "in_process"
        },
    );
    report.note(
        "workload",
        if flags.on("--netlist") {
            format!(
                "{cold_n} cold + {hot_n} hot (90% duplicate) netlist-submitted NMOS ladders, {stages} rungs, {clients} clients"
            )
        } else {
            format!(
                "{cold_n} cold + {hot_n} hot (90% duplicate) delay-line transients, {stages} stages x {} steps, {clients} clients",
                flags.int("--steps")
            )
        },
    );
    report.metric("clients", clients as f64);
    report.metric("workers", WORKERS as f64);
    report.metric("throughput_cold_jps", throughput_cold);
    report.metric("throughput_hot_jps", throughput_hot);
    report.metric("speedup", speedup);
    report.metric("cache_hit_ratio", hit_ratio);
    report.metric("hot_cached_responses", hot.cached as f64);
    report.metric("latency_cold_p50_us", percentile_us(&cold.latencies, 0.50));
    report.metric("latency_hot_p50_us", percentile_us(&hot.latencies, 0.50));
    report.metric("latency_hot_p95_us", percentile_us(&hot.latencies, 0.95));
    report.metric("latency_hot_p99_us", percentile_us(&hot.latencies, 0.99));
    report.metric("overloaded", (cold.overloaded + hot.overloaded) as f64);
    let mut total_errors = cold.errors + hot.errors;
    let mut summary = format!(
        "cold {throughput_cold:.1} jobs/s | hot {throughput_hot:.1} jobs/s | speedup {speedup:.1}x | hit ratio {hit_ratio:.3}"
    );
    if let Some((singles, batch)) = &batch {
        let singles_sps = throughput(scenarios, singles.wall);
        let batch_sps = throughput(scenarios, batch.wall);
        let batch_speedup = batch_sps / singles_sps.max(1e-9);
        report.note(
            "batch_phase",
            format!("{scenarios} DC scenarios as singles vs one delay_line_dc_batch job"),
        );
        report.metric("batch_scenarios", scenarios as f64);
        report.metric("throughput_singles_sps", singles_sps);
        report.metric("throughput_batch_sps", batch_sps);
        report.metric("batch_speedup", batch_speedup);
        total_errors += singles.errors + batch.errors;
        summary += &format!(" | batch {batch_speedup:.1}x over singles");
    }
    let mut restart_gates = None;
    if let Some((phase, bit_mismatches)) = &restart {
        let throughput_restart = throughput(hot_n, phase.wall);
        let warm_over_restart = throughput_hot / throughput_restart.max(1e-9);
        let restarted_metrics = target.service().metrics();
        let disk = |key: &str| metric(&restarted_metrics, "cache", key);
        report.note(
            "restart_phase",
            format!(
                "hot workload replayed on a fresh instance over the same cache dir ({} entries on disk)",
                disk("disk_entries")
            ),
        );
        report.metric("throughput_restart_jps", throughput_restart);
        report.metric("restart_warm_ratio", warm_over_restart);
        report.metric("restart_disk_hits", disk("disk_hits"));
        report.metric("restart_disk_misses", disk("disk_misses"));
        report.metric("restart_cached_responses", phase.cached as f64);
        report.metric("restart_bit_mismatches", *bit_mismatches as f64);
        total_errors += phase.errors;
        summary += &format!(
            " | restart {throughput_restart:.1} jobs/s ({warm_over_restart:.2}x warm, {} disk hits)",
            disk("disk_hits")
        );
        restart_gates = Some((warm_over_restart, disk("disk_hits"), *bit_mismatches));
    }
    report.metric("errors", total_errors as f64);
    report.set_solver(service.engine_stats());
    gates.summary = summary;

    target.shutdown();
    if let Some(dir) = &cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    if let Some((warm_over_restart, disk_hits, bit_mismatches)) = restart_gates {
        gates.require(
            warm_over_restart <= 2.0,
            format!("cold-restart hot-phase throughput is {warm_over_restart:.2}x slower than warm (bar: 2x)"),
        );
        gates.require(
            disk_hits >= 1.0,
            "restarted service served no result from the disk tier",
        );
        gates.require(
            bit_mismatches == 0,
            format!("{bit_mismatches} disk-served results differ bitwise from a fresh solve"),
        );
    }
    if flags.on("--netlist") {
        // The netlist bar: text-level duplicates MUST coalesce through the
        // canonical fingerprints (the cold phase already solved them all).
        let expected_hits = (0..hot_n).filter(|k| k % 10 != 9).count();
        gates.require(
            hot.cached >= expected_hits,
            format!(
                "only {} of {expected_hits} duplicate netlists were served from cache",
                hot.cached
            ),
        );
    } else {
        gates.require(
            speedup >= 5.0,
            format!("cache speedup {speedup:.2}x below the 5x acceptance bar"),
        );
    }
    gates.require(total_errors == 0, format!("{total_errors} job errors"));
    gates
}

/// Resolves a `host:port` (optionally `http://`-prefixed) address.
fn resolve(addr: &str) -> SocketAddr {
    use std::net::ToSocketAddrs;
    let name = addr
        .trim()
        .trim_start_matches("http://")
        .trim_end_matches('/');
    name.to_socket_addrs()
        .unwrap_or_else(|e| panic!("cannot resolve {name:?}: {e}"))
        .next()
        .unwrap_or_else(|| panic!("{name:?} resolves to no address"))
}

/// Posts `bodies` through `addr` with failover retries; returns the wall
/// time and how many jobs were lost.
fn timed_post(addr: SocketAddr, bodies: &[String], clients: usize) -> (Duration, usize) {
    let start = Instant::now();
    let responses = harness::post_all(addr, bodies, clients, 0xC1A0, None);
    (
        start.elapsed(),
        responses.iter().filter(|r| r.is_none()).count(),
    )
}

/// The whole `--cluster` run: warmup, affinity blocks, cluster-vs-single
/// throughput, optional kill storm.
fn run_cluster(flags: &Flags) -> Gates {
    let mut gates = Gates::new("si_loadgen_cluster");
    let (clients, topologies, hot_n) = (
        flags.int("--clients"),
        flags.int("--cold"),
        flags.int("--hot"),
    );
    let (stages, steps) = (flags.int("--stages"), flags.int("--steps"));
    let router = resolve(
        flags
            .text("--router")
            .expect("--cluster requires --router HOST:PORT"),
    );
    let replicas: Vec<SocketAddr> = flags.texts("--replica").map(resolve).collect();
    assert!(
        replicas.len() >= 2,
        "--cluster requires at least two --replica flags"
    );

    // The ring must be complete before affinity means anything.
    let ring_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) =
            http_request(router, "GET", "/readyz", None).unwrap_or((0, String::new()));
        let ready = si_service::json::parse(&body)
            .ok()
            .and_then(|v| {
                v.get("ready_replicas")
                    .and_then(si_service::json::Json::as_f64)
            })
            .unwrap_or(0.0);
        if status == 200 && ready == replicas.len() as f64 {
            break;
        }
        assert!(
            Instant::now() < ring_deadline,
            "router ring never completed: {ready} of {} replicas ready",
            replicas.len()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Transient jobs, not DC: each submission pays `--steps` solves, so a
    // one-worker replica is compute-bound and the cluster-vs-single gate
    // measures process parallelism rather than HTTP overhead.
    let spec = |t: usize, rep: usize| tran_job(stages + t, steps, rep);
    let body = |t: usize, rep: usize| spec(t, rep).to_json().to_string_compact();

    // Warmup: one job per topology seeds each shard owner (and the
    // router's routed-key memory). The per-shard `forwards` delta around
    // each submission reveals which replica owns the topology — the
    // throughput phases need that map, because with a handful of keys on
    // the ring, raw ownership is badly skewed (a 12-key draw over 3
    // replicas routinely lands 7/4/1) and an ownership-blind workload
    // would measure the busiest shard, not the cluster.
    let forwards = || harness::shard_forwards(&scrape(router));
    let mut by_owner: Vec<Vec<usize>> = vec![Vec::new(); replicas.len()];
    let mut owner_of = Vec::with_capacity(topologies);
    for t in 0..topologies {
        let before = forwards();
        harness::submit_retrying(router, &body(t, 0), &harness::failover_policy(0))
            .unwrap_or_else(|e| panic!("warmup of topology {t} failed: {e}"));
        let owner = forwards()
            .iter()
            .zip(&before)
            .position(|(a, b)| a.1 > b.1)
            .unwrap_or(0);
        by_owner[owner].push(t);
        owner_of.push(owner);
    }
    if by_owner.iter().any(Vec::is_empty) {
        gates.require(false, format!("a replica owns no topology (ownership {owner_of:?}); raise --cold so every shard draws keys"));
        return gates;
    }

    // Affinity: topology-major blocks of distinct-value jobs, with a
    // barrier between blocks so at most one topology is in flight. Each
    // replica's sparse workspace holds ONE symbolic factorization (the
    // last topology it solved), so perfect routing costs exactly one
    // symbolic miss per block — any misroute forces extra rebuilds.
    const BLOCK_REPS: usize = 4;
    let sym_misses = || -> f64 {
        replicas
            .iter()
            .map(|&r| metric(&scrape(r), "engine", "symbolic_cache_misses"))
            .sum()
    };
    let misses_before = sym_misses();
    for t in 0..topologies {
        let bodies: Vec<String> = (1..=BLOCK_REPS).map(|rep| body(t, rep)).collect();
        let (_, lost) = timed_post(router, &bodies, clients.min(BLOCK_REPS));
        assert_eq!(lost, 0, "affinity block {t} lost jobs");
    }
    let miss_delta = sym_misses() - misses_before;
    if miss_delta < 1.0 {
        gates.require(false, "the workload never engaged the sparse symbolic path (raise --stages; replicas must run --workers 1)");
        return gates;
    }
    let affinity = (topologies as f64 / miss_delta).min(1.0);

    // Throughput, cluster vs. single replica: the same interleaved
    // distinct-value workload through the router versus directly against
    // one replica. The topology sequence cycles *owners* round-robin
    // (then each owner's topologies in turn), so every replica receives
    // exactly 1/R of the jobs regardless of how the ring skewed the raw
    // topology draw, and every blocking client's chain spreads over all
    // replicas instead of convoying on one shard. The bar is 2x with
    // R >= 2 replicas.
    let balanced_topology = |k: usize| -> usize {
        let list = &by_owner[k % replicas.len()];
        list[(k / replicas.len()) % list.len()]
    };
    let bodies_from = |first: usize| -> Vec<String> {
        (0..hot_n)
            .map(|k| body(balanced_topology(k), first + k))
            .collect()
    };
    let (cluster_wall, cluster_lost) = timed_post(router, &bodies_from(1_000), clients);
    assert_eq!(cluster_lost, 0, "cluster hot phase lost jobs");
    let (single_wall, single_lost) = timed_post(replicas[0], &bodies_from(100_000), clients);
    assert_eq!(single_lost, 0, "single-replica phase lost jobs");
    let throughput_cluster = throughput(hot_n, cluster_wall);
    let throughput_single = throughput(hot_n, single_wall);
    let scaling = throughput_cluster / throughput_single.max(1e-9);

    // A single replica saturates one core, so the cluster only shows
    // process parallelism when each replica gets a core of its own (plus
    // change for the router and clients). Scale the bar to the hardware:
    // strict 2x where a core per replica exists (CI's 4-core runners),
    // a no-collapse floor on starved containers where the replicas time-
    // share one or two cores and 2x is physically impossible.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scaling_bar = if cores > replicas.len() {
        2.0
    } else if cores >= 2 {
        1.2
    } else {
        0.5
    };

    let report = &mut gates.report;
    report.note("mode", "cluster");
    report.note(
        "workload",
        format!(
            "{topologies} topologies (stages {stages}..{}), {hot_n} jobs/phase, {clients} clients, {} replicas",
            stages + topologies - 1,
            replicas.len()
        ),
    );
    report.metric("replicas", replicas.len() as f64);
    report.metric("topologies", topologies as f64);
    report.metric("shard_affinity", affinity);
    report.metric("symbolic_miss_delta", miss_delta);
    report.metric("throughput_cluster_jps", throughput_cluster);
    report.metric("throughput_single_jps", throughput_single);
    report.metric("cluster_scaling", scaling);
    report.metric("cluster_scaling_bar", scaling_bar);
    report.metric("cores", cores as f64);
    gates.summary = format!(
        "cluster {throughput_cluster:.1} jobs/s | single {throughput_single:.1} jobs/s | \
         scaling {scaling:.2}x (bar {scaling_bar}x, {cores} cores) | affinity {affinity:.3}"
    );
    gates.require(
        affinity >= 0.9,
        format!("shard affinity {affinity:.3} below the 0.9 bar ({miss_delta} symbolic misses over {topologies} blocks)"),
    );
    gates.require(
        scaling >= scaling_bar,
        format!("cluster throughput is only {scaling:.2}x a single replica (bar: {scaling_bar}x on {cores} cores)"),
    );

    // Kill storm: re-run the workload and SIGKILL the given replica a
    // quarter of the way in. Content-addressed jobs + router failover +
    // client retries must lose nothing and drift nothing.
    if let Some(pid) = flags.opt_int("--kill-pid") {
        let reroutes_before = metric(&scrape(router), "router", "reroutes");
        let bodies = bodies_from(200_000);
        let kill = || {
            let killed = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status()
                .is_ok_and(|s| s.success());
            if !killed {
                eprintln!("warning: could not SIGKILL pid {pid}");
            }
        };
        let (responses, ()) = harness::kill_at_quarter(hot_n, kill, |done| {
            harness::post_all(router, &bodies, clients, 0xC1A0, Some(done))
        });
        // Every response must be bit-identical to a fresh solve.
        let mut ws = EngineWorkspace::new();
        let lost = responses.iter().filter(|r| r.is_none()).count();
        let bit_mismatches = responses
            .iter()
            .enumerate()
            .filter_map(|(k, payload)| Some((k, payload.as_deref()?)))
            .filter(|&(k, payload)| {
                !spec(balanced_topology(k), 200_000 + k)
                    .run(&mut ws)
                    .is_ok_and(|fresh| bit_identical(&harness::values_of(payload), &fresh.values))
            })
            .count();
        let reroutes = metric(&scrape(router), "router", "reroutes") - reroutes_before;
        gates.report.metric("kill_lost_jobs", lost as f64);
        gates
            .report
            .metric("kill_bit_mismatches", bit_mismatches as f64);
        gates.report.metric("kill_reroutes", reroutes);
        gates.summary += &format!(
            "\nkill storm: {lost} lost of {hot_n} | {reroutes} reroutes | {bit_mismatches} bit mismatches"
        );
        gates.require(
            lost == 0,
            format!("{lost} jobs lost during the replica kill"),
        );
        gates.require(
            bit_mismatches == 0,
            format!("{bit_mismatches} kill-storm responses differ bitwise from a fresh solve"),
        );
        gates.require(
            reroutes >= 1.0,
            "the router never rerouted around the killed replica",
        );
    }
    let router_metrics = scrape(router);
    gates.report.metric(
        "ring_generation",
        metric(&router_metrics, "router", "ring_generation"),
    );
    gates
        .report
        .metric("router_routed", metric(&router_metrics, "router", "routed"));
    gates
}

/// The `--stream` run: resumed-vs-uninterrupted A/B over the same 64K
/// streaming job.
fn run_stream(_: &Flags) -> Gates {
    // A single injected mid-chunk panic is expected; keep its backtrace
    // out of the report while letting real panics print.
    harness::quiet_injected_panics();
    let spec = harness::stream_spec();
    let chunks_total = spec.stream_chunk_count().expect("streaming spec") as f64;
    let reference = spec
        .run(&mut EngineWorkspace::new())
        .expect("in-process reference solve");
    let run = |tag: &str, faults: Option<FaultPlan>| {
        let dir = harness::scratch_dir(tag);
        let target = Target::start(
            ServiceConfig {
                workers: 1,
                queue_capacity: QUEUE,
                default_deadline: None,
                cache_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
            None,
        );
        let service = target.service();
        if let Some(plan) = faults {
            service.install_fault_injector(std::sync::Arc::new(FaultInjector::new(plan)));
        }
        let start = Instant::now();
        let (out, _) = service
            .submit_blocking(&spec, None)
            .unwrap_or_else(|e| panic!("{tag} streaming run: {e}"));
        let wall = start.elapsed();
        let (metrics, panics) = (service.metrics(), service.fault_stats().panic_mid_chunks);
        target.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        (out, wall, metrics, panics)
    };

    // A: uninterrupted. Checkpoints are written every chunk here too, so
    // the wall-time baseline already pays the write-through cost.
    let (out_plain, wall_plain, _, _) = run("loadgen-stream-plain", None);
    // B: one mid-chunk worker panic; the retry must resume from the last
    // checkpoint instead of rerunning the chunks already solved.
    let (out_faulted, wall_resumed, metrics, panic_mid_chunks) =
        run("loadgen-stream-faulted", Some(FaultPlan::mid_chunk(7, 1)));
    let stream_resumed = metric(&metrics, "service", "stream_resumed");
    let stream_chunks = metric(&metrics, "service", "stream_chunks");
    let overhead = wall_resumed.as_secs_f64() / wall_plain.as_secs_f64().max(1e-9);
    let faulted_identical = bit_identical(&out_faulted.values, &reference.values);

    let mut gates = Gates::new("si_loadgen_stream");
    gates.require(
        bit_identical(&out_plain.values, &reference.values),
        "uninterrupted spectrum differs from the in-process reference",
    );
    gates.require(
        faulted_identical,
        "resumed spectrum differs from the in-process reference",
    );
    gates.require(
        panic_mid_chunks >= 1,
        "no mid-chunk panic was injected (gate exercised nothing)",
    );
    gates.require(
        stream_resumed >= 1.0,
        "faulted service never resumed from a checkpoint",
    );
    gates.require(
        overhead < 1.5,
        format!("resumed run took {overhead:.2}x the uninterrupted run (bar: < 1.5x)"),
    );

    let report: &mut RunReport = &mut gates.report;
    report.note(
        "plan",
        format!(
            "64K-sample tran_stream ({chunks_total} chunks), uninterrupted vs one \
             injected mid-chunk panic + checkpoint resume"
        ),
    );
    report.metric("chunks_total", chunks_total);
    report.metric("wall_plain_s", wall_plain.as_secs_f64());
    report.metric("wall_resumed_s", wall_resumed.as_secs_f64());
    report.metric("resume_overhead_ratio", overhead);
    report.metric("stream_resumed", stream_resumed);
    report.metric("stream_chunks_faulted_run", stream_chunks);
    report.metric("panic_mid_chunks", panic_mid_chunks as f64);
    report.metric("bit_identical", f64::from(u8::from(faulted_identical)));
    gates.summary = format!(
        "stream: plain {:.2}s | resumed {:.2}s ({overhead:.2}x) | {stream_chunks} chunk \
         solves after 1 panic | resumed {stream_resumed} time(s)",
        wall_plain.as_secs_f64(),
        wall_resumed.as_secs_f64(),
    );
    gates
}
