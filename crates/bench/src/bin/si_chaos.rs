//! `si_chaos`: fault-injection soak harness for the job service.
//!
//! Installs a deterministic, seeded [`FaultPlan`] into a live service and
//! drives a concurrent workload through the resulting storm of worker
//! panics, stalls, and transient failures — plus, in `--http` mode,
//! client connections dropped mid-request-body. The run then disarms the
//! injector and verifies full recovery:
//!
//! 1. **No wedged requests** — every submission completes (possibly with
//!    a typed error after retries); the pool drains to zero in-flight.
//! 2. **No leaked state** — the cancellation-flag map is empty and no
//!    cache shard is poisoned.
//! 3. **Bit-identical cache** — after recovery, every distinct job's
//!    cached values equal a fresh solve on a brand-new workspace,
//!    bit for bit.
//!
//! The service runs the whole storm with its persistent disk tier
//! enabled, and a dedicated **kill-during-disk-write** fault class
//! attacks the tier's atomic-rename protocol directly: a torn `.sic`
//! entry (writer killed mid-write on a non-atomic filesystem) is planted
//! at a fresh key and must be quarantined — counted in `corrupt_evicted`,
//! re-solved bit-identically, never served — and a `.tmp-` leftover
//! (writer killed *before* its rename) must be swept by the next startup
//! without ever becoming loadable.
//!
//! ```text
//! si_chaos [--http] [--jobs N] [--clients N] [--stages N]
//! si_chaos --replica-kill [--serve-bin PATH] [--jobs N] [--clients N]
//!          [--stages N]
//! si_chaos --stream-kill [--serve-bin PATH]
//! ```
//!
//! `--stream-kill` attacks the streaming checkpoint/resume path with the
//! harshest fault available: a real `si_serve` child is SIGKILLed
//! mid-chunk through a 64K-sample streaming job, restarted on the same
//! cache directory, and the resubmitted job must *resume* from the last
//! persisted checkpoint — `stream_resumed ≥ 1`, fewer chunk solves than
//! two full runs — and produce a spectrum bit-identical to an
//! uninterrupted in-process run. Per-chunk progress must have been
//! observable over `GET /v1/jobs/:id` before the kill.
//!
//! `--replica-kill` is a separate fault class at cluster scope: it spawns
//! three real `si_serve` child processes (one worker each, persistent disk
//! tiers), fronts them with an in-process [`RouterServer`], and SIGKILLs
//! the *busiest* replica — the one with the most forwards on the ring — a
//! quarter of the way through a distinct-job storm. The gates: every job
//! completes through client retries (zero lost), the router reroutes at
//! least once and bumps its ring generation, the dead replica leaves the
//! ring, and every response is bit-identical to a fresh in-process solve.
//!
//! Exit code 0 only when at least [`MIN_FAULTS`] faults were injected AND
//! every gate above holds; the [`RunReport`](si_bench::RunReport) records
//! the full tally.

use std::sync::Arc;
use std::time::{Duration, Instant};

use si_analog::engine::EngineWorkspace;
use si_bench::harness::{self, bit_identical, metric, Flag, Flags, Gates, SubmitError, Target};
use si_bench::netfuzz;
use si_service::http::{http_drop_mid_body, http_request, HttpConfig};
use si_service::jobspec::JobSpec;
use si_service::router::{RouterConfig, RouterServer};
use si_service::service::{ServiceConfig, SiService};
use si_service::{
    CacheTier, DiskTier, DiskTierConfig, FaultInjector, FaultKind, FaultPlan, RetryPolicy,
};

/// Seed of every fault schedule and retry jitter.
const SEED: u64 = 42;
/// Faults the storm must inject before it stops.
const MIN_FAULTS: u64 = 50;
/// Transient steps per storm job.
const STEPS: usize = 48;
/// Worker threads of the stormed service.
const WORKERS: usize = 4;
/// Admission queue depth of the stormed service.
const QUEUE: usize = 64;
/// `si_serve` children behind the router in `--replica-kill`.
const REPLICAS: usize = 3;
/// Client-side backoff on retryable errors during the storm.
const CLIENT_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 8,
    base_delay: Duration::from_millis(2),
    max_delay: Duration::from_millis(50),
    multiplier: 2,
    jitter_seed: None,
};

fn main() {
    let flags = harness::flags(&[
        Flag::switch("--http"),
        Flag::int("--jobs", 300, 1),
        Flag::int("--clients", 4, 1),
        Flag::int("--stages", 16, 1),
        Flag::switch("--replica-kill"),
        Flag::text("--serve-bin"),
        Flag::switch("--stream-kill"),
    ]);
    harness::run_mode(
        &flags,
        &[
            ("--replica-kill", run_replica_kill),
            ("--stream-kill", run_stream_kill),
        ],
        run_storm,
    );
}

/// The `k`-th distinct job of the working set.
fn job(stages: usize, k: usize) -> JobSpec {
    JobSpec::DelayLineTran {
        stages,
        bias_ua: 20.0,
        input_ua: 0.5 + 0.01 * k as f64,
        steps: STEPS,
        dt_ns: 50.0,
        clock_hz: 1e6,
    }
}

/// A fault plan that only injects `panic_pm` worker panics and `drop_pm`
/// client connection drops.
fn plan(seed: u64, panic_pm: u64, drop_pm: u64, max_faults: u64) -> FaultPlan {
    FaultPlan {
        seed,
        panic_pm,
        stall_pm: 0,
        transient_pm: 0,
        drop_pm,
        panic_mid_chunk_pm: 0,
        stall: Duration::ZERO,
        max_faults,
    }
}

/// The default run: the fault storm, recovery gates, then the mid-batch
/// panic, poisoned-netlist and kill-during-disk-write fault classes.
fn run_storm(flags: &Flags) -> Gates {
    let (jobs, clients, stages) = (
        flags.int("--jobs"),
        flags.int("--clients"),
        flags.int("--stages"),
    );
    let http = flags.on("--http");
    // Injected worker panics are expected by the hundred; keep their
    // backtraces out of the report while letting real panics print.
    harness::quiet_injected_panics();

    // The storm runs with the persistent disk tier enabled, so every
    // completed solve also exercises the atomic write-through path while
    // workers are panicking and stalling around it.
    let cache_dir = harness::scratch_dir("chaos-cache");
    let target = Target::start(
        ServiceConfig {
            workers: WORKERS,
            queue_capacity: QUEUE,
            default_deadline: None,
            retry: RetryPolicy::default(),
            cache_dir: Some(cache_dir.clone()),
            ..ServiceConfig::default()
        },
        http.then(|| HttpConfig {
            read_timeout: Duration::from_secs(10),
            ..HttpConfig::default()
        }),
    );
    let service: &SiService = target.service();
    // Worker-side chaos: panics, stalls, transients.
    let worker_faults = Arc::new(FaultInjector::new(FaultPlan::balanced(SEED, u64::MAX)));
    service.install_fault_injector(Arc::clone(&worker_faults));
    // Client-side chaos (HTTP only): dropped connections mid-body.
    let client_drops = http.then(|| Arc::new(FaultInjector::new(plan(SEED + 1, 0, 160, u64::MAX))));
    // One client submission with client-side retry/backoff on retryable
    // errors (`Overloaded`, `Transient`, `Internal`, injected drops). A
    // client-side drop goes out first on its own connection; the real
    // request follows, so the drop never carries the job.
    let submit = |spec: &JobSpec| {
        harness::retrying(&CLIENT_RETRY, SubmitError::is_client_retryable, || {
            if let (Some(addr), Some(drops)) = (target.addr(), &client_drops) {
                if drops.next_fault() == Some(FaultKind::DropConnection) {
                    let body = spec.to_json().to_string_compact();
                    let _ = http_drop_mid_body(addr, "/v1/jobs", &body, body.len() / 2);
                }
            }
            target.submit(spec)
        })
    };

    // ---- Chaos phase: batches under fault injection until the fault
    // budget is met (the schedule is deterministic per seed; batch count
    // only depends on how many events the rates actually hit).
    let started = Instant::now();
    let (mut client_retries, mut unrecovered, mut completed) = (0u64, 0u64, 0u64);
    let mut submitted_jobs = 0usize;
    let mut batches = 0usize;
    let injected =
        || worker_faults.stats().injected + client_drops.as_ref().map_or(0, |d| d.stats().injected);
    while injected() < MIN_FAULTS && batches < 16 {
        let base = submitted_jobs;
        for (result, retries) in
            harness::fan_out(jobs, clients, None, |_, k| submit(&job(stages, base + k)))
        {
            match result {
                Ok(_) => {
                    completed += 1;
                    client_retries += retries;
                }
                Err(_) => unrecovered += 1,
            }
        }
        submitted_jobs += jobs;
        batches += 1;
    }
    let chaos_wall = started.elapsed();

    // ---- Recovery: disarm everything, then verify.
    worker_faults.disarm();
    if let Some(d) = &client_drops {
        d.disarm();
    }

    let mut gates = Gates::new("si_chaos");

    // Gate: the pool drains — nothing is stuck on a worker. A missing
    // gauge reads NaN, which fails the gate.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    let in_flight = loop {
        let in_flight = service
            .metrics()
            .get("pool")
            .and_then(|p| p.get("in_flight"))
            .and_then(si_service::json::Json::as_f64)
            .unwrap_or(f64::NAN);
        if in_flight == 0.0 || Instant::now() > drain_deadline {
            break in_flight;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    gates.require(
        in_flight == 0.0,
        format!("pool never drained: {in_flight} in flight"),
    );

    // Gate: no leaked cancellation flags.
    let leak_deadline = Instant::now() + Duration::from_secs(10);
    while service.cancel_flags_len() > 0 && Instant::now() < leak_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let leaked_flags = service.cancel_flags_len();
    gates.require(
        leaked_flags == 0,
        format!("{leaked_flags} cancel flags leaked"),
    );

    // Gate: every distinct key resolves post-recovery (no poisoned shard
    // can serve, no flight is wedged), and the cached values are
    // bit-identical to a fresh solve on a brand-new workspace.
    let (mut verified, mut resolve_failures, mut bit_mismatches) = (0u64, 0u64, 0u64);
    let mut fresh_ws = EngineWorkspace::new();
    for k in 0..submitted_jobs {
        let spec = job(stages, k);
        match service.submit_blocking(&spec, None) {
            Ok((out, _)) => {
                verified += 1;
                let fresh = spec.run(&mut fresh_ws).expect("fresh solve");
                if !bit_identical(&out.values, &fresh.values) {
                    bit_mismatches += 1;
                }
            }
            Err(e) => {
                resolve_failures += 1;
                if resolve_failures <= 3 {
                    eprintln!("post-recovery resolve of job {k} failed: {e}");
                }
            }
        }
    }
    gates.require(
        resolve_failures == 0,
        format!("{resolve_failures} keys failed to resolve after recovery"),
    );
    gates.require(
        bit_mismatches == 0,
        format!("{bit_mismatches} cached results differ bitwise from a fresh solve"),
    );

    // ---- Mid-batch panic phase: arm a one-shot worker panic and submit a
    // batch job. The batch path draws faults per *scenario* (never at
    // scenario 0), so the panic fires after real partial state exists.
    // The gates prove partial results are never cached: the retried
    // submission returns the complete value set uncached, the abandoned
    // flight is counted, and a resubmission is a cache hit that is
    // bit-identical to a fresh solve.
    let batch_faults = Arc::new(FaultInjector::new(plan(SEED + 2, 1000, 0, 1)));
    service.install_fault_injector(Arc::clone(&batch_faults));
    let abandoned = || metric(&service.metrics(), "cache", "abandoned_flights");
    let abandoned_before = abandoned();
    let batch_spec = JobSpec::DelayLineDcBatch {
        stages,
        bias_ua: 20.0,
        inputs_ua: (0..8).map(|k| 0.5 + 0.25 * f64::from(k)).collect(),
    };
    let mut batch_panics = 0u64;
    match service.submit_blocking(&batch_spec, None) {
        Ok((out, cached)) => {
            batch_panics = batch_faults.stats().panics;
            gates.require(
                batch_panics == 1,
                format!("mid-batch phase injected {batch_panics} panics (expected 1)"),
            );
            gates.require(!cached, "a partially-run batch was served from cache");
            gates.require(
                out.values.len() == 8 * stages,
                format!(
                    "retried batch returned {} values (expected {})",
                    out.values.len(),
                    8 * stages
                ),
            );
            gates.require(
                abandoned() > abandoned_before,
                "mid-batch panic did not abandon the flight",
            );
            // The retry's cached entry must match a fresh batch solve.
            let fresh = batch_spec.run(&mut fresh_ws).expect("fresh batch solve");
            let (resolved, re_cached) = service
                .submit_blocking(&batch_spec, None)
                .expect("batch resubmission");
            gates.require(re_cached, "complete batch was not cached");
            gates.require(
                bit_identical(&resolved.values, &fresh.values),
                "cached batch differs bitwise from a fresh solve",
            );
        }
        Err(e) => gates.require(
            false,
            format!("batch submission did not survive the panic: {e}"),
        ),
    }
    batch_faults.disarm();

    // ---- Malformed-netlist fault class: hostile user text is a fault
    // like worker panics or dropped connections — injected on purpose, and
    // the service must shrug it off. Every poisoned netlist must come back
    // as a typed `NetlistRejected` (HTTP 422) without a retry, an
    // oversized one as `BudgetExceeded` (HTTP 413) before any
    // factorization, and a well-formed circuit must still solve afterwards.
    let poison_jobs = 64usize;
    let counter = |key: &str| metric(&service.metrics(), "service", key);
    let parse_before = counter("netlist_rejected_parse");
    let budget_before = counter("netlist_rejected_budget");
    // The HTTP status each submission answered with a typed error
    // (in-process: the status its error maps to); an untyped answer is
    // its own error.
    let submit_netlist = |netlist: String| match target.submit(&JobSpec::Netlist { netlist }) {
        Ok(_) => Ok(200),
        Err(SubmitError::Typed(e)) => Ok(e.http_status()),
        Err(untyped) => Err(untyped),
    };
    let mut netlist_untyped = 0u64;
    for k in 0..poison_jobs {
        let status = submit_netlist(netfuzz::poison(SEED + k as u64));
        if status != Ok(422) {
            netlist_untyped += 1;
            if netlist_untyped <= 3 {
                eprintln!("poisoned netlist {k} was not 422-rejected: {status:?}");
            }
        }
    }
    gates.require(
        netlist_untyped == 0,
        format!("{netlist_untyped} poisoned netlists escaped the typed 422 rejection"),
    );
    let oversized = submit_netlist(netfuzz::oversized(9000));
    gates.require(
        oversized == Ok(413),
        format!("oversized netlist was not 413-rejected: {oversized:?}"),
    );
    let valid = submit_netlist("V1 in 0 3.3\nR1 in mid 1k\nR2 mid 0 2k\n.end\n".to_string());
    gates.require(
        valid == Ok(200),
        format!("valid netlist no longer solves after the poison storm: {valid:?}"),
    );
    let netlist_parse_rejections = counter("netlist_rejected_parse") - parse_before;
    let netlist_budget_rejections = counter("netlist_rejected_budget") - budget_before;
    gates.require(
        netlist_parse_rejections >= poison_jobs as f64,
        format!("parse-rejection counter saw {netlist_parse_rejections} of {poison_jobs} poisoned netlists"),
    );
    gates.require(
        netlist_budget_rejections >= 1.0,
        "budget-rejection counter missed the oversized netlist",
    );

    // ---- Kill-during-disk-write fault class: attack the disk tier's
    // atomic-rename protocol the way a SIGKILL would. There are two kill
    // points; neither may ever surface a torn result.
    let mut torn_served = 0u64;
    let corrupt_evicted = || metric(&service.metrics(), "cache", "corrupt_evicted");
    let corrupt_before = corrupt_evicted();
    let tier = service
        .disk_cache()
        .cloned()
        .expect("chaos service runs with a disk tier");
    // Kill point 1: the final path exists but holds a short write — what
    // a non-atomic writer killed mid-write would leave behind. Plant a
    // half-length entry at a key the memory tier has never seen, so the
    // next lookup must go through the disk probe.
    let torn_spec = JobSpec::DelayLineDc {
        stages,
        bias_ua: 20.0,
        input_ua: 77.7,
    };
    let expected = torn_spec.run(&mut fresh_ws).expect("fresh torn-key solve");
    tier.plant_torn_entry_for_test(torn_spec.job_key(), &expected);
    match service.submit_blocking(&torn_spec, None) {
        Ok((out, cached)) => {
            torn_served += u64::from(cached);
            gates.require(!cached, "a torn disk entry was served from cache");
            let identical = bit_identical(&out.values, &expected.values);
            torn_served += u64::from(!identical);
            gates.require(
                identical,
                "re-solve after a torn disk entry is not bit-identical",
            );
        }
        Err(e) => gates.require(false, format!("torn-entry key failed to re-solve: {e}")),
    }
    let disk_corrupt_evicted = corrupt_evicted() - corrupt_before;
    gates.require(
        disk_corrupt_evicted >= 1.0,
        "torn disk entry was not quarantined (corrupt_evicted unchanged)",
    );
    // Kill point 2: killed *before* the atomic rename — only a `.tmp-`
    // leftover exists. The next startup must sweep it, and the key must
    // read as absent (a half-written entry is never half-visible).
    let sweep_dir = harness::scratch_dir("chaos-sweep");
    DiskTier::plant_tmp_leftover_for_test(&sweep_dir, torn_spec.job_key());
    let swept_tier = DiskTier::open(DiskTierConfig::at(&sweep_dir)).expect("reopen swept tier");
    let disk_tmp_swept = swept_tier.tmp_swept();
    gates.require(
        disk_tmp_swept == 1,
        format!("startup swept {disk_tmp_swept} tmp leftovers (expected 1)"),
    );
    let tmp_loadable = swept_tier.load(torn_spec.job_key()).is_some();
    torn_served += u64::from(tmp_loadable);
    gates.require(!tmp_loadable, "a never-renamed tmp write became loadable");
    let _ = std::fs::remove_dir_all(&sweep_dir);

    let worker_stats = worker_faults.stats();
    let drop_stats = client_drops.as_ref().map(|d| d.stats()).unwrap_or_default();
    let total_injected = worker_stats.injected + drop_stats.injected;
    gates.require(
        total_injected >= MIN_FAULTS,
        format!("only {total_injected} faults injected (< {MIN_FAULTS} required)"),
    );
    gates.require(
        unrecovered == 0,
        format!("{unrecovered} requests failed even after client-side retries"),
    );
    // Every injected fault belonged to a request that ultimately
    // completed (nothing unrecovered) and to a key that re-verified.
    if gates.passed() {
        worker_faults.record_survival(worker_stats.injected);
        if let Some(d) = &client_drops {
            d.record_survival(drop_stats.injected);
        }
    }

    let metrics = service.metrics();
    let report = &mut gates.report;
    report.note("mode", if http { "http" } else { "in_process" });
    report.note(
        "plan",
        format!(
            "seed {SEED} balanced worker faults{}, {jobs} jobs/batch x {batches} batches, {clients} clients",
            if http { " + client drops" } else { "" },
        ),
    );
    report.metric("faults_injected", total_injected as f64);
    report.metric("faults_panics", worker_stats.panics as f64);
    report.metric("faults_stalls", worker_stats.stalls as f64);
    report.metric("faults_transients", worker_stats.transients as f64);
    report.metric("faults_dropped_connections", drop_stats.injected as f64);
    report.metric(
        "faults_survived",
        (worker_faults.stats().survived + client_drops.as_ref().map_or(0, |d| d.stats().survived))
            as f64,
    );
    report.metric("jobs_submitted", submitted_jobs as f64);
    report.metric("jobs_completed", completed as f64);
    report.metric("jobs_unrecovered", unrecovered as f64);
    report.metric("client_retries", client_retries as f64);
    for (name, section, key) in [
        ("service_retries", "service", "retries"),
        ("pool_panics_caught", "pool", "panics_caught"),
        ("cache_abandoned_flights", "cache", "abandoned_flights"),
        ("cache_poison_recoveries", "cache", "poison_recoveries"),
        ("workspace_resets", "engine", "workspace_resets"),
    ] {
        report.metric(name, metric(&metrics, section, key));
    }
    report.metric("verified_keys", verified as f64);
    report.metric("bit_mismatches", bit_mismatches as f64);
    report.metric("batch_midrun_panics", batch_panics as f64);
    report.metric("netlist_poisoned", poison_jobs as f64);
    report.metric("netlist_parse_rejections", netlist_parse_rejections);
    report.metric("netlist_budget_rejections", netlist_budget_rejections);
    report.metric("netlist_untyped", netlist_untyped as f64);
    report.metric("disk_writes", metric(&metrics, "cache", "disk_writes"));
    report.metric("disk_hits", metric(&metrics, "cache", "disk_hits"));
    report.metric("disk_corrupt_evicted", disk_corrupt_evicted);
    report.metric("disk_tmp_swept", disk_tmp_swept as f64);
    report.metric("disk_torn_served", torn_served as f64);
    report.metric("leaked_cancel_flags", leaked_flags as f64);
    report.metric("chaos_wall_s", chaos_wall.as_secs_f64());
    report.set_solver(service.engine_stats());
    gates.summary = format!(
        "chaos: {total_injected} faults injected ({} panics, {} stalls, {} transients, {} drops) \
         | {submitted_jobs} jobs, {unrecovered} unrecovered | {verified} keys verified, \
         {bit_mismatches} bit mismatches",
        worker_stats.panics, worker_stats.stalls, worker_stats.transients, drop_stats.injected,
    );

    target.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
    gates
}

/// The `--replica-kill` run: real `si_serve` children behind an
/// in-process [`RouterServer`]; the busiest replica is SIGKILLed a quarter
/// of the way through the storm.
fn run_replica_kill(flags: &Flags) -> Gates {
    let (jobs, clients, stages) = (
        flags.int("--jobs"),
        flags.int("--clients"),
        flags.int("--stages"),
    );
    let serve_bin = harness::serve_bin_path(flags.text("--serve-bin"));
    let dirs: Vec<_> = (0..REPLICAS)
        .map(|i| harness::scratch_dir(&format!("chaos-replica-{i}")))
        .collect();
    let replicas: Vec<harness::Serve> = dirs
        .iter()
        .map(|dir| harness::spawn_serve(&serve_bin, dir))
        .collect();
    let server = RouterServer::bind(
        "127.0.0.1:0",
        RouterConfig {
            replicas: replicas.iter().map(|r| r.addr.to_string()).collect(),
            probe_interval: Duration::from_millis(50),
            retry: RetryPolicy {
                max_retries: 6,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(200),
                multiplier: 2,
                jitter_seed: Some(SEED),
            },
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let router = Arc::clone(server.router());
    let ready = || metric(&router.metrics(), "router", "ready_replicas");

    // All replicas must join the ring before the storm starts.
    let ready_deadline = Instant::now() + Duration::from_secs(30);
    while ready() < REPLICAS as f64 {
        assert!(
            Instant::now() < ready_deadline,
            "replicas never all became ready"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let generation_before = router.ring_generation();

    // The storm: distinct DC jobs over a rotating topology set, so every
    // replica owns live work when the kill lands.
    const TOPOLOGIES: usize = 12;
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|k| JobSpec::DelayLineDc {
            stages: stages + (k % TOPOLOGIES),
            bias_ua: 20.0,
            input_ua: 0.5 + 0.01 * k as f64,
        })
        .collect();
    let bodies: Vec<String> = specs
        .iter()
        .map(|s| s.to_json().to_string_compact())
        .collect();

    // The killer picks the replica with the most forwards on the ring.
    let kill_busiest = || {
        let busiest = harness::shard_forwards(&router.metrics())
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let Some((victim, _)) = busiest else {
            eprintln!("killer found no shard to target");
            return String::new();
        };
        match replicas.iter().find(|r| r.addr.to_string() == victim) {
            Some(replica) => {
                replica.kill();
                victim
            }
            None => {
                eprintln!("killer could not map shard {victim:?} to a child");
                String::new()
            }
        }
    };
    let storm_started = Instant::now();
    let (responses, killed) = harness::kill_at_quarter(jobs, kill_busiest, |done| {
        harness::post_all(server.local_addr(), &bodies, clients, SEED + 7, Some(done))
    });
    let storm_wall = storm_started.elapsed();
    let lost = responses.iter().filter(|r| r.is_none()).count();

    let mut gates = Gates::new("si_chaos_replica_kill");
    gates.require(!killed.is_empty(), "no replica was killed during the storm");
    gates.require(lost == 0, format!("{lost} jobs lost to the replica kill"));

    // The dead replica must leave the ring (probe flips it unready and
    // bumps the generation) while the survivors keep serving.
    let leave_deadline = Instant::now() + Duration::from_secs(10);
    while !killed.is_empty() && ready() >= REPLICAS as f64 && Instant::now() < leave_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = router.metrics();
    let ready_after = metric(&metrics, "router", "ready_replicas");
    let reroutes = metric(&metrics, "router", "reroutes");
    gates.require(
        killed.is_empty() || ready_after < REPLICAS as f64,
        format!("killed replica {killed} never left the ring ({ready_after} still ready)"),
    );
    gates.require(
        reroutes >= 1.0,
        "the router never rerouted around the dead replica",
    );
    gates.require(
        router.ring_generation() > generation_before,
        "ring generation did not bump on the membership change",
    );

    // Zero drift: every response bit-identical to a fresh solve (lost
    // jobs are already counted).
    let mut fresh_ws = EngineWorkspace::new();
    let bit_mismatches = responses
        .iter()
        .zip(&specs)
        .filter_map(|(payload, spec)| Some((payload.as_deref()?, spec)))
        .filter(|(payload, spec)| {
            let fresh = spec.run(&mut fresh_ws).expect("fresh solve");
            !bit_identical(&harness::values_of(payload), &fresh.values)
        })
        .count();
    gates.require(
        bit_mismatches == 0,
        format!("{bit_mismatches} storm responses differ bitwise from a fresh solve"),
    );

    let killed_name = if killed.is_empty() { "none" } else { &killed };
    let report = &mut gates.report;
    report.note(
        "plan",
        format!(
            "{REPLICAS} si_serve replicas (1 worker each), {jobs} jobs over {TOPOLOGIES} topologies, \
             {clients} clients, busiest replica SIGKILLed at 25%"
        ),
    );
    report.note("killed_replica", killed_name);
    report.metric("replicas", REPLICAS as f64);
    report.metric("jobs", jobs as f64);
    report.metric("jobs_lost", lost as f64);
    report.metric("bit_mismatches", bit_mismatches as f64);
    report.metric("reroutes", reroutes);
    report.metric("no_backend", metric(&metrics, "router", "no_backend"));
    report.metric("ready_after_kill", ready_after);
    report.metric("ring_generation", router.ring_generation() as f64);
    report.metric("router_routed", metric(&metrics, "router", "routed"));
    report.metric("storm_wall_s", storm_wall.as_secs_f64());
    gates.summary = format!(
        "replica kill: {lost} of {jobs} jobs lost | killed {} | {reroutes} reroutes | \
         {bit_mismatches} bit mismatches",
        if killed.is_empty() {
            "nothing"
        } else {
            &killed
        },
    );

    drop(server);
    drop(replicas);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    gates
}

/// The `--stream-kill` run: SIGKILL a real `si_serve` child mid-chunk
/// through a 64K-sample streaming job, restart it on the same cache
/// directory, and gate that the resubmission *resumes* from the last
/// checkpoint and finishes bit-identical to an uninterrupted run.
fn run_stream_kill(flags: &Flags) -> Gates {
    let serve_bin = harness::serve_bin_path(flags.text("--serve-bin"));
    let spec = harness::stream_spec();
    let chunks_total = spec.stream_chunk_count().expect("streaming spec") as f64;
    let body = spec.to_json().to_string_compact();
    let path = format!("/v1/jobs/{}", SiService::job_id(&spec));

    // The uninterrupted reference runs the exact same chunked executor
    // in-process; killed-and-resumed must match it bit for bit.
    let reference = spec
        .run(&mut EngineWorkspace::new())
        .expect("uninterrupted reference solve");

    let cache_dir = harness::scratch_dir("chaos-stream");
    let replica = harness::spawn_serve(&serve_bin, &cache_dir);
    let addr = replica.addr;
    let mut gates = Gates::new("si_chaos_stream_kill");

    // The poster blocks inside the long POST; the kill cuts it off with a
    // transport error, which is the expected outcome of this phase.
    let poster = {
        let body = body.clone();
        std::thread::spawn(move || http_request(addr, "POST", "/v1/jobs", Some(&body)))
    };

    // Poll progress until at least two chunks completed — so at least two
    // checkpoints exist — then SIGKILL the worker process mid-run.
    let mut observed_done = 0.0_f64;
    let poll_deadline = Instant::now() + Duration::from_secs(120);
    while observed_done < 2.0 && Instant::now() < poll_deadline {
        if let Ok((202, payload)) = http_request(addr, "GET", &path, None) {
            if let Some(done) = si_service::json::parse(&payload).ok().and_then(|v| {
                v.get("chunks_done")
                    .and_then(si_service::json::Json::as_f64)
            }) {
                observed_done = done;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    gates.require(
        observed_done >= 2.0,
        format!("progress polling never observed 2 completed chunks (saw {observed_done})"),
    );
    replica.kill();
    let _ = poster.join(); // transport error expected; nothing to assert

    // Restart on the SAME cache directory: the checkpoints survived the
    // SIGKILL (atomic rename), so the resubmission resumes.
    let restarted = harness::spawn_serve(&serve_bin, &cache_dir);
    let resume_started = Instant::now();
    let resumed_payload = match http_request(restarted.addr, "POST", "/v1/jobs", Some(&body)) {
        Ok((200, payload)) => payload,
        Ok((status, payload)) => {
            gates.require(false, format!("resubmission answered {status}: {payload}"));
            String::new()
        }
        Err(e) => {
            gates.require(false, format!("resubmission transport error: {e}"));
            String::new()
        }
    };
    let resume_wall = resume_started.elapsed();

    let values = harness::values_of(&resumed_payload);
    let identical = bit_identical(&values, &reference.values);
    gates.require(
        resumed_payload.is_empty() || identical,
        format!(
            "resumed spectrum differs from the uninterrupted run ({} vs {} values)",
            values.len(),
            reference.values.len()
        ),
    );

    // The restarted replica must report an actual resume, and fewer chunk
    // solves than a full second run (it picked up past work, not redid it).
    // A failed scrape reads 0 resumes and fails the first gate.
    let metrics = harness::scrape(restarted.addr);
    let stream_resumed = metric(&metrics, "service", "stream_resumed");
    let stream_chunks = metric(&metrics, "service", "stream_chunks");
    gates.require(
        stream_resumed >= 1.0,
        "restarted replica never resumed from a checkpoint",
    );
    gates.require(
        stream_chunks < chunks_total,
        format!(
            "resumed run re-solved {stream_chunks} chunks (a full run is {chunks_total}; \
             resume saved nothing)"
        ),
    );

    let report = &mut gates.report;
    report.note(
        "plan",
        format!(
            "64K-sample streaming job ({chunks_total} chunks), si_serve SIGKILLed after \
             >= 2 observed chunks, restarted on the same cache dir"
        ),
    );
    report.metric("chunks_total", chunks_total);
    report.metric("observed_chunks_before_kill", observed_done);
    report.metric("resumed_chunk_solves", stream_chunks);
    report.metric("stream_resumed", stream_resumed);
    report.metric("bit_identical", f64::from(u8::from(identical)));
    report.metric("resume_wall_s", resume_wall.as_secs_f64());
    gates.summary = format!(
        "stream kill: killed after {observed_done} chunks | resumed {stream_resumed} time(s), \
         {stream_chunks} chunk solves of {chunks_total} | bit-identical: {identical}"
    );

    drop(restarted);
    let _ = std::fs::remove_dir_all(&cache_dir);
    gates
}
