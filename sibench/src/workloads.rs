//! The three workloads, each driven against a real `si_serve` child over
//! loopback keep-alive HTTP/1.1 from this one process.
//!
//! - `cold_solve`: closed loop over one connection, every job distinct,
//!   so every request misses the cache and solves.
//! - `hot_serve`: a resident working set served first in a closed loop at
//!   saturation, then in an open loop at a ladder of fixed rates.
//! - `stream_persist`: closed loop over distinct 64K-step `tran_stream`
//!   jobs with a cache directory, then restarts on the populated
//!   directory and replays every finished job from disk.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use si_service::jobspec::JobSpec;

use crate::client::{delta, Conn, Server};
use crate::jobs::{self, Rng};
use crate::pin::Pinned;
use crate::stats::{latency, median, ms, quantile, Latency, Metrics};

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub serve_bin: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Threads for the in-process reference runs: the core count.
    pub threads: usize,
    /// Client connections of a closed loop, and server workers.
    pub connections: usize,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct RunResult {
    /// The gated end-to-end metrics.
    pub e2e: Metrics,
    /// Workload-specific end-to-end metrics, printed and traced.
    pub extra: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output mismatches and broken `/metrics` invariants.
    pub problems: Vec<String>,
    /// `/metrics` counter deltas over the measured phases.
    pub counters: BTreeMap<String, f64>,
    /// How late the open-loop generator sent, p99 (`hot_serve` only).
    pub lag_p99_ms: f64,
    /// Request bodies in the order sent, for the traced replay.
    pub bodies: Vec<String>,
    /// The server's populated cache directory, when it had one.
    pub cache_dir: Option<PathBuf>,
}

/// One finished request.
struct Done {
    /// Index into the workload's job list.
    job: usize,
    status: u16,
    body: Vec<u8>,
    lat_ms: f64,
}

const POST: &str = "/v1/jobs";

/// Spawns `reps` servers in turn, each timed from spawn until `/readyz`
/// answers and every `warm` job has been solved, and keeps the last one
/// running, with its warm-up responses (`job` indexes `warm`).
fn set_up(
    ctx: &Ctx,
    reps: usize,
    cache_dir: impl Fn(usize) -> Option<PathBuf>,
    warm: &[String],
) -> Result<(Server, f64, Vec<Done>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..reps {
        let dir = cache_dir(i);
        let t0 = Instant::now();
        let server = Server::spawn(&ctx.serve_bin, ctx.connections, dir.as_deref())?;
        let responses = post_all(server.addr, warm)?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((server, responses));
    }
    let (server, responses) = kept.expect("reps >= 1");
    Ok((server, median(&times), responses))
}

fn post_all(addr: SocketAddr, bodies: &[String]) -> Result<Vec<Done>, String> {
    let mut conn = Conn::new(addr);
    let mut out = Vec::with_capacity(bodies.len());
    for (job, b) in bodies.iter().enumerate() {
        let sent = Instant::now();
        match conn.send("POST", POST, b.as_bytes()) {
            Ok((200, body)) => out.push(Done {
                job,
                status: 200,
                body,
                lat_ms: ms(sent.elapsed()),
            }),
            Ok((status, body)) => {
                return Err(format!(
                    "warm-up job failed with {status}: {}",
                    String::from_utf8_lossy(&body)
                ))
            }
            Err(e) => return Err(format!("warm-up job failed: {e}")),
        }
    }
    Ok(out)
}

/// `dones` with each `job` index moved up by `offset`.
fn shifted(dones: Vec<Done>, offset: usize) -> Vec<Done> {
    dones
        .into_iter()
        .map(|d| Done {
            job: d.job + offset,
            ..d
        })
        .collect()
}

/// What a closed loop finished.
struct Loop {
    /// The finished requests, by job index.
    dones: Vec<Done>,
    /// Wall time from the start until the last request finished, s.
    wall_s: f64,
    /// Wall time of each whole cycle of jobs, from the first send to the
    /// last response, s.
    cycle_s: Vec<f64>,
}

/// Closed loop: each of `threads` connections sends its next job as soon
/// as the previous one returns. Once `seconds` have passed it finishes the
/// cycle of `cycle` jobs under way and stops, so the run holds only whole
/// cycles of the job mix. Only responses for which `keep` holds keep
/// their body.
fn closed_loop(
    addr: SocketAddr,
    threads: usize,
    seconds: f64,
    cycle: usize,
    body: impl Fn(usize) -> String + Sync,
    keep: impl Fn(usize) -> bool + Sync,
) -> Loop {
    let next = AtomicUsize::new(0);
    let end = AtomicUsize::new(usize::MAX);
    let t0 = Instant::now();
    let stop = t0 + Duration::from_secs_f64(seconds);
    let dones = Mutex::new(Vec::new());
    let spans = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                let (mut mine, mut my_spans) = (Vec::new(), Vec::new());
                loop {
                    if Instant::now() >= stop {
                        let due = next.load(Ordering::Relaxed).next_multiple_of(cycle);
                        end.fetch_min(due, Ordering::Relaxed);
                    }
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    if job >= end.load(Ordering::Relaxed) {
                        break;
                    }
                    let req = body(job);
                    let sent = Instant::now();
                    let (status, mut body) = conn
                        .send("POST", POST, req.as_bytes())
                        .unwrap_or((0, Vec::new()));
                    let done = Instant::now();
                    if !keep(job) {
                        body = Vec::new();
                    }
                    mine.push(Done {
                        job,
                        status,
                        body,
                        lat_ms: ms(done - sent),
                    });
                    my_spans.push((job, sent - t0, done - t0));
                }
                dones
                    .lock()
                    .expect("no thread panics holding this lock")
                    .extend(mine);
                spans
                    .lock()
                    .expect("no thread panics holding this lock")
                    .extend(my_spans);
            });
        }
    });
    let mut dones = dones.into_inner().expect("threads joined");
    dones.sort_by_key(|d| d.job);
    let mut spans = spans.into_inner().expect("threads joined");
    spans.sort_by_key(|&(job, _, _)| job);
    let wall_s = spans
        .iter()
        .map(|&(_, _, done)| done)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let cycle_s = spans
        .chunks_exact(cycle)
        .map(|c| {
            let first = c.iter().map(|&(_, sent, _)| sent).min().unwrap_or_default();
            let last = c.iter().map(|&(_, _, done)| done).max().unwrap_or_default();
            (last - first).as_secs_f64()
        })
        .collect();
    Loop {
        dones,
        wall_s,
        cycle_s,
    }
}

/// Checks each response against the in-process reference of its job;
/// each check names the `cached` flag the response must carry.
fn verify(specs: &[JobSpec], checks: &[(&Done, bool)], threads: usize) -> Vec<String> {
    let mut needed: Vec<usize> = checks.iter().map(|(d, _)| d.job).collect();
    needed.sort_unstable();
    needed.dedup();
    let refs = jobs::references(
        &needed.iter().map(|&j| specs[j].clone()).collect::<Vec<_>>(),
        threads,
    );
    let reference: BTreeMap<usize, _> = needed.into_iter().zip(refs).collect();
    let mut problems = Vec::new();
    for (job, r) in &reference {
        match r {
            Ok(out) => {
                if let Err(e) = jobs::sanity(&specs[*job], out) {
                    problems.push(format!("job {job}: {e}"));
                }
            }
            Err(e) => problems.push(format!("job {job}: reference run failed: {e}")),
        }
    }
    for &(d, cached) in checks {
        let Ok(out) = &reference[&d.job] else {
            continue;
        };
        let want = jobs::expected_body(&specs[d.job], out, cached);
        if d.body != want.as_bytes() {
            problems.push(format!(
                "job {} ({}): response differs from the in-process reference",
                d.job,
                specs[d.job].kind()
            ));
        }
    }
    problems
}

/// The `/metrics` invariants every workload must keep.
fn check_counters(c: &BTreeMap<String, f64>, closed_loop: bool, problems: &mut Vec<String>) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    // Disk hits are counted apart from memory hits, so they join the sum.
    let lookups =
        get("cache.hits") + get("cache.misses") + get("cache.coalesced") + get("cache.disk_hits");
    if lookups != get("service.submitted") {
        problems.push(format!(
            "cache hits + misses + coalesced + disk hits = {lookups} but service.submitted = {}",
            get("service.submitted")
        ));
    }
    if closed_loop && get("pool.rejected") != 0.0 {
        problems.push(format!(
            "pool rejected {} jobs in a closed loop",
            get("pool.rejected")
        ));
    }
}

/// Adds the counters of `more` into `acc`.
fn accumulate(acc: &mut BTreeMap<String, f64>, more: &BTreeMap<String, f64>) {
    for (k, v) in more {
        *acc.entry(k.clone()).or_default() += v;
    }
}

fn set_common(
    r: &mut RunResult,
    jobs_per_s: f64,
    lat: &Latency,
    setup_s: f64,
    rss_mb: f64,
    cpu_ms_per_job: f64,
) {
    r.e2e.push("jobs_per_s", jobs_per_s, "1/s");
    r.e2e.push("latency_p50_ms", lat.p50_ms, "ms");
    r.e2e.push("latency_p99_ms", lat.top_ms, "ms");
    r.e2e.push("setup_s", setup_s, "s");
    r.e2e.push("peak_rss_mb", rss_mb, "MiB");
    r.e2e.push("server_cpu_ms_per_job", cpu_ms_per_job, "ms");
    println!(
        "latency sample: n={} p50={:.4} ms, top percentile p{:.1}={:.4} ms",
        lat.n,
        lat.p50_ms,
        lat.top_q * 100.0,
        lat.top_ms
    );
}

/// Prints how client-observed solve time splits across job kinds and
/// solver backends (a closed loop's latency is its solve time plus a
/// little transport).
fn print_solve_split(specs: &[JobSpec], ok: &[&Done]) {
    let mut by_kind: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    let mut by_backend: BTreeMap<&str, f64> = BTreeMap::new();
    for d in ok {
        let spec = &specs[d.job];
        let stages = jobs::stages_of(spec);
        let e = by_kind
            .entry(format!(
                "{}/{}",
                spec.kind(),
                stages.map_or("-".to_string(), |s| s.to_string())
            ))
            .or_default();
        e.0 += 1;
        e.1 += d.lat_ms;
        let backend = match (spec, stages) {
            (JobSpec::SndrSweep { .. }, _) => "modulator",
            (_, Some(s)) if s > 32 => "sparse",
            _ => "dense",
        };
        *by_backend.entry(backend).or_default() += d.lat_ms;
    }
    let total: f64 = by_backend.values().sum();
    for (kind, (n, t)) in &by_kind {
        println!(
            "solve time {kind:<24} n={n:<5} share={:.3} mean={:.3} ms",
            t / total,
            t / *n as f64
        );
    }
    for (backend, t) in &by_backend {
        println!("solve time backend {backend:<10} share={:.3}", t / total);
    }
}

/// Jobs `cold_solve` has finished when it reads the server's peak RSS:
/// 20 cycles of the mix, a few seconds of work on a small host.
const COLD_RSS_JOBS: usize = 20 * jobs::COLD_PERIOD;

/// Prints the spread of a closed loop's cycle times.
fn print_cycles(cycle_s: &[f64], cycle: usize) {
    println!(
        "cycles of {cycle} jobs: n={} p10={:.4} s p50={:.4} s p90={:.4} s",
        cycle_s.len(),
        quantile(cycle_s, 0.1),
        median(cycle_s),
        quantile(cycle_s, 0.9)
    );
}

/// Pins the calling thread, so the server it spawns and the client
/// threads it starts share one CPU: a request then hands over between
/// threads on that CPU instead of waking an idle one, which on a virtual
/// machine waits on the host's scheduler. Runs unpinned when the host does
/// not allow it.
fn pin_timed_phase() -> Option<Pinned> {
    let pinned = Pinned::last_cpu();
    match &pinned {
        Some(p) => println!("timed phase pinned to cpu {}", p.cpu),
        None => println!("timed phase not pinned: the CPU affinity calls failed"),
    }
    pinned
}

pub fn cold_solve(ctx: &Ctx) -> Result<RunResult, String> {
    let pinned = pin_timed_phase();
    let warm_specs = jobs::cold_warmup(ctx.seed);
    let warm: Vec<String> = warm_specs.iter().map(jobs::body).collect();
    let (server, setup_s, warm_done) = set_up(ctx, 15, |_| None, &warm)?;
    let before = server.metrics()?;
    let cpu0 = server.cpu_ms();
    // The memory tier keeps every result, so the server grows with the
    // jobs it has solved: its peak RSS is read after a fixed number of
    // jobs, before job `COLD_RSS_JOBS` is sent, not after however many a
    // run's seconds held.
    let rss_at = OnceLock::new();
    let run = closed_loop(
        server.addr,
        ctx.connections,
        ctx.seconds,
        jobs::COLD_PERIOD,
        |k| {
            if k == COLD_RSS_JOBS {
                let _ = rss_at.set(server.peak_rss_mb());
            }
            jobs::body(&jobs::cold_spec(ctx.seed, k))
        },
        |_| true,
    );
    let dones = run.dones;
    let counters = delta(&before, &server.metrics()?);
    let cpu_ms = server.cpu_ms() - cpu0;
    let rss = match rss_at.get() {
        Some(&rss) => rss,
        None => {
            println!("peak RSS read at the end: the run finished fewer than {COLD_RSS_JOBS} jobs");
            server.peak_rss_mb()
        }
    };
    drop(server);
    print_cycles(&run.cycle_s, jobs::COLD_PERIOD);

    let mut r = RunResult::default();
    let ok: Vec<&Done> = dones.iter().filter(|d| d.status == 200).collect();
    let mut specs: Vec<JobSpec> = (0..dones.len())
        .map(|k| jobs::cold_spec(ctx.seed, k))
        .collect();
    r.bodies = specs.iter().map(jobs::body).collect();
    let warm_done = shifted(warm_done, specs.len());
    specs.extend(warm_specs);
    r.attempted = dones.len() as u64;
    let checks: Vec<(&Done, bool)> = ok
        .iter()
        .copied()
        .chain(&warm_done)
        .map(|d| (d, false))
        .collect();
    // The references run on every core.
    drop(pinned);
    r.problems = verify(&specs, &checks, ctx.threads);
    check_counters(&counters, true, &mut r.problems);
    let get = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    if get("cache.hits") + get("cache.coalesced") + get("cache.disk_hits") != 0.0 {
        r.problems
            .push("a cold_solve request did not miss the cache".to_string());
    }
    r.failed = (dones.len() - ok.len()) as u64 + r.problems.len() as u64;
    let lat = latency(&ok.iter().map(|d| d.lat_ms).collect::<Vec<_>>());
    set_common(
        &mut r,
        jobs::COLD_PERIOD as f64 / median(&run.cycle_s),
        &lat,
        setup_s,
        rss,
        cpu_ms / ok.len().max(1) as f64,
    );
    print_solve_split(&specs, &ok);
    r.counters = counters;
    Ok(r)
}

/// Share of the run `hot_serve` spends in its closed-loop saturation
/// phase; the rest is the open-loop ladder.
const HOT_SATURATION_SHARE: f64 = 0.5;
/// The offered rates of the open-loop ladder, requests/s.
const HOT_LADDER_RPS: [f64; 6] = [1000.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0];
/// The latency limit a rate must meet at its top percentile, ms.
const HOT_LIMIT_MS: f64 = 5.0;
/// How long past its window a rung may run before what it has not sent
/// yet counts as backlog.
const HOT_GRACE: Duration = Duration::from_millis(250);

/// One scheduled `hot_serve` request.
#[derive(Clone, Copy)]
enum HotReq {
    /// A resident generator job, by working-set index.
    Gen(usize),
    /// A resident netlist job, by working-set index.
    Net(usize),
    /// A distinct cheap miss, by miss index.
    Miss(usize),
}

struct Rung {
    rate: f64,
    lat: Latency,
    completed: usize,
    unsent: usize,
    errors: usize,
    lag_ms: Vec<f64>,
    kept: Vec<(HotReq, Done)>,
}

/// Open loop: request `i` is due at `i / rate` seconds; `threads`
/// connections take requests in order, each sleeping until its request is
/// due. Latency counts from when a request was due, so a stall charges
/// every request it delays.
fn open_loop(addr: SocketAddr, threads: usize, rate: f64, plan: &[(HotReq, &[u8], bool)]) -> Rung {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let window = Duration::from_secs_f64(plan.len() as f64 / rate);
    let out = Mutex::new((Vec::new(), Vec::new(), Vec::new(), 0usize, 0usize));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                let (mut lat, mut lag, mut kept, mut unsent, mut errors) =
                    (Vec::new(), Vec::new(), Vec::new(), 0, 0);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(req, body, keep)) = plan.get(i) else {
                        break;
                    };
                    let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if now > t0 + window + HOT_GRACE {
                        unsent += 1;
                        continue;
                    }
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    lag.push(ms(sent.saturating_duration_since(due)));
                    match conn.send("POST", POST, body) {
                        Ok((status, resp)) => {
                            let lat_ms = ms(Instant::now().duration_since(due));
                            if status != 200 {
                                errors += 1;
                            } else {
                                lat.push(lat_ms);
                            }
                            if keep || status != 200 {
                                kept.push((
                                    req,
                                    Done {
                                        job: i,
                                        status,
                                        body: resp,
                                        lat_ms,
                                    },
                                ));
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
                let mut o = out.lock().expect("no thread panics holding this lock");
                o.0.extend(lat);
                o.1.extend(lag);
                o.2.extend(kept);
                o.3 += unsent;
                o.4 += errors;
            });
        }
    });
    let (lat, lag_ms, kept, unsent, errors) = out.into_inner().expect("threads joined");
    Rung {
        rate,
        completed: lat.len(),
        lat: latency(&lat),
        unsent,
        errors,
        lag_ms,
        kept,
    }
}

impl Rung {
    fn passes(&self) -> bool {
        self.errors == 0 && self.unsent == 0 && self.lat.top_ms <= HOT_LIMIT_MS
    }
}

/// The highest ladder rate whose top percentile meets the latency limit
/// with no errors and no backlog; 0 when none does.
fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.passes())
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

/// Request `i` of `hot_serve` phase `phase`: ~90 % resident generator
/// jobs, ~5 % resident netlists, ~5 % distinct misses.
fn hot_pick(seed: u64, phase: usize, i: usize, gens: usize, nets: usize) -> HotReq {
    let mut rng = Rng::new(seed ^ ((phase as u64) << 40) ^ i as u64);
    let u = rng.unit();
    let pick = rng.next_u64() as usize;
    if u < 0.90 {
        HotReq::Gen(pick % gens)
    } else if u < 0.95 {
        HotReq::Net(pick % nets)
    } else {
        HotReq::Miss(phase * 1_000_000 + i)
    }
}

pub fn hot_serve(ctx: &Ctx) -> Result<RunResult, String> {
    let (gens, nets) = jobs::hot_working_set(ctx.seed);
    let resident: Vec<String> = gens.iter().chain(&nets).map(jobs::body).collect();
    let (server, setup_s, warm_done) = set_up(ctx, 7, |_| None, &resident)?;
    let body = |req: HotReq| -> String {
        match req {
            HotReq::Gen(j) => resident[j].clone(),
            HotReq::Net(j) => resident[gens.len() + j].clone(),
            HotReq::Miss(k) => jobs::body(&jobs::hot_miss(ctx.seed, k)),
        }
    };
    // Every 8th hit and every miss is kept for checking.
    let keep = |req: HotReq, i: usize| matches!(req, HotReq::Miss(_)) || i.is_multiple_of(8);

    let before = server.metrics()?;
    let cpu0 = server.cpu_ms();
    // Phase 0, saturation: closed loop, one connection per core.
    let pick0 = |i: usize| hot_pick(ctx.seed, 0, i, gens.len(), nets.len());
    let Loop {
        dones: sat,
        wall_s: sat_wall,
        ..
    } = closed_loop(
        server.addr,
        ctx.threads,
        ctx.seconds * HOT_SATURATION_SHARE,
        1,
        |i| body(pick0(i)),
        |i| keep(pick0(i), i),
    );
    let sat_cpu_ms = server.cpu_ms() - cpu0;
    // Phases 1.., the ladder: open loop at each fixed rate.
    let rung_secs = ctx.seconds * (1.0 - HOT_SATURATION_SHARE) / HOT_LADDER_RPS.len() as f64;
    let mut rungs = Vec::new();
    for (p, &rate) in HOT_LADDER_RPS.iter().enumerate() {
        let reqs: Vec<HotReq> = (0..(rate * rung_secs) as usize)
            .map(|i| hot_pick(ctx.seed, p + 1, i, gens.len(), nets.len()))
            .collect();
        let bodies: Vec<String> = reqs.iter().map(|&q| body(q)).collect();
        let plan: Vec<(HotReq, &[u8], bool)> = reqs
            .iter()
            .zip(&bodies)
            .enumerate()
            .map(|(i, (&q, b))| (q, b.as_bytes(), keep(q, i)))
            .collect();
        rungs.push(open_loop(server.addr, ctx.threads, rate, &plan));
    }
    let counters = delta(&before, &server.metrics()?);
    let rss = server.peak_rss_mb();
    drop(server);

    let mut r = RunResult::default();
    for rung in &rungs {
        println!(
            "hot_serve rung {:>6.0} rps: n={} p50={:.4} ms p{:.1}={:.4} ms unsent={} errors={} lag_p99={:.4} ms {}",
            rung.rate,
            rung.completed,
            rung.lat.p50_ms,
            rung.lat.top_q * 100.0,
            rung.lat.top_ms,
            rung.unsent,
            rung.errors,
            quantile(&rung.lag_ms, 0.99),
            if rung.passes() { "meets limit" } else { "misses limit" }
        );
    }
    // Checks: the kept sample of hits and every miss the server solved,
    // by job index: working set first, then misses in order of appearance.
    let mut specs: Vec<JobSpec> = gens.iter().chain(&nets).cloned().collect();
    let mut miss_index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut job_of = |req: HotReq| -> usize {
        match req {
            HotReq::Gen(j) => j,
            HotReq::Net(j) => gens.len() + j,
            HotReq::Miss(k) => *miss_index.entry(k).or_insert_with(|| {
                specs.push(jobs::hot_miss(ctx.seed, k));
                specs.len() - 1
            }),
        }
    };
    let mut kept: Vec<(Done, bool)> = Vec::new();
    for d in sat
        .iter()
        .filter(|d| d.status == 200 && keep(pick0(d.job), d.job))
    {
        let req = pick0(d.job);
        kept.push((
            Done {
                job: job_of(req),
                status: d.status,
                body: d.body.clone(),
                lat_ms: d.lat_ms,
            },
            !matches!(req, HotReq::Miss(_)),
        ));
    }
    for (req, d) in rungs
        .iter()
        .flat_map(|g| &g.kept)
        .filter(|(_, d)| d.status == 200)
    {
        kept.push((
            Done {
                job: job_of(*req),
                status: d.status,
                body: d.body.clone(),
                lat_ms: d.lat_ms,
            },
            !matches!(req, HotReq::Miss(_)),
        ));
    }
    let checks: Vec<(&Done, bool)> = warm_done
        .iter()
        .map(|d| (d, false))
        .chain(kept.iter().map(|(d, c)| (d, *c)))
        .collect();
    r.problems = verify(&specs, &checks, ctx.threads);
    check_counters(&counters, false, &mut r.problems);

    let sat_ok: Vec<&Done> = sat.iter().filter(|d| d.status == 200).collect();
    r.attempted = (sat.len() + rungs.iter().map(|g| g.completed + g.errors).sum::<usize>()) as u64;
    r.failed = (sat.len() - sat_ok.len()) as u64
        + rungs.iter().map(|g| g.errors as u64).sum::<u64>()
        + r.problems.len() as u64;
    let lat = latency(&sat_ok.iter().map(|d| d.lat_ms).collect::<Vec<_>>());
    set_common(
        &mut r,
        sat_ok.len() as f64 / sat_wall,
        &lat,
        setup_s,
        rss,
        sat_cpu_ms / sat_ok.len().max(1) as f64,
    );
    r.extra.push("max_rate_rps", max_rate(&rungs), "1/s");
    let lags: Vec<f64> = rungs
        .iter()
        .flat_map(|g| g.lag_ms.iter().copied())
        .collect();
    r.lag_p99_ms = quantile(&lags, 0.99);
    r.counters = counters;
    r.bodies = (0..4000).map(|i| body(pick0(i))).collect();
    Ok(r)
}

fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// Restarts `stream_persist` performs on the populated cache directory.
const RESTARTS: usize = 3;

pub fn stream_persist(ctx: &Ctx) -> Result<RunResult, String> {
    const SET_UPS: usize = 9;
    let pinned = pin_timed_phase();
    let dir_for = |i: usize| ctx.work.join(format!("stream-cache-{i}"));
    for i in 0..SET_UPS {
        fresh_dir(&dir_for(i))?;
    }
    let warm = jobs::stream_warmup();
    let (server, setup_s, warm_done) =
        set_up(ctx, SET_UPS, |i| Some(dir_for(i)), &[jobs::body(&warm)])?;
    let dir = dir_for(SET_UPS - 1);
    let before = server.metrics()?;
    let cpu0 = server.cpu_ms();
    let run = closed_loop(
        server.addr,
        ctx.connections,
        ctx.seconds,
        1,
        |k| jobs::body(&jobs::stream_spec(ctx.seed, k)),
        |_| true,
    );
    let dones = run.dones;
    let mut counters = delta(&before, &server.metrics()?);
    let cpu_ms = server.cpu_ms() - cpu0;
    let rss = server.peak_rss_mb();
    drop(server);
    print_cycles(&run.cycle_s, 1);

    let mut r = RunResult::default();
    check_counters(&counters, true, &mut r.problems);
    let get = |c: &BTreeMap<String, f64>, k: &str| c.get(k).copied().unwrap_or(0.0);
    if get(&counters, "cache.disk_writes") < get(&counters, "service.stream_checkpoints") {
        r.problems.push(format!(
            "disk writes {} < stream checkpoints {}",
            get(&counters, "cache.disk_writes"),
            get(&counters, "service.stream_checkpoints")
        ));
    }
    let ok: Vec<&Done> = dones.iter().filter(|d| d.status == 200).collect();
    let finished: Vec<String> = ok
        .iter()
        .map(|d| jobs::body(&jobs::stream_spec(ctx.seed, d.job)))
        .collect();

    // Restart on the populated directory and replay every finished job;
    // each replay is a disk hit.
    let mut ready_s = Vec::new();
    let mut replays = Vec::new();
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let server = Server::spawn(&ctx.serve_bin, ctx.connections, Some(&dir))?;
        ready_s.push(t0.elapsed().as_secs_f64());
        let before = server.metrics()?;
        let mut conn = Conn::new(server.addr);
        for (d, body) in ok.iter().zip(&finished) {
            let sent = Instant::now();
            let (status, resp) = conn
                .send("POST", POST, body.as_bytes())
                .unwrap_or((0, Vec::new()));
            replays.push(Done {
                job: d.job,
                status,
                body: resp,
                lat_ms: ms(sent.elapsed()),
            });
        }
        let c = delta(&before, &server.metrics()?);
        check_counters(&c, true, &mut r.problems);
        if get(&c, "cache.disk_hits") != ok.len() as f64 {
            r.problems.push(format!(
                "replay after restart: {} disk hits for {} finished jobs",
                get(&c, "cache.disk_hits"),
                ok.len()
            ));
        }
        accumulate(&mut counters, &c);
    }

    let mut specs: Vec<JobSpec> = (0..dones.len())
        .map(|k| jobs::stream_spec(ctx.seed, k))
        .collect();
    let warm_done = shifted(warm_done, specs.len());
    specs.push(warm);
    let replay_ok: Vec<&Done> = replays.iter().filter(|d| d.status == 200).collect();
    let checks: Vec<(&Done, bool)> = ok
        .iter()
        .copied()
        .chain(&warm_done)
        .map(|d| (d, false))
        .chain(replay_ok.iter().map(|&d| (d, true)))
        .collect();
    // The references run on every core.
    drop(pinned);
    r.problems.extend(verify(&specs, &checks, ctx.threads));
    r.attempted = (dones.len() + replays.len()) as u64;
    r.failed =
        (dones.len() - ok.len() + replays.len() - replay_ok.len()) as u64 + r.problems.len() as u64;
    let job_lat: Vec<f64> = ok.iter().map(|d| d.lat_ms).collect();
    let lat = latency(&job_lat);
    set_common(
        &mut r,
        1.0 / median(&run.cycle_s),
        &lat,
        setup_s,
        rss,
        cpu_ms / ok.len().max(1) as f64,
    );
    r.extra.push("stream_job_s", median(&job_lat) / 1e3, "s");
    r.extra.push("restart_ready_s", median(&ready_s), "s");
    r.extra.push(
        "disk_replay_p50_ms",
        median(&replay_ok.iter().map(|d| d.lat_ms).collect::<Vec<_>>()),
        "ms",
    );
    println!(
        "stream_persist: {} jobs solved, {} replays from disk",
        ok.len(),
        replay_ok.len()
    );
    r.counters = counters;
    r.bodies = finished;
    r.cache_dir = Some(dir);
    Ok(r)
}
