//! The traced in-process run. Spans are recorded here, around calls into
//! each layer's public functions, never inside the program: a span has a
//! name, a start, an end, the span that caused it, and the id of the
//! request it belongs to. They stay in memory and are written out once,
//! when the run ends. A layer's time is its spans' self time: duration
//! minus the part covered by child spans.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use si_analog::cells::DelayLineDesign;
use si_analog::dc::{set_current_source, DcSolver};
use si_analog::device::TwoPhaseClock;
use si_analog::engine::EngineWorkspace;
use si_analog::linalg::Matrix;
use si_analog::mna::{assemble_into_target, mna_pattern, CapStep, StampContext};
use si_analog::parse::parse_netlist_canonical;
use si_analog::solver::{BackendMode, BackendPolicy, RealSolver, RealTarget};
use si_analog::sparse::{CscMatrix, SparseLu};
use si_analog::telemetry::EngineStats;
use si_analog::units::{Amps, Farads, Seconds, Volts};
use si_dsp::welch::WelchAccumulator;
use si_dsp::window::Window;
use si_service::cache::CacheTier;
use si_service::disk::{DiskTier, DiskTierConfig};
use si_service::jobspec::{JobOutput, JobSpec};
use si_service::json;
use si_service::service::{job_response_body, ServiceConfig, SiService};

use crate::client::{Conn, Server};
use crate::jobs::{self, TOPOLOGIES};
use crate::stats::{median, quantile, Metrics};
use crate::workloads::{Ctx, RunResult};

/// Every per-layer metric, in output order: name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.overhead_us", "us"),
    ("http.shed_connections", "count"),
    ("jobspec.decode_us", "us"),
    ("jobspec.key_us", "us"),
    ("jobspec.encode_us", "us"),
    ("parse.netlist_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.coalesced", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.probe_us", "us"),
    ("pool.queue_wait_p50_ms", "ms"),
    ("pool.queue_wait_p99_ms", "ms"),
    ("pool.rejected", "count"),
    ("service.retries", "count"),
    ("service.failed", "count"),
    ("service.stream_chunks", "count"),
    ("service.stream_checkpoints", "count"),
    ("disk.write_ms", "ms"),
    ("disk.read_ms", "ms"),
    ("disk.open_ms", "ms"),
    ("disk.writes", "count"),
    ("disk.hits", "count"),
    ("disk.bytes", "bytes"),
    ("engine.transient_steps", "count"),
    ("engine.newton_per_step", "ratio"),
    ("engine.factorizations.dense", "count"),
    ("engine.factorizations.sparse", "count"),
    ("engine.symbolic_hit_ratio", "ratio"),
    ("engine.convergence_failures", "count"),
    ("engine.run_ms", "ms"),
    ("solver.fingerprint_share", "share"),
    ("solver.assemble_share", "share"),
    ("solver.factor_share", "share"),
    ("solver.backsolve_share", "share"),
    ("engine.newton_other_share", "share"),
    ("solver.s16.fingerprint_us", "us"),
    ("solver.s16.assemble_us", "us"),
    ("solver.s16.factor_us", "us"),
    ("solver.s16.backsolve_us", "us"),
    ("solver.s48.fingerprint_us", "us"),
    ("solver.s48.assemble_us", "us"),
    ("solver.s48.factor_us", "us"),
    ("solver.s48.backsolve_us", "us"),
    ("solver.s160.fingerprint_us", "us"),
    ("solver.s160.assemble_us", "us"),
    ("solver.s160.factor_us", "us"),
    ("solver.s160.backsolve_us", "us"),
    ("engine.batch_scenario_us", "us"),
    ("dsp.welch_chunk_ms", "ms"),
    ("dsp.fft_ms", "ms"),
    ("modulator.sndr_level_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("ratio.batch_vs_single", "ratio"),
    ("ratio.batch_vs_single.batch_ms", "ms"),
    ("ratio.batch_vs_single.single_ms", "ms"),
    ("ratio.sparse_vs_dense_48", "ratio"),
    ("ratio.sparse_vs_dense_48.sparse_ms", "ms"),
    ("ratio.sparse_vs_dense_48.dense_ms", "ms"),
    ("ratio.sparse_vs_dense_160", "ratio"),
    ("ratio.sparse_vs_dense_160.sparse_ms", "ms"),
    ("ratio.sparse_vs_dense_160.dense_ms", "ms"),
    ("ratio.workspace_reuse", "ratio"),
    ("ratio.workspace_reuse.reused_ms", "ms"),
    ("ratio.workspace_reuse.fresh_ms", "ms"),
    ("hot.max_rate_rps", "1/s"),
    ("stream.job_s", "s"),
    ("stream.restart_ready_s", "s"),
    ("stream.disk_replay_p50_ms", "ms"),
];

/// One recorded span; times are ns since the tracer started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// The span recorder. A disabled tracer records nothing, so the same
/// replay code measures the untraced baseline.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request: spans until the next call share its id.
    pub fn begin_request(&mut self) {
        self.request += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        self.spans[id].end_ns = self.now_ns();
        self.stack.pop();
    }

    /// Self time of every span, µs, grouped by span name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, text)
    }
}

/// One in-process `JobSpec::run` of a job the service solved.
struct RunSample {
    stages: Option<usize>,
    run_us: f64,
    stats: EngineStats,
}

/// The result of replaying a workload's requests in-process.
struct Replay {
    tracer: Tracer,
    runs: Vec<RunSample>,
    queue_wait_ms: Vec<f64>,
    wall_s: f64,
    requests: usize,
}

/// Replays `bodies` through an in-process service along the path the
/// HTTP handler takes (decode, key, memory probe, netlist admission,
/// submit, encode), one request at a time, for at most `budget` or
/// `limit` requests. Every job the service had to solve is then run again
/// on a private workspace, which gives the solve time (and so the queue
/// wait of the submit) and the engine counters of that job.
fn replay(
    bodies: &[String],
    enabled: bool,
    cache_dir: Option<PathBuf>,
    workers: usize,
    budget: Duration,
    limit: usize,
) -> Result<Replay, String> {
    let svc = SiService::new(ServiceConfig {
        workers,
        cache_dir,
        ..ServiceConfig::default()
    });
    let mut tr = Tracer::new(enabled);
    let mut ws = EngineWorkspace::new();
    let mut runs = Vec::new();
    let mut queue_wait_ms = Vec::new();
    let t0 = Instant::now();
    let mut requests = 0;
    for body in bodies.iter().take(limit) {
        if t0.elapsed() > budget {
            break;
        }
        requests += 1;
        tr.begin_request();
        let req = tr.enter("request");
        let d = tr.enter("jobspec.decode");
        let spec = json::parse(body)
            .map_err(|e| e.to_string())
            .and_then(|v| JobSpec::from_json(&v).map_err(|e| e.to_string()))?;
        tr.exit(d);
        let k = tr.enter("jobspec.key");
        let id = format!("{:016x}", black_box(spec.job_key()));
        tr.exit(k);
        let p = tr.enter("cache.probe");
        let hit = svc.serve_cached(&spec);
        tr.exit(p);
        let mut submit_us = None;
        let (out, cached) = match hit {
            Some(out) => (out, true),
            None => {
                if let JobSpec::Netlist { netlist } = &spec {
                    let a = tr.enter("parse.netlist");
                    black_box(parse_netlist_canonical(netlist).map_err(|e| e.to_string())?);
                    black_box(spec.admission_cost().map_err(|e| e.to_string())?);
                    tr.exit(a);
                }
                let s = tr.enter("service.submit");
                let started = Instant::now();
                let (out, cached) = svc
                    .submit_blocking(&spec, None)
                    .map_err(|e| e.to_string())?;
                if !cached {
                    submit_us = Some(started.elapsed().as_secs_f64() * 1e6);
                }
                tr.exit(s);
                (out, cached)
            }
        };
        let e = tr.enter("jobspec.encode");
        black_box(job_response_body(&id, spec.kind(), cached, &out).to_string_compact());
        tr.exit(e);
        tr.exit(req);

        if let Some(submit_us) = submit_us {
            tr.begin_request();
            let r = tr.enter("engine.run");
            ws.enable_stats();
            let started = Instant::now();
            spec.run(&mut ws).map_err(|e| e.to_string())?;
            let run_us = started.elapsed().as_secs_f64() * 1e6;
            let stats = ws.take_stats().unwrap_or_default();
            tr.exit(r);
            queue_wait_ms.push(((submit_us - run_us) / 1e3).max(0.0));
            runs.push(RunSample {
                stages: jobs::stages_of(&spec),
                run_us,
                stats,
            });
        }
    }
    Ok(Replay {
        tracer: tr,
        runs,
        queue_wait_ms,
        wall_s: t0.elapsed().as_secs_f64(),
        requests,
    })
}

/// Per-call time of `f` in µs: the fastest of batches of calls that each
/// take at least ~0.2 ms, run for about `budget`. The fastest batch is the
/// uncontended cost; host noise only ever adds time, and the engine shares
/// must not claim more of a run than its calls can have taken.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-8);
    let batch = ((2e-4 / once).ceil() as usize).clamp(1, 100_000);
    let mut per_call = Vec::new();
    let t0 = Instant::now();
    while per_call.len() < 3 || (t0.elapsed() < budget && per_call.len() < 200) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    per_call.into_iter().fold(f64::INFINITY, f64::min)
}

const PROBE: Duration = Duration::from_millis(40);

/// Cost of one call into each solver layer for a delay line of `stages`
/// stages, at its converged operating point under a transient stamp.
#[derive(Clone, Copy)]
struct Topo {
    fingerprint_us: f64,
    assemble_us: f64,
    factor_us: f64,
    backsolve_us: f64,
}

fn topo_times(stages: usize) -> Result<Topo, String> {
    let err = |e: si_analog::AnalogError| e.to_string();
    let mut line = DelayLineDesign {
        stages,
        bias: Amps(20e-6),
        vov: Volts(0.25),
        hold_cap: Farads(0.5e-12),
    }
    .build()
    .map_err(err)?;
    set_current_source(&mut line.circuit, &line.input_source, Amps(1e-6)).map_err(err)?;
    let circuit = &line.circuit;
    let mut ws = EngineWorkspace::new();
    let op = DcSolver::new()
        .with_initial_guess(line.initial_guess.clone())
        .solve_with(circuit, &mut ws)
        .map_err(err)?;
    let v = op.node_voltages();
    let clock = TwoPhaseClock::new(Seconds(1e-6), 0.0).map_err(err)?;
    let ctx = StampContext {
        node_voltages: &v,
        time: Some(Seconds(1.25e-7)),
        clock: Some(&clock),
        phi1_high: true,
        phi2_high: false,
        gmin: 1e-12,
        cap_step: Some(CapStep {
            h: 50e-9,
            prev_voltages: &v,
        }),
    };
    let policy = BackendPolicy::default();
    let dim = circuit.mna_dimension();
    let mut rhs = Vec::new();
    let fingerprint_us = time_us(PROBE, || {
        black_box(circuit.structure_fingerprint());
    });
    let (assemble_us, factor_us) = if dim > policy.dense_dim_cutoff {
        let mut m = CscMatrix::from_pattern(mna_pattern(circuit));
        let assemble_us = time_us(PROBE, || {
            assemble_into_target(circuit, &ctx, &mut RealTarget::Sparse(&mut m), &mut rhs)
                .expect("assembles");
        });
        let mut lu = SparseLu::new();
        lu.factorize(&m).map_err(err)?;
        let factor_us = time_us(PROBE, || {
            black_box(lu.refactorize(&m).expect("refactors"));
        });
        (assemble_us, factor_us)
    } else {
        let mut a = Matrix::zeros(dim, dim);
        let assemble_us = time_us(PROBE, || {
            assemble_into_target(circuit, &ctx, &mut RealTarget::Dense(&mut a), &mut rhs)
                .expect("assembles");
        });
        let mut work = a.clone();
        let mut perm = Vec::new();
        // Includes one dim × dim copy per call, small beside the O(dim³) LU.
        let factor_us = time_us(PROBE, || {
            work.clone_from(&a);
            work.factor_in_place(&mut perm).expect("factors");
        });
        (assemble_us, factor_us)
    };
    let mut solver = RealSolver::new();
    solver
        .assemble_and_factor(circuit, &ctx, &mut rhs, &policy)
        .map_err(err)?;
    let b = rhs.clone();
    let mut x = Vec::new();
    let backsolve_us = time_us(PROBE, || {
        solver.solve(&b, &mut x).expect("solves");
    });
    Ok(Topo {
        fingerprint_us,
        assemble_us,
        factor_us,
        backsolve_us,
    })
}

/// Median wall time of `f` over `reps` calls, ms.
fn time_ms(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut t = Vec::new();
    for _ in 0..reps {
        let s = Instant::now();
        f()?;
        t.push(s.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&t))
}

fn run_on(ws: &mut EngineWorkspace, spec: &JobSpec) -> Result<(), String> {
    spec.run(ws).map(|_| ()).map_err(|e| e.to_string())
}

fn policy(mode: BackendMode) -> BackendPolicy {
    BackendPolicy {
        mode,
        ..BackendPolicy::default()
    }
}

/// The ROADMAP's speed-up claims, re-measured, each with its two bases.
fn ratios(m: &mut Metrics) -> Result<(), String> {
    let inputs: Vec<f64> = (0..32).map(|i| 0.5 + 0.05 * i as f64).collect();
    let batch = JobSpec::DelayLineDcBatch {
        stages: 48,
        bias_ua: 20.0,
        inputs_ua: inputs.clone(),
    };
    let singles: Vec<JobSpec> = inputs
        .iter()
        .map(|&input_ua| JobSpec::DelayLineDc {
            stages: 48,
            bias_ua: 20.0,
            input_ua,
        })
        .collect();
    let mut ws = EngineWorkspace::new();
    run_on(&mut ws, &batch)?;
    let batch_ms = time_ms(5, || run_on(&mut ws, &batch))?;
    let single_ms = time_ms(5, || singles.iter().try_for_each(|s| run_on(&mut ws, s)))?;
    m.push("ratio.batch_vs_single", single_ms / batch_ms, "ratio");
    m.push("ratio.batch_vs_single.batch_ms", batch_ms, "ms");
    m.push("ratio.batch_vs_single.single_ms", single_ms, "ms");
    m.push(
        "engine.batch_scenario_us",
        batch_ms * 1e3 / inputs.len() as f64,
        "us",
    );

    for (stages, steps) in [(48, 200), (160, 40)] {
        let spec = jobs::tran_spec(stages, 1.0, steps);
        let mut sparse = EngineWorkspace::new();
        sparse.set_backend_policy(policy(BackendMode::ForceSparse));
        let mut dense = EngineWorkspace::new();
        dense.set_backend_policy(policy(BackendMode::ForceDense));
        run_on(&mut sparse, &spec)?;
        run_on(&mut dense, &spec)?;
        let sparse_ms = time_ms(5, || run_on(&mut sparse, &spec))?;
        let dense_ms = time_ms(3, || run_on(&mut dense, &spec))?;
        let name = format!("ratio.sparse_vs_dense_{stages}");
        m.push(&name, dense_ms / sparse_ms, "ratio");
        m.push(&format!("{name}.sparse_ms"), sparse_ms, "ms");
        m.push(&format!("{name}.dense_ms"), dense_ms, "ms");
    }

    let spec = jobs::tran_spec(48, 1.0, 200);
    let mut reused = EngineWorkspace::new();
    run_on(&mut reused, &spec)?;
    let reused_ms = time_ms(7, || run_on(&mut reused, &spec))?;
    let fresh_ms = time_ms(7, || run_on(&mut EngineWorkspace::new(), &spec))?;
    m.push("ratio.workspace_reuse", fresh_ms / reused_ms, "ratio");
    m.push("ratio.workspace_reuse.reused_ms", reused_ms, "ms");
    m.push("ratio.workspace_reuse.fresh_ms", fresh_ms, "ms");
    Ok(())
}

/// FFT, Welch fold and modulator costs at the sizes the jobs use.
fn dsp(m: &mut Metrics) -> Result<(), String> {
    let signal: Vec<f64> = (0..16_384).map(|i| (i as f64 * 0.37).sin()).collect();
    let fft_us = time_us(PROBE, || {
        black_box(si_dsp::fft::fft_real(&signal).expect("power-of-two length"));
    });
    m.push("dsp.fft_ms", fft_us / 1e3, "ms");
    let chunk = &signal[..4096];
    let mut acc = WelchAccumulator::new(4096, Window::Hann).map_err(|e| e.to_string())?;
    let welch_us = time_us(PROBE, || acc.push(chunk).expect("pushes"));
    m.push("dsp.welch_chunk_ms", welch_us / 1e3, "ms");
    let levels = vec![-20.0, -10.0, -6.0];
    let n = levels.len() as f64;
    let sweep = JobSpec::SndrSweep {
        full_scale_ua: 6.0,
        levels_db: levels,
    };
    let mut ws = EngineWorkspace::new();
    let sweep_ms = time_ms(3, || run_on(&mut ws, &sweep))?;
    m.push("modulator.sndr_level_ms", sweep_ms / n, "ms");
    Ok(())
}

/// Disk tier costs: store and load of spectrum-sized entries, and open
/// on a populated directory (`populated`, or the probe's own).
fn disk(m: &mut Metrics, scratch: &Path, populated: Option<&Path>) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(scratch);
    let io = |e: std::io::Error| e.to_string();
    let tier = DiskTier::open(DiskTierConfig::at(scratch)).map_err(io)?;
    let out = Arc::new(JobOutput {
        values: (0..2049).map(|i| (i as f64).sqrt() * 1e-9).collect(),
        metrics: vec![
            ("steps".to_string(), 65536.0),
            ("segments".to_string(), 31.0),
        ],
    });
    let keys: Vec<u64> = (0..16u64).map(|k| 0x51b0_0000 + k).collect();
    let write: Vec<f64> = keys
        .iter()
        .map(|&k| {
            let t = Instant::now();
            tier.store(k, &out);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let read: Vec<f64> = keys
        .iter()
        .map(|&k| {
            let t = Instant::now();
            let hit = tier.load(k);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if hit.is_none() {
                return f64::NAN;
            }
            ms
        })
        .collect();
    if read.iter().any(|r| r.is_nan()) {
        return Err("disk probe: a stored entry did not load".to_string());
    }
    drop(tier);
    let dir = populated.unwrap_or(scratch);
    let open_ms = time_ms(5, || {
        DiskTier::open(DiskTierConfig::at(dir))
            .map(|_| ())
            .map_err(io)
    })?;
    m.push("disk.write_ms", median(&write), "ms");
    m.push("disk.read_ms", median(&read), "ms");
    m.push("disk.open_ms", open_ms, "ms");
    Ok(())
}

/// Loopback round trip of a memory hit against a fresh `si_serve`, minus
/// the in-process cost of the same calls the server's inline hit path
/// makes: decode, `serve_cached` (which keys the job), `job_id` and
/// encode.
fn http_overhead(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    let spec = JobSpec::DelayLineDc {
        stages: 8,
        bias_ua: 20.0,
        input_ua: 1.0,
    };
    let body = jobs::body(&spec);
    let server = Server::spawn(&ctx.serve_bin, ctx.connections, None)?;
    let mut conn = Conn::new(server.addr);
    let mut rtt = Vec::new();
    for i in 0..1000 {
        let t = Instant::now();
        let (status, _) = conn
            .send("POST", "/v1/jobs", body.as_bytes())
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("http probe: status {status}"));
        }
        if i >= 50 {
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(server);
    let svc = SiService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    svc.submit_blocking(&spec, None)
        .map_err(|e| e.to_string())?;
    let inproc_us = time_us(PROBE, || {
        let v = json::parse(&body).expect("valid body");
        let spec = JobSpec::from_json(&v).expect("valid spec");
        let out = svc.serve_cached(&spec).expect("resident");
        black_box(
            job_response_body(&SiService::job_id(&spec), spec.kind(), true, &out)
                .to_string_compact(),
        );
    });
    m.push("http.overhead_us", median(&rtt) - inproc_us, "us");
    Ok(())
}

/// Engine shares of the replayed solves: per-topology call costs times
/// each job's call counts, over its measured `JobSpec::run` time.
fn shares(runs: &[RunSample], topo: &BTreeMap<usize, Topo>, m: &mut Metrics) {
    let (mut fp, mut asm, mut fac, mut bs, mut total) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in runs {
        let Some(t) = r.stages.and_then(|s| topo.get(&s)) else {
            continue;
        };
        let s = &r.stats;
        let real = (s.factorizations + s.refactorizations) as f64;
        let fingerprints = (s.sparse_real_factorizations
            + s.sparse_real_refactorizations
            + s.sparse_complex_factorizations
            + s.sparse_complex_refactorizations) as f64;
        fp += t.fingerprint_us * fingerprints;
        asm += t.assemble_us * real;
        fac += t.factor_us * real;
        bs += t.backsolve_us * s.back_substitutions as f64;
        total += r.run_us;
    }
    let share = |x: f64| if total > 0.0 { x / total } else { 0.0 };
    m.push("solver.fingerprint_share", share(fp), "share");
    m.push("solver.assemble_share", share(asm), "share");
    m.push("solver.factor_share", share(fac), "share");
    m.push("solver.backsolve_share", share(bs), "share");
    let other = if total > 0.0 {
        1.0 - share(fp + asm + fac + bs)
    } else {
        0.0
    };
    m.push("engine.newton_other_share", other, "share");
    if other < 0.0 {
        println!("warning: solver shares exceed the measured run time (residual {other:.4})");
    }
}

/// `/metrics` counter deltas of the untraced HTTP run, as per-layer counts.
fn counts(c: &BTreeMap<String, f64>, m: &mut Metrics) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.push(
        "http.shed_connections",
        get("http.shed_connections"),
        "count",
    );
    m.push("cache.hits", get("cache.hits"), "count");
    m.push("cache.misses", get("cache.misses"), "count");
    m.push("cache.coalesced", get("cache.coalesced"), "count");
    let useful = get("cache.hits") + get("cache.coalesced") + get("cache.disk_hits");
    m.push(
        "cache.hit_ratio",
        ratio(useful, useful + get("cache.misses")),
        "ratio",
    );
    m.push("pool.rejected", get("pool.rejected"), "count");
    m.push("service.retries", get("service.retries"), "count");
    m.push("service.failed", get("service.failed"), "count");
    m.push(
        "service.stream_chunks",
        get("service.stream_chunks"),
        "count",
    );
    m.push(
        "service.stream_checkpoints",
        get("service.stream_checkpoints"),
        "count",
    );
    m.push("disk.writes", get("cache.disk_writes"), "count");
    m.push("disk.hits", get("cache.disk_hits"), "count");
    m.push("disk.bytes", get("cache.disk_bytes"), "bytes");
    m.push(
        "engine.transient_steps",
        get("engine.transient_steps"),
        "count",
    );
    m.push(
        "engine.newton_per_step",
        ratio(get("engine.newton_iterations"), get("engine.solves")),
        "ratio",
    );
    m.push(
        "engine.factorizations.dense",
        get("engine.dense_real_factorizations") + get("engine.dense_complex_factorizations"),
        "count",
    );
    m.push(
        "engine.factorizations.sparse",
        get("engine.sparse_real_factorizations")
            + get("engine.sparse_real_refactorizations")
            + get("engine.sparse_complex_factorizations")
            + get("engine.sparse_complex_refactorizations"),
        "count",
    );
    let sym = get("engine.symbolic_cache_hits");
    m.push(
        "engine.symbolic_hit_ratio",
        ratio(sym, sym + get("engine.symbolic_cache_misses")),
        "ratio",
    );
    m.push(
        "engine.convergence_failures",
        get("engine.convergence_failures"),
        "count",
    );
}

/// The traced run of one workload: replays its requests in-process with
/// and without spans, times each layer's calls, and folds in the
/// workload's `/metrics` deltas. Returns every per-layer metric.
pub fn per_layer(ctx: &Ctx, workload: &str, run: &RunResult) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    counts(&run.counters, &mut m);
    m.push("loadgen.lag_p99_ms", run.lag_p99_ms, "ms");
    // The workload-specific end-to-end metrics, 0 on other workloads.
    for (name, value, unit) in [
        ("hot.max_rate_rps", "max_rate_rps", "1/s"),
        ("stream.job_s", "stream_job_s", "s"),
        ("stream.restart_ready_s", "restart_ready_s", "s"),
        ("stream.disk_replay_p50_ms", "disk_replay_p50_ms", "ms"),
    ] {
        m.push(name, run.extra.get(value).unwrap_or(0.0), unit);
    }

    // Replay the workload's requests on a fresh service per pass: untraced,
    // traced, then untraced again, so warm-up effects land on neither side
    // of the overhead ratio. Stream replays persist to their own cache
    // directory.
    let stream = workload == "stream_persist";
    let (budget, limit) = if stream {
        (Duration::from_secs(60), 1)
    } else {
        (Duration::from_secs_f64((ctx.seconds * 0.3).max(1.0)), 4000)
    };
    let cache_dir = |tag: &str| {
        stream.then(|| {
            let dir = ctx.work.join(format!("replay-cache-{tag}"));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
    };
    let plain = replay(
        &run.bodies,
        false,
        cache_dir("plain"),
        ctx.threads,
        budget,
        limit,
    )?;
    let traced = replay(
        &run.bodies,
        true,
        cache_dir("traced"),
        ctx.threads,
        Duration::MAX,
        plain.requests,
    )?;
    let again = replay(
        &run.bodies,
        false,
        cache_dir("again"),
        ctx.threads,
        Duration::MAX,
        plain.requests,
    )?;
    let untraced_s = (plain.wall_s + again.wall_s) / 2.0;
    m.push("trace.overhead", traced.wall_s / untraced_s, "ratio");
    let times = traced.tracer.self_times_us();
    let med = |name: &str| times.get(name).map_or(0.0, |v| median(v));
    m.push("jobspec.decode_us", med("jobspec.decode"), "us");
    m.push("jobspec.key_us", med("jobspec.key"), "us");
    m.push("jobspec.encode_us", med("jobspec.encode"), "us");
    m.push("parse.netlist_us", med("parse.netlist"), "us");
    m.push("cache.probe_us", med("cache.probe"), "us");
    m.push("engine.run_ms", med("engine.run") / 1e3, "ms");
    m.push(
        "pool.queue_wait_p50_ms",
        median(&traced.queue_wait_ms),
        "ms",
    );
    m.push(
        "pool.queue_wait_p99_ms",
        quantile(&traced.queue_wait_ms, 0.99),
        "ms",
    );
    println!(
        "traced replay: {} requests, {} solves, {} spans, untraced {:.3} s, traced {:.3} s",
        traced.requests,
        traced.runs.len(),
        times.values().map(Vec::len).sum::<usize>(),
        untraced_s,
        traced.wall_s
    );

    // Per-topology solver costs, for the reported topologies and every
    // delay line the replay solved.
    let mut topo = BTreeMap::new();
    let solved = traced.runs.iter().filter_map(|r| r.stages);
    for stages in TOPOLOGIES.iter().copied().chain(solved) {
        if let Entry::Vacant(slot) = topo.entry(stages) {
            slot.insert(topo_times(stages)?);
        }
    }
    for s in TOPOLOGIES {
        let t = topo[&s];
        m.push(
            &format!("solver.s{s}.fingerprint_us"),
            t.fingerprint_us,
            "us",
        );
        m.push(&format!("solver.s{s}.assemble_us"), t.assemble_us, "us");
        m.push(&format!("solver.s{s}.factor_us"), t.factor_us, "us");
        m.push(&format!("solver.s{s}.backsolve_us"), t.backsolve_us, "us");
    }
    shares(&traced.runs, &topo, &mut m);
    ratios(&mut m)?;
    dsp(&mut m)?;
    disk(
        &mut m,
        &ctx.work.join("disk-probe"),
        run.cache_dir.as_deref(),
    )?;
    http_overhead(ctx, &mut m)?;

    let path = ctx
        .work
        .join(format!("trace-{workload}-{}.jsonl", ctx.seed));
    traced
        .tracer
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(m)
}
