//! Seeded job generation and the in-process reference every response is
//! checked against.

use si_analog::engine::EngineWorkspace;
use si_service::jobspec::{JobOutput, JobSpec};
use si_service::service::{job_response_body, SiService};

/// splitmix64: a tiny deterministic generator, so the same seed always
/// yields the same jobs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The input current of job `k`, µA: it cycles over 16 fixed points
/// spread across `[lo, lo + 1)`, so every run covers the same range
/// whatever its seed, plus an offset below 1e-4 µA unique to the seed and
/// `k`, so no two jobs of a run share a job key.
fn distinct(seed: u64, k: usize, lo: f64) -> f64 {
    const POINTS: usize = 16;
    let salt = (Rng::new(seed).next_u64() % 1_000_000) as usize;
    lo + (k % POINTS) as f64 / POINTS as f64 + ((salt + k) % 10_000_000) as f64 * 1e-11
}

/// The stage counts `cold_solve` spans: 16 stays on the dense backend
/// (MNA dimension 16 is under the auto cutover of 32), 48 and 160 go
/// sparse.
pub const TOPOLOGIES: [usize; 3] = [16, 48, 160];

const TRAN_STEPS: usize = 400;

/// One cycle of the `cold_solve` mix, weighted so the dense and sparse
/// transients each take a large share of solve time.
const COLD_CYCLE: [ColdKind; 13] = [
    ColdKind::Tran(16),
    ColdKind::Tran(16),
    ColdKind::Tran(16),
    ColdKind::Tran(48),
    ColdKind::Tran(160),
    ColdKind::DcBatch,
    ColdKind::Tran(16),
    ColdKind::Tran(16),
    ColdKind::Ac,
    ColdKind::Tran(16),
    ColdKind::Sndr,
    ColdKind::Tran(48),
    ColdKind::Netlist,
];

/// Jobs after which the `cold_solve` mix repeats, topologies included.
pub const COLD_PERIOD: usize = COLD_CYCLE.len() * TOPOLOGIES.len();

#[derive(Clone, Copy)]
enum ColdKind {
    Tran(usize),
    DcBatch,
    Ac,
    Sndr,
    Netlist,
}

/// The `k`-th `cold_solve` job: every one distinct.
pub fn cold_spec(seed: u64, k: usize) -> JobSpec {
    cold_spec_from(seed, k, 0.5)
}

/// One job of each `cold_solve` kind, for warm-up: inputs from 3 µA, a
/// range the timed jobs (0.5 to 1.5 µA) never use.
pub fn cold_warmup(seed: u64) -> Vec<JobSpec> {
    (0..COLD_CYCLE.len())
        .map(|k| cold_spec_from(seed, k, 3.0))
        .collect()
}

fn cold_spec_from(seed: u64, k: usize, lo: f64) -> JobSpec {
    let input_ua = distinct(seed, k, lo);
    let stages = TOPOLOGIES[(k / COLD_CYCLE.len()) % TOPOLOGIES.len()];
    match COLD_CYCLE[k % COLD_CYCLE.len()] {
        ColdKind::Tran(stages) => tran_spec(stages, input_ua, TRAN_STEPS),
        ColdKind::DcBatch => JobSpec::DelayLineDcBatch {
            stages,
            bias_ua: 20.0,
            inputs_ua: (0..16).map(|i| input_ua + 0.1 * i as f64).collect(),
        },
        ColdKind::Ac => JobSpec::DelayLineAc {
            stages,
            bias_ua: 20.0,
            input_ua,
            f_lo_hz: 1e3,
            f_hi_hz: 1e9,
            points: 64,
        },
        ColdKind::Sndr => JobSpec::SndrSweep {
            // A distinct full scale per job keeps every sweep a cache miss.
            full_scale_ua: 6.0 + input_ua * 1e-3,
            levels_db: vec![-20.0, -10.0, -6.0],
        },
        ColdKind::Netlist => ladder_netlist(6, 19.0 + input_ua),
    }
}

pub fn tran_spec(stages: usize, input_ua: f64, steps: usize) -> JobSpec {
    JobSpec::DelayLineTran {
        stages,
        bias_ua: 20.0,
        input_ua,
        steps,
        dt_ns: 50.0,
        clock_hz: 1e6,
    }
}

/// A user-submitted netlist: a diode-connected NMOS ladder of `rungs`
/// rungs whose first bias current is `first_ua`.
pub fn ladder_netlist(rungs: usize, first_ua: f64) -> JobSpec {
    let mut text = String::from(".version 1\nV1 vdd 0 3.3\n");
    for s in 0..rungs {
        let ua = if s == 0 { first_ua } else { 20.0 };
        text.push_str(&format!("I{s} vdd d{s} {ua:.9}u\n"));
        text.push_str(&format!("M{s} d{s} d{s} 0 0 NMOS W_UM=10 L_UM=2\n"));
    }
    JobSpec::Netlist { netlist: text }
}

/// The `hot_serve` working set: generator jobs (served inline from
/// memory) and netlist jobs (parsed, then served from the cache).
pub fn hot_working_set(seed: u64) -> (Vec<JobSpec>, Vec<JobSpec>) {
    let mut gens = Vec::new();
    for k in 0..32 {
        let input_ua = distinct(seed, k, 0.5);
        gens.push(match k % 8 {
            0 | 1 => JobSpec::DelayLineDc {
                stages: [16, 48][k % 2],
                bias_ua: 20.0,
                input_ua,
            },
            2 | 3 => JobSpec::DelayLineAc {
                stages: 16,
                bias_ua: 20.0,
                input_ua,
                f_lo_hz: 1e3,
                f_hi_hz: 1e9,
                points: 256,
            },
            4 | 5 => JobSpec::DelayLineDcBatch {
                stages: 16,
                bias_ua: 20.0,
                inputs_ua: (0..16).map(|i| input_ua + 0.1 * i as f64).collect(),
            },
            _ => tran_spec(8, input_ua, 1000),
        });
    }
    let nets = (0..8)
        .map(|k| ladder_netlist(4, 19.0 + distinct(seed, k, 0.5)))
        .collect();
    (gens, nets)
}

/// The `k`-th distinct cheap miss of `hot_serve`.
pub fn hot_miss(seed: u64, k: usize) -> JobSpec {
    JobSpec::DelayLineDc {
        stages: 4,
        bias_ua: 20.0,
        input_ua: distinct(seed, k, 2.0),
    }
}

/// The `k`-th `stream_persist` job: a 64K-step streaming transient of a
/// 48-stage line, 16 chunks of 4096 steps, 4096-point Welch segments.
pub fn stream_spec(seed: u64, k: usize) -> JobSpec {
    JobSpec::TranStream {
        stages: 48,
        bias_ua: 20.0,
        input_ua: distinct(seed, k, 0.5),
        steps: 1 << 16,
        dt_ns: 50.0,
        clock_hz: 2e6,
        chunk_steps: 4096,
        seg_len: 4096,
    }
}

/// A short streaming job for warm-up: 2 chunks, at an input current the
/// timed jobs never use.
pub fn stream_warmup() -> JobSpec {
    JobSpec::TranStream {
        stages: 48,
        bias_ua: 20.0,
        input_ua: 3.0,
        steps: 8192,
        dt_ns: 50.0,
        clock_hz: 2e6,
        chunk_steps: 4096,
        seg_len: 4096,
    }
}

/// Stage count of the delay line a job solves, if it solves one.
pub fn stages_of(spec: &JobSpec) -> Option<usize> {
    match spec {
        JobSpec::DelayLineDc { stages, .. }
        | JobSpec::DelayLineTran { stages, .. }
        | JobSpec::DelayLineAc { stages, .. }
        | JobSpec::DelayLineDcBatch { stages, .. }
        | JobSpec::TranStream { stages, .. } => Some(*stages),
        _ => None,
    }
}

pub fn body(spec: &JobSpec) -> String {
    spec.to_json().to_string_compact()
}

/// The exact response body `si_serve` must send for `spec`.
pub fn expected_body(spec: &JobSpec, out: &JobOutput, cached: bool) -> String {
    job_response_body(&SiService::job_id(spec), spec.kind(), cached, out).to_string_compact()
}

/// In-process reference outputs, computed on `threads` threads with one
/// workspace each.
pub fn references(specs: &[JobSpec], threads: usize) -> Vec<Result<JobOutput, String>> {
    let mut out: Vec<Option<Result<JobOutput, String>>> = vec![None; specs.len()];
    let chunk = specs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (specs, slots) in specs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                let mut ws = EngineWorkspace::new();
                for (spec, slot) in specs.iter().zip(slots) {
                    *slot = Some(spec.run(&mut ws).map_err(|e| e.to_string()));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot is filled"))
        .collect()
}

/// The peak SINAD an ideal second-order modulator reaches: EXPERIMENTS.md
/// E7 records 83.3 dB measured (64K record) against 94.2 dB theory; the
/// service's 16K quick record may read a few dB lower.
const SNDR_PEAK_DB: (f64, f64) = (75.0, 94.2);

/// Range checks on a reference output beyond bit identity.
pub fn sanity(spec: &JobSpec, out: &JobOutput) -> Result<(), String> {
    if let JobSpec::SndrSweep { .. } = spec {
        let peak = out
            .metrics
            .iter()
            .find(|(k, _)| k == "peak_sinad_db")
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        if !(peak >= SNDR_PEAK_DB.0 && peak <= SNDR_PEAK_DB.1) {
            return Err(format!(
                "sndr_sweep peak SINAD {peak:.2} dB outside [{}, {}] dB",
                SNDR_PEAK_DB.0, SNDR_PEAK_DB.1
            ));
        }
    }
    Ok(())
}
