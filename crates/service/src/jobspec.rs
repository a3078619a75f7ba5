//! Job specifications: what a client asks the service to simulate.
//!
//! A [`JobSpec`] is a *value* — plain numbers, no handles — so two
//! requests describing the same simulation are equal and hash to the same
//! [`JobSpec::job_key`]. The key is the content address of the result:
//! it folds the built circuit's structure fingerprint (MNA sparsity) and
//! value fingerprint (element values, waveforms) together with the
//! analysis parameters through the same process-stable FNV-1a used by
//! [`si_analog::netlist::Circuit::structure_fingerprint`], so identical
//! jobs coalesce across clients and runs while a one-ULP change to any
//! parameter yields a different key.

use si_analog::ac::{AcAnalysis, AcProbe, AcStimulus};
use si_analog::cells::{DelayLine, DelayLineDesign};
use si_analog::dc::{set_current_source, DcSolver};
use si_analog::device::switch::TwoPhaseClock;
use si_analog::engine::{BatchRun, EngineWorkspace};
use si_analog::mna::Solution;
use si_analog::netlist::Circuit;
use si_analog::parse::parse_netlist_canonical;
use si_analog::tran::{self, TranParams};
use si_analog::units::{Amps, Farads, Seconds, Volts};
use si_analog::AnalogError;
use si_dsp::welch::WelchAccumulator;
use si_dsp::window::Window;
use si_modulator::arch::SecondOrderTopology;
use si_modulator::ideal::IdealModulator;
use si_modulator::measure::MeasurementConfig;
use si_modulator::sweep::sndr_sweep;

use crate::budget::{price_circuit, CircuitCost};
use crate::error::ServiceError;
use crate::json::Json;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a hasher matching the netlist fingerprint constants.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Mixes a `u64` byte by byte (little-endian).
    pub fn mix_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes a float through its bit pattern, so `-0.0 ≠ 0.0` and every
    /// ULP counts — exactly the value-fingerprint convention.
    pub fn mix_f64(&mut self, v: f64) {
        self.mix_u64(v.to_bits());
    }

    /// Mixes raw bytes, one at a time — plain FNV-1a over a byte string.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The analyses the service can run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobSpec {
    /// DC operating point of an N-stage SI delay line with a given input
    /// current.
    DelayLineDc {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// Input current, µA.
        input_ua: f64,
    },
    /// Clocked transient of the delay line.
    DelayLineTran {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// Input current, µA.
        input_ua: f64,
        /// Number of fixed time steps.
        steps: usize,
        /// Step size, ns.
        dt_ns: f64,
        /// Switch clock frequency, Hz.
        clock_hz: f64,
    },
    /// Small-signal transimpedance of the delay line input stage over a
    /// log frequency grid.
    DelayLineAc {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// Input current (bias point), µA.
        input_ua: f64,
        /// Grid start, Hz.
        f_lo_hz: f64,
        /// Grid stop, Hz.
        f_hi_hz: f64,
        /// Number of log-spaced points.
        points: usize,
    },
    /// SNDR-vs-level sweep of the ideal second-order ΔΣ modulator.
    SndrSweep {
        /// Full-scale input current, µA.
        full_scale_ua: f64,
        /// Input levels, dB relative to full scale.
        levels_db: Vec<f64>,
    },
    /// Batched DC operating points of one delay-line topology: N input
    /// currents solved as one job through a [`si_analog::engine::BatchRun`],
    /// sharing a single symbolic factorization and warm-starting each
    /// scenario from its nearest-input converged neighbour. One submission,
    /// one job key, one admission decision; per-scenario results come back
    /// concatenated in [`JobOutput::values`] (scenario-major,
    /// `values_per_scenario` voltages each).
    DelayLineDcBatch {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// One input current per scenario, µA.
        inputs_ua: Vec<f64>,
    },
    /// DC operating point of a *user-submitted* circuit, given as netlist
    /// dialect v1 text ([`si_analog::parse`]).
    ///
    /// The text is parsed **canonically**
    /// ([`parse_netlist_canonical`]): cards are sorted into a
    /// deterministic order first, so two netlists differing only in
    /// comments, whitespace, or card order build literally the same
    /// [`si_analog::netlist::Circuit`] — same job key, same cache slot,
    /// and (because the executed circuit is the canonical one) the exact
    /// same solve. Submissions that fail the strict parse are rejected
    /// with [`ServiceError::NetlistRejected`] (`422`); circuit size is
    /// priced against the service's
    /// [`AdmissionBudget`](crate::budget::AdmissionBudget) before any
    /// factorization runs (`413`).
    Netlist {
        /// Netlist dialect-v1 source text.
        netlist: String,
    },
    /// Streaming clocked transient of the delay line: executed in
    /// fixed-size chunks whose output-stage samples feed an incremental
    /// Welch estimator ([`si_dsp::welch::WelchAccumulator`], Hann
    /// window). The job's value vector is the final averaged spectrum
    /// (bin powers), not the waveform, and the service checkpoints the
    /// end-of-chunk state so a mid-run crash resumes from the last
    /// chunk boundary instead of rerunning — bit-identical either way.
    TranStream {
        /// Number of memory stages.
        stages: usize,
        /// Per-stage bias current, µA.
        bias_ua: f64,
        /// Input current, µA.
        input_ua: f64,
        /// Number of fixed time steps (the waveform has `steps + 1`
        /// samples including `t = 0`).
        steps: usize,
        /// Step size, ns.
        dt_ns: f64,
        /// Switch clock frequency, Hz.
        clock_hz: f64,
        /// Steps per chunk; checkpoints land at chunk boundaries.
        chunk_steps: usize,
        /// Welch segment length (a power of two).
        seg_len: usize,
    },
}

/// The computed result of a job: a value vector (what was solved) and a
/// list of named scalar metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Raw solved values — node voltages, |H(f)|, or per-level SINAD,
    /// depending on the job kind. Bit-exact across identical runs.
    pub values: Vec<f64>,
    /// Named summary metrics, in a stable order.
    pub metrics: Vec<(String, f64)>,
}

impl JobSpec {
    /// Validates ranges that the constructors of the underlying analyses
    /// would reject anyway, but with a service-level error message that
    /// maps to HTTP 400 instead of 422. Every float field must also be
    /// finite.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServiceError> {
        let schema = self.schema();
        schema.fields.iter().try_for_each(check)?;
        if let Source::Netlist(netlist) = schema.source {
            // The strict parse *is* the validation: any malformed
            // card, bad value, or unbuildable circuit comes back as a
            // typed line/column error. Unlike the canned kinds, this
            // maps to NetlistRejected (HTTP 422), not InvalidSpec —
            // the request shape was fine, the circuit was not.
            let circuit = parse_netlist_canonical(netlist)
                .map_err(|e| ServiceError::NetlistRejected(e.to_string()))?;
            if circuit.elements().is_empty() {
                return Err(ServiceError::NetlistRejected(
                    "netlist defines no elements".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// What this spec will cost to solve, priced *before* any
    /// factorization or Newton iteration: `Some` for user-submitted
    /// netlists (a parse plus a sparsity-pattern walk), `None` for the
    /// canned kinds whose size is already bounded by [`JobSpec::validate`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::NetlistRejected`] when the netlist does not parse.
    pub fn admission_cost(&self) -> Result<Option<CircuitCost>, ServiceError> {
        match self {
            JobSpec::Netlist { netlist } => {
                let circuit = parse_netlist_canonical(netlist)
                    .map_err(|e| ServiceError::NetlistRejected(e.to_string()))?;
                Ok(Some(price_circuit(&circuit)))
            }
            _ => Ok(None),
        }
    }

    /// The job's content address: identical specs — and only identical
    /// specs — share a key.
    ///
    /// For circuit-backed jobs the key folds the built circuit's
    /// structure *and* value fingerprints, so it inherits their
    /// guarantees: retuning one element value moves the key, renaming a
    /// node does not. Analysis parameters that are not part of the
    /// netlist (step counts, frequency grids, deadlines excluded) are
    /// mixed in afterwards, in wire order.
    #[must_use]
    pub fn job_key(&self) -> u64 {
        let schema = self.schema();
        let (circuit_fields, analysis) = schema.fields.split_at(schema.circuit_len);
        let mut h = Fnv1a::new();
        h.mix_u64(schema.tag);
        // The canonical parse makes a netlist key text-representation
        // independent: permuting cards or editing comments lands in the
        // same cache slot, and run() executes the same canonical circuit,
        // so sharing the slot is sound.
        match schema.source.circuit() {
            Ok(Some(circuit)) => {
                h.mix_u64(circuit.structure_fingerprint());
                h.mix_u64(circuit.value_fingerprint());
            }
            Ok(None) => {}
            // Invalid specs still need a stable (never-cached) key.
            Err(()) => circuit_fields.iter().for_each(|f| f.1.mix(&mut h)),
        }
        analysis.iter().for_each(|f| f.1.mix(&mut h));
        h.finish()
    }

    /// The disk-tier key a streaming job's checkpoint lives under:
    /// derived from the job key through a tagged FNV-1a, so it can never
    /// collide with any result key (those hash spec contents, this
    /// hashes a tag plus the finished result key).
    #[must_use]
    pub fn checkpoint_key(job_key: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.mix_bytes(b"tran-stream-checkpoint");
        h.mix_u64(job_key);
        h.finish()
    }

    /// The job's *topology* address: specs that share a circuit structure
    /// — and only those — share this fingerprint, regardless of element
    /// values or analysis parameters.
    ///
    /// This is the sharding key for the `si-router` ring: every job over
    /// the same topology lands on the same replica, so that replica's
    /// symbolic-factorization cache (one factorization per structure)
    /// specializes for its slice of the circuit families. Netlist jobs
    /// hash the canonical-parse structure fingerprint, so a netlist twin
    /// of a generator-built delay line keys to the same structure as any
    /// other netlist with that topology, independent of the text
    /// representation.
    ///
    /// Invalid specs (unbuildable lines, unparsable netlists) still get a
    /// stable fingerprint from their raw parameters so the router can
    /// place them deterministically; they never reach a solver cache. A
    /// sweep has no circuit behind it; all sweeps share one "structure".
    #[must_use]
    pub fn structure_fingerprint(&self) -> u64 {
        let schema = self.schema();
        let mut h = Fnv1a::new();
        match schema.source.circuit() {
            // Generator-built circuits are fingerprinted through the same
            // canonical netlist round trip as user submissions: emit the
            // circuit, re-parse it canonically, fingerprint that. Without
            // the round trip the generator's element order would hash
            // differently from the canonical card order, and a netlist
            // twin would land on a different shard than its generator job.
            Ok(Some(circuit)) if matches!(schema.source, Source::Line(..)) => h.mix_u64(
                si_analog::parse::to_netlist(&circuit)
                    .ok()
                    .and_then(|text| parse_netlist_canonical(&text).ok())
                    .unwrap_or(circuit)
                    .structure_fingerprint(),
            ),
            Ok(Some(circuit)) => h.mix_u64(circuit.structure_fingerprint()),
            // No circuit: the kind tag, then the field that fixes the
            // topology (a line's stage count, a netlist's text).
            Ok(None) | Err(()) => {
                h.mix_u64(schema.tag);
                if schema.circuit_len > 0 {
                    schema.fields[0].1.mix(&mut h);
                }
            }
        }
        h.finish()
    }

    /// The kind's wire description: its tags, the circuit it solves and
    /// every wire field in wire order with the rule the field obeys. This
    /// is the one per-kind table the wire codec, the job key, the
    /// structure fingerprint and [`JobSpec::validate`] all walk.
    fn schema(&self) -> Schema<'_> {
        match self {
            JobSpec::DelayLineDc {
                stages,
                bias_ua,
                input_ua,
            } => {
                let source = Source::Line(*stages, *bias_ua, Some(*input_ua));
                Schema::new("delay_line_dc", 1, source, [])
            }
            JobSpec::DelayLineTran {
                stages,
                bias_ua,
                input_ua,
                steps,
                dt_ns,
                clock_hz,
            } => {
                let source = Source::Line(*stages, *bias_ua, Some(*input_ua));
                let tran = tran_fields(*steps, *dt_ns, *clock_hz, 100_000);
                Schema::new("delay_line_tran", 2, source, tran)
            }
            JobSpec::DelayLineAc {
                stages,
                bias_ua,
                input_ua,
                f_lo_hz,
                f_hi_hz,
                points,
            } => {
                let f_rule = Cross(
                    *f_lo_hz > 0.0 && *f_hi_hz > *f_lo_hz,
                    "need 0 < f_lo_hz < f_hi_hz",
                );
                let source = Source::Line(*stages, *bias_ua, Some(*input_ua));
                let analysis = [
                    ("f_lo_hz", Num(*f_lo_hz), f_rule),
                    ("f_hi_hz", Num(*f_hi_hz), Any),
                    ("points", Int(*points), Range(2, 10_000)),
                ];
                Schema::new("delay_line_ac", 3, source, analysis)
            }
            JobSpec::SndrSweep {
                full_scale_ua,
                levels_db,
            } => {
                let analysis = [
                    ("full_scale_ua", Num(*full_scale_ua), Positive),
                    ("levels_db", Nums(levels_db), Range(2, 256)),
                ];
                Schema::new("sndr_sweep", 4, Source::None, analysis)
            }
            JobSpec::DelayLineDcBatch {
                stages,
                bias_ua,
                inputs_ua,
            } => {
                let source = Source::Line(*stages, *bias_ua, None);
                let inputs = ("inputs_ua", Nums(inputs_ua), Range(1, 1024));
                Schema::new("delay_line_dc_batch", 5, source, [inputs])
            }
            JobSpec::Netlist { netlist } => Schema::new("netlist", 6, Source::Netlist(netlist), []),
            JobSpec::TranStream {
                stages,
                bias_ua,
                input_ua,
                steps,
                dt_ns,
                clock_hz,
                chunk_steps,
                seg_len,
            } => {
                let chunk_rule = Cross(
                    (1..=*steps).contains(chunk_steps),
                    "chunk_steps must be in 1..=steps",
                );
                let seg_rule = if !(2..=65_536).contains(seg_len) || !seg_len.is_power_of_two() {
                    Cross(false, "seg_len must be a power of two in 2..=65536")
                } else {
                    Cross(
                        *seg_len <= steps.saturating_add(1),
                        "seg_len must not exceed steps + 1 (no complete segment would fit)",
                    )
                };
                let source = Source::Line(*stages, *bias_ua, Some(*input_ua));
                // Streaming exists for runs too long for one deadline, so
                // the step cap is far above delay_line_tran's.
                let tran = tran_fields(*steps, *dt_ns, *clock_hz, 1_048_576);
                let analysis = tran.into_iter().chain([
                    ("chunk_steps", Int(*chunk_steps), chunk_rule),
                    ("seg_len", Int(*seg_len), seg_rule),
                ]);
                Schema::new("tran_stream", 7, source, analysis)
            }
        }
    }

    /// The kind tag used on the wire.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.schema().kind
    }

    /// Whether this spec runs as a streaming job: chunked execution,
    /// per-chunk checkpoints, resumable after a crash.
    #[must_use]
    pub fn is_stream(&self) -> bool {
        matches!(self, JobSpec::TranStream { .. })
    }

    /// Total chunk count of a streaming spec (`None` for every other
    /// kind): `ceil(steps / chunk_steps)`.
    #[must_use]
    pub fn stream_chunk_count(&self) -> Option<usize> {
        match self {
            JobSpec::TranStream {
                steps, chunk_steps, ..
            } => Some(steps.div_ceil(*chunk_steps)),
            _ => None,
        }
    }

    /// Number of scenarios this spec fans out to: 1 for every single-shot
    /// analysis, the input count for a batch. Admission control prices a
    /// batch as one job; `/metrics` counts its scenarios through this.
    #[must_use]
    pub fn scenario_count(&self) -> usize {
        match self {
            JobSpec::DelayLineDcBatch { inputs_ua, .. } => inputs_ua.len(),
            _ => 1,
        }
    }

    /// Parses a spec from the `POST /v1/jobs` request body.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] for unknown kinds, missing fields, or
    /// out-of-range values (via [`JobSpec::validate`]).
    pub fn from_json(v: &Json) -> Result<JobSpec, ServiceError> {
        let invalid = ServiceError::InvalidSpec;
        let missing = |what: &str, key: &str| invalid(format!("missing {what} \"{key}\""));
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("missing \"kind\"".to_string()))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| missing("numeric", key))
        };
        let int = |key: &str| -> Result<usize, ServiceError> {
            let n = num(key)?;
            if n < 0.0 || n.fract() != 0.0 || n > 9e15 {
                return Err(invalid(format!("\"{key}\" must be a non-negative integer")));
            }
            Ok(n as usize)
        };
        let nums = |key: &str| -> Result<Vec<f64>, ServiceError> {
            let entries = v.get(key).and_then(Json::as_array);
            let not_number = || invalid(format!("{key} entries must be numbers"));
            let entries = entries.ok_or_else(|| missing("array", key))?.iter();
            entries.map(|e| e.as_f64().ok_or_else(not_number)).collect()
        };
        let text = |key: &str| {
            let text = v.get(key).and_then(Json::as_str);
            text.map(str::to_string)
                .ok_or_else(|| missing("string", key))
        };
        // The delay-line prefix: `stages`, `bias_ua` and — unless the kind
        // is a batch, whose inputs are an analysis array — `input_ua`.
        let line = |with_input: bool| -> Result<(usize, f64, f64), ServiceError> {
            let (stages, bias_ua) = (int("stages")?, num("bias_ua")?);
            let input_ua = if with_input { num("input_ua")? } else { 0.0 };
            Ok((stages, bias_ua, input_ua))
        };
        let tran = || Ok::<_, ServiceError>((int("steps")?, num("dt_ns")?, num("clock_hz")?));
        let spec = match kind {
            "delay_line_dc" => {
                let (stages, bias_ua, input_ua) = line(true)?;
                JobSpec::DelayLineDc {
                    stages,
                    bias_ua,
                    input_ua,
                }
            }
            "delay_line_tran" => {
                let (stages, bias_ua, input_ua) = line(true)?;
                let (steps, dt_ns, clock_hz) = tran()?;
                JobSpec::DelayLineTran {
                    stages,
                    bias_ua,
                    input_ua,
                    steps,
                    dt_ns,
                    clock_hz,
                }
            }
            "delay_line_ac" => {
                let (stages, bias_ua, input_ua) = line(true)?;
                JobSpec::DelayLineAc {
                    stages,
                    bias_ua,
                    input_ua,
                    f_lo_hz: num("f_lo_hz")?,
                    f_hi_hz: num("f_hi_hz")?,
                    points: int("points")?,
                }
            }
            "sndr_sweep" => {
                let levels_db = nums("levels_db")?;
                JobSpec::SndrSweep {
                    full_scale_ua: num("full_scale_ua")?,
                    levels_db,
                }
            }
            "delay_line_dc_batch" => {
                let inputs_ua = nums("inputs_ua")?;
                let (stages, bias_ua, _) = line(false)?;
                JobSpec::DelayLineDcBatch {
                    stages,
                    bias_ua,
                    inputs_ua,
                }
            }
            "netlist" => JobSpec::Netlist {
                netlist: text("netlist")?,
            },
            "tran_stream" => {
                let (stages, bias_ua, input_ua) = line(true)?;
                let (steps, dt_ns, clock_hz) = tran()?;
                JobSpec::TranStream {
                    stages,
                    bias_ua,
                    input_ua,
                    steps,
                    dt_ns,
                    clock_hz,
                    chunk_steps: int("chunk_steps")?,
                    seg_len: int("seg_len")?,
                }
            }
            other => return Err(invalid(format!("unknown kind {other:?}"))),
        };
        // Canned kinds are validated eagerly so a bad wire document is a
        // `400` before it ever reaches the service. Netlist specs are NOT:
        // the admission gauntlet in `submit_once` must see the raw text
        // first — the byte cap has to refuse oversized text *before* any
        // parse, and the netlist telemetry counters live behind it.
        if !matches!(spec, JobSpec::Netlist { .. }) {
            spec.validate()?;
        }
        Ok(spec)
    }

    /// Serializes the spec back to its wire form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let schema = self.schema();
        let kind = ("kind".to_string(), Json::String(schema.kind.to_string()));
        let fields = schema
            .fields
            .iter()
            .map(|(name, value, _)| (name.to_string(), value.to_json()));
        Json::Object(std::iter::once(kind).chain(fields).collect())
    }

    /// Executes the job on the given workspace. Deterministic: identical
    /// specs produce bit-identical [`JobOutput`]s regardless of which
    /// worker (or how warm a workspace) runs them — the property the
    /// content-addressed cache relies on.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] for specs that fail validation,
    /// [`ServiceError::Analysis`] for solver failures.
    pub fn run(&self, ws: &mut EngineWorkspace) -> Result<JobOutput, ServiceError> {
        self.run_with_hook(ws, None)
    }

    /// [`JobSpec::run`] with an optional per-scenario hook, invoked with
    /// the scenario index just before each scenario of a batch job solves,
    /// or the chunk index just before each chunk of a streaming job
    /// (other single-shot jobs never call it). The worker pool threads its
    /// fault injector through here so chaos tests can kill a worker
    /// *mid-batch* or *mid-chunk* and prove partial results are never
    /// cached. The hook observes or panics; it cannot alter results.
    ///
    /// # Errors
    ///
    /// Same as [`JobSpec::run`].
    pub fn run_with_hook(
        &self,
        ws: &mut EngineWorkspace,
        mut scenario_hook: Option<&mut dyn FnMut(usize)>,
    ) -> Result<JobOutput, ServiceError> {
        self.validate()?;
        match self {
            JobSpec::DelayLineDc {
                stages,
                bias_ua,
                input_ua,
            } => {
                let line = build_line(*stages, *bias_ua, *input_ua).map_err(analysis_error)?;
                let sol = DcSolver::new()
                    .with_initial_guess(line.initial_guess.clone())
                    .solve_with(&line.circuit, ws)
                    .map_err(analysis_error)?;
                let values: Vec<f64> = line.stage_nodes.iter().map(|&n| sol.voltage(n).0).collect();
                let v_in = values.first().copied().unwrap_or(0.0);
                let v_out = values.last().copied().unwrap_or(0.0);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("v_in".to_string(), v_in),
                        ("v_out".to_string(), v_out),
                        (
                            "mna_dimension".to_string(),
                            line.circuit.mna_dimension() as f64,
                        ),
                    ],
                })
            }
            JobSpec::DelayLineTran {
                stages,
                bias_ua,
                input_ua,
                steps,
                dt_ns,
                clock_hz,
            } => {
                let (line, params) =
                    build_tran(*stages, *bias_ua, *input_ua, *steps, *dt_ns, *clock_hz)
                        .map_err(analysis_error)?;
                let op =
                    tran::initial_condition(&line.circuit, &params, ws).map_err(analysis_error)?;
                let (result, _) = tran::run_chunk_with(&line.circuit, &params, 0, *steps, &op, ws)
                    .map_err(analysis_error)?;
                // The output stage's full waveform is the cached value
                // vector; summary metrics describe the run size.
                let last = *line.stage_nodes.last().expect("stages >= 1");
                let values = result.voltage_waveform(last);
                let final_v = values.last().copied().unwrap_or(0.0);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("steps".to_string(), result.len() as f64),
                        ("final_v_out".to_string(), final_v),
                    ],
                })
            }
            JobSpec::DelayLineAc {
                stages,
                bias_ua,
                input_ua,
                f_lo_hz,
                f_hi_hz,
                points,
            } => {
                let line = build_line(*stages, *bias_ua, *input_ua).map_err(analysis_error)?;
                let op = DcSolver::new()
                    .with_initial_guess(line.initial_guess.clone())
                    .solve_with(&line.circuit, ws)
                    .map_err(analysis_error)?;
                let freqs = si_analog::ac::log_frequencies(*f_lo_hz, *f_hi_hz, *points)
                    .map_err(analysis_error)?;
                let resp = AcAnalysis::default()
                    .response_with(
                        &line.circuit,
                        &op,
                        &AcStimulus::CurrentInto(line.input),
                        &AcProbe::NodeVoltage(line.input),
                        &freqs,
                        ws,
                    )
                    .map_err(analysis_error)?;
                let values: Vec<f64> = resp.iter().map(|c| c.abs()).collect();
                let dc_gain = values.first().copied().unwrap_or(0.0);
                let bw = si_analog::ac::bandwidth_3db(&freqs, &resp).unwrap_or(f64::NAN);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("transimpedance_dc_ohm".to_string(), dc_gain),
                        ("bandwidth_3db_hz".to_string(), bw),
                    ],
                })
            }
            JobSpec::SndrSweep {
                full_scale_ua,
                levels_db,
            } => {
                let full_scale = full_scale_ua * 1e-6;
                let config = MeasurementConfig::quick();
                let sweep = sndr_sweep(
                    || IdealModulator::new(SecondOrderTopology::default(), full_scale),
                    levels_db,
                    &config,
                )
                .map_err(|e| ServiceError::Analysis(e.to_string()))?;
                let values: Vec<f64> = sweep.points.iter().map(|p| p.sinad_db).collect();
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("dynamic_range_db".to_string(), sweep.dynamic_range_db),
                        ("peak_sinad_db".to_string(), sweep.peak_sinad_db()),
                    ],
                })
            }
            JobSpec::DelayLineDcBatch {
                stages,
                bias_ua,
                inputs_ua,
            } => {
                // One topology for every scenario: build at zero input and
                // let BatchRun retune the source per scenario, so the whole
                // batch shares one symbolic factorization and each Newton
                // loop warm-starts from the nearest input current.
                let line = build_line(*stages, *bias_ua, 0.0).map_err(analysis_error)?;
                let solver = DcSolver::new();
                let sols = BatchRun::new(inputs_ua.len())
                    .with_keys(inputs_ua.clone())
                    .with_cold_start(line.initial_guess.clone())
                    .run_with(
                        &line.circuit,
                        ws,
                        |ckt, i| {
                            if let Some(hook) = scenario_hook.as_deref_mut() {
                                hook(i);
                            }
                            set_current_source(ckt, &line.input_source, Amps(inputs_ua[i] * 1e-6))
                        },
                        |ckt, start, ws| solver.solve_from_with(ckt, start, ws),
                    )
                    .map_err(analysis_error)?;
                let per_scenario = line.stage_nodes.len();
                let mut values = Vec::with_capacity(sols.len() * per_scenario);
                for sol in &sols {
                    values.extend(line.stage_nodes.iter().map(|&n| sol.voltage(n).0));
                }
                let v_out_first = values.get(per_scenario - 1).copied().unwrap_or(0.0);
                let v_out_last = values.last().copied().unwrap_or(0.0);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("scenarios".to_string(), sols.len() as f64),
                        ("values_per_scenario".to_string(), per_scenario as f64),
                        ("v_out_first_scenario".to_string(), v_out_first),
                        ("v_out_last_scenario".to_string(), v_out_last),
                        (
                            "mna_dimension".to_string(),
                            line.circuit.mna_dimension() as f64,
                        ),
                    ],
                })
            }
            JobSpec::Netlist { netlist } => {
                // User circuits never get the Transient (retryable)
                // mapping: a netlist that exhausts the Newton budget would
                // exhaust it again on every retry, and the retry loop is
                // not a resource a submission should be able to spend.
                // Every failure is a permanent, typed 4xx.
                let circuit = parse_netlist_canonical(netlist)
                    .map_err(|e| ServiceError::NetlistRejected(e.to_string()))?;
                let sol = DcSolver::new()
                    .solve_with(&circuit, ws)
                    .map_err(|e| ServiceError::Analysis(e.to_string()))?;
                // All non-ground node voltages, in node-intern order — the
                // canonical parse makes that order deterministic for every
                // text variant of the same circuit.
                let values: Vec<f64> = sol.node_voltages().split_off(1);
                let v_min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let v_max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                Ok(JobOutput {
                    values,
                    metrics: vec![
                        ("nodes".to_string(), circuit.node_count() as f64),
                        ("devices".to_string(), circuit.elements().len() as f64),
                        ("mna_dimension".to_string(), circuit.mna_dimension() as f64),
                        ("v_min".to_string(), v_min),
                        ("v_max".to_string(), v_max),
                    ],
                })
            }
            JobSpec::TranStream { .. } => {
                // The uninterrupted path runs the exact same chunked
                // executor the service uses, minus persistence — which is
                // what makes a resumed run bit-identical to this one.
                let mut state = self.stream_start(ws)?;
                while state.chunks_done() < state.chunks_total() {
                    if let Some(hook) = scenario_hook.as_deref_mut() {
                        hook(state.chunks_done());
                    }
                    self.stream_advance(&mut state, ws)?;
                }
                self.stream_finish(&state)
            }
        }
    }

    /// Sets up a streaming run: builds the circuit, solves the DC initial
    /// condition, and arms a fresh Welch accumulator. Chunk 0 has not run
    /// yet.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Internal`] for non-streaming specs, plus
    /// validation and DC-solve errors.
    pub(crate) fn stream_start(
        &self,
        ws: &mut EngineWorkspace,
    ) -> Result<StreamState, ServiceError> {
        self.validate()?;
        let (built, steps, chunk_steps, seg_len) = self
            .stream_parts()
            .ok_or_else(|| ServiceError::Internal("stream_start on a non-streaming spec".into()))?;
        let (line, params) = built.map_err(analysis_error)?;
        let solution =
            tran::initial_condition(&line.circuit, &params, ws).map_err(analysis_error)?;
        let acc = WelchAccumulator::new(seg_len, STREAM_WINDOW)
            .map_err(|e| ServiceError::InvalidSpec(e.to_string()))?;
        Ok(StreamState {
            line,
            params,
            steps,
            chunk_steps,
            solution,
            acc,
            chunks_done: 0,
        })
    }

    /// Rebuilds a streaming run's state from a persisted checkpoint.
    /// Returns `None` — *rerun from scratch*, never a wrong answer — when
    /// the checkpoint does not match this spec: wrong version, wrong job
    /// key, wrong chunking or Welch geometry, or inconsistent lengths.
    pub(crate) fn stream_resume(&self, checkpoint: &JobOutput) -> Option<StreamState> {
        let (built, steps, chunk_steps, seg_len) = self.stream_parts()?;
        let int = |name: &str| {
            let (_, v) = checkpoint.metrics.iter().find(|(k, _)| k == name)?;
            (v.fract() == 0.0 && *v >= 0.0 && *v < 9e15).then_some(*v as u64)
        };
        if int("ckpt_version")? != CHECKPOINT_VERSION {
            return None;
        }
        let key = self.job_key();
        if int("key_hi")? != key >> 32 || int("key_lo")? != key & 0xffff_ffff {
            return None;
        }
        let chunks_total = steps.div_ceil(chunk_steps) as u64;
        if int("chunks_total")? != chunks_total {
            return None;
        }
        let chunks_done = int("chunks_done")? as usize;
        if chunks_done == 0 || chunks_done as u64 > chunks_total {
            return None;
        }
        if int("seg_len")? != seg_len as u64 {
            return None;
        }
        let state_len = int("state_len")? as usize;
        let segments = int("welch_segments")? as usize;
        let tail_len = int("welch_tail_len")? as usize;
        let sum_len = seg_len / 2 + 1;
        if checkpoint.values.len() != state_len + sum_len + tail_len {
            return None;
        }

        let (line, params) = built.ok()?;
        if state_len != line.circuit.mna_dimension() {
            return None;
        }

        let solution = Solution::new(
            checkpoint.values[..state_len].to_vec(),
            line.circuit.node_count(),
        );
        let sum = checkpoint.values[state_len..state_len + sum_len].to_vec();
        let tail = checkpoint.values[state_len + sum_len..].to_vec();
        let acc = WelchAccumulator::resume(seg_len, STREAM_WINDOW, tail, sum, segments).ok()?;
        Some(StreamState {
            line,
            params,
            steps,
            chunk_steps,
            solution,
            acc,
            chunks_done,
        })
    }

    /// The one unpacking of a `tran_stream` spec, shared by
    /// `stream_start` and `stream_resume`: its delay line and transient
    /// parameters, built, then `steps`, `chunk_steps` and `seg_len`.
    /// `None` for every other kind.
    fn stream_parts(&self) -> Option<(Result<Transient, AnalogError>, usize, usize, usize)> {
        let JobSpec::TranStream {
            stages,
            bias_ua,
            input_ua,
            steps,
            dt_ns,
            clock_hz,
            chunk_steps,
            seg_len,
        } = self
        else {
            return None;
        };
        let built = build_tran(*stages, *bias_ua, *input_ua, *steps, *dt_ns, *clock_hz);
        Some((built, *steps, *chunk_steps, *seg_len))
    }

    /// Advances a streaming run by one chunk: solves the next
    /// `chunk_steps` steps (fewer for the final chunk), feeds the
    /// output-stage samples to the Welch accumulator, and stores the
    /// end-of-chunk solution for the next chunk or checkpoint.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Internal`] when the run is already complete, plus
    /// solver errors (Newton budget exhaustion maps to the retryable
    /// [`ServiceError::Transient`]).
    pub(crate) fn stream_advance(
        &self,
        state: &mut StreamState,
        ws: &mut EngineWorkspace,
    ) -> Result<(), ServiceError> {
        let start_step = state.chunks_done * state.chunk_steps;
        if start_step >= state.steps {
            return Err(ServiceError::Internal(
                "stream_advance past the final chunk".to_string(),
            ));
        }
        let this_chunk = state.chunk_steps.min(state.steps - start_step);
        let (part, next) = tran::run_chunk_with(
            &state.line.circuit,
            &state.params,
            start_step,
            this_chunk,
            &state.solution,
            ws,
        )
        .map_err(analysis_error)?;
        let out_node = *state.line.stage_nodes.last().expect("stages >= 1");
        state
            .acc
            .push(&part.voltage_waveform(out_node))
            .map_err(|e| ServiceError::Analysis(e.to_string()))?;
        state.solution = next;
        state.chunks_done += 1;
        Ok(())
    }

    /// Finishes a streaming run: averages the accumulated periodograms
    /// into the job's output spectrum.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Analysis`] if no complete Welch segment was
    /// consumed (ruled out for valid specs by `seg_len ≤ steps + 1`).
    pub(crate) fn stream_finish(&self, state: &StreamState) -> Result<JobOutput, ServiceError> {
        let spectrum = state
            .acc
            .finish()
            .map_err(|e| ServiceError::Analysis(e.to_string()))?;
        let out_node = *state.line.stage_nodes.last().expect("stages >= 1");
        let final_v = state.solution.voltage(out_node).0;
        Ok(JobOutput {
            values: spectrum.powers().to_vec(),
            metrics: vec![
                ("steps".to_string(), state.steps as f64),
                ("chunks".to_string(), state.chunks_total() as f64),
                ("seg_len".to_string(), state.acc.seg_len() as f64),
                ("segments".to_string(), state.acc.segments() as f64),
                ("final_v_out".to_string(), final_v),
            ],
        })
    }
}

/// Version tag written into every streaming checkpoint; bump when the
/// layout changes so stale checkpoints are rerun, not misread.
const CHECKPOINT_VERSION: u64 = 1;

/// The window every streaming spectrum uses.
const STREAM_WINDOW: Window = Window::Hann;

/// Newton budget exhaustion is the one analog failure a retry can
/// plausibly clear (warmer workspace, different gmin path), so it gets
/// the retryable variant; everything else is permanent.
fn analysis_error(e: AnalogError) -> ServiceError {
    match &e {
        AnalogError::NoConvergence { .. } => ServiceError::Transient(e.to_string()),
        _ => ServiceError::Analysis(e.to_string()),
    }
}

/// One kind's wire description, built by [`JobSpec::schema`].
struct Schema<'a> {
    /// The wire kind tag.
    kind: &'static str,
    /// The kind's number, mixed first into its job key and into a
    /// structure fingerprint that has no circuit to hash.
    tag: u64,
    source: Source<'a>,
    /// Every wire field in wire order: the `circuit_len` fields that
    /// describe the circuit, then the analysis parameters.
    fields: Vec<Field<'a>>,
    circuit_len: usize,
}

impl<'a> Schema<'a> {
    fn new(
        kind: &'static str,
        tag: u64,
        source: Source<'a>,
        analysis: impl IntoIterator<Item = Field<'a>>,
    ) -> Self {
        let mut fields = match source {
            Source::None => Vec::new(),
            // The delay-line prefix shared by the five line kinds.
            Source::Line(stages, bias_ua, input_ua) => {
                let mut prefix = vec![
                    ("stages", Int(stages), Range(1, 4096)),
                    ("bias_ua", Num(bias_ua), Positive),
                ];
                prefix.extend(input_ua.map(|v| ("input_ua", Num(v), Any)));
                prefix
            }
            Source::Netlist(text) => vec![("netlist", Text(text), Any)],
        };
        let circuit_len = fields.len();
        fields.extend(analysis);
        Schema {
            kind,
            tag,
            source,
            fields,
            circuit_len,
        }
    }
}

/// The circuit behind a job kind.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The kind solves no circuit (the ΔΣ sweep).
    None,
    /// A generated delay line: `stages`, `bias_ua` and `input_ua`, which
    /// is `None` for a batch, whose topology is built at 0 µA and whose
    /// inputs are analysis fields.
    Line(usize, f64, Option<f64>),
    /// A user netlist, parsed canonically.
    Netlist(&'a str),
}

impl Source<'_> {
    /// Builds the circuit: `Ok(None)` for a kind without one, `Err` when
    /// the fields do not describe a buildable circuit.
    fn circuit(self) -> Result<Option<Circuit>, ()> {
        match self {
            Source::None => Ok(None),
            Source::Line(stages, bias_ua, input_ua) => {
                build_line(stages, bias_ua, input_ua.unwrap_or(0.0))
                    .map(|line| Some(line.circuit))
                    .map_err(drop)
            }
            Source::Netlist(text) => parse_netlist_canonical(text).map(Some).map_err(drop),
        }
    }
}

/// One wire field: its name, its value and the rule the value obeys.
type Field<'a> = (&'static str, Value<'a>, Check);

#[derive(Clone, Copy)]
enum Value<'a> {
    Int(usize),
    Num(f64),
    Nums(&'a [f64]),
    Text(&'a str),
}
use Value::{Int, Num, Nums, Text};

/// The rule a field's value obeys. Every float, and every array entry,
/// must also be finite.
#[derive(Clone, Copy)]
enum Check {
    Any,
    Positive,
    /// An integer in `lo..=hi`, or an array with `lo..=hi` entries.
    Range(usize, usize),
    /// A rule tying the field to another one, evaluated when the schema
    /// is built: whether it holds, and the message to report if not.
    Cross(bool, &'static str),
}
use Check::{Any, Cross, Positive, Range};

/// Applies a field's rule, then the finiteness rule.
fn check(&(name, value, rule): &Field) -> Result<(), ServiceError> {
    let message = match (rule, value) {
        (Positive, Num(v)) if !(v > 0.0) => format!("{name} must be positive"),
        (Range(lo, hi), Int(n)) if !(lo..=hi).contains(&n) => {
            format!("{name} must be in {lo}..={hi}")
        }
        (Range(lo, hi), Nums(v)) if !(lo..=hi).contains(&v.len()) => {
            format!("{name} needs {lo}..={hi} entries")
        }
        (Cross(false, message), _) => message.to_string(),
        (_, Num(v)) if !v.is_finite() => format!("{name} must be finite"),
        (_, Nums(v)) if v.iter().any(|x| !x.is_finite()) => {
            format!("{name} entries must be finite")
        }
        _ => return Ok(()),
    };
    Err(ServiceError::InvalidSpec(message))
}

/// The transient fields shared by `delay_line_tran` and `tran_stream`,
/// which differ only in their step cap.
fn tran_fields(steps: usize, dt_ns: f64, clock_hz: f64, max_steps: usize) -> [Field<'static>; 3] {
    [
        ("steps", Int(steps), Range(1, max_steps)),
        ("dt_ns", Num(dt_ns), Positive),
        ("clock_hz", Num(clock_hz), Positive),
    ]
}

impl Value<'_> {
    /// Mixes the value into a job key: an integer as a `u64`, a float
    /// through its bits, an array or text as its length, then each item.
    fn mix(self, h: &mut Fnv1a) {
        match self {
            Int(n) => h.mix_u64(n as u64),
            Num(v) => h.mix_f64(v),
            Nums(values) => {
                h.mix_u64(values.len() as u64);
                values.iter().for_each(|&v| h.mix_f64(v));
            }
            Text(text) => {
                h.mix_u64(text.len() as u64);
                h.mix_bytes(text.as_bytes());
            }
        }
    }

    fn to_json(self) -> Json {
        match self {
            Int(n) => Json::Number(n as f64),
            Num(v) => Json::Number(v),
            Nums(values) => Json::Array(values.iter().map(|&v| Json::Number(v)).collect()),
            Text(text) => Json::String(text.to_string()),
        }
    }
}

/// In-progress state of a [`JobSpec::TranStream`] execution: the built
/// circuit plus everything a checkpoint must capture to resume at the
/// next chunk boundary — the end-of-chunk MNA solution and the Welch
/// accumulator's running state.
#[derive(Debug)]
pub struct StreamState {
    line: DelayLine,
    params: TranParams,
    steps: usize,
    chunk_steps: usize,
    solution: Solution,
    acc: WelchAccumulator,
    chunks_done: usize,
}

impl StreamState {
    /// Chunks completed so far.
    #[must_use]
    pub fn chunks_done(&self) -> usize {
        self.chunks_done
    }

    /// Total chunks the run needs.
    #[must_use]
    pub fn chunks_total(&self) -> usize {
        self.steps.div_ceil(self.chunk_steps)
    }

    /// Serializes the resumable state as a [`JobOutput`] so checkpoints
    /// ride the same checksummed, atomic-rename, quarantine-on-corruption
    /// disk format as `.sic` result entries. `job_key` is folded in so a
    /// checkpoint can never resume a different job.
    #[must_use]
    pub fn to_checkpoint(&self, job_key: u64) -> JobOutput {
        let mut values = self.solution.raw().to_vec();
        let state_len = values.len();
        values.extend_from_slice(self.acc.power_sum());
        values.extend_from_slice(self.acc.tail());
        JobOutput {
            values,
            metrics: vec![
                ("ckpt_version".to_string(), CHECKPOINT_VERSION as f64),
                ("key_hi".to_string(), (job_key >> 32) as f64),
                ("key_lo".to_string(), (job_key & 0xffff_ffff) as f64),
                ("chunks_done".to_string(), self.chunks_done as f64),
                ("chunks_total".to_string(), self.chunks_total() as f64),
                ("state_len".to_string(), state_len as f64),
                ("seg_len".to_string(), self.acc.seg_len() as f64),
                ("welch_segments".to_string(), self.acc.segments() as f64),
                ("welch_tail_len".to_string(), self.acc.tail().len() as f64),
            ],
        }
    }
}

/// Builds the delay line for the given knobs with the input source set.
fn build_line(stages: usize, bias_ua: f64, input_ua: f64) -> Result<DelayLine, AnalogError> {
    let design = DelayLineDesign {
        stages,
        bias: Amps(bias_ua * 1e-6),
        vov: Volts(0.25),
        hold_cap: Farads(0.5e-12),
    };
    let mut line = design.build()?;
    set_current_source(&mut line.circuit, &line.input_source, Amps(input_ua * 1e-6))?;
    Ok(line)
}

/// A delay line with its clocked transient parameters.
type Transient = (DelayLine, TranParams);

/// Builds the delay line and its clocked transient parameters, shared by
/// `delay_line_tran` and `tran_stream`.
fn build_tran(
    stages: usize,
    bias_ua: f64,
    input_ua: f64,
    steps: usize,
    dt_ns: f64,
    clock_hz: f64,
) -> Result<Transient, AnalogError> {
    let line = build_line(stages, bias_ua, input_ua)?;
    let dt = Seconds(dt_ns * 1e-9);
    let t_stop = Seconds(dt.0 * (steps as f64));
    let clock = TwoPhaseClock::new(Seconds(1.0 / clock_hz), 0.0)?;
    let params = TranParams::new(t_stop, dt)?.with_clock(clock);
    Ok((line, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc_spec() -> JobSpec {
        JobSpec::DelayLineDc {
            stages: 4,
            bias_ua: 20.0,
            input_ua: 2.0,
        }
    }

    #[test]
    fn job_key_is_stable_and_value_sensitive() {
        let a = dc_spec();
        assert_eq!(a.job_key(), dc_spec().job_key());
        let b = JobSpec::DelayLineDc {
            stages: 4,
            bias_ua: 20.0,
            input_ua: 2.5,
        };
        assert_ne!(a.job_key(), b.job_key());
        let c = JobSpec::DelayLineDc {
            stages: 5,
            bias_ua: 20.0,
            input_ua: 2.0,
        };
        assert_ne!(a.job_key(), c.job_key());
    }

    #[test]
    fn kinds_never_collide_on_shared_params() {
        let dc = dc_spec();
        let ac = JobSpec::DelayLineAc {
            stages: 4,
            bias_ua: 20.0,
            input_ua: 2.0,
            f_lo_hz: 1e3,
            f_hi_hz: 1e6,
            points: 4,
        };
        assert_ne!(dc.job_key(), ac.job_key());
    }

    #[test]
    fn json_round_trip_preserves_key() {
        let specs = vec![
            dc_spec(),
            JobSpec::DelayLineTran {
                stages: 3,
                bias_ua: 20.0,
                input_ua: 1.0,
                steps: 8,
                dt_ns: 100.0,
                clock_hz: 1e6,
            },
            JobSpec::DelayLineAc {
                stages: 2,
                bias_ua: 20.0,
                input_ua: 0.0,
                f_lo_hz: 1e3,
                f_hi_hz: 1e8,
                points: 5,
            },
            JobSpec::SndrSweep {
                full_scale_ua: 6.0,
                levels_db: vec![-40.0, -20.0, -6.0],
            },
        ];
        for spec in specs {
            let wire = spec.to_json().to_string_compact();
            let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
            assert_eq!(parsed, spec);
            assert_eq!(parsed.job_key(), spec.job_key());
        }
    }

    #[test]
    fn invalid_specs_are_rejected_with_typed_error() {
        let bad = JobSpec::DelayLineDc {
            stages: 0,
            bias_ua: 20.0,
            input_ua: 0.0,
        };
        assert!(matches!(bad.validate(), Err(ServiceError::InvalidSpec(_))));
        let parse_err = JobSpec::from_json(&crate::json::parse(r#"{"kind":"nope"}"#).unwrap());
        assert!(matches!(parse_err, Err(ServiceError::InvalidSpec(_))));
    }

    #[test]
    fn dc_job_runs_and_is_deterministic() {
        let spec = dc_spec();
        let mut ws1 = EngineWorkspace::new();
        let mut ws2 = EngineWorkspace::new();
        let a = spec.run(&mut ws1).unwrap();
        let b = spec.run(&mut ws2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.values.len(), 4);
        // Diode-connected NMOS nodes sit near Vgs = Vt + Vov ≈ 1.05 V.
        assert!(a.values.iter().all(|v| *v > 0.5 && *v < 2.0), "{a:?}");
    }

    fn batch_spec(inputs: &[f64]) -> JobSpec {
        JobSpec::DelayLineDcBatch {
            stages: 4,
            bias_ua: 20.0,
            inputs_ua: inputs.to_vec(),
        }
    }

    #[test]
    fn batch_spec_round_trips_and_keys_on_inputs() {
        let a = batch_spec(&[1.0, 2.0, 3.0]);
        let wire = a.to_json().to_string_compact();
        let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(parsed.job_key(), a.job_key());
        assert_eq!(a.scenario_count(), 3);
        // Reordering or retuning scenarios moves the key; a single job and
        // a one-scenario batch never collide.
        assert_ne!(a.job_key(), batch_spec(&[3.0, 2.0, 1.0]).job_key());
        assert_ne!(a.job_key(), batch_spec(&[1.0, 2.0]).job_key());
        let single = JobSpec::DelayLineDc {
            stages: 4,
            bias_ua: 20.0,
            input_ua: 2.0,
        };
        assert_ne!(single.job_key(), batch_spec(&[2.0]).job_key());
        assert_eq!(single.scenario_count(), 1);
    }

    #[test]
    fn batch_spec_validates_inputs() {
        assert!(matches!(
            batch_spec(&[]).validate(),
            Err(ServiceError::InvalidSpec(_))
        ));
        assert!(matches!(
            batch_spec(&[f64::NAN]).validate(),
            Err(ServiceError::InvalidSpec(_))
        ));
        assert!(batch_spec(&[0.5]).validate().is_ok());
    }

    #[test]
    fn batch_job_runs_deterministically_and_concatenates_scenarios() {
        let spec = batch_spec(&[0.5, 1.0, 1.5, 2.0]);
        let mut ws1 = EngineWorkspace::new();
        let mut ws2 = EngineWorkspace::new();
        let a = spec.run(&mut ws1).unwrap();
        let b = spec.run(&mut ws2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.values.len(), 4 * 4, "4 scenarios x 4 stage nodes");
        let per = a
            .metrics
            .iter()
            .find(|(k, _)| k == "values_per_scenario")
            .unwrap()
            .1;
        assert_eq!(per, 4.0);
        assert!(a.values.iter().all(|v| *v > 0.5 && *v < 2.0), "{a:?}");
    }

    #[test]
    fn batch_hook_sees_every_scenario_in_order() {
        let spec = batch_spec(&[0.5, 1.0, 1.5]);
        let mut ws = EngineWorkspace::new();
        let mut seen = Vec::new();
        let mut hook = |i: usize| seen.push(i);
        spec.run_with_hook(&mut ws, Some(&mut hook)).unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
        // Single-shot jobs never consult the hook.
        let mut seen_single = Vec::new();
        let mut hook_single = |i: usize| seen_single.push(i);
        dc_spec()
            .run_with_hook(&mut ws, Some(&mut hook_single))
            .unwrap();
        assert!(seen_single.is_empty());
    }

    const DIVIDER: &str = "\
* two-resistor divider
V1 in 0 3.3
R1 in mid 1k
R2 mid 0 2k
.end
";

    fn netlist_spec(text: &str) -> JobSpec {
        JobSpec::Netlist {
            netlist: text.to_string(),
        }
    }

    #[test]
    fn netlist_spec_round_trips_through_json() {
        let spec = netlist_spec(DIVIDER);
        let wire = spec.to_json().to_string_compact();
        // The netlist text (newlines and all) survives the JSON escape.
        let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.job_key(), spec.job_key());
        assert_eq!(spec.kind(), "netlist");
        assert_eq!(spec.scenario_count(), 1);
    }

    #[test]
    fn netlist_job_key_is_text_representation_independent() {
        // Same circuit, different comments / card order / spacing: the
        // canonical parse maps them to the same job key.
        let permuted = "\
R2   mid 0   2k   ; bottom leg
* a different comment
R1 in mid 1k
V1 in 0 3.3
.end
";
        assert_eq!(
            netlist_spec(DIVIDER).job_key(),
            netlist_spec(permuted).job_key()
        );
        // Retuning one value moves the key.
        let retuned = DIVIDER.replace("2k", "2.2k");
        assert_ne!(
            netlist_spec(DIVIDER).job_key(),
            netlist_spec(&retuned).job_key()
        );
    }

    #[test]
    fn netlist_job_solves_the_divider() {
        let spec = netlist_spec(DIVIDER);
        spec.validate().unwrap();
        let mut ws = EngineWorkspace::new();
        let out = spec.run(&mut ws).unwrap();
        // Nodes intern as in (3.3 V) then mid (2.2 V).
        assert_eq!(out.values.len(), 2);
        assert!((out.values[0] - 3.3).abs() < 1e-9);
        assert!((out.values[1] - 2.2).abs() < 1e-6);
        let nodes = out.metrics.iter().find(|(k, _)| k == "nodes").unwrap().1;
        assert_eq!(nodes, 3.0);
    }

    #[test]
    fn bad_netlists_are_rejected_not_invalid_spec() {
        let bad = netlist_spec("R1 a 0 oops\n");
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, ServiceError::NetlistRejected(_)), "{err:?}");
        assert_eq!(err.http_status(), 422);
        // The rendered message carries the source location.
        assert!(err.to_string().contains("line 1"), "{err}");
        // An empty circuit is typed the same way.
        assert!(matches!(
            netlist_spec(".version 1\n.end\n").validate(),
            Err(ServiceError::NetlistRejected(_))
        ));
        // Unparsable text still has a stable, distinct job key.
        assert_eq!(bad.job_key(), netlist_spec("R1 a 0 oops\n").job_key());
        assert_ne!(bad.job_key(), netlist_spec("R1 a 0 zoops\n").job_key());
    }

    #[test]
    fn admission_cost_prices_without_solving() {
        let cost = netlist_spec(DIVIDER).admission_cost().unwrap().unwrap();
        assert_eq!(cost.nodes, 3);
        assert_eq!(cost.devices, 3);
        assert_eq!(cost.mna_dim, 3); // 2 non-ground nodes + 1 branch
        assert!(cost.nonzeros > 0);
        // Canned kinds are not priced.
        assert_eq!(dc_spec().admission_cost().unwrap(), None);
        // Unparsable text fails pricing with the typed rejection.
        assert!(matches!(
            netlist_spec("garbage").admission_cost(),
            Err(ServiceError::NetlistRejected(_))
        ));
    }

    #[test]
    fn sndr_job_reports_dynamic_range() {
        let spec = JobSpec::SndrSweep {
            full_scale_ua: 6.0,
            levels_db: vec![-60.0, -40.0, -20.0, -6.0],
        };
        let mut ws = EngineWorkspace::new();
        let out = spec.run(&mut ws).unwrap();
        assert_eq!(out.values.len(), 4);
        let dr = out
            .metrics
            .iter()
            .find(|(k, _)| k == "dynamic_range_db")
            .unwrap()
            .1;
        assert!(dr > 20.0, "dynamic range {dr} dB implausibly low");
    }

    fn stream_spec_with(steps: usize, chunk_steps: usize, seg_len: usize) -> JobSpec {
        JobSpec::TranStream {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 2.0,
            steps,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
            chunk_steps,
            seg_len,
        }
    }

    fn stream_spec() -> JobSpec {
        stream_spec_with(900, 128, 256)
    }

    #[test]
    fn stream_spec_round_trips_and_keys_on_every_knob() {
        let spec = stream_spec();
        spec.validate().unwrap();
        assert_eq!(spec.kind(), "tran_stream");
        assert!(spec.is_stream());
        assert_eq!(spec.scenario_count(), 1);
        assert_eq!(spec.stream_chunk_count(), Some(8), "ceil(900 / 128)");
        let wire = spec.to_json().to_string_compact();
        let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.job_key(), spec.job_key());
        // Chunking and Welch geometry are part of the identity: a job
        // resumed under different chunking must not alias the original.
        assert_ne!(spec.job_key(), stream_spec_with(900, 64, 256).job_key());
        assert_ne!(spec.job_key(), stream_spec_with(900, 128, 128).job_key());
        // The checkpoint key never collides with the job key itself.
        assert_ne!(JobSpec::checkpoint_key(spec.job_key()), spec.job_key());
    }

    #[test]
    fn stream_spec_validates_chunking_and_segment_length() {
        assert!(stream_spec_with(900, 0, 256).validate().is_err());
        assert!(stream_spec_with(900, 901, 256).validate().is_err());
        // Not a power of two.
        assert!(stream_spec_with(900, 128, 255).validate().is_err());
        // Longer than the waveform (steps + 1 samples).
        assert!(stream_spec_with(900, 128, 1024).validate().is_err());
        assert!(stream_spec_with(0, 1, 2).validate().is_err());
        // One-chunk streams are legal.
        assert!(stream_spec_with(900, 900, 256).validate().is_ok());
    }

    #[test]
    fn stream_run_is_deterministic_and_reports_chunks() {
        let spec = stream_spec();
        let mut ws1 = EngineWorkspace::new();
        let mut ws2 = EngineWorkspace::new();
        let a = spec.run(&mut ws1).unwrap();
        let b = spec.run(&mut ws2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.values.len(), 256 / 2 + 1, "one-sided spectrum bins");
        let metric = |name: &str| a.metrics.iter().find(|(k, _)| k == name).unwrap().1;
        assert_eq!(metric("chunks"), 8.0);
        assert_eq!(metric("seg_len"), 256.0);
        assert!(metric("segments") >= 1.0);
        // The hook fires once per chunk, in order.
        let mut seen = Vec::new();
        let mut hook = |i: usize| seen.push(i);
        let mut ws3 = EngineWorkspace::new();
        let c = spec.run_with_hook(&mut ws3, Some(&mut hook)).unwrap();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_eq!(c, a);
    }

    /// The tentpole invariant at the spec level: checkpoint after any
    /// chunk, serialize, resume from the serialized form on a *fresh*
    /// workspace, and the final spectrum is bit-identical to the
    /// uninterrupted run.
    #[test]
    fn stream_checkpoint_resume_is_bit_identical() {
        let spec = stream_spec();
        let key = spec.job_key();
        let mut ws = EngineWorkspace::new();
        let uninterrupted = spec.run(&mut ws).unwrap();

        for stop_after in [1usize, 3, 7] {
            let mut ws1 = EngineWorkspace::new();
            let mut state = spec.stream_start(&mut ws1).unwrap();
            for _ in 0..stop_after {
                spec.stream_advance(&mut state, &mut ws1).unwrap();
            }
            let checkpoint = state.to_checkpoint(key);
            // "Crash": drop the live state, keep only the checkpoint.
            drop(state);
            drop(ws1);
            let mut resumed = spec.stream_resume(&checkpoint).unwrap();
            assert_eq!(resumed.chunks_done(), stop_after);
            let mut ws2 = EngineWorkspace::new();
            while resumed.chunks_done() < resumed.chunks_total() {
                spec.stream_advance(&mut resumed, &mut ws2).unwrap();
            }
            let out = spec.stream_finish(&resumed).unwrap();
            assert_eq!(out.values.len(), uninterrupted.values.len());
            for (a, b) in out.values.iter().zip(uninterrupted.values.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "resume after chunk {stop_after}");
            }
        }
    }

    #[test]
    fn stream_resume_rejects_mismatched_checkpoints() {
        let spec = stream_spec();
        let key = spec.job_key();
        let mut ws = EngineWorkspace::new();
        let mut state = spec.stream_start(&mut ws).unwrap();
        spec.stream_advance(&mut state, &mut ws).unwrap();
        let good = state.to_checkpoint(key);
        assert!(spec.stream_resume(&good).is_some());

        // A checkpoint for a different job never resumes this one.
        let foreign = state.to_checkpoint(key ^ 1);
        assert!(spec.stream_resume(&foreign).is_none());
        // A different chunking rejects the same checkpoint (its own key
        // differs, so the embedded key check fires).
        assert!(stream_spec_with(900, 64, 256)
            .stream_resume(&good)
            .is_none());
        // Corrupt metrics and truncated payloads are rejected, not
        // misread.
        let mut wrong_version = good.clone();
        wrong_version.metrics[0].1 = (CHECKPOINT_VERSION + 1) as f64;
        assert!(spec.stream_resume(&wrong_version).is_none());
        let mut truncated = good.clone();
        truncated.values.pop();
        assert!(spec.stream_resume(&truncated).is_none());
        let mut zero_done = good;
        zero_done.metrics[3].1 = 0.0;
        assert!(spec.stream_resume(&zero_done).is_none());
    }

    /// One valid wire document per kind, the base every message case edits.
    const VALID_DOCS: &str = r#"
{"kind":"delay_line_dc","stages":3,"bias_ua":20,"input_ua":1}
{"kind":"delay_line_tran","stages":3,"bias_ua":20,"input_ua":1,"steps":40,"dt_ns":50,"clock_hz":2e6}
{"kind":"delay_line_ac","stages":2,"bias_ua":20,"input_ua":0.5,"f_lo_hz":1e3,"f_hi_hz":1e8,"points":5}
{"kind":"sndr_sweep","full_scale_ua":6,"levels_db":[-40,-6]}
{"kind":"delay_line_dc_batch","stages":3,"bias_ua":20,"inputs_ua":[0.5,1]}
{"kind":"netlist","netlist":"R1 a 0 1k\n"}
{"kind":"tran_stream","stages":3,"bias_ua":20,"input_ua":2,"steps":900,"dt_ns":50,"clock_hz":2e6,"chunk_steps":900,"seg_len":256}
"#;

    /// The valid document of `kind`.
    fn valid_doc(kind: &str) -> &'static str {
        let prefix = format!(r#"{{"kind":"{kind}""#);
        VALID_DOCS
            .lines()
            .find(|doc| doc.starts_with(&prefix))
            .unwrap()
    }

    /// The pairs of wire document `doc` with each edit applied:
    /// `field=json` sets a field, `-field` removes it.
    fn edited(doc: &str, edits: &[&str]) -> Vec<(String, Json)> {
        let Json::Object(mut pairs) = crate::json::parse(doc).unwrap() else {
            unreachable!("base documents are objects")
        };
        for edit in edits {
            let (key, value) = match edit.strip_prefix('-') {
                Some(key) => (key, None),
                None => edit.split_once('=').map(|(k, v)| (k, Some(v))).unwrap(),
            };
            pairs.retain(|(k, _)| k != key);
            pairs.extend(value.map(|v| (key.to_string(), crate::json::parse(v).unwrap())));
        }
        pairs
    }

    fn invalid_message(doc: &str, edits: &[&str]) -> String {
        let doc = Json::Object(edited(doc, edits));
        match JobSpec::from_json(&doc) {
            Err(ServiceError::InvalidSpec(msg)) => msg,
            other => panic!("expected InvalidSpec for {doc:?}, got {other:?}"),
        }
    }

    /// Every `InvalidSpec` message a wire document can draw, one case per
    /// line: `<kind> <edits…> => <message>`. Covers the reader errors,
    /// each range, cross-field and finiteness rule of `validate`, and
    /// which fault is named first when several are present.
    const MESSAGE_CASES: &str = r#"
delay_line_dc -kind => missing "kind"
delay_line_dc kind="nope" => unknown kind "nope"
delay_line_dc stages=-1 => "stages" must be a non-negative integer
delay_line_dc stages=2.5 => "stages" must be a non-negative integer
delay_line_dc stages=1e16 => "stages" must be a non-negative integer
delay_line_dc bias_ua="20" => missing numeric "bias_ua"
sndr_sweep levels_db=3 => missing array "levels_db"
sndr_sweep levels_db=[1,"x"] => levels_db entries must be numbers
delay_line_dc_batch inputs_ua=[null] => inputs_ua entries must be numbers
netlist netlist=3 => missing string "netlist"
delay_line_dc stages=0 => stages must be in 1..=4096
delay_line_tran stages=4097 => stages must be in 1..=4096
delay_line_dc_batch stages=0 => stages must be in 1..=4096
delay_line_dc bias_ua=0 => bias_ua must be positive
delay_line_ac bias_ua=-1 => bias_ua must be positive
tran_stream bias_ua=0 => bias_ua must be positive
delay_line_tran steps=0 => steps must be in 1..=100000
delay_line_tran steps=100001 => steps must be in 1..=100000
delay_line_tran dt_ns=0 => dt_ns must be positive
delay_line_tran clock_hz=-2e6 => clock_hz must be positive
delay_line_ac f_lo_hz=0 => need 0 < f_lo_hz < f_hi_hz
delay_line_ac f_hi_hz=1e3 => need 0 < f_lo_hz < f_hi_hz
delay_line_ac points=1 => points must be in 2..=10000
delay_line_ac points=10001 => points must be in 2..=10000
sndr_sweep full_scale_ua=0 => full_scale_ua must be positive
sndr_sweep levels_db=[-6] => levels_db needs 2..=256 entries
sndr_sweep levels_db=[-6,1e999] => levels_db entries must be finite
delay_line_dc_batch inputs_ua=[] => inputs_ua needs 1..=1024 entries
delay_line_dc_batch inputs_ua=[1,-1e999] => inputs_ua entries must be finite
tran_stream steps=0 => steps must be in 1..=1048576
tran_stream steps=1048577 => steps must be in 1..=1048576
tran_stream dt_ns=0 => dt_ns must be positive
tran_stream clock_hz=0 => clock_hz must be positive
tran_stream chunk_steps=0 => chunk_steps must be in 1..=steps
tran_stream chunk_steps=901 => chunk_steps must be in 1..=steps
tran_stream seg_len=1 => seg_len must be a power of two in 2..=65536
tran_stream seg_len=255 => seg_len must be a power of two in 2..=65536
tran_stream seg_len=131072 => seg_len must be a power of two in 2..=65536
tran_stream seg_len=1024 => seg_len must not exceed steps + 1 (no complete segment would fit)
delay_line_dc input_ua=-1e999 => input_ua must be finite
delay_line_tran dt_ns=1e999 => dt_ns must be finite
delay_line_ac f_lo_hz=1e999 => need 0 < f_lo_hz < f_hi_hz
delay_line_dc stages=0 bias_ua=0 => stages must be in 1..=4096
delay_line_ac f_lo_hz=0 points=1 => need 0 < f_lo_hz < f_hi_hz
tran_stream chunk_steps=0 seg_len=3 => chunk_steps must be in 1..=steps
sndr_sweep full_scale_ua=0 levels_db=[] => full_scale_ua must be positive
sndr_sweep -full_scale_ua -levels_db => missing array "levels_db"
delay_line_dc_batch -stages -inputs_ua => missing array "inputs_ua"
tran_stream -seg_len -stages => missing numeric "stages"
"#;

    #[test]
    fn invalid_spec_messages_are_pinned() {
        for doc in VALID_DOCS.lines().skip(1) {
            let spec = JobSpec::from_json(&crate::json::parse(doc).unwrap()).unwrap();
            let wire = spec.to_json().to_string_compact();
            let parsed = JobSpec::from_json(&crate::json::parse(&wire).unwrap()).unwrap();
            assert_eq!((parsed.job_key(), &parsed), (spec.job_key(), &spec));
            // Each field of each kind, missing on its own, is named with
            // the reader's message for its type.
            for (field, value) in edited(doc, &[]).iter().skip(1) {
                let expected = match value {
                    Json::Array(_) => format!("missing array \"{field}\""),
                    Json::String(_) => format!("missing string \"{field}\""),
                    _ => format!("missing numeric \"{field}\""),
                };
                assert_eq!(invalid_message(doc, &[&format!("-{field}")]), expected);
                // `1e999` parses as +∞: every numeric field and array
                // entry of every kind must be finite, or the spec is a
                // 400 naming the field — never a silently wrong solve or
                // a retried `Transient`.
                for inf in ["1e999", "-1e999"] {
                    let edit = match value {
                        Json::Array(_) => format!("{field}=[1,{inf}]"),
                        Json::Number(_) => format!("{field}={inf}"),
                        _ => continue,
                    };
                    let msg = invalid_message(doc, &[&edit]);
                    assert!(msg.contains(field.as_str()), "{doc} {edit}: {msg}");
                }
            }
        }
        for case in MESSAGE_CASES.lines().skip(1) {
            let (doc, expected) = case.split_once(" => ").unwrap();
            let mut words = doc.split(' ');
            let base = valid_doc(words.next().unwrap());
            let edits: Vec<&str> = words.collect();
            assert_eq!(invalid_message(base, &edits), expected, "{case}");
        }
        // NaN cannot travel on the wire; validate and run refuse it too.
        let nan_input = JobSpec::DelayLineDc {
            stages: 3,
            bias_ua: 20.0,
            input_ua: f64::NAN,
        };
        let expected = ServiceError::InvalidSpec("input_ua must be finite".into());
        assert_eq!(nan_input.validate().unwrap_err(), expected);
        let mut ws = EngineWorkspace::new();
        assert_eq!(nan_input.run(&mut ws).unwrap_err(), expected);
        let nan_entry = batch_spec(&[0.5, f64::NAN]).validate().unwrap_err();
        assert_eq!(
            nan_entry.to_string(),
            "invalid job spec: inputs_ua entries must be finite"
        );
    }
}
