//! Golden wire-format test for the HTTP front end: the normalized
//! `POST /v1/jobs` response and `/metrics` document are pinned as byte
//! snapshots under `tests/golden/`, together with the job id, structure
//! fingerprint, output digest and wire text of one small spec per job kind
//! and of a few specs large enough to run on the sparse backend.
//!
//! Job ids are the 16-hex-digit content hash of the spec and solver
//! results are deterministic, so after [`normalize_timings`] strips the
//! wall-clock `*_ns` fields the entire wire payload is a pure function of
//! the request — any diff is a real protocol or numerical change.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test -p si-service --test integration_service_golden`

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use si_analog::engine::EngineWorkspace;
use si_service::http::{http_request, HttpServer};
use si_service::jobspec::{Fnv1a, JobOutput, JobSpec};
use si_service::json::{parse, Json};
use si_service::service::{normalize_timings, ServiceConfig, SiService};

const GOLDEN_JOB: &str = include_str!("golden/service_job_response.json");
const GOLDEN_METRICS: &str = include_str!("golden/service_metrics.json");
const GOLDEN_KEYS: &str = include_str!("golden/service_job_keys.json");

const JOB_BODY: &str = r#"{"kind":"delay_line_dc","stages":3,"bias_ua":20.0,"input_ua":1.0}"#;

fn golden_path(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/service; the shared tests/ tree sits
    // at the repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"))
}

fn check_or_update(name: &str, golden: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(name), actual).expect("rewrite golden snapshot");
        return;
    }
    let expected = golden.replace("\r\n", "\n");
    assert_eq!(
        actual, expected,
        "wire format drifted from tests/golden/{name}; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn normalized_compact(payload: &str) -> String {
    let v = parse(payload).expect("wire payload parses as JSON");
    let mut s = normalize_timings(&v).to_string_compact();
    s.push('\n');
    s
}

/// The `"http"` section counts listener traffic, which includes however
/// many `/metrics` polls the settling loop needed — volatile, so it is
/// stripped before pinning (its keys are asserted separately).
fn strip_http_section(payload: &str) -> String {
    let v = parse(payload).expect("wire payload parses as JSON");
    match v {
        Json::Object(pairs) => Json::Object(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "http")
                .collect::<Vec<_>>(),
        )
        .to_string_compact(),
        other => other.to_string_compact(),
    }
}

fn pool_metric(payload: &str, name: &str) -> f64 {
    parse(payload)
        .ok()
        .and_then(|v| {
            v.get("pool")
                .and_then(|p| p.get(name))
                .and_then(Json::as_f64)
        })
        .unwrap_or(f64::NAN)
}

#[test]
fn post_and_metrics_match_golden_snapshots() {
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        default_deadline: None,
        ..ServiceConfig::default()
    }));
    let mut server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind loopback");
    let addr = server.local_addr();

    // First submission: a real solve, pinned as the job-response snapshot.
    let (status, payload) = http_request(addr, "POST", "/v1/jobs", Some(JOB_BODY)).unwrap();
    assert_eq!(status, 200, "unexpected response: {payload}");
    check_or_update(
        "service_job_response.json",
        GOLDEN_JOB,
        &normalized_compact(&payload),
    );

    // Second submission of the same body must be served from cache, and
    // must match the first byte-for-byte except for the cached flag.
    let (status, repeat) = http_request(addr, "POST", "/v1/jobs", Some(JOB_BODY)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        repeat.replace("\"cached\":true", "\"cached\":false"),
        payload,
        "cache served different bytes than the original solve"
    );

    // The executed counter ticks just after the reply is sent, so give
    // the worker a moment to publish before pinning /metrics.
    let metrics = {
        let mut last = String::new();
        for _ in 0..500 {
            let (status, payload) = http_request(addr, "GET", "/metrics", None).unwrap();
            assert_eq!(status, 200);
            if pool_metric(&payload, "in_flight") == 0.0 && pool_metric(&payload, "executed") == 1.0
            {
                last = payload;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!last.is_empty(), "pool never settled for the snapshot");
        last
    };
    // The listener's own section is live traffic counters (it counts
    // these very polls); assert its shape here, pin everything else.
    let parsed = parse(&metrics).unwrap();
    let http = parsed.get("http").expect("metrics carry an http section");
    for key in [
        "accepted",
        "shed_connections",
        "bad_requests",
        "too_large",
        "timeouts",
        "dropped_mid_request",
        "responses",
    ] {
        assert!(
            http.get(key).and_then(Json::as_f64).is_some(),
            "http section missing {key}"
        );
    }
    check_or_update(
        "service_metrics.json",
        GOLDEN_METRICS,
        &normalized_compact(&strip_http_section(&metrics)),
    );

    server.shutdown();
}

/// One small spec of every job kind, then sparse-sized specs that pin the
/// sparse backend's numerics. Their identities are pinned because disk
/// `.sic` names, checkpoint keys and router shards all derive from them.
fn identity_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::DelayLineDc {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 1.0,
        },
        JobSpec::DelayLineTran {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 1.0,
            steps: 40,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
        },
        JobSpec::DelayLineAc {
            stages: 2,
            bias_ua: 20.0,
            input_ua: 0.5,
            f_lo_hz: 1e3,
            f_hi_hz: 1e8,
            points: 5,
        },
        JobSpec::SndrSweep {
            full_scale_ua: 6.0,
            levels_db: vec![-40.0, -6.0],
        },
        JobSpec::DelayLineDcBatch {
            stages: 3,
            bias_ua: 20.0,
            inputs_ua: vec![0.5, 1.0, 1.5],
        },
        JobSpec::Netlist {
            netlist: "V1 in 0 3.3\nR1 in mid 1k\nR2 mid 0 2k\n.end\n".to_string(),
        },
        JobSpec::TranStream {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 2.0,
            steps: 300,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
            chunk_steps: 64,
            seg_len: 128,
        },
        // Sparse-sized rows (MNA dimension above the dense cutoff of 32):
        // the 3-stage specs above all run on the dense backend.
        JobSpec::DelayLineTran {
            stages: 48,
            bias_ua: 20.0,
            input_ua: 1.0,
            steps: 20,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
        },
        JobSpec::DelayLineTran {
            stages: 160,
            bias_ua: 20.0,
            input_ua: 1.0,
            steps: 20,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
        },
        JobSpec::TranStream {
            stages: 48,
            bias_ua: 20.0,
            input_ua: 2.0,
            steps: 128,
            dt_ns: 50.0,
            clock_hz: 2.0e6,
            chunk_steps: 64,
            seg_len: 64,
        },
        JobSpec::DelayLineAc {
            stages: 48,
            bias_ua: 20.0,
            input_ua: 0.5,
            f_lo_hz: 1e3,
            f_hi_hz: 1e8,
            points: 5,
        },
        JobSpec::DelayLineDcBatch {
            stages: 160,
            bias_ua: 20.0,
            inputs_ua: vec![0.5, 1.0, 1.5],
        },
    ]
}

/// FNV-1a over every value and metric of a job output, bit for bit.
fn output_digest(out: &JobOutput) -> u64 {
    let mut h = Fnv1a::new();
    h.mix_u64(out.values.len() as u64);
    for &v in &out.values {
        h.mix_f64(v);
    }
    h.mix_u64(out.metrics.len() as u64);
    for (name, v) in &out.metrics {
        h.mix_bytes(name.as_bytes());
        h.mix_f64(*v);
    }
    h.finish()
}

#[test]
fn job_identities_match_golden_snapshot() {
    let mut ws = EngineWorkspace::new();
    let mut actual = String::from("[\n");
    let specs = identity_specs();
    for (i, spec) in specs.iter().enumerate() {
        let out = spec.run(&mut ws).expect("identity spec solves");
        let entry = Json::Object(vec![
            ("kind".to_string(), Json::String(spec.kind().to_string())),
            ("id".to_string(), Json::String(SiService::job_id(spec))),
            (
                "structure".to_string(),
                Json::String(format!("{:016x}", spec.structure_fingerprint())),
            ),
            (
                "output".to_string(),
                Json::String(format!("{:016x}", output_digest(&out))),
            ),
            (
                "wire".to_string(),
                Json::String(spec.to_json().to_string_compact()),
            ),
        ]);
        actual.push_str(&entry.to_string_compact());
        actual.push_str(if i + 1 < specs.len() { ",\n" } else { "\n" });
    }
    actual.push_str("]\n");
    check_or_update("service_job_keys.json", GOLDEN_KEYS, &actual);
}

#[test]
fn golden_snapshots_carry_real_payload_not_hollow_shells() {
    // Guard the content of the snapshots, not just their stability.
    let job = parse(GOLDEN_JOB.trim()).expect("job snapshot parses");
    let id = job.get("id").and_then(Json::as_str).expect("id present");
    assert_eq!(id.len(), 16, "id is the 16-hex-digit job key");
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(
        job.get("kind").and_then(Json::as_str),
        Some("delay_line_dc")
    );
    let values = job.get("values").and_then(Json::as_array).expect("values");
    assert_eq!(values.len(), 3, "one voltage per delay-line stage");
    assert!(values
        .iter()
        .all(|v| v.as_f64().is_some_and(|x| x.is_finite() && x != 0.0)));

    let metrics = parse(GOLDEN_METRICS.trim()).expect("metrics snapshot parses");
    for section in ["service", "cache", "pool", "faults", "engine"] {
        assert!(metrics.get(section).is_some(), "missing {section}");
    }
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
    // And the snapshot really is normalized: no wall-clock residue.
    assert!(GOLDEN_METRICS.contains("\"solve_time_ns\":0"));

    // Every pinned spec has its own distinct id.
    let keys = parse(GOLDEN_KEYS.trim()).expect("keys snapshot parses");
    let entries = keys.as_array().expect("keys snapshot is an array");
    assert_eq!(entries.len(), identity_specs().len());
    let mut ids: Vec<&str> = entries
        .iter()
        .map(|e| e.get("id").and_then(Json::as_str).expect("id present"))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), entries.len(), "job ids collide across kinds");
}
