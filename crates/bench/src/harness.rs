//! The service harness behind the gate binaries `si_loadgen`, `si_chaos`
//! and `si_netfuzz`. Each binary is a table of modes; each mode spawns a
//! service, drives clients at it, checks its gates and reports, using the
//! pieces here:
//!
//! - **flags** — [`Flag`] tables parsed by one loop ([`flags`]);
//! - **spawn** — an in-process or loopback-HTTP [`Target`], or a real
//!   `si_serve` child ([`spawn_serve`]);
//! - **drive** — [`fan_out`] over client threads, [`retrying`] and
//!   [`post_all`] for failover submissions, [`kill_at_quarter`];
//! - **check** — [`bit_identical`], [`values_of`], [`metric`], [`scrape`];
//! - **gate and report** — [`Gates`], finished by [`run_mode`].

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use si_service::http::{http_request, HttpConfig, HttpServer};
use si_service::json::{self, Json};
use si_service::{JobSpec, RetryPolicy, ServiceConfig, ServiceError, SiService};

use crate::run_report::{experiments_dir, RunReport};

// ---- flags ---------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Kind {
    Switch,
    Int { default: usize, min: usize },
    Text,
}

/// One command-line flag a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    kind: Kind,
}

impl Flag {
    /// An on/off flag that takes no value.
    #[must_use]
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            kind: Kind::Switch,
        }
    }

    /// An integer flag; a given value below `min` is raised to `min`.
    #[must_use]
    pub const fn int(name: &'static str, default: usize, min: usize) -> Flag {
        Flag {
            name,
            kind: Kind::Int { default, min },
        }
    }

    /// A text flag (an address or a path); may be repeated.
    #[must_use]
    pub const fn text(name: &'static str) -> Flag {
        Flag {
            name,
            kind: Kind::Text,
        }
    }
}

/// The flags one command line gave, checked against a [`Flag`] table.
#[derive(Debug)]
pub struct Flags {
    table: Vec<Flag>,
    given: Vec<(&'static str, String)>,
}

/// Parses `args` against `table`.
///
/// # Errors
///
/// An unknown flag, a missing value, or an integer flag whose value is not
/// a non-negative integer.
pub fn parse_flags(
    table: &[Flag],
    args: impl IntoIterator<Item = String>,
) -> Result<Flags, String> {
    let mut given = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let flag = table
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag {arg:?}"))?;
        let value = match flag.kind {
            Kind::Switch => String::new(),
            kind => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{} requires a value", flag.name))?;
                if matches!(kind, Kind::Int { .. }) && value.parse::<usize>().is_err() {
                    return Err(format!("{} must be an integer", flag.name));
                }
                value
            }
        };
        given.push((flag.name, value));
    }
    Ok(Flags {
        table: table.to_vec(),
        given,
    })
}

/// Parses the process arguments against `table`; on a bad command line
/// prints the reason and exits with status 2.
#[must_use]
pub fn flags(table: &[Flag]) -> Flags {
    parse_flags(table, std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

impl Flags {
    /// Whether the flag was given.
    #[must_use]
    pub fn on(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// Every value given for a text flag, in order.
    pub fn texts<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The last value given for a text flag.
    #[must_use]
    pub fn text(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// An integer flag's given value (raised to its minimum), if given.
    ///
    /// # Panics
    ///
    /// If `name` is not an integer flag of the table.
    #[must_use]
    pub fn opt_int(&self, name: &str) -> Option<usize> {
        let min = self.int_spec(name).1;
        self.text(name)
            .map(|v| v.parse::<usize>().expect("checked when parsed").max(min))
    }

    /// An integer flag's value: the given one (raised to its minimum) or
    /// its default.
    ///
    /// # Panics
    ///
    /// If `name` is not an integer flag of the table.
    #[must_use]
    pub fn int(&self, name: &str) -> usize {
        self.opt_int(name).unwrap_or(self.int_spec(name).0)
    }

    fn int_spec(&self, name: &str) -> (usize, usize) {
        match self.table.iter().find(|f| f.name == name).map(|f| f.kind) {
            Some(Kind::Int { default, min }) => (default, min),
            _ => panic!("{name} is not an integer flag"),
        }
    }
}

// ---- spawn ---------------------------------------------------------------

/// A service under test, driven in-process or through a loopback
/// [`HttpServer`].
pub struct Target {
    service: Arc<SiService>,
    server: Option<HttpServer>,
}

impl Target {
    /// Starts a service; with `http`, also binds a loopback listener and
    /// submits through it.
    ///
    /// # Panics
    ///
    /// If the loopback listener cannot bind.
    #[must_use]
    pub fn start(config: ServiceConfig, http: Option<HttpConfig>) -> Target {
        let service = Arc::new(SiService::new(config));
        let server = http.map(|config| {
            HttpServer::bind_with("127.0.0.1:0", Arc::clone(&service), config)
                .expect("bind loopback")
        });
        Target { service, server }
    }

    /// The service behind the target (for metrics and direct resolves).
    #[must_use]
    pub fn service(&self) -> &Arc<SiService> {
        &self.service
    }

    /// The loopback address, when submitting over HTTP.
    #[must_use]
    pub fn addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(HttpServer::local_addr)
    }

    /// Submits one job and returns whether it was served from cache.
    ///
    /// # Errors
    ///
    /// The service's typed error, read back from the error body over HTTP
    /// by [`wire_error`]; a transport failure is a typed
    /// [`ServiceError::Internal`]. An answer that does not read back as a
    /// typed error is [`SubmitError::Untyped`].
    pub fn submit(&self, spec: &JobSpec) -> Result<bool, SubmitError> {
        let Some(addr) = self.addr() else {
            return self
                .service
                .submit_blocking(spec, None)
                .map(|(_, cached)| cached)
                .map_err(SubmitError::Typed);
        };
        let body = spec.to_json().to_string_compact();
        match http_request(addr, "POST", "/v1/jobs", Some(&body)) {
            Ok((200, payload)) => {
                Ok(json::parse(&payload).is_ok_and(|v| v.get("cached") == Some(&Json::Bool(true))))
            }
            Ok((status, payload)) => Err(wire_error(status, &payload)),
            Err(e) => Err(SubmitError::Typed(ServiceError::Internal(format!(
                "http: {e}"
            )))),
        }
    }

    /// Drains the service (and stops the listener).
    pub fn shutdown(self) {
        match self.server {
            Some(mut server) => server.shutdown(),
            None => self.service.shutdown(),
        }
    }
}

/// Why a [`Target::submit`] returned no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The service's own typed error.
    Typed(ServiceError),
    /// A non-200 answer that is not a typed error body with its matching
    /// status: an unknown code, a code answered with another status, a
    /// body that is not JSON. Only a typed error says whether a retry can
    /// help, so this is never retried.
    Untyped {
        /// The answered status.
        status: u16,
        /// The answered body.
        body: String,
    },
}

impl SubmitError {
    /// Whether a client should back off and resubmit: a typed error that
    /// [`ServiceError::is_client_retryable`] allows.
    #[must_use]
    pub fn is_client_retryable(&self) -> bool {
        matches!(self, SubmitError::Typed(e) if e.is_client_retryable())
    }
}

/// Reads a non-200 `{"error": code, "message": …}` body back as a typed
/// error: the `error` field decodes by [`ServiceError::from_wire`], and the
/// answered status must be that error's [`ServiceError::http_status`].
/// Anything else is [`SubmitError::Untyped`].
#[must_use]
pub fn wire_error(status: u16, body: &str) -> SubmitError {
    let parsed = json::parse(body).unwrap_or(Json::Null);
    let field = |key: &str| match parsed.get(key) {
        Some(Json::String(s)) => s.as_str(),
        _ => "",
    };
    ServiceError::from_wire(field("error"), field("message"))
        .filter(|e| e.http_status() == status)
        .map_or_else(
            || SubmitError::Untyped {
                status,
                body: body.to_string(),
            },
            SubmitError::Typed,
        )
}

/// One spawned `si_serve --workers 1 --queue 32` child; killed on drop.
pub struct Serve {
    child: Mutex<Option<std::process::Child>>,
    /// Where the child listens.
    pub addr: SocketAddr,
}

/// Spawns `si_serve` on an ephemeral port over `cache_dir` (not wiped, so
/// a restart finds what the last child persisted) and reads the bound
/// address off its first stdout line.
///
/// # Panics
///
/// If the binary cannot start or does not announce its address.
#[must_use]
pub fn spawn_serve(serve_bin: &Path, cache_dir: &Path) -> Serve {
    use std::io::BufRead;
    let mut child = std::process::Command::new(serve_bin)
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--queue", "32"])
        .arg("--cache-dir")
        .arg(cache_dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", serve_bin.display()));
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read si_serve banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected si_serve banner {line:?}"))
        .parse()
        .expect("si_serve address");
    Serve {
        child: Mutex::new(Some(child)),
        addr,
    }
}

impl Serve {
    /// SIGKILLs the child and reaps it; later calls do nothing.
    pub fn kill(&self) {
        let child = self.child.lock().map(|mut c| c.take());
        if let Ok(Some(mut child)) = child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The `si_serve` binary: `flag` when given, else the one next to this
/// executable.
///
/// # Panics
///
/// If no binary exists at that path.
#[must_use]
pub fn serve_bin_path(flag: Option<&str>) -> PathBuf {
    let serve_bin = flag.map_or_else(
        || {
            std::env::current_exe()
                .expect("current exe")
                .with_file_name("si_serve")
        },
        PathBuf::from,
    );
    assert!(
        serve_bin.exists(),
        "si_serve binary not found at {} (build it or pass --serve-bin)",
        serve_bin.display()
    );
    serve_bin
}

/// A per-process scratch directory `si-{tag}-{pid}` under the system temp
/// dir, emptied first.
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("si-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The 64K-sample `tran_stream` job of the streaming gates: 16 chunks of
/// 4096 steps, one checkpoint each.
#[must_use]
pub fn stream_spec() -> JobSpec {
    JobSpec::TranStream {
        stages: 3,
        bias_ua: 20.0,
        input_ua: 2.0,
        steps: 1 << 16,
        dt_ns: 50.0,
        clock_hz: 2.0e6,
        chunk_steps: 4096,
        seg_len: 4096,
    }
}

/// Silences the backtraces of injected worker panics while still printing
/// any real panic.
pub fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<&str>()
            .map(|m| m.contains("injected fault"))
            .or_else(|| {
                payload
                    .downcast_ref::<String>()
                    .map(|m| m.contains("injected fault"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
}

// ---- drive ---------------------------------------------------------------

/// Runs `f(client, k)` for every `k < n` on `clients` threads, item `k` on
/// client `k % clients` in increasing order; bumps `done` after each item.
/// Returns the results in item order.
///
/// # Panics
///
/// If `clients` is zero or a client thread panics.
pub fn fan_out<T: Send>(
    n: usize,
    clients: usize,
    done: Option<&AtomicU64>,
    f: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    let f = &f;
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    (c..n)
                        .step_by(clients)
                        .map(|k| {
                            let out = f(c, k);
                            if let Some(done) = done {
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                            (k, out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (k, out) in handle.join().expect("client thread panicked") {
                slots[k] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every item ran"))
        .collect()
}

/// Runs `attempt` until it succeeds, fails with an error `retryable`
/// rejects, or `policy` has no delay left. Returns the last result and the
/// retries spent.
pub fn retrying<T, E>(
    policy: &RetryPolicy,
    retryable: impl Fn(&E) -> bool,
    mut attempt: impl FnMut() -> Result<T, E>,
) -> (Result<T, E>, u64) {
    let mut retries = 0u32;
    loop {
        match attempt() {
            Err(e) if retryable(&e) => match policy.delay(retries) {
                Some(delay) => {
                    std::thread::sleep(delay);
                    retries += 1;
                }
                None => return (Err(e), u64::from(retries)),
            },
            done => return (done, u64::from(retries)),
        }
    }
}

/// The client-side failover policy for submissions through a router.
#[must_use]
pub fn failover_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 10,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(500),
        multiplier: 2,
        jitter_seed: Some(seed),
    }
}

/// POSTs one serialized job, retrying transport errors and 5xx answers on
/// `policy`. Returns the 200 body.
///
/// # Errors
///
/// The last answer once it is final or the retries run out.
pub fn submit_retrying(
    addr: SocketAddr,
    body: &str,
    policy: &RetryPolicy,
) -> Result<String, String> {
    let retryable = |(status, _): &(u16, String)| *status == 0 || (500..=599).contains(status);
    retrying(policy, retryable, || {
        match http_request(addr, "POST", "/v1/jobs", Some(body)) {
            Ok((200, payload)) => Ok(payload),
            Ok(answer) => Err(answer),
            Err(e) => Err((0, format!("http: {e}"))),
        }
    })
    .0
    .map_err(|(status, payload)| format!("status {status}: {payload}"))
}

/// Posts every body to `addr` with [`submit_retrying`] from `clients`
/// threads, client `c` jittering with seed `seed + c`. Returns each job's
/// 200 body, `None` where the job was lost.
pub fn post_all(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
    seed: u64,
    done: Option<&AtomicU64>,
) -> Vec<Option<String>> {
    fan_out(bodies.len(), clients, done, |c, k| {
        submit_retrying(addr, &bodies[k], &failover_policy(seed + c as u64))
            .inspect_err(|e| eprintln!("job {k} lost: {e}"))
            .ok()
    })
}

/// Runs `phase` with a completed-job counter (for [`fan_out`]) while a
/// second thread calls `kill` once a quarter of `jobs` completed, or after
/// 60 s. Returns both results.
///
/// # Panics
///
/// If the killer thread panics.
pub fn kill_at_quarter<T, K: Send>(
    jobs: usize,
    kill: impl FnOnce() -> K + Send,
    phase: impl FnOnce(&AtomicU64) -> T,
) -> (T, K) {
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let completed = &completed;
        let killer = scope.spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while completed.load(Ordering::Relaxed) < (jobs / 4) as u64 && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            kill()
        });
        let out = phase(completed);
        (out, killer.join().expect("killer thread panicked"))
    })
}

// ---- check ---------------------------------------------------------------

/// The `values` array of a `/v1/jobs` response; empty when absent or
/// not all numbers.
#[must_use]
pub fn values_of(payload: &str) -> Vec<f64> {
    match json::parse(payload)
        .ok()
        .as_ref()
        .and_then(|v| v.get("values"))
    {
        Some(Json::Array(items)) => items
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()
            .unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// Whether two value vectors are equal bit for bit (so `0.0 != -0.0`, and
/// NaNs match only with the same bits).
#[must_use]
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One number out of a metrics snapshot; 0.0 when absent.
#[must_use]
pub fn metric(metrics: &Json, section: &str, key: &str) -> f64 {
    metrics
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A remote `/metrics` snapshot; [`Json::Null`] when the scrape fails.
#[must_use]
pub fn scrape(addr: SocketAddr) -> Json {
    match http_request(addr, "GET", "/metrics", None) {
        Ok((200, body)) => json::parse(&body).unwrap_or(Json::Null),
        _ => Json::Null,
    }
}

/// Each router shard's replica and forward count, in ring order.
#[must_use]
pub fn shard_forwards(router_metrics: &Json) -> Vec<(String, f64)> {
    let Some(Json::Array(shards)) = router_metrics.get("shards") else {
        return Vec::new();
    };
    shards
        .iter()
        .map(|s| {
            let replica = match s.get("replica") {
                Some(Json::String(name)) => name.clone(),
                _ => String::new(),
            };
            let forwards = s.get("forwards").and_then(Json::as_f64).unwrap_or(0.0);
            (replica, forwards)
        })
        .collect()
}

// ---- gate and report -----------------------------------------------------

/// A mode's report and the gates it failed.
pub struct Gates {
    /// The report written when the mode finishes.
    pub report: RunReport,
    /// The one-line result printed after the report path.
    pub summary: String,
    failures: Vec<String>,
}

impl Gates {
    /// Gates for one run, reporting as `experiment`.
    #[must_use]
    pub fn new(experiment: &str) -> Gates {
        Gates {
            report: RunReport::new(experiment),
            summary: String::new(),
            failures: Vec::new(),
        }
    }

    /// Fails the run with `why` unless `ok`.
    pub fn require(&mut self, ok: bool, why: impl Into<String>) {
        if !ok {
            self.failures.push(why.into());
        }
    }

    /// Whether every gate so far held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Writes the report, prints the summary and every `FAIL:` line, and
    /// exits 1 if any gate failed.
    pub fn finish(self) {
        match self.report.write(experiments_dir()) {
            Ok(path) => println!("report: {}", path.display()),
            Err(e) => eprintln!("could not write report: {e}"),
        }
        println!("{}", self.summary);
        if !self.failures.is_empty() {
            for f in &self.failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("all gates passed");
    }
}

/// A mode of a gate binary: the switch that selects it and its run.
pub type Mode = (&'static str, fn(&Flags) -> Gates);

/// Runs the first mode whose switch is on (else `default`) and finishes
/// its gates.
pub fn run_mode(flags: &Flags, modes: &[Mode], default: fn(&Flags) -> Gates) {
    let run = modes
        .iter()
        .find(|(switch, _)| flags.on(switch))
        .map_or(default, |&(_, run)| run);
    run(flags).finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(table: &[Flag], args: &[&str]) -> Result<Flags, String> {
        parse_flags(table, args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn flag_parser_reports_bad_command_lines() {
        let table = [
            Flag::switch("--http"),
            Flag::int("--iters", 100, 10),
            Flag::text("--router"),
        ];
        assert_eq!(
            parse(&table, &["--nope"]).unwrap_err(),
            "unknown flag \"--nope\""
        );
        assert_eq!(
            parse(&table, &["--router"]).unwrap_err(),
            "--router requires a value"
        );
        assert_eq!(
            parse(&table, &["--iters"]).unwrap_err(),
            "--iters requires a value"
        );
        assert_eq!(
            parse(&table, &["--iters", "ten"]).unwrap_err(),
            "--iters must be an integer"
        );
        assert_eq!(
            parse(&table, &["--iters", "-1"]).unwrap_err(),
            "--iters must be an integer"
        );
    }

    #[test]
    fn flag_parser_applies_defaults_and_lower_clamps() {
        let table = [
            Flag::switch("--http"),
            Flag::int("--iters", 100, 10),
            Flag::int("--scenarios", 32, 2),
            Flag::int("--kill-pid", 0, 0),
            Flag::text("--replica"),
        ];
        let none = parse(&table, &[]).unwrap();
        assert!(!none.on("--http"));
        assert_eq!(none.int("--iters"), 100);
        assert_eq!(none.opt_int("--kill-pid"), None);
        assert_eq!(none.text("--replica"), None);

        let given = parse(
            &table,
            &[
                "--iters",
                "3",
                "--scenarios",
                "1",
                "--http",
                "--kill-pid",
                "0",
                "--replica",
                "a:1",
                "--replica",
                "b:2",
            ],
        )
        .unwrap();
        assert!(given.on("--http"));
        assert_eq!(given.int("--iters"), 10, "raised to the minimum");
        assert_eq!(given.int("--scenarios"), 2, "raised to the minimum");
        assert_eq!(given.opt_int("--kill-pid"), Some(0));
        assert_eq!(given.texts("--replica").collect::<Vec<_>>(), ["a:1", "b:2"]);
        assert_eq!(given.text("--replica"), Some("b:2"));
        assert_eq!(
            parse(&table, &["--iters", "500"]).unwrap().int("--iters"),
            500
        );
    }

    #[test]
    fn fan_out_runs_each_item_once_on_client_k_mod_clients() {
        let done = AtomicU64::new(0);
        let order = Mutex::new(Vec::new());
        let out = fan_out(23, 4, Some(&done), |c, k| {
            order.lock().unwrap().push((c, k));
            (c, k)
        });
        assert_eq!(done.load(Ordering::Relaxed), 23);
        assert_eq!(out.len(), 23);
        for (k, &(c, item)) in out.iter().enumerate() {
            assert_eq!(item, k);
            assert_eq!(c, k % 4);
        }
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 23, "each item ran exactly once");
        for c in 0..4 {
            let mine: Vec<usize> = order.iter().filter(|p| p.0 == c).map(|p| p.1).collect();
            let expected: Vec<usize> = (c..23).step_by(4).collect();
            assert_eq!(mine, expected, "client {c} runs its items in order");
        }
        // More clients than items: the idle clients run nothing.
        assert_eq!(fan_out(2, 5, None, |c, k| (c, k)), [(0, 0), (1, 1)]);
    }

    #[test]
    fn bit_identity_is_exact() {
        assert!(bit_identical(&[1.0, 2.5], &[1.0, 2.5]));
        assert!(!bit_identical(&[0.0], &[-0.0]));
        assert!(!bit_identical(&[1.0], &[1.0, 1.0]));
        assert!(bit_identical(&[f64::NAN], &[f64::NAN]));
        assert!(!bit_identical(&[f64::NAN], &[-f64::NAN]));
        assert_eq!(
            values_of(r#"{"cached":false,"values":[1.5,-0.0]}"#),
            [1.5, -0.0]
        );
        assert!(values_of("not json").is_empty());
    }

    #[test]
    fn wire_errors_map_back_by_their_error_field() {
        let typed_code = |answer: SubmitError| match answer {
            SubmitError::Typed(e) => e.code(),
            SubmitError::Untyped { status, .. } => panic!("untyped {status} answer"),
        };
        let variants = [
            ServiceError::Overloaded { queue_capacity: 8 },
            ServiceError::DeadlineExceeded,
            ServiceError::Canceled,
            ServiceError::InvalidSpec("bad stages".into()),
            ServiceError::Analysis("no convergence".into()),
            ServiceError::Transient("iteration budget".into()),
            ServiceError::Internal("worker panicked".into()),
            ServiceError::ShuttingDown,
            ServiceError::NetlistRejected("line 2".into()),
            ServiceError::BudgetExceeded {
                resource: "nodes",
                actual: 9,
                limit: 4,
            },
        ];
        for err in &variants {
            let body = Json::Object(vec![
                ("error".to_string(), Json::String(err.code().to_string())),
                ("message".to_string(), Json::String(err.to_string())),
            ])
            .to_string_compact();
            assert_eq!(typed_code(wire_error(err.http_status(), &body)), err.code());
            // A message quoting another variant's code does not fool it.
            let decoy = Json::Object(vec![
                ("error".to_string(), Json::String(err.code().to_string())),
                (
                    "message".to_string(),
                    Json::String("\"overloaded\" \"netlist_rejected\"".into()),
                ),
            ])
            .to_string_compact();
            assert_eq!(
                typed_code(wire_error(err.http_status(), &decoy)),
                err.code()
            );
        }
        // An unknown code, a body that is not JSON, and a known code
        // answered with another status all read as untyped, and none is
        // ever retried.
        for (status, body) in [
            (404, r#"{"error":"not_found","message":"overloaded"}"#),
            (502, "<html>"),
            (408, r#"{"error":"invalid_spec","message":"read timeout"}"#),
            (400, r#"{"error":"netlist_rejected","message":"x"}"#),
        ] {
            let answer = wire_error(status, body);
            assert_eq!(
                answer,
                SubmitError::Untyped {
                    status,
                    body: body.to_string()
                }
            );
            assert!(!answer.is_client_retryable());
        }
        assert!(wire_error(503, r#"{"error":"overloaded","message":""}"#).is_client_retryable());
    }
}
