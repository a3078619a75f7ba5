//! The client side of the benchmark: a keep-alive HTTP/1.1 connection and
//! a handle on one `si_serve` child process.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use si_service::json::{self, Json};

/// One keep-alive connection; reconnects lazily after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(120)))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: si-serve\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        stream.write_all(&req)?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let mut content_length = None;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let len = content_length.ok_or_else(|| bad("no Content-Length"))?;
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }

    /// `GET path` parsed as JSON.
    pub fn get_json(&mut self, path: &str) -> Result<Json, String> {
        let (status, body) = self
            .send("GET", path, b"")
            .map_err(|e| format!("GET {path}: {e}"))?;
        let text = String::from_utf8(body).map_err(|_| format!("GET {path}: non-UTF-8 body"))?;
        if status != 200 {
            return Err(format!("GET {path}: status {status}: {text}"));
        }
        json::parse(&text).map_err(|e| format!("GET {path}: {e}"))
    }
}

/// A running `si_serve` child. Dropping the handle kills the process and
/// waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    _stdout: ChildStdout,
}

impl Server {
    /// Spawns `si_serve` on an ephemeral loopback port and waits until
    /// `/readyz` answers 200.
    pub fn spawn(bin: &Path, workers: usize, cache_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()]);
        cmd.args(["--queue", "256", "--max-conns", "64"]);
        if let Some(dir) = cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "si_serve did not report its address (got {line:?})"
            ));
        };
        let server = Server {
            child,
            addr,
            _stdout: reader.into_inner(),
        };
        server.wait_ready()?;
        Ok(server)
    }

    fn wait_ready(&self) -> Result<(), String> {
        let give_up = Instant::now() + Duration::from_secs(30);
        let mut conn = Conn::new(self.addr);
        loop {
            if let Ok((200, _)) = conn.send("GET", "/readyz", b"") {
                return Ok(());
            }
            if Instant::now() > give_up {
                return Err("si_serve never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `/metrics` flattened to `section.key → value`.
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let doc = Conn::new(self.addr).get_json("/metrics")?;
        let mut flat = BTreeMap::new();
        if let Json::Object(sections) = doc {
            for (section, body) in sections {
                if let Json::Object(pairs) = body {
                    for (k, v) in pairs {
                        if let Some(x) = v.as_f64() {
                            flat.insert(format!("{section}.{k}"), x);
                        }
                    }
                }
            }
        }
        Ok(flat)
    }

    /// Server CPU time (user + system) so far, in ms, from `/proc`.
    pub fn cpu_ms(&self) -> f64 {
        // utime and stime are fields 14 and 15 of /proc/<pid>/stat, counted
        // in USER_HZ ticks, which the Linux ABI fixes at 100 per second.
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (tick(11) + tick(12)) * 10.0
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `after − before` for every counter present in `after`.
pub fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}
