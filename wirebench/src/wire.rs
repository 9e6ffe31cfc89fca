//! The server under test as a child process, and a closed-loop NDJSON
//! client for it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `fedex serve` flags every run uses; recorded with each result.
#[derive(Debug, Clone)]
pub struct ServerFlags {
    /// General scheduler workers.
    pub workers: usize,
    /// Pipeline execution mode (`serial`, `parallel`, or a count).
    pub exec: &'static str,
    /// Artifact-cache budget in MiB.
    pub cache_mb: usize,
    /// Cache eviction policy.
    pub cache_policy: &'static str,
    /// Heavy-queue bound.
    pub queue_depth: usize,
    /// Per-session heavy-request quota.
    pub session_quota: usize,
    /// Degradation policy; `off`, so every answer is a full explain.
    pub degrade: &'static str,
}

impl Default for ServerFlags {
    fn default() -> Self {
        ServerFlags {
            workers: 2,
            exec: "parallel",
            cache_mb: 512,
            cache_policy: "cost",
            queue_depth: 64,
            session_quota: 2,
            degrade: "off",
        }
    }
}

impl ServerFlags {
    /// The `fedex serve` argument list (after the `serve` word).
    pub fn args(&self) -> Vec<String> {
        [
            ("--addr", "127.0.0.1:0".to_string()),
            ("--workers", self.workers.to_string()),
            ("--exec", self.exec.to_string()),
            ("--cache-mb", self.cache_mb.to_string()),
            ("--cache-policy", self.cache_policy.to_string()),
            ("--queue-depth", self.queue_depth.to_string()),
            ("--session-quota", self.session_quota.to_string()),
            ("--degrade", self.degrade.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
    }
}

/// A running `fedex serve` child process.
pub struct ServerProc {
    child: Child,
    /// `host:port` the server listens on.
    pub addr: String,
    log: Arc<Mutex<String>>,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Start the server (this executable's `serve` subcommand, which runs
    /// `fedex serve` in process) and wait until it listens.
    pub fn start(flags: &ServerFlags) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(flags.args())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning server: {e}"))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let log = Arc::new(Mutex::new(String::new()));
        let (tx, rx) = mpsc::channel();
        let drain_log = log.clone();
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
                let mut log = drain_log.lock().unwrap();
                log.push_str(&line);
                log.push('\n');
            }
        });
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            log,
            drain: Some(drain),
        };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) if !addr.is_empty() => {
                proc.addr = addr;
                Ok(proc)
            }
            _ => Err(format!(
                "server did not report a listening address; its log:\n{}",
                proc.log()
            )),
        }
    }

    /// The server process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Everything the server wrote to stderr so far.
    pub fn log(&self) -> String {
        self.log.lock().unwrap().clone()
    }

    /// Peak resident set size (`VmHWM`) of the server, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Ask the server to shut down and wait for the process to end
    /// (killing it after a grace period).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::connect(&self.addr)
            .and_then(|mut c| c.call(r#"{"cmd":"shutdown"}"#).map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.join_drain();
                    return match (asked, status.success()) {
                        (Ok(_), true) => Ok(()),
                        (asked, _) => Err(format!(
                            "server exited with {status} (shutdown request: {asked:?}); log:\n{}",
                            self.log()
                        )),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    self.join_drain();
                    return Err("server did not stop within 15 s of a shutdown request".into());
                }
            }
        }
    }

    fn join_drain(&mut self) {
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.join_drain();
    }
}

/// One NDJSON connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 20, stream),
            writer,
            buf: Vec::new(),
        })
    }

    /// Send one request line and read one response line. Returns the
    /// response (without the newline), the instant the send began, and
    /// the instant the whole response line had been read.
    pub fn call_timed(&mut self, line: &str) -> std::io::Result<(String, Instant, Instant)> {
        self.buf.clear();
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let n = self.reader.read_until(b'\n', &mut self.buf)?;
        let end = Instant::now();
        if n == 0 || self.buf.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.pop();
        let text = String::from_utf8(std::mem::take(&mut self.buf))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok((text, start, end))
    }

    /// [`Conn::call_timed`] without the timestamps.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.call_timed(line).map(|(text, _, _)| text)
    }

    /// Close the connection and wait for the server to hang up.
    pub fn close(mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        let _ = self.reader.read_to_end(&mut Vec::new());
    }
}
