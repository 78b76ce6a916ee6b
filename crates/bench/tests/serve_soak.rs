//! Soak/chaos test for `simrun serve` over TCP: concurrent clients,
//! malformed requests, poison queries under tiny budgets, a client that
//! disconnects mid-response, a SIGKILL mid-run with a byte-identity
//! check on the restarted server's cache, and a SIGTERM graceful drain.
//!
//! Everything here drives the real binary (`CARGO_BIN_EXE_simrun`)
//! through real sockets — the in-process unit tests in
//! `kagura_bench::serve` already cover the core logic; this file pins
//! the process-level contract: the server survives hostile clients and
//! dies only when asked, cleanly.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kagura_serve_soak_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `simrun serve` child. Dropping it kills and reaps the
/// process, so a failed assertion never leaves a server behind.
struct Server(Child);

impl Server {
    /// Waits for the server to exit on its own.
    fn wait(&mut self) -> ExitStatus {
        self.0.wait().expect("wait for server")
    }

    /// SIGKILLs the server and reaps it.
    fn kill(&mut self) {
        self.0.kill().expect("SIGKILL");
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Both are no-ops on a server that was already reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `simrun serve --tcp 127.0.0.1:0` and waits for the port file.
fn spawn_server(dir: &Path, extra: &[&str]) -> (Server, String) {
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let server = Command::new(env!("CARGO_BIN_EXE_simrun"))
        .arg("serve")
        .args(["--tcp", "127.0.0.1:0"])
        .args(["--port-file", port_file.to_str().unwrap()])
        .args(["--state", dir.join("state.jsonl").to_str().unwrap()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map(Server)
        .expect("spawn simrun serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.trim().is_empty() {
                return (server, addr.trim().to_string());
            }
        }
        assert!(Instant::now() < deadline, "server never wrote its port file");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One request/response round trip on a fresh connection.
fn request(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    writeln!(stream, "{line}").expect("write request");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    assert!(response.ends_with('\n'), "response must be one NDJSON line: {response:?}");
    response.trim_end().to_string()
}

fn parsed(response: &str) -> Value {
    serde_json::from_str(response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

fn error_kind(v: &Value) -> Option<&str> {
    v.get("error")?.get("kind")?.as_str()
}

const QUERY: &str = r#"{"op":"query","id":"soak","app":"sha","scale":0.004,"governor":"kagura"}"#;

#[test]
fn soak_chaos_sigkill_restart_and_byte_identity() {
    let dir = tmp("chaos");
    let (mut server, addr) = spawn_server(&dir, &["--workers", "2", "--queue-depth", "8"]);

    // Concurrent clients: valid queries, malformed lines, and poison
    // queries under a tiny instruction budget, all at once.
    let mut threads = Vec::new();
    for i in 0..4 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            for round in 0..3 {
                let (line, expect_ok, expect_kind) = match (i + round) % 3 {
                    0 => (QUERY.to_string(), true, None),
                    1 => (
                        format!(
                            r#"{{"op":"query","id":"p{i}","app":"crc32","scale":0.01,"max_insts":40}}"#
                        ),
                        false,
                        Some("budget_exhausted"),
                    ),
                    _ => (format!(r#"{{"op":"qeury","id":{i}}}"#), false, Some("bad_request")),
                };
                let v = parsed(&request(&addr, &line));
                assert_eq!(v.get("ok"), Some(&Value::Bool(expect_ok)), "{line} -> {v:?}");
                if let Some(kind) = expect_kind {
                    assert_eq!(error_kind(&v), Some(kind), "{line} -> {v:?}");
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }

    // A client that sends a query and hangs up before reading the
    // response must only kill its own connection.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        writeln!(stream, "{QUERY}").unwrap();
        drop(stream);
    }
    let health = parsed(&request(&addr, r#"{"op":"health","id":"alive"}"#));
    assert_eq!(
        health.get("health").and_then(|h| h.get("status")).and_then(Value::as_str),
        Some("ok"),
        "server must survive a mid-response disconnect: {health:?}"
    );

    // Capture the canonical response bytes, then SIGKILL the server.
    let before = request(&addr, QUERY);
    assert_eq!(parsed(&before).get("ok"), Some(&Value::Bool(true)));
    server.kill();

    // A restarted server must warm from the persisted cache and serve
    // the same query byte-identically — as a cache hit, not a re-run.
    let (mut server, addr) = spawn_server(&dir, &["--workers", "2"]);
    let after = request(&addr, QUERY);
    assert_eq!(before, after, "restart must preserve response bytes");
    let metrics = parsed(&request(&addr, r#"{"op":"metrics","id":"m"}"#));
    let text = serde_json::to_string(&metrics).unwrap();
    assert!(
        text.contains(r#"{"name":"server_cache_hits","value":1}"#),
        "the repeat must be a cache hit on the restarted server: {text}"
    );
    assert!(
        text.contains(r#"{"name":"server_cache_misses","value":0}"#),
        "nothing may have re-run: {text}"
    );

    // Graceful shutdown via the shutdown op: exit code 0.
    let bye = parsed(&request(&addr, r#"{"op":"shutdown","id":"bye"}"#));
    assert_eq!(bye.get("ok"), Some(&Value::Bool(true)));
    let status = server.wait();
    assert_eq!(status.code(), Some(0), "drain must exit cleanly");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigterm_drains_in_flight_work_and_exits_cleanly() {
    let dir = tmp("sigterm");
    let (mut server, addr) = spawn_server(&dir, &["--workers", "1"]);

    // Start a query, then SIGTERM the server while it is in flight.
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || request(&addr, QUERY))
    };
    std::thread::sleep(Duration::from_millis(50));
    let term = Command::new("kill")
        .args(["-TERM", &server.0.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // The in-flight request must still complete with a full response.
    let response = in_flight.join().expect("client thread");
    assert_eq!(parsed(&response).get("ok"), Some(&Value::Bool(true)), "{response}");

    let status = server.wait();
    assert_eq!(status.code(), Some(0), "SIGTERM drain must exit cleanly");

    // The drained cache state must warm the next server generation.
    let (mut server, addr) = spawn_server(&dir, &[]);
    assert_eq!(request(&addr, QUERY), response, "post-drain restart must serve cached bytes");
    server.kill();
    std::fs::remove_dir_all(&dir).unwrap();
}
