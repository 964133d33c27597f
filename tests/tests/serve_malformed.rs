//! Robustness of the query server against hostile or broken clients:
//! truncated request lines, oversized heads, slowloris partial writes,
//! unknown methods, and connection-limit overflow all get a 4xx/5xx
//! answer (or a clean close) — and the server keeps answering
//! well-formed requests afterwards. Nothing here may panic the server.

#![allow(
    clippy::disallowed_methods,
    reason = "test harness: the server loop runs on its own thread beside the clients"
)]

use logdep_serve::{HttpClient, ModelIndex, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Starts a server over an empty index — protocol robustness does not
/// need mined models.
fn start(cfg: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(cfg, ModelIndex::empty(1)).expect("bind loopback");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        logdep_serve::run_server(server, None).expect("serve loop");
    });
    (handle, join)
}

fn short_timeouts() -> ServeConfig {
    ServeConfig {
        workers: 2,
        request_timeout_ms: 200,
        ..ServeConfig::default()
    }
}

/// Sends raw bytes, optionally half-closing the write side, and reads
/// whatever the server answers until it closes the connection.
fn raw_exchange(handle: &ServerHandle, payload: &[u8], shut_write: bool) -> String {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(payload).expect("send");
    if shut_write {
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
    }
    let mut out = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The server must still answer a well-formed request.
fn assert_still_alive(handle: &ServerHandle) {
    let mut client = HttpClient::connect(handle.addr(), 5_000).expect("connect");
    let (status, body) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200, "body: {body}");
}

#[test]
fn truncated_request_line_gets_a_clean_answer() {
    let (handle, join) = start(short_timeouts());
    // Half-close after a partial request line: the server sees EOF
    // mid-head and must treat it as a truncated request, not hang or
    // panic. (A 400 answer is best-effort — the client may be gone.)
    let answer = raw_exchange(&handle, b"GET /v1/mo", true);
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 400"),
        "unexpected answer: {answer:?}"
    );
    // Whole garbage instead of HTTP must be a 400.
    let answer = raw_exchange(&handle, b"th1s 1s n0t http\r\n\r\n", false);
    assert!(answer.starts_with("HTTP/1.1 400"), "answer: {answer:?}");
    assert_still_alive(&handle);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn lowercase_method_and_bad_version_are_rejected() {
    let (handle, join) = start(short_timeouts());
    let answer = raw_exchange(&handle, b"get /healthz HTTP/1.1\r\n\r\n", false);
    assert!(answer.starts_with("HTTP/1.1 400"), "answer: {answer:?}");
    let answer = raw_exchange(&handle, b"GET /healthz HTTP/2.0\r\n\r\n", false);
    assert!(answer.starts_with("HTTP/1.1 400"), "answer: {answer:?}");
    assert_still_alive(&handle);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn oversized_head_is_rejected_with_431() {
    let (handle, join) = start(short_timeouts());
    // 16 KiB of headers with no terminator in sight.
    let mut payload = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..400 {
        payload.extend_from_slice(format!("X-Padding-{i}: {}\r\n", "y".repeat(60)).as_bytes());
    }
    let answer = raw_exchange(&handle, &payload, false);
    assert!(answer.starts_with("HTTP/1.1 431"), "answer: {answer:?}");
    assert_still_alive(&handle);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn slowloris_partial_write_times_out_with_408() {
    let (handle, join) = start(short_timeouts());
    // Send half a request line and then go quiet: the socket read
    // deadline (200 ms here) must fire and answer 408 — the worker is
    // not allowed to wait on a dripping client forever.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(b"GET /v1/model HT").expect("send half");
    let mut out = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let answer = String::from_utf8_lossy(&out).into_owned();
    assert!(answer.starts_with("HTTP/1.1 408"), "answer: {answer:?}");
    assert_still_alive(&handle);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn connection_limit_overflow_answers_503() {
    let (handle, join) = start(ServeConfig {
        workers: 2,
        max_conns: 1,
        request_timeout_ms: 1_000,
        ..ServeConfig::default()
    });
    // Park one connection mid-request to hold the single slot, then
    // connect again: the second connection must be turned away with a
    // 503, not queued behind the slow one.
    let mut parked = TcpStream::connect(handle.addr()).expect("park connect");
    parked.write_all(b"GET /heal").expect("partial");
    std::thread::sleep(Duration::from_millis(50)); // let a worker adopt it
    let mut overflow_seen = false;
    for _ in 0..10 {
        let answer = raw_exchange(&handle, b"GET /healthz HTTP/1.1\r\n\r\n", false);
        if answer.starts_with("HTTP/1.1 503") {
            overflow_seen = true;
            break;
        }
    }
    assert!(overflow_seen, "no 503 despite a parked connection");
    drop(parked);
    // The slot frees only once the worker holding the parked connection
    // reads its close; until then a new connection is still over the
    // limit and gets the same 503. Wait for that, then demand a 200.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut client = HttpClient::connect(handle.addr(), 5_000).expect("connect");
        let (status, body) = client.get("/healthz").expect("healthz");
        if status == 503 && std::time::Instant::now() < deadline {
            assert!(body.contains("connection limit reached"), "body: {body}");
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        assert_eq!(status, 200, "body: {body}");
        break;
    }
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn unknown_method_and_path_stay_polite() {
    let (handle, join) = start(short_timeouts());
    let answer = raw_exchange(&handle, b"DELETE /v1/model HTTP/1.1\r\n\r\n", false);
    assert!(answer.starts_with("HTTP/1.1 405"), "answer: {answer:?}");
    let mut client = HttpClient::connect(handle.addr(), 5_000).expect("connect");
    let (status, _body) = client.get("/definitely/not/a/route").expect("404 route");
    assert_eq!(status, 404);
    // Keep-alive must survive an application-level 404.
    let (status, _body) = client.get("/healthz").expect("keep-alive");
    assert_eq!(status, 200);
    handle.shutdown();
    join.join().expect("server thread");
}
