//! A minimal blocking HTTP/1.1 client for the conformance and
//! malformed-request suites and the operator benchmark's serving
//! workloads: keep-alive GETs against a loopback server, strict
//! `Content-Length` framing, no external dependency.

use crate::ServeError;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive connection to one server.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connects with the given socket deadlines.
    pub fn connect(addr: SocketAddr, timeout_ms: u64) -> Result<Self, ServeError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ServeError::Io(format!("connect {addr}: {e}")))?;
        let timeout = Duration::from_millis(timeout_ms.max(1));
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| ServeError::Io(format!("read timeout: {e}")))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| ServeError::Io(format!("write timeout: {e}")))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issues `GET path` and returns `(status, body)`. The connection
    /// stays usable for the next request unless the server closed it.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), ServeError> {
        let req = format!("GET {path} HTTP/1.1\r\nHost: logdep\r\n\r\n");
        self.stream
            .write_all(req.as_bytes())
            .map_err(|e| ServeError::Io(format!("send: {e}")))?;
        self.read_response()
    }

    /// Direct access for tests that need to write partial or malformed
    /// bytes on the wire.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    fn read_response(&mut self) -> Result<(u16, String), ServeError> {
        // Accumulate until the head terminator.
        let head_end = loop {
            if let Some(p) = find_blank(&self.buf) {
                break p;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(self.buf.get(..head_end).unwrap_or(&[])).into_owned();
        let status = parse_status(&head)?;
        let content_length = parse_content_length(&head)?;
        let body_start = head_end;
        while self.buf.len() < body_start + content_length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(
            self.buf
                .get(body_start..body_start + content_length)
                .unwrap_or(&[]),
        )
        .into_owned();
        // Keep any pipelined surplus for the next call.
        self.buf.drain(..body_start + content_length);
        Ok((status, body))
    }

    fn fill(&mut self) -> Result<(), ServeError> {
        let mut chunk = [0u8; 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(ServeError::Protocol("server closed the connection".into())),
            Ok(n) => {
                self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                Ok(())
            }
            Err(e) => Err(ServeError::Io(format!("recv: {e}"))),
        }
    }
}

fn find_blank(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_status(head: &str) -> Result<u16, ServeError> {
    head.lines()
        .next()
        .and_then(|line| line.split_ascii_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| ServeError::Protocol(format!("bad status line in {head:?}")))
}

fn parse_content_length(head: &str) -> Result<usize, ServeError> {
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                return value
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::Protocol(format!("bad content-length {value:?}")));
            }
        }
    }
    Err(ServeError::Protocol("missing content-length".into()))
}
