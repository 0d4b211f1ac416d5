//! Minimal HTTP/1.1 framing over `std::net`, plus the tiny blocking
//! client `loadgen` and the tests drive requests with.
//!
//! The daemon speaks exactly the subset it needs: request line, headers,
//! `Content-Length` bodies (no chunked encoding), `Connection:
//! close`/`keep-alive`, and fixed-size limits that bound what a client
//! can make the server buffer.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// Request method, uppercased by the client as sent.
    pub method: String,
    /// Request path (query strings are not used by this API).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Reads one request from the connection. `Ok(None)` means the peer
/// closed cleanly before sending another request (normal keep-alive
/// teardown).
///
/// # Errors
///
/// Malformed framing or a request exceeding the size limits.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Request>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    // Every head line is read through a `take` of the bytes the cap still
    // allows, so no line — newline or not — is buffered past
    // `MAX_HEAD_BYTES`.
    let mut head_left = MAX_HEAD_BYTES as u64;
    let mut read_head_line = |line: &mut String| -> io::Result<usize> {
        let n = reader.by_ref().take(head_left).read_line(line)?;
        head_left -= n as u64;
        if head_left == 0 && !line.ends_with('\n') {
            return Err(bad("request head too large"));
        }
        Ok(n)
    };
    let mut line = String::new();
    if read_head_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line without path"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad("request line without version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive unless the client opts out.
    let mut keep_alive = !version.ends_with("1.0");
    loop {
        let mut header = String::new();
        if read_head_line(&mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(bad("request body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
    }))
}

/// Writes one response with the given status and JSON body, announcing
/// whether the server will keep the connection open.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// One client response: status code and body text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Blocking one-shot request (`Connection: close`): connects, sends,
/// reads the full response, disconnects. `body = None` sends a GET.
///
/// # Errors
///
/// Connection, I/O, or response-framing failures.
pub fn request(
    addr: impl ToSocketAddrs,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    let (method, payload) = match body {
        Some(b) => ("POST", b),
        None => ("GET", ""),
    };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: rtpfd\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;

    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?,
                );
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8(buf).map_err(|_| bad("non-utf8 body"))?
        }
        None => {
            let mut buf = String::new();
            reader.read_to_string(&mut buf)?;
            buf
        }
    };
    Ok(ClientResponse { status, body })
}
