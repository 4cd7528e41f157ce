//! A minimal, dependency-free HTTP/1.1 subset for `branch-lab serve`.
//!
//! The workspace is offline-green, so the server cannot lean on hyper or
//! tokio; it implements exactly the slice of HTTP/1.1 the study protocol
//! needs: one request per connection (`Connection: close` semantics),
//! `GET`/`POST`, header parsing, and `Content-Length`-framed bodies.
//! Requests that violate the subset produce structured [`HttpError`]s
//! which the server maps to 4xx responses — a malformed peer can never
//! panic a worker.
//!
//! Hard limits keep a hostile peer from ballooning memory, mirroring the
//! decode hardening of the trace codec: request lines and headers are
//! capped at [`MAX_HEAD_BYTES`], bodies at [`MAX_BODY_BYTES`], and both
//! caps hold *before* allocation. Each head line is read against the
//! head budget still left, so a line with no newline costs at most the
//! cap, never its own length.
//!
//! [`Response::write_to`] serializes the whole response (status line,
//! headers, framing, body) into one buffer and hands it to the stream in
//! one `write_all`, so a reply costs one `write` system call rather than
//! one per formatted fragment.

use std::io::{BufRead, BufReader, Read, Write};

/// Cap on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed before a full request arrived.
    UnexpectedEof,
    /// The request line was not `METHOD PATH HTTP/1.x`.
    BadRequestLine(String),
    /// A header line had no `:` separator.
    BadHeader(String),
    /// The request line + headers exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` was missing/unparseable on a body-carrying
    /// method, or exceeded [`MAX_BODY_BYTES`].
    BadContentLength,
    /// Transport error while reading.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::UnexpectedEof => write!(f, "connection closed mid-request"),
            HttpError::BadRequestLine(line) => write!(f, "malformed request line: {line:?}"),
            HttpError::BadHeader(line) => write!(f, "malformed header: {line:?}"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BadContentLength => write!(f, "missing or oversized Content-Length"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path, without query string (e.g. `/run`).
    pub path: String,
    /// Raw query string (empty when absent), undecoded.
    pub query: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty for bodyless requests).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the (lower-cased) header `name`, if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Length`/`Connection` are added by
    /// [`Response::write_to`]).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status, content type and body.
    #[must_use]
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), content_type.to_string())],
            body: body.into(),
        }
    }

    /// A `200 OK` plain-text response.
    #[must_use]
    pub fn text(body: impl Into<Vec<u8>>) -> Response {
        Response::new(200, "text/plain; charset=utf-8", body)
    }

    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(body: impl Into<Vec<u8>>) -> Response {
        Response::new(200, "application/json", body)
    }

    /// An error response; the body is `detail` plus a newline.
    #[must_use]
    pub fn error(status: u16, detail: &str) -> Response {
        Response::new(status, "text/plain; charset=utf-8", format!("{detail}\n"))
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The standard reason phrase for the status code.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serializes the response (status line, headers, framing, body) to
    /// `out` in a single `write_all`. Always closes the connection
    /// (`Connection: close`).
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        // Formatting straight onto a socket costs one `write` per
        // fragment; assemble the reply first and send it once.
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(wire, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        write!(wire, "Content-Length: {}\r\n", self.body.len())?;
        wire.extend_from_slice(b"Connection: close\r\n\r\n");
        wire.extend_from_slice(&self.body);
        out.write_all(&wire)?;
        out.flush()
    }
}

/// Reads one request from `stream` (blocking, one request per
/// connection). The server passes its `TcpStream`; any reader works.
///
/// # Errors
///
/// Returns a structured [`HttpError`] for every malformed or oversized
/// input — never panics, never reads a head line past what is left of
/// [`MAX_HEAD_BYTES`], never allocates proportionally to a hostile
/// `Content-Length` beyond [`MAX_BODY_BYTES`].
pub fn read_request(stream: impl Read) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head_bytes = 0usize;

    let line = read_head_line(&mut reader, &mut head_bytes)?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_uppercase(), t.to_string(), v),
        _ => return Err(HttpError::BadRequestLine(line.clone())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequestLine(line.clone()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_head_line(&mut reader, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadHeader(line.clone()));
        };
        headers.push((name.trim().to_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map(|(_, value)| value.parse::<usize>().map_err(|_| HttpError::BadContentLength))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BadContentLength);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => HttpError::UnexpectedEof,
                _ => HttpError::Io(e.to_string()),
            })?;
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Reads one head line, without its line ending, and charges it to
/// `head_bytes`. The read stops one byte past the head budget that is
/// left, so an over-long line is rejected after at most
/// [`MAX_HEAD_BYTES`] + 1 bytes, whatever its length.
fn read_head_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, HttpError> {
    let budget = (MAX_HEAD_BYTES - *head_bytes) as u64 + 1;
    let mut raw = Vec::new();
    let n = reader
        .take(budget)
        .read_until(b'\n', &mut raw)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    if n == 0 {
        return Err(HttpError::UnexpectedEof);
    }
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    let mut line = String::from_utf8(raw)
        .map_err(|_| HttpError::Io("stream did not contain valid UTF-8".to_string()))?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Feeds raw bytes through a real socket pair and parses them.
    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Close the write half so short inputs hit EOF.
            s.shutdown(std::net::Shutdown::Write).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse(
            b"POST /run?manifest=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.query, "manifest=1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_bodyless_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_inputs_are_structured_errors() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(HttpError::BadRequestLine(_))));
        assert!(matches!(
            parse(b"GET /x SPDY/9\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nnocolon\r\n\r\n"),
            Err(HttpError::BadHeader(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: zzz\r\n\r\n"),
            Err(HttpError::BadContentLength)
        ));
        assert!(matches!(parse(b""), Err(HttpError::UnexpectedEof)));
        assert!(matches!(parse(b"GET /x HT"), Err(HttpError::BadRequestLine(_))));
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            u64::MAX
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(HttpError::BadContentLength)
        ));
        let long_header = format!("GET /x HTTP/1.1\r\nh: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(
            parse(long_header.as_bytes()),
            Err(HttpError::HeadTooLarge)
        ));
        // Body shorter than its declared length: EOF, not a hang/panic.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"),
            Err(HttpError::UnexpectedEof)
        ));
    }

    /// A sink that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Writes `response` and returns its bytes and its `write` calls.
    fn wire(response: &Response) -> (Vec<u8>, usize) {
        let mut out = Writes::default();
        response.write_to(&mut out).unwrap();
        (out.0.concat(), out.0.len())
    }

    #[test]
    fn response_serialization_includes_framing() {
        let (bytes, _) = wire(&Response::text("hello").with_header("X-Test", "1"));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("X-Test: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));

        // A cache hit as the study server sends it, with a body the size
        // of a `serve-mix` sweep hit's, and the 400 a worker sends for an
        // unparseable request. The expected bytes are pinned from the
        // fragment-per-`write` serializer (22 and 14 `write` calls) that
        // this one replaced; each response must leave in one call.
        let body: Vec<u8> = (0..254u8).map(|i| b' ' + i % 95).collect();
        let hit = Response::text(body.clone())
            .with_header("X-Branch-Lab-Key", "0123456789abcdef")
            .with_header("X-Branch-Lab-Cache", "hit");
        let hit_head = "HTTP/1.1 200 OK\r\n\
                        Content-Type: text/plain; charset=utf-8\r\n\
                        X-Branch-Lab-Key: 0123456789abcdef\r\n\
                        X-Branch-Lab-Cache: hit\r\n\
                        Content-Length: 254\r\n\
                        Connection: close\r\n\r\n";
        let bad = Response::error(400, &HttpError::HeadTooLarge.to_string());
        let bad_wire = "HTTP/1.1 400 Bad Request\r\n\
                        Content-Type: text/plain; charset=utf-8\r\n\
                        Content-Length: 33\r\n\
                        Connection: close\r\n\r\n\
                        request head exceeds 16384 bytes\n";
        let (hit_bytes, hit_writes) = wire(&hit);
        let (bad_bytes, bad_writes) = wire(&bad);
        assert_eq!(hit_bytes, [hit_head.as_bytes(), &body].concat());
        assert_eq!(bad_bytes, bad_wire.as_bytes());
        assert_eq!((hit_writes, bad_writes), (1, 1), "write calls per response");
    }

    /// A reader that counts the bytes the parser pulls from it.
    struct Pulled<R> {
        inner: R,
        pulled: usize,
    }

    impl<R: Read> Read for Pulled<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.pulled += n;
            Ok(n)
        }
    }

    #[test]
    fn over_long_line_is_rejected_within_the_head_budget() {
        const LINE: u64 = 64 << 20;
        // Reading a line to its newline would buffer all 64 MiB; the
        // budgeted read stops one byte past the cap, and the `BufReader`
        // (8 KiB buffer) pulls at most one buffer beyond what it hands on.
        let mut src = Pulled {
            inner: std::io::repeat(b'a').take(LINE),
            pulled: 0,
        };
        assert!(matches!(read_request(&mut src), Err(HttpError::HeadTooLarge)));
        assert!(
            src.pulled <= MAX_HEAD_BYTES + 8 * 1024,
            "pulled {} of {LINE} bytes",
            src.pulled
        );

        // The same cap holds for a header line after a valid request line.
        let mut src = Pulled {
            inner: b"GET /x HTTP/1.1\r\nh: ".chain(std::io::repeat(b'a').take(LINE)),
            pulled: 0,
        };
        assert!(matches!(read_request(&mut src), Err(HttpError::HeadTooLarge)));
        assert!(src.pulled <= MAX_HEAD_BYTES + 8 * 1024, "pulled {}", src.pulled);

        // A head of exactly the cap still parses.
        let request_line = "GET /x HTTP/1.1\r\n";
        let filler = MAX_HEAD_BYTES - request_line.len() - "h: \r\n\r\n".len();
        let exact = format!("{request_line}h: {}\r\n\r\n", "a".repeat(filler));
        assert_eq!(exact.len(), MAX_HEAD_BYTES);
        let req = read_request(exact.as_bytes()).unwrap();
        assert_eq!(req.header("h").map(str::len), Some(filler));
    }
}
