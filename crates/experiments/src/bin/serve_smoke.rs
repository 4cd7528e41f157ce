//! `serve_smoke` — a dependency-free HTTP client for exercising
//! `branch-lab serve` from tests and the CI chaos leg.
//!
//! ```text
//! serve_smoke --addr HOST:PORT --get /healthz
//! serve_smoke --addr HOST:PORT --post /run --body '{"study":"fig3","quick":true}'
//! serve_smoke --addr HOST:PORT --post /run --body '…' --concurrent 2
//! ```
//!
//! The response body goes to stdout (so CI can byte-diff it against the
//! equivalent CLI invocation); one status line per response goes to
//! stderr in the form
//! `serve_smoke: status=200 cache=miss key=0123456789abcdef`. With
//! `--concurrent K` the same request is fired from K threads at once and
//! the bodies are asserted identical — the request-coalescing check
//! (one execution per key, the rest `join` or `hit`). Exit is
//! nonzero if any response status differs from `--expect` (default 200).
//!
//! Connection attempts retry (`--retries`, default 40 × 50 ms) so the
//! client can be started immediately after the server process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::exit;
use std::time::Duration;

struct SmokeOptions {
    addr: String,
    method: String,
    path: String,
    body: String,
    concurrent: usize,
    expect: u16,
    retries: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_smoke --addr HOST:PORT (--get PATH | --post PATH --body JSON)\n\
         \x20                [--concurrent K] [--expect STATUS] [--retries N]"
    );
    exit(2);
}

fn parse_args() -> SmokeOptions {
    let mut opts = SmokeOptions {
        addr: String::new(),
        method: String::new(),
        path: String::new(),
        body: String::new(),
        concurrent: 1,
        expect: 200,
        retries: 40,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| {
            eprintln!("serve_smoke: {flag} needs a value");
            exit(2);
        });
        match a.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--get" => {
                opts.method = "GET".to_string();
                opts.path = value("--get");
            }
            "--post" => {
                opts.method = "POST".to_string();
                opts.path = value("--post");
            }
            "--body" => opts.body = value("--body"),
            "--concurrent" => {
                opts.concurrent = value("--concurrent").parse().unwrap_or_else(|_| usage());
            }
            "--expect" => opts.expect = value("--expect").parse().unwrap_or_else(|_| usage()),
            "--retries" => opts.retries = value("--retries").parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if opts.addr.is_empty() || opts.method.is_empty() {
        usage();
    }
    opts
}

/// A parsed response: status plus the two cache headers and the body.
struct Reply {
    status: u16,
    cache: String,
    key: String,
    body: Vec<u8>,
}

/// Connects (with readiness retries), sends one request, reads the full
/// `Connection: close` response.
fn exchange(opts: &SmokeOptions) -> Result<Reply, String> {
    let mut stream = connect(&opts.addr, opts.retries)?;
    let request = format!(
        "{} {} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        opts.method,
        opts.path,
        opts.addr,
        opts.body.len()
    );
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.write_all(opts.body.as_bytes()))
        .map_err(|e| format!("send failed: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read failed: {e}"))?;
    parse_response(&raw)
}

fn connect(addr: &str, retries: u32) -> Result<TcpStream, String> {
    let mut last = String::new();
    for attempt in 0..=retries {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
        if attempt < retries {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    Err(format!("cannot connect to {addr}: {last}"))
}

fn parse_response(raw: &[u8]) -> Result<Reply, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header/body separator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {status_line}"))?;
    let mut cache = String::from("-");
    let mut key = String::from("-");
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "x-branch-lab-cache" => cache = value.trim().to_string(),
                "x-branch-lab-key" => key = value.trim().to_string(),
                _ => {}
            }
        }
    }
    Ok(Reply { status, cache, key, body })
}

fn main() {
    let opts = parse_args();
    let replies: Vec<Result<Reply, String>> = if opts.concurrent <= 1 {
        vec![exchange(&opts)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..opts.concurrent)
                .map(|_| scope.spawn(|| exchange(&opts)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
                .collect()
        })
    };

    let mut failed = false;
    let mut first_body: Option<&[u8]> = None;
    for reply in &replies {
        match reply {
            Ok(r) => {
                eprintln!("serve_smoke: status={} cache={} key={}", r.status, r.cache, r.key);
                if r.status != opts.expect {
                    eprintln!(
                        "serve_smoke: expected status {}, got {}: {}",
                        opts.expect,
                        r.status,
                        String::from_utf8_lossy(&r.body).trim_end()
                    );
                    failed = true;
                }
                match first_body {
                    None => first_body = Some(&r.body),
                    Some(first) if first != r.body.as_slice() => {
                        eprintln!("serve_smoke: concurrent responses differ");
                        failed = true;
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                eprintln!("serve_smoke: {e}");
                failed = true;
            }
        }
    }
    if let Some(body) = first_body {
        let mut out = std::io::stdout();
        let _ = out.write_all(body);
        let _ = out.flush();
    }
    if failed {
        exit(1);
    }
}
