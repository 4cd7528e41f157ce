//! `branch-lab serve` — the long-running study server substrate.
//!
//! The study registry makes every figure a pure, labeled, deterministic
//! function of (study, dataset flags, config), which is exactly the
//! shape of a cacheable RPC. This module provides the
//! protocol-and-plumbing half, kept in `bp-core` so it stays independent
//! of the concrete study set:
//!
//! * [`http`] — a hand-rolled, hardened HTTP/1.1 subset over
//!   `std::net::TcpListener` (the workspace is offline-green; no hyper);
//! * [`cache`] — the content-addressed [`ResultCache`](cache::ResultCache):
//!   a memory tier of `OnceLock` slots, so concurrent identical requests
//!   share one fill, and an LRU disk tier of FNV-1a-framed entry files.
//!   Atomic writes, quarantine and the LRU come from
//!   [`bp_metrics::durable`], the code the trace store uses too;
//! * [`Server`] — a fixed worker pool accepting connections on a shared
//!   listener and dispatching each request to a [`Handler`].
//!
//! The request semantics (JSON schema, registry dispatch, byte-identity
//! with the CLI) live in `bp-experiments`, which owns the studies. A
//! miss executes in-process, so it reads the traces and the per-trace
//! memo ([`crate::memo`]) of the global trace store that every earlier
//! request filled: a sweep trains only the predictors the memo lacks on
//! its trace, under the store's one `BRANCH_LAB_MEM_BUDGET`.
//!
//! Counters: `serve.request` (accepted requests), `serve.http_error`
//! (unparseable requests answered 400), plus the `serve.cache.*` family
//! in [`cache`] and the dispatch-level `serve.exec` / `serve.dedup_join`
//! / `serve.deadline_expired` counters in the experiments layer.

pub mod cache;
pub mod http;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bp_metrics::Counter;

use http::{Request, Response};

/// Handles one parsed request. Implemented by the experiments layer;
/// closures work too.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for `req`. Must not panic for malformed
    /// request *content* (return a 4xx instead); a panic is contained to
    /// the connection but counted as a server error.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// A running server: a shared listener drained by a fixed worker pool.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts `workers` accept loops dispatching to `handler`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, workers: usize, handler: Arc<dyn Handler>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..workers.max(1))
            .map(|i| {
                let listener = listener.try_clone().expect("clone listener");
                let handler = Arc::clone(&handler);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&listener, &handler, &stop))
                    .expect("spawn serve worker")
            })
            .collect();
        Ok(Server { addr, stop, workers })
    }

    /// The bound address (with the resolved port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks the workers, and joins them. Requests
    /// already being handled finish normally.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // One wake-up connection per worker unblocks the accept loops.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Blocks the calling thread until every worker exits (a server
    /// without [`Server::shutdown`] runs forever — the `serve`
    /// subcommand's main thread parks here).
    pub fn join(mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(listener: &TcpListener, handler: &Arc<dyn Handler>, stop: &AtomicBool) {
    let m_request = Counter::get("serve.request");
    let m_http_error = Counter::get("serve.http_error");
    loop {
        let Ok((mut stream, _peer)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match http::read_request(&mut stream) {
            Ok(req) => {
                m_request.incr();
                let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handler.handle(&req)
                })) {
                    Ok(response) => response,
                    Err(payload) => Response::error(
                        500,
                        &format!(
                            "internal error: {}",
                            crate::exec::panic_message(payload.as_ref())
                        ),
                    ),
                };
                let _ = response.write_to(&mut stream);
            }
            Err(http::HttpError::UnexpectedEof) => {
                // Shutdown wake-ups and port probes close without sending
                // a request; nothing to answer.
            }
            Err(e) => {
                m_http_error.incr();
                let _ = Response::error(400, &e.to_string()).write_to(&mut stream);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn server_dispatches_and_shuts_down() {
        let handler = |req: &Request| Response::text(format!("path={}", req.path));
        let server = Server::bind("127.0.0.1:0", 2, Arc::new(handler)).unwrap();
        let addr = server.local_addr();
        let reply = roundtrip(addr, "GET /abc HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.ends_with("path=/abc"), "{reply}");
        let bad = roundtrip(addr, "garbage\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        server.shutdown();
    }

    #[test]
    fn handler_panics_become_500s_and_do_not_kill_workers() {
        let handler = |req: &Request| -> Response {
            assert!(req.path != "/boom", "kaboom");
            Response::text("fine")
        };
        let server = Server::bind("127.0.0.1:0", 1, Arc::new(handler)).unwrap();
        let addr = server.local_addr();
        let reply = roundtrip(addr, "GET /boom HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 500"), "{reply}");
        assert!(reply.contains("kaboom"), "{reply}");
        // The single worker must still be alive.
        let ok = roundtrip(addr, "GET /fine HTTP/1.1\r\n\r\n");
        assert!(ok.ends_with("fine"), "{ok}");
        server.shutdown();
    }
}
