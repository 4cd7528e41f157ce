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
//! * [`cache`] — the content-addressed [`ResultCache`](cache::ResultCache)
//!   with an LRU disk tier. Its entry files follow the trace store's
//!   durability pattern, a unique temp file renamed into place and an
//!   FNV-1a trailer, in a copy of that code rather than a shared one;
//! * [`Singleflight`] — in-flight request coalescing: concurrent
//!   identical requests share one execution, and every follower gets the
//!   leader's result;
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

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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

/// One singleflight slot: the leader publishes here, followers wait.
struct Slot<T> {
    result: Mutex<Option<Result<T, String>>>,
    ready: Condvar,
}

/// How a [`Singleflight::run`] call was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flight {
    /// This caller executed the computation.
    Led,
    /// This caller joined an in-flight execution and received the
    /// leader's result.
    Joined,
}

/// Coalesces concurrent identical computations by key.
///
/// The first caller for a key becomes the *leader* and runs the
/// computation; callers arriving for the same key while it is in flight
/// block and receive the leader's result (including its error). The slot
/// is removed when the leader finishes, so a later request retries a
/// failed computation instead of replaying a stale error.
pub struct Singleflight<T> {
    inflight: Mutex<HashMap<u64, Arc<Slot<T>>>>,
}

impl<T: Clone> Singleflight<T> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Singleflight<T> {
        Singleflight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Runs `compute` under `key`, coalescing with any in-flight call for
    /// the same key. Returns the result and whether this caller led or
    /// joined.
    pub fn run(&self, key: u64, compute: impl FnOnce() -> Result<T, String>) -> (Result<T, String>, Flight) {
        let (slot, leader) = {
            let mut map = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        result: Mutex::new(None),
                        ready: Condvar::new(),
                    });
                    map.insert(key, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if leader {
            // Publish even if `compute` panics, so followers never hang;
            // the panic then propagates to the leader's caller.
            struct Publish<'a, T> {
                table: &'a Singleflight<T>,
                slot: &'a Slot<T>,
                key: u64,
                armed: bool,
            }
            impl<T> Drop for Publish<'_, T> {
                fn drop(&mut self) {
                    if self.armed {
                        let mut result =
                            self.slot.result.lock().unwrap_or_else(PoisonError::into_inner);
                        *result = Some(Err("leader panicked".to_string()));
                        drop(result);
                        self.slot.ready.notify_all();
                    }
                    let mut map = self
                        .table
                        .inflight
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    map.remove(&self.key);
                }
            }
            let mut guard = Publish { table: self, slot: &slot, key, armed: true };
            let result = compute();
            {
                let mut published = slot.result.lock().unwrap_or_else(PoisonError::into_inner);
                *published = Some(result.clone());
            }
            guard.armed = false;
            slot.ready.notify_all();
            drop(guard);
            (result, Flight::Led)
        } else {
            let mut published = slot.result.lock().unwrap_or_else(PoisonError::into_inner);
            while published.is_none() {
                published = slot
                    .ready
                    .wait(published)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            (published.clone().expect("loop exits only when published"), Flight::Joined)
        }
    }
}

impl<T: Clone> Default for Singleflight<T> {
    fn default() -> Self {
        Singleflight::new()
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
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

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

    #[test]
    fn singleflight_coalesces_concurrent_callers() {
        let flights: Singleflight<u32> = Singleflight::new();
        let executions = AtomicU32::new(0);
        let joins = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (result, flight) = flights.run(42, || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the other
                        // threads to arrive and join.
                        std::thread::sleep(Duration::from_millis(40));
                        Ok(7)
                    });
                    assert_eq!(result.unwrap(), 7);
                    if flight == Flight::Joined {
                        joins.fetch_add(1, Ordering::SeqCst);
                    }
                });
                // Stagger arrivals so the first thread reliably leads.
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one execution");
        assert_eq!(joins.load(Ordering::SeqCst), 7, "everyone else joins");
    }

    #[test]
    fn singleflight_failures_propagate_and_do_not_stick() {
        let flights: Singleflight<u32> = Singleflight::new();
        let (r, flight) = flights.run(1, || Err("down".to_string()));
        assert_eq!(flight, Flight::Led);
        assert_eq!(r.unwrap_err(), "down");
        // The failed slot must not be cached: a retry executes afresh.
        let (r, flight) = flights.run(1, || Ok(9));
        assert_eq!(flight, Flight::Led);
        assert_eq!(r.unwrap(), 9);
    }

    #[test]
    fn singleflight_leader_panic_unblocks_followers() {
        let flights: Arc<Singleflight<u32>> = Arc::new(Singleflight::new());
        let f2 = Arc::clone(&flights);
        let follower = std::thread::spawn(move || {
            // Give the leader time to take the slot.
            std::thread::sleep(Duration::from_millis(20));
            f2.run(5, || Ok(1))
        });
        let leader = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                flights.run(5, || {
                    std::thread::sleep(Duration::from_millis(60));
                    panic!("leader died")
                })
            }));
        });
        leader.join().unwrap();
        let (result, flight) = follower.join().unwrap();
        // The follower either joined the doomed flight (and got the
        // publish-on-panic error) or arrived after cleanup and led its
        // own successful run; both are live outcomes, never a hang.
        match flight {
            Flight::Joined => assert_eq!(result.unwrap_err(), "leader panicked"),
            Flight::Led => assert_eq!(result.unwrap(), 1),
        }
    }
}
