//! The `serve-mix` workload: an in-process `StudyService` (the study
//! registry, a fresh result-cache directory) behind `bp_core::serve::
//! Server` with 2 workers, driven by a closed loop of 2 clients that
//! open one connection per request (the server answers
//! `Connection: close`).
//!
//! The request list comes from the seed. Requests arrive in blocks of
//! ten: one `POST /sweep` for a key never requested before (a miss that
//! executes `sweep_report`), then nine repeats of keys already
//! introduced, drawn with Zipf-like popularity (earlier keys are more
//! popular); one repeat in five is a `GET /result/<key>`, the rest are
//! `POST /sweep`. Every key sweeps the same four predictors (in a key-
//! specific order) at three pipeline scales over one trace of the set,
//! so a miss costs the same whichever key it is. The server restarts
//! once, at the midpoint, over the same cache directory, so repeats of
//! earlier keys then read the disk tier while misses keep writing it.
//! This traffic mix is a design assumption, not measured traffic.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use bp_core::serve::http::{Request, Response};
use bp_core::serve::{Handler, Server};
use bp_experiments::registry::registry;
use bp_experiments::serve::{sweep_key, StudyService};
use bp_pipeline::PipelineConfig;

use crate::goldens::{Goldens, LANES};
use crate::report::{Check, Values};
use crate::stats::{fnv64, median, percentile, Rng};
use crate::traceset::TraceSet;

/// Requests per block: one new key, the rest repeats.
const BLOCK: usize = 10;
/// Set-up repetitions; `setup_s` takes their median.
const SETUP_REPS: usize = 7;

struct Key {
    trace: usize,
    predictors: Vec<&'static str>,
    scales: Vec<u32>,
    hex: String,
}

#[derive(Clone, Copy)]
enum Req {
    Sweep(usize),
    Result(usize),
}

struct Reply {
    id: usize,
    key: usize,
    latency: f64,
    status: u16,
    cache: String,
    key_header: String,
    body: Vec<u8>,
}

/// One mix's raw observations.
struct MixRun {
    replies: Vec<Reply>,
    wall: f64,
    setup_s: f64,
    handle: BTreeMap<usize, f64>,
    counters: BTreeMap<String, u64>,
}

/// Wraps the service to time `Handler::handle` per request.
struct TimedHandler {
    inner: Arc<StudyService>,
    times: Arc<Mutex<BTreeMap<usize, f64>>>,
}

impl Handler for TimedHandler {
    fn handle(&self, req: &Request) -> Response {
        let t = Instant::now();
        let resp = self.inner.handle(req);
        let secs = t.elapsed().as_secs_f64();
        if let Some(id) = req.header("x-bench-id").and_then(|v| v.parse().ok()) {
            self.times
                .lock()
                .expect("handle-time log poisoned")
                .insert(id, secs);
        }
        resp
    }
}

/// Keys whose first request has been answered; a `GET /result` for a key
/// waits here so it never races its own first `POST`.
struct Answered {
    keys: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl Answered {
    fn mark(&self, k: usize) {
        self.keys.lock().expect("answered set poisoned")[k] = true;
        self.cv.notify_all();
    }

    fn wait(&self, k: usize) {
        let mut keys = self.keys.lock().expect("answered set poisoned");
        while !keys[k] {
            keys = self.cv.wait(keys).expect("answered set poisoned");
        }
    }
}

pub struct ServeMix<'a> {
    set: &'a TraceSet,
    goldens: &'a Goldens,
    cache_dir: PathBuf,
    keys: Vec<Key>,
    reqs: Vec<Req>,
}

impl<'a> ServeMix<'a> {
    /// Generates the key space and the request list from `seed`.
    pub fn new(set: &'a TraceSet, goldens: &'a Goldens, state: &Path, seed: u64) -> ServeMix<'a> {
        let mut rng = Rng::new(seed);
        // Every key sweeps the pinned lanes, in a key-specific order.
        let orders = permutations(&LANES);
        let triples = ordered_triples(&PipelineConfig::SCALES);
        // Each trace's keys in a seeded order; new keys alternate traces.
        let per_trace: Vec<Vec<usize>> = (0..set.specs.len())
            .map(|_| {
                let mut ids: Vec<usize> = (0..orders.len() * triples.len()).collect();
                rng.shuffle(&mut ids);
                ids
            })
            .collect();
        let mut keys = Vec::new();
        let mut reqs = Vec::new();
        for round in 0..per_trace[0].len() {
            for (trace, ids) in per_trace.iter().enumerate() {
                let id = ids[round];
                let predictors = orders[id % orders.len()].clone();
                let scales = triples[id / orders.len()].clone();
                let labels: Vec<String> = predictors.iter().map(|p| (*p).to_owned()).collect();
                let hex = sweep_key(&set.specs[trace].name, &labels, &scales, set.len).hex();
                keys.push(Key {
                    trace,
                    predictors,
                    scales,
                    hex,
                });
                let new = keys.len() - 1;
                reqs.push(Req::Sweep(new));
                for _ in 1..BLOCK {
                    // Log-uniform rank over the keys seen so far: rank r
                    // is drawn with probability about 1/(r+1).
                    let seen = keys.len() as f64;
                    let rank = (seen.powf(rng.unit()) as usize).clamp(1, keys.len()) - 1;
                    reqs.push(if rng.below(5) == 0 {
                        Req::Result(rank)
                    } else {
                        Req::Sweep(rank)
                    });
                }
            }
        }
        let cache_dir = state.join(format!("serve-cache-{}", std::process::id()));
        ServeMix {
            set,
            goldens,
            cache_dir,
            keys,
            reqs,
        }
    }

    fn bind(
        &self,
        traced: bool,
        times: &Arc<Mutex<BTreeMap<usize, f64>>>,
    ) -> Result<Server, String> {
        let service = Arc::new(StudyService::new(
            registry(),
            Some(self.cache_dir.clone()),
            None,
            None,
        ));
        let handler: Arc<dyn Handler> = if traced {
            Arc::new(TimedHandler {
                inner: service,
                times: Arc::clone(times),
            })
        } else {
            service
        };
        Server::bind("127.0.0.1:0", 2, handler).map_err(|e| format!("bind: {e}"))
    }

    /// One full mix for `seconds`: set-up, first half, restart, second half.
    fn mix(&self, seconds: f64, traced: bool) -> Result<MixRun, String> {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        std::fs::create_dir_all(&self.cache_dir).map_err(|e| format!("cache dir: {e}"))?;
        let times = Arc::new(Mutex::new(BTreeMap::new()));
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..SETUP_REPS {
            if let Some(old) = server.take() {
                Server::shutdown(old);
            }
            let t = Instant::now();
            self.set.validate()?;
            server = Some(self.bind(traced, &times)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut server = server.expect("at least one set-up");
        // Prewarm: the sweeps read the trace set through the global store.
        let t = Instant::now();
        for spec in &self.set.specs {
            drop(spec.cached_trace(0, self.set.len));
        }
        let mut setup_s = median(&setups) + t.elapsed().as_secs_f64();

        let before = counters();
        let next = AtomicUsize::new(0);
        let answered = Answered {
            keys: Mutex::new(vec![false; self.keys.len()]),
            cv: Condvar::new(),
        };
        let mut replies = Vec::new();
        let mut wall = 0.0;
        for half in 0..2 {
            if half == 1 {
                let t = Instant::now();
                Server::shutdown(server);
                server = self.bind(traced, &times)?;
                setup_s += t.elapsed().as_secs_f64();
            }
            let addr = server.local_addr();
            let until = Instant::now() + std::time::Duration::from_secs_f64(seconds / 2.0);
            let t = Instant::now();
            let logs: Vec<Vec<Reply>> = std::thread::scope(|s| {
                let clients: Vec<_> = (0..2)
                    .map(|_| s.spawn(|| self.client(addr, &next, until, &answered)))
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("client thread panicked"))
                    .collect()
            });
            wall += t.elapsed().as_secs_f64();
            replies.extend(logs.into_iter().flatten());
        }
        Server::shutdown(server);
        let after = counters();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        let counters = after
            .into_iter()
            .map(|(k, v)| {
                let base = before.get(&k).copied().unwrap_or(0);
                (k, v - base)
            })
            .collect();
        let handle = std::mem::take(&mut *times.lock().expect("handle-time log poisoned"));
        Ok(MixRun {
            replies,
            wall,
            setup_s,
            handle,
            counters,
        })
    }

    /// A closed-loop client: takes the next request, sends it, reads the
    /// whole reply, repeats until `until`.
    fn client(
        &self,
        addr: SocketAddr,
        next: &AtomicUsize,
        until: Instant,
        answered: &Answered,
    ) -> Vec<Reply> {
        let mut log = Vec::new();
        while Instant::now() < until {
            let id = next.fetch_add(1, Ordering::SeqCst);
            let Some(&req) = self.reqs.get(id) else { break };
            let (key, raw) = match req {
                Req::Sweep(k) => (k, self.sweep_request(k, id)),
                Req::Result(k) => {
                    answered.wait(k);
                    let hex = &self.keys[k].hex;
                    (
                        k,
                        format!(
                            "GET /result/{hex} HTTP/1.1\r\nHost: bench\r\nX-Bench-Id: {id}\r\n\r\n"
                        ),
                    )
                }
            };
            let t = Instant::now();
            let reply = roundtrip(addr, raw.as_bytes());
            let latency = t.elapsed().as_secs_f64();
            answered.mark(key);
            let (status, cache, key_header, body) =
                reply.unwrap_or((0, String::new(), String::new(), Vec::new()));
            log.push(Reply {
                id,
                key,
                latency,
                status,
                cache,
                key_header,
                body,
            });
        }
        log
    }

    fn sweep_request(&self, k: usize, id: usize) -> String {
        let key = &self.keys[k];
        let quoted: Vec<String> = key.predictors.iter().map(|p| format!("\"{p}\"")).collect();
        let scales: Vec<String> = key.scales.iter().map(u32::to_string).collect();
        let body = format!(
            "{{\"workload\": \"{}\", \"predictors\": [{}], \"scales\": [{}], \"len\": {}}}",
            self.set.specs[key.trace].name,
            quoted.join(", "),
            scales.join(", "),
            self.set.len
        );
        format!(
            "POST /sweep HTTP/1.1\r\nHost: bench\r\nX-Bench-Id: {id}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    /// The body a sweep for key `k` must return, built from the goldens.
    fn expected_body(&self, k: usize) -> Option<String> {
        let key = &self.keys[k];
        let (len, name) = (self.set.len, &self.set.specs[key.trace].name);
        let branches = self.goldens.branches(len, name)?;
        let mut header = vec!["predictor".to_owned(), "accuracy".to_owned()];
        header.extend(key.scales.iter().map(|s| format!("ipc@{s}x")));
        let mut table = bp_core::Table::new(header.iter().map(String::as_str).collect());
        for p in &key.predictors {
            let mis = self.goldens.cell(len, name, p, 1)?.mispredictions;
            let mut row = vec![
                (*p).to_owned(),
                format!("{:.3}", 1.0 - mis as f64 / branches.max(1) as f64),
            ];
            for &s in &key.scales {
                let cycles = self.goldens.cell(len, name, p, s)?.cycles;
                row.push(format!("{:.3}", len as f64 / cycles as f64));
            }
            table.row(row);
        }
        let mut report = bp_core::Report::new();
        report.section(
            format!(
                "sweep: {name} ({len} insts, {branches} conditional branches, one replay pass)"
            ),
            "sweep",
            table,
        );
        Some(report.render())
    }

    /// Checks every reply: status 200, the expected key, a known cache
    /// outcome, and a body whose digest equals the digest of the body
    /// the goldens predict for that key.
    fn check(&self, replies: &[Reply], check: &mut Check) {
        check.op(replies.len() < self.reqs.len(), || {
            "the request list ran out before the clock did".to_owned()
        });
        let mut digests: BTreeMap<usize, Option<u64>> = BTreeMap::new();
        for r in replies {
            let want = *digests
                .entry(r.key)
                .or_insert_with(|| self.expected_body(r.key).map(|b| fnv64(b.as_bytes())));
            let ok = r.status == 200
                && r.key_header == self.keys[r.key].hex
                && matches!(r.cache.as_str(), "hit" | "hit-disk" | "miss" | "join")
                && want == Some(fnv64(&r.body));
            check.op(ok, || {
                format!(
                    "serve request {} (key {}): status {}, cache {:?}, body digest {:016x} vs pinned {want:?}",
                    r.id,
                    self.keys[r.key].hex,
                    r.status,
                    r.cache,
                    fnv64(&r.body)
                )
            });
        }
    }

    /// The workload's run. A traced run does an untraced mix and a traced
    /// mix of half the time each.
    pub fn execute(
        &self,
        seconds: f64,
        traced: bool,
        check: &mut Check,
    ) -> Result<(Values, f64), String> {
        // The server counts its operational counters only when forced on,
        // as `branch-lab serve` does; the global trace store reads the
        // set's directory so the prewarm decodes the v3 files.
        bp_metrics::force_enable();
        std::env::set_var("BRANCH_LAB_TRACE_DIR", &self.set.dir);
        let mut v = Values::new();
        if !traced {
            let run = self.mix(seconds, false)?;
            self.check(&run.replies, check);
            let lat: Vec<f64> = run.replies.iter().map(|r| r.latency).collect();
            let exec = run.counters.get("serve.exec").copied().unwrap_or(0);
            v.insert("p50_ms", median(&lat) * 1e3);
            v.insert("req_per_s", lat.len() as f64 / run.wall);
            v.insert(
                "rec_per_s",
                (exec as usize * self.set.len) as f64 / run.wall,
            );
            println!(
                "perfbench: {} requests ({} executed) in {:.2}s, p50 {:.3} ms, p99 {:.1} ms",
                lat.len(),
                exec,
                run.wall,
                v["p50_ms"],
                percentile(&lat, 0.99) * 1e3
            );
            return Ok((v, run.setup_s));
        }
        let plain = self.mix(seconds / 2.0, false)?;
        self.check(&plain.replies, check);
        let run = self.mix(seconds / 2.0, true)?;
        self.check(&run.replies, check);
        let by_cache = |c: &str| -> Vec<f64> {
            run.replies
                .iter()
                .filter(|r| r.cache == c)
                .map(|r| r.latency * 1e3)
                .collect()
        };
        let handle: Vec<f64> = run.handle.values().map(|s| s * 1e3).collect();
        let http: Vec<f64> = run
            .replies
            .iter()
            .filter_map(|r| run.handle.get(&r.id).map(|h| (r.latency - h) * 1e3))
            .collect();
        let hits = run
            .replies
            .iter()
            .filter(|r| r.cache.starts_with("hit"))
            .count();
        v.insert("serve.handle_p50_ms", median(&handle));
        v.insert("serve.handle_p99_ms", percentile(&handle, 0.99));
        v.insert("serve.http_p50_ms", median(&http));
        v.insert("serve.hit_p50_ms", median(&by_cache("hit")));
        v.insert("serve.hit_disk_p50_ms", median(&by_cache("hit-disk")));
        v.insert("serve.miss_p50_ms", median(&by_cache("miss")));
        let lat: Vec<f64> = run.replies.iter().map(|r| r.latency * 1e3).collect();
        v.insert("serve.p99_ms", percentile(&lat, 0.99));
        v.insert(
            "serve.hit_ratio",
            hits as f64 / run.replies.len().max(1) as f64,
        );
        for name in [
            "serve.exec",
            "serve.dedup_join",
            "serve.cache.store",
            "serve.cache.disk_hit",
        ] {
            v.insert(name, run.counters.get(name).copied().unwrap_or(0) as f64);
        }
        let rate = |m: &MixRun| m.replies.len() as f64 / m.wall;
        v.insert(
            "tracing_overhead_pct",
            (rate(&plain) / rate(&run) - 1.0) * 100.0,
        );
        println!(
            "perfbench: traced {} requests: handle p50 {:.3} ms, http p50 {:.3} ms, {} hit / {} hit-disk / {} miss",
            run.replies.len(),
            v["serve.handle_p50_ms"],
            v["serve.http_p50_ms"],
            by_cache("hit").len(),
            by_cache("hit-disk").len(),
            by_cache("miss").len()
        );
        Ok((v, run.setup_s))
    }
}

fn counters() -> BTreeMap<String, u64> {
    bp_metrics::snapshot_counters().into_iter().collect()
}

/// Sends `raw` on a fresh connection and reads the reply to EOF: status,
/// cache and key headers, body.
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> std::io::Result<(u16, String, String, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw)?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed reply");
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&buf[..split]).map_err(|_| bad())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let (mut cache, mut key) = (String::new(), String::new());
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "x-branch-lab-cache" => cache = value.trim().to_owned(),
                "x-branch-lab-key" => key = value.trim().to_owned(),
                _ => {}
            }
        }
    }
    Ok((status, cache, key, buf[split + 4..].to_vec()))
}

fn permutations(items: &[&'static str]) -> Vec<Vec<&'static str>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, first) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

fn ordered_triples(scales: &[u32]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for &a in scales {
        for &b in scales {
            for &c in scales {
                if a != b && b != c && a != c {
                    out.push(vec![a, b, c]);
                }
            }
        }
    }
    out
}
