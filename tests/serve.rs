//! Integration tests for `branch-lab serve`: cache-key determinism, the
//! end-to-end HTTP loop, request coalescing, byte-identity with the
//! CLI's report rendering, per-request deadlines, and corrupt-entry
//! quarantine across server instances.
//!
//! Each test binds its own ephemeral-port server over its own
//! `StudyService`, and uses a study/len combination unique to that test
//! so cache keys never collide across tests sharing the process-global
//! metrics counters.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use bp_core::serve::cache::CacheKey;
use bp_core::serve::Server;
use bp_core::{DatasetConfig, SamplingConfig, StudyCtx};
use bp_experiments::cli::{describe_sweep, sweep_report};
use bp_experiments::serve::{study_key, sweep_key, StudyService};
use bp_experiments::{registry, studies, Cli};
use bp_predictors::PredictorSpec;
use bp_workloads::find_workload;

/// A served response, parsed just enough for assertions.
struct Reply {
    status: u16,
    cache: String,
    key: String,
    body: Vec<u8>,
}

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body separator");
    let head = std::str::from_utf8(&raw[..split]).unwrap();
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let find = |name: &str| {
        head.lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    Reply {
        status,
        cache: find("x-branch-lab-cache"),
        key: find("x-branch-lab-key"),
        body: raw[split + 4..].to_vec(),
    }
}

fn serve(cache_dir: Option<PathBuf>) -> (Server, std::net::SocketAddr) {
    let service = Arc::new(StudyService::new(registry::registry(), cache_dir, None, None));
    let server = Server::bind("127.0.0.1:0", 4, service).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bp-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn keys_are_deterministic_across_threads_and_orderings() {
    let cli = Cli { quick: true, len: Some(60_000), ..Cli::default() };
    let ctx = cli.ctx();
    let reference = study_key("calibrate", &ctx);
    // Recomputation from any thread, any number of times, agrees.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..100 {
                    assert_eq!(study_key("calibrate", &ctx), reference);
                }
            });
        }
    });
    // KeyBuilder component order is canonicalized away: the same
    // components inserted in any permutation hash identically.
    let forward = CacheKey::builder()
        .component("study", "fig7")
        .component("trace_len", 1000)
        .component("sample_interval", 500)
        .finish();
    let backward = CacheKey::builder()
        .component("sample_interval", 500)
        .component("trace_len", 1000)
        .component("study", "fig7")
        .finish();
    assert_eq!(forward, backward);
}

#[test]
fn any_single_field_change_changes_the_key() {
    let base_ctx = Cli::default().ctx();
    let base_cfg = base_ctx.dataset;
    let with_dataset = |dataset| StudyCtx { dataset, ..base_ctx.clone() };
    let base = study_key("fig7", &base_ctx);
    assert_ne!(base, study_key("fig8", &base_ctx), "study name");
    assert_ne!(
        base,
        study_key("fig7", &with_dataset(base_cfg.with_trace_len(999_990))),
        "trace length"
    );
    assert_ne!(
        base,
        study_key("fig7", &with_dataset(DatasetConfig { max_inputs: Some(1), ..base_cfg })),
        "input cap"
    );
    let sampling = SamplingConfig { interval_len: Some(25_000), ..SamplingConfig::default() };
    assert_ne!(
        base,
        study_key("fig7", &StudyCtx { sampling, ..base_ctx }),
        "sample_interval"
    );

    let labels = vec!["gshare".to_owned(), "bimodal".to_owned()];
    let sweep_base = sweep_key("streaming", &labels, &[1, 4], 50_000);
    assert_ne!(sweep_base, sweep_key("looping", &labels, &[1, 4], 50_000), "workload");
    assert_ne!(
        sweep_base,
        sweep_key("streaming", &labels, &[1, 8], 50_000),
        "scales"
    );
    assert_ne!(
        sweep_base,
        sweep_key("streaming", &labels, &[1, 4], 50_001),
        "len"
    );
    assert_ne!(
        sweep_base,
        sweep_key("streaming", &["gshare".to_owned()], &[1, 4], 50_000),
        "predictor list"
    );
    // Predictor order is row order in the output — it stays significant.
    let reversed = vec!["bimodal".to_owned(), "gshare".to_owned()];
    assert_ne!(sweep_base, sweep_key("streaming", &reversed, &[1, 4], 50_000));
}

#[test]
fn served_study_is_byte_identical_to_direct_render_and_caches() {
    let (server, addr) = serve(None);
    let body = r#"{"study": "fig3", "quick": true, "len": 20000}"#;

    let miss = request(addr, "POST", "/run", body);
    assert_eq!(miss.status, 200, "{}", String::from_utf8_lossy(&miss.body));
    assert_eq!(miss.cache, "miss");

    // The served body is exactly Report::render() of the same study on
    // the same dataset — which is exactly the CLI's stdout.
    let cli = Cli { quick: true, len: Some(20_000), ..Cli::default() };
    let expected = registry::registry().get("fig3").unwrap().run(&cli.ctx()).render();
    assert_eq!(miss.body, expected.as_bytes(), "served body != CLI render");

    // A repeat request hits the cache, same key, same bytes.
    let hit = request(addr, "POST", "/run", body);
    assert_eq!(hit.status, 200);
    assert_eq!(hit.cache, "hit");
    assert_eq!(hit.key, miss.key);
    assert_eq!(hit.body, miss.body);

    // JSON field order canonicalizes to the same key.
    let reordered = r#"{"len": 20000, "quick": true, "study": "fig3"}"#;
    let spelled = request(addr, "POST", "/run", reordered);
    assert_eq!(spelled.cache, "hit");
    assert_eq!(spelled.key, miss.key);

    // The cached result and its manifest are addressable by key.
    let direct = request(addr, "GET", &format!("/result/{}", miss.key), "");
    assert_eq!(direct.status, 200);
    assert_eq!(direct.body, miss.body);
    let manifest = request(addr, "GET", &format!("/result/{}/manifest", miss.key), "");
    assert_eq!(manifest.status, 200);
    let text = String::from_utf8(manifest.body).unwrap();
    assert!(text.contains("\"counters\""), "manifest lacks counters: {text}");
    assert!(text.contains("\"source\": \"serve\""), "{text}");

    server.shutdown();
}

#[test]
fn served_calibrate_reads_its_length_from_len() {
    let (server, addr) = serve(None);
    let reply = request(addr, "POST", "/run", r#"{"study": "calibrate", "len": 30000}"#);
    assert_eq!(reply.status, 200, "{}", String::from_utf8_lossy(&reply.body));
    let expected = studies::calibrate_report(30_000).render();
    assert_eq!(reply.body, expected.as_bytes(), "served body != CLI render");
    server.shutdown();
}

/// The `serve.deadline_expired` counter, read through `GET /metrics`.
fn deadline_expired(addr: std::net::SocketAddr) -> u64 {
    let reply = request(addr, "GET", "/metrics", "");
    let doc = bp_metrics::json::parse(std::str::from_utf8(&reply.body).unwrap()).unwrap();
    doc.as_obj().unwrap()["counters"]
        .as_obj()
        .unwrap()
        .get("serve.deadline_expired")
        .map_or(0, |v| v.as_u64().unwrap())
}

#[test]
fn an_expired_deadline_is_a_504_and_is_never_cached() {
    // Counter handles are taken when the service is built.
    bp_metrics::force_enable();
    let (server, addr) = serve(None);
    // A full-length fig7 takes well over a second even in release.
    let body = r#"{"study": "fig7", "len": 1000000, "deadline_secs": 1}"#;
    let key = study_key("fig7", &Cli { len: Some(1_000_000), ..Cli::default() }.ctx());
    for _ in 0..2 {
        let before = deadline_expired(addr);
        let reply = request(addr, "POST", "/run", body);
        assert_eq!(reply.status, 504, "{}", String::from_utf8_lossy(&reply.body));
        assert!(String::from_utf8_lossy(&reply.body).contains("deadline expired"));
        assert_eq!(reply.key, key.hex(), "504s carry the request's key");
        assert_eq!(deadline_expired(addr), before + 1);
    }
    server.shutdown();
}

#[test]
fn sampling_geometry_is_part_of_the_served_key() {
    let (server, addr) = serve(None);
    let coarse = request(
        addr,
        "POST",
        "/run",
        r#"{"study": "sampled", "quick": true, "len": 20000, "sample_interval": 500}"#,
    );
    assert_eq!(coarse.status, 200, "{}", String::from_utf8_lossy(&coarse.body));
    assert_eq!(coarse.cache, "miss");

    // The same request at the default interval is a different run: it
    // must execute under its own key, never be answered with the
    // interval-500 report.
    let default = request(
        addr,
        "POST",
        "/run",
        r#"{"study": "sampled", "quick": true, "len": 20000}"#,
    );
    assert_eq!(default.status, 200, "{}", String::from_utf8_lossy(&default.body));
    assert_eq!(default.cache, "miss");
    assert_ne!(default.key, coarse.key);
    let cli = Cli { quick: true, len: Some(20_000), ..Cli::default() };
    let expected = registry::registry().get("sampled").unwrap().run(&cli.ctx()).render();
    assert_eq!(default.body, expected.as_bytes(), "served body != CLI render");
    assert_ne!(default.body, coarse.body);

    // Both manifests record the geometry that produced them, in the same
    // entries `branch-lab run` records, plus the entry's key and source.
    for (reply, interval) in [(&coarse, 500), (&default, 1000)] {
        let mut ctx = cli.ctx();
        ctx.sampling.interval_len = Some(interval);
        let mut described = ctx.describe();
        described.insert("key".to_owned(), reply.key.clone());
        described.insert("source".to_owned(), "serve".to_owned());
        assert_eq!(served_info(addr, &reply.key), described);
    }
    server.shutdown();
}

/// The `info` block of the manifest cached under `key`.
fn served_info(addr: std::net::SocketAddr, key: &str) -> BTreeMap<String, String> {
    let manifest = request(addr, "GET", &format!("/result/{key}/manifest"), "");
    assert_eq!(manifest.status, 200, "{}", String::from_utf8_lossy(&manifest.body));
    let doc = bp_metrics::json::parse(std::str::from_utf8(&manifest.body).unwrap()).unwrap();
    doc.as_obj().unwrap()["info"]
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().unwrap().to_owned()))
        .collect()
}

#[test]
fn served_sweep_manifest_records_what_its_key_hashes() {
    let (server, addr) = serve(None);
    let mut infos = Vec::new();
    for predictors in ["gshare,bimodal", "bimodal,gshare"] {
        let body = format!(
            r#"{{"workload": "streaming", "predictors": "{predictors}", "scales": [1, 4], "len": 20000}}"#
        );
        let reply = request(addr, "POST", "/sweep", &body);
        assert_eq!(reply.status, 200, "{}", String::from_utf8_lossy(&reply.body));
        assert_eq!(reply.cache, "miss");
        let specs = PredictorSpec::parse_list(predictors).unwrap();
        let labels: Vec<String> = specs.iter().map(PredictorSpec::label).collect();
        assert_eq!(reply.key, sweep_key("streaming", &labels, &[1, 4], 20_000).hex());
        let spec = find_workload("streaming").unwrap();
        let expected = sweep_report(&spec, &specs, &[1, 4], 20_000).render();
        assert_eq!(reply.body, expected.as_bytes(), "served body != CLI render");
        // The manifest names every input the key hashes, so two sweeps
        // under different keys never record the same `info`.
        let mut described = describe_sweep("streaming", &labels, &[1, 4], 20_000);
        described.insert("key".to_owned(), reply.key.clone());
        described.insert("source".to_owned(), "serve".to_owned());
        assert_eq!(served_info(addr, &reply.key), described);
        infos.push(described);
    }
    assert_ne!(infos[0]["predictors"], infos[1]["predictors"]);
    server.shutdown();
}

#[test]
fn concurrent_identical_requests_execute_once() {
    let (server, addr) = serve(None);
    // A len unique to this test keeps the key fresh.
    let body = r#"{"study": "fig3", "quick": true, "len": 21000}"#;
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| request(addr, "POST", "/run", body)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let misses = replies.iter().filter(|r| r.cache == "miss").count();
    assert_eq!(misses, 1, "exactly one request may execute the study");
    for reply in &replies {
        assert_eq!(reply.status, 200);
        assert!(
            matches!(reply.cache.as_str(), "miss" | "join" | "hit"),
            "unexpected cache source {}",
            reply.cache
        );
        assert_eq!(reply.body, replies[0].body, "coalesced bodies must agree");
        assert_eq!(reply.key, replies[0].key);
    }
    server.shutdown();
}

#[test]
fn malformed_requests_fail_closed() {
    let (server, addr) = serve(None);
    assert_eq!(request(addr, "POST", "/run", "not json").status, 400);
    assert_eq!(request(addr, "POST", "/run", "{}").status, 400);
    assert_eq!(
        request(addr, "POST", "/run", r#"{"study": "fig3", "quikc": true}"#).status,
        400,
        "typo'd fields must not silently run (and cache) the default config"
    );
    let args = request(addr, "POST", "/run", r#"{"study": "fig3", "args": ["1"]}"#);
    assert_eq!(args.status, 400, "studies take flags only");
    assert!(String::from_utf8_lossy(&args.body).contains("unknown field \"args\""));
    assert_eq!(
        request(addr, "POST", "/run", r#"{"study": "zzz"}"#).status,
        404
    );
    assert_eq!(
        request(addr, "POST", "/sweep", r#"{"workload": "streaming"}"#).status,
        400,
        "sweep without predictors"
    );
    let off_point = r#"{"workload": "streaming", "predictors": ["tage-sc-l-3kb"]}"#;
    assert_eq!(
        request(addr, "POST", "/sweep", off_point).status,
        400,
        "a TAGE size off the storage points must be refused, not run into a panic"
    );
    assert_eq!(request(addr, "GET", "/result/zzzz", "").status, 400);
    assert_eq!(
        request(addr, "GET", "/result/0123456789abcdef", "").status,
        404
    );
    assert_eq!(request(addr, "GET", "/run", "").status, 405);
    assert_eq!(request(addr, "POST", "/healthz", "").status, 405);
    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    // The server is still healthy after all of that.
    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");
    server.shutdown();
}

#[test]
fn corrupt_disk_entries_quarantine_and_regenerate_across_instances() {
    let dir = temp_dir("quarantine");
    let body = r#"{"study": "fig3", "quick": true, "len": 22000}"#;

    let (server, addr) = serve(Some(dir.clone()));
    let first = request(addr, "POST", "/run", body);
    assert_eq!(first.status, 200);
    assert_eq!(first.cache, "miss");
    server.shutdown();

    // Corrupt the persisted entry the way a torn write would.
    let path = dir.join(format!("{}.blr", first.key));
    assert!(path.exists(), "entry must have persisted to {}", path.display());
    let corrupt = || {
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
    };
    corrupt();

    // A fresh instance must never serve the damaged bytes: it
    // quarantines, re-executes, and returns the same result as before.
    let (server, addr) = serve(Some(dir.clone()));
    let regen = request(addr, "POST", "/run", body);
    assert_eq!(regen.status, 200);
    assert_eq!(regen.cache, "miss", "corrupt entry must not serve as a hit");
    assert_eq!(regen.key, first.key);
    assert_eq!(regen.body, first.body);
    let quarantined = |n: u32| dir.join(format!("{}.blr.corrupt-{n}", first.key)).exists();
    assert!(quarantined(1), "damaged entry must be quarantined for post-mortem");

    // And the regenerated entry is immediately durable again: a third
    // instance serves it from disk without executing.
    server.shutdown();
    let (server, addr) = serve(Some(dir.clone()));
    let disk = request(addr, "POST", "/run", body);
    assert_eq!(disk.status, 200);
    assert_eq!(disk.cache, "hit-disk");
    assert_eq!(disk.body, first.body);
    server.shutdown();

    // Damage to the regenerated entry takes a fresh quarantine name, so
    // the first evidence survives the second quarantine.
    corrupt();
    let (server, addr) = serve(Some(dir.clone()));
    let again = request(addr, "POST", "/run", body);
    assert_eq!(again.status, 200);
    assert_eq!(again.cache, "miss", "corrupt entry must not serve as a hit");
    assert_eq!(again.body, first.body);
    assert!(quarantined(1) && quarantined(2), "both damaged copies must be kept");
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}
