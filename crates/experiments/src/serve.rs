//! `branch-lab serve` — registry-driven study serving over HTTP.
//!
//! The substrate (hardened HTTP/1.1 parsing, the content-addressed
//! two-tier [`ResultCache`] whose slots coalesce identical requests, the
//! worker-pool [`Server`]) lives in [`bp_core::serve`]; this module
//! supplies the request semantics, because only the experiments crate
//! knows the study registry:
//!
//! * the request grammar, which is the CLI's: a `/run` or `/sweep` body
//!   is a JSON object whose fields, bar the serve-only `study` and
//!   `deadline_secs`, are the `branch-lab run` / `sweep` flags they name
//!   (`sample_interval` is `--sample-interval`; `true` is the bare
//!   switch, `false` or `null` no flag, a list one comma-joined value),
//!   parsed by [`Cli::parse_from`] / [`cli::SweepArgs::parse_from`], so a
//!   body is accepted, refused and keyed exactly as its flags are. A
//!   field outside the route's list is a `400` naming it, which keeps
//!   `--csv` and `--help` out of reach;
//! * cache-key derivation ([`study_key`] / [`sweep_key`]) from exactly
//!   the inputs a result is a pure function of — for a study, the name
//!   and its [`StudyCtx::describe`] entries (dataset shape and sampling
//!   geometry); for a sweep, its [`cli::describe_sweep`]
//!   entries (workload, predictors, scales and length) — in both cases
//!   the entries its manifest records — plus the workload-suite trace
//!   digest ([`bp_workloads::suite_digest`]);
//! * dispatch: a miss fills its cache slot with one direct attempt
//!   ([`bp_core::exec::attempt`]) under the request's deadline and
//!   cooperative cancellation;
//! * options: flags only ([`ServeOptions::resolve`]; `--workers` takes
//!   the count grammar of [`bp_metrics::env`]);
//! * byte-identity: a served body is [`bp_core::Report::render`] output,
//!   which is exactly what the equivalent CLI invocation prints, and its
//!   manifest is the CLI's ([`crate::run_recorded`],
//!   [`cli::sweep_recorded`]) plus the entry's `key` and `source`.
//!
//! # Routes
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness: `ok` |
//! | `GET /studies` | the registry as JSON |
//! | `GET /metrics` | counter snapshot as JSON |
//! | `POST /run` | run (or serve cached) one study |
//! | `POST /sweep` | run (or serve cached) a predictor sweep |
//! | `GET /result/<key>` | cached report body by key, no execution |
//! | `GET /result/<key>/manifest` | cached metrics manifest by key |
//!
//! Every `/run`, `/sweep`, and `/result` response carries
//! `X-Branch-Lab-Key` (the content hash) and `X-Branch-Lab-Cache`
//! (`miss` = executed now, `hit` / `hit-disk` = served from cache,
//! `join` = waited on a concurrent identical request's fill, which may
//! have executed or read the disk tier).
//!
//! Counters: `serve.exec` (studies actually executed), `serve.dedup_join`
//! (requests that waited on another request's fill),
//! `serve.deadline_expired` (requests answered 504), plus the
//! `serve.request` / `serve.http_error` / `serve.cache.*` families from
//! the substrate.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bp_core::cancel::Cancelled;
use bp_core::exec;
use bp_core::serve::cache::{CacheEntry, CacheKey, ResultCache, Source};
use bp_core::serve::http::{Request, Response};
use bp_core::serve::{Handler, Server};
use bp_core::{Report, StudyCtx, StudyKind, StudyRegistry};
use bp_metrics::json::{self, Value};
use bp_metrics::{env, Counter, Manifest};
use bp_predictors::PredictorSpec;
use bp_workloads::{suite_digest, workload_names};

use crate::cli::{self, SweepArgs};
use crate::{flag_value, registry, Cli};

/// The result cache's per-tier byte budget when `--cache-budget` is not
/// given: 1 GiB. A served key holds about 8 KiB, so without a bound a
/// long-running server grows by every distinct key it answers.
pub const DEFAULT_CACHE_BUDGET: u64 = 1 << 30;

/// Server configuration, resolved from the command-line flags.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads draining the shared listener.
    pub workers: usize,
    /// Disk tier directory for the result cache; `None` = memory only.
    pub cache_dir: Option<PathBuf>,
    /// Per-tier resident-byte budget, [`DEFAULT_CACHE_BUDGET`] unless
    /// `--cache-budget` says otherwise.
    pub cache_budget: u64,
    /// Default per-request execution deadline; a request's
    /// `deadline_secs` field overrides it. `None` = no deadline.
    pub deadline: Option<Duration>,
}

impl ServeOptions {
    /// Resolves options from `args`, defaulting the flags they omit.
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag, a flag without its value, or
    /// a value that does not parse (`--workers` is a count of at least 1).
    pub fn resolve(args: Vec<String>) -> Result<ServeOptions, String> {
        let mut opts = ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            workers: default_workers(),
            cache_dir: None,
            cache_budget: DEFAULT_CACHE_BUDGET,
            deadline: None,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--addr" => opts.addr = flag_value(&mut args, "--addr")?,
                "--workers" => {
                    opts.workers =
                        parsed_flag(&mut args, "--workers", env::parse_count, env::COUNT)?;
                }
                "--cache-dir" => opts.cache_dir = Some(flag_value(&mut args, "--cache-dir")?),
                "--cache-budget" => {
                    opts.cache_budget =
                        parsed_flag(&mut args, "--cache-budget", env::parse_budget, env::BYTES)?;
                }
                "--deadline-secs" => {
                    let secs: u64 = flag_value(&mut args, "--deadline-secs")?;
                    opts.deadline = (secs > 0).then(|| Duration::from_secs(secs));
                }
                "--help" | "-h" => {
                    print!("{}", cli::help_text());
                    std::process::exit(0);
                }
                other => {
                    return Err(format!(
                        "unknown serve argument {other}; supported: --addr HOST:PORT --workers N \
                         --cache-dir DIR --cache-budget BYTES --deadline-secs N"
                    ))
                }
            }
        }
        Ok(opts)
    }
}

/// Takes the value after `flag` from `args` and parses it with one of
/// the environment table's parsers, whose grammar a refusal names.
fn parsed_flag<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    parse: fn(&str) -> Option<T>,
    grammar: &str,
) -> Result<T, String> {
    let v: String = flag_value(args, flag)?;
    parse(&v).ok_or_else(|| format!("invalid value \"{v}\" for {flag}: {grammar}"))
}

fn default_workers() -> usize {
    // Floor of 2: with one worker, concurrent identical requests would
    // serialize on the accept loop, so one could never wait on another's
    // cache fill (and the dedup guarantee could never engage).
    std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8))
}

/// Version of the cache-key component schema. Bump whenever the set or
/// meaning of key components changes (a new dimension, a renamed field,
/// a different canonicalization), so entries persisted by an older
/// binary can never alias a newer request that hashes the same bytes by
/// coincidence. History: 1 = original study/sweep components; 2 = added
/// the sampling dimension to study keys; 3 = study keys hash
/// [`StudyCtx::describe`], whose resolved sampling geometry is always
/// present; 4 = the `args` entry left [`StudyCtx::describe`] (studies
/// take flags only).
pub const KEY_SCHEMA_VERSION: u32 = 4;

/// Derives the content-address of one registry study run.
///
/// Components are exactly the inputs the result is a pure function of:
/// the key-schema version, the study name, every entry of
/// [`StudyCtx::describe`] (resolved values, so two spellings of the same
/// run share a key while any change a study could see does not), and
/// the workload-suite digest (so changing trace generators invalidates
/// every cached result).
#[must_use]
pub fn study_key(study: &str, ctx: &StudyCtx) -> CacheKey {
    ctx.describe()
        .into_iter()
        .fold(
            CacheKey::builder()
                .component("schema", KEY_SCHEMA_VERSION)
                .component("kind", "study")
                .component("study", study),
            |key, (name, value)| key.component(&name, value),
        )
        .component("traces", format!("{:016x}", suite_digest()))
        .finish()
}

/// Derives the content-address of one predictor sweep.
///
/// Components are the key-schema version, every entry of
/// [`cli::describe_sweep`] (the entries its manifest records) and the
/// workload-suite digest. Predictor labels must already be canonical
/// ([`PredictorSpec::parse`] then [`PredictorSpec::label`]), so spelling
/// variants of the same predictor share a key. Predictor *order* stays
/// significant — it is row order in the output.
#[must_use]
pub fn sweep_key(workload: &str, labels: &[String], scales: &[u32], len: usize) -> CacheKey {
    cli::describe_sweep(workload, labels, scales, len)
        .into_iter()
        .fold(
            CacheKey::builder()
                .component("schema", KEY_SCHEMA_VERSION)
                .component("kind", "sweep"),
            |key, (name, value)| key.component(&name, value),
        )
        .component("traces", format!("{:016x}", suite_digest()))
        .finish()
}

/// The fields a `POST /run` body may carry: the serve-only `study` and
/// `deadline_secs`, then the `branch-lab run` flags. Listing them keeps
/// `--csv` and `--help` out of reach of a request.
const RUN_FIELDS: [&str; 7] =
    ["study", "deadline_secs", "len", "quick", "sample_interval", "sample_warmup", "sample_phases"];

/// The fields a `POST /sweep` body may carry: the serve-only
/// `deadline_secs`, then the `branch-lab sweep` flags.
const SWEEP_FIELDS: [&str; 5] = ["deadline_secs", "workload", "predictors", "scales", "len"];

/// A request body: its serve-only fields, and every other field as the
/// flag it mirrors.
struct Body {
    study: Option<String>,
    deadline: Option<Duration>,
    args: Vec<String>,
}

impl Body {
    /// Parses `body`, a JSON object whose fields `allowed` lists; an
    /// unknown field is refused, never silently defaulted (and cached).
    /// Each field but `study` and `deadline_secs` becomes its flag
    /// (`sample_interval` is `--sample-interval`): `true` the bare switch,
    /// `false` or `null` no flag, a list one comma-joined value, a string
    /// or number the value. A value may not begin with `-`, so no value
    /// reads as a flag.
    fn parse(body: &[u8], allowed: &[&str]) -> Result<Body, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
        let value = json::parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
        let Value::Obj(fields) = value else {
            return Err("body must be a JSON object".to_owned());
        };
        let mut parsed = Body { study: None, deadline: None, args: Vec::new() };
        for (name, value) in fields {
            if !allowed.contains(&name.as_str()) {
                return Err(format!(
                    "unknown field \"{name}\"; supported: {}",
                    allowed.join(", ")
                ));
            }
            let flag = || format!("--{}", name.replace('_', "-"));
            match (name.as_str(), value) {
                (_, Value::Null) => {}
                ("study", Value::Str(study)) => parsed.study = Some(study),
                ("study", _) => return Err("field \"study\" must be a string".to_owned()),
                ("deadline_secs", secs) => {
                    let secs = secs.as_u64().ok_or(
                        "field \"deadline_secs\" must be a non-negative integer",
                    )?;
                    parsed.deadline = (secs > 0).then(|| Duration::from_secs(secs));
                }
                (_, Value::Bool(false)) => {}
                (_, Value::Bool(true)) => parsed.args.push(flag()),
                (_, value) => {
                    let text = match value {
                        Value::Arr(items) => items
                            .into_iter()
                            .map(scalar)
                            .collect::<Option<Vec<_>>>()
                            .map(|items| items.join(",")),
                        value => scalar(value),
                    }
                    .ok_or_else(|| {
                        format!("field \"{name}\" must be a string, number, boolean or list")
                    })?;
                    if text.starts_with('-') {
                        return Err(format!("field \"{name}\" may not begin with '-'"));
                    }
                    parsed.args.extend([flag(), text]);
                }
            }
        }
        Ok(parsed)
    }
}

/// The text of a string or number.
fn scalar(value: Value) -> Option<String> {
    match value {
        Value::Str(text) | Value::Num(text) => Some(text),
        _ => None,
    }
}

/// A `POST /run` body, parsed by `branch-lab run`'s flag parser.
#[derive(Debug)]
pub struct RunRequest {
    /// The `study` field: the name to look up.
    pub study: String,
    /// The study flags the other fields mirror.
    pub cli: Cli,
    /// The `deadline_secs` field; `None` defers to the server default.
    pub deadline: Option<Duration>,
}

impl RunRequest {
    /// Parses a `/run` body.
    ///
    /// # Errors
    ///
    /// A malformed body, an unknown field, a missing `study`, or a
    /// refusal of [`Cli::parse_from`].
    pub fn parse(body: &[u8]) -> Result<RunRequest, String> {
        let Body { study, deadline, args } = Body::parse(body, &RUN_FIELDS)?;
        let study = study.ok_or("missing required field \"study\"")?;
        Ok(RunRequest { study, cli: Cli::parse_from(args)?, deadline })
    }
}

/// A `POST /sweep` body, parsed by `branch-lab sweep`'s flag parser.
#[derive(Debug)]
pub struct SweepRequest {
    /// The sweep flags the fields mirror.
    pub args: SweepArgs,
    /// The `deadline_secs` field; `None` defers to the server default.
    pub deadline: Option<Duration>,
}

impl SweepRequest {
    /// Parses a `/sweep` body.
    ///
    /// # Errors
    ///
    /// A malformed body, an unknown field, or a refusal of
    /// [`SweepArgs::parse_from`].
    pub fn parse(body: &[u8]) -> Result<SweepRequest, String> {
        let Body { deadline, args, .. } = Body::parse(body, &SWEEP_FIELDS)?;
        Ok(SweepRequest { args: SweepArgs::parse_from(args)?, deadline })
    }
}

/// The serve-mode request handler: registry dispatch in front of the
/// content-addressed cache, whose slots coalesce identical requests, with
/// per-request deadlines.
pub struct StudyService {
    registry: StudyRegistry,
    cache: ResultCache,
    default_deadline: Option<Duration>,
    m_exec: Counter,
    m_join: Counter,
    m_deadline: Counter,
}

impl StudyService {
    /// A service over `registry` with the given cache configuration and
    /// default per-request deadline.
    #[must_use]
    pub fn new(
        registry: StudyRegistry,
        cache_dir: Option<PathBuf>,
        cache_budget: Option<u64>,
        default_deadline: Option<Duration>,
    ) -> StudyService {
        StudyService {
            registry,
            cache: ResultCache::new(cache_dir, cache_budget),
            default_deadline,
            m_exec: Counter::get("serve.exec"),
            m_join: Counter::get("serve.dedup_join"),
            m_deadline: Counter::get("serve.deadline_expired"),
        }
    }

    /// Serves `key` from cache, or fills its cache slot: from the disk
    /// tier, or by running `work` as one direct attempt under the
    /// request's deadline. Requests arriving during a fill wait for it
    /// (`join`). A stored entry is the rendered report and its manifest,
    /// tagged with `key` and `source: serve`. An attempt that is
    /// cancelled (a `504`) or panics (a `500`) stores nothing.
    fn dispatch<F>(&self, key: CacheKey, label: &str, deadline: Option<Duration>, work: F) -> Response
    where
        F: FnOnce() -> (Report, Manifest),
    {
        let deadline = deadline.or(self.default_deadline);
        let filled = catch_unwind(AssertUnwindSafe(|| {
            self.cache.get_or_fill(key, || {
                self.m_exec.incr();
                let (report, mut manifest) = exec::attempt(label, deadline, |_| work());
                manifest.info.insert("key".to_owned(), key.hex());
                manifest.info.insert("source".to_owned(), "serve".to_owned());
                let body = report.render().into_bytes();
                CacheEntry { key, body, manifest: manifest.to_json() }
            })
        }));
        match filled {
            Ok((entry, source)) => {
                if source == Source::Joined {
                    self.m_join.incr();
                }
                entry_response(&entry, source.label())
            }
            Err(payload) => match payload.downcast_ref::<Cancelled>() {
                Some(stop) => {
                    self.m_deadline.incr();
                    Response::error(504, &format!("deadline expired: cancelled: {}", stop.reason))
                        .with_header("X-Branch-Lab-Key", &key.hex())
                }
                None => Response::error(
                    500,
                    &format!("panicked: {}", exec::panic_message(payload.as_ref())),
                )
                .with_header("X-Branch-Lab-Key", &key.hex()),
            },
        }
    }

    fn run_endpoint(&self, req: &Request) -> Response {
        let RunRequest { study, cli, deadline } = match RunRequest::parse(&req.body) {
            Ok(parsed) => parsed,
            Err(e) => return Response::error(400, &e),
        };
        let study = match self.registry.get(&study) {
            Ok(study) => study,
            Err(e) => return Response::error(404, &e),
        };
        let ctx = cli.ctx();
        let key = study_key(study.name, &ctx);
        self.dispatch(key, study.name, deadline, move || crate::run_recorded(study, &ctx))
    }

    fn sweep_endpoint(&self, req: &Request) -> Response {
        let SweepRequest { args, deadline } = match SweepRequest::parse(&req.body) {
            Ok(parsed) => parsed,
            Err(e) => return Response::error(400, &e),
        };
        let spec = match args.spec() {
            Ok(spec) => spec,
            Err(e) => return Response::error(404, &e),
        };
        let labels: Vec<String> = args.specs.iter().map(PredictorSpec::label).collect();
        let key = sweep_key(&spec.name, &labels, &args.scales, args.len);
        self.dispatch(key, "sweep", deadline, move || {
            cli::sweep_recorded(&spec, &args.specs, &args.scales, args.len)
        })
    }

    fn result_endpoint(&self, path: &str) -> Response {
        let rest = path.strip_prefix("/result/").unwrap_or_default();
        let (hex, manifest) = match rest.strip_suffix("/manifest") {
            Some(hex) => (hex, true),
            None => (rest, false),
        };
        let Some(key) = CacheKey::from_hex(hex) else {
            return Response::error(400, "result keys are 16 lower-hex digits");
        };
        let Some((entry, source)) = self.cache.get(key) else {
            return Response::error(404, &format!("no cached result under {}", key.hex()));
        };
        if manifest {
            Response::json(entry.manifest.clone().into_bytes())
                .with_header("X-Branch-Lab-Key", &key.hex())
                .with_header("X-Branch-Lab-Cache", source.label())
        } else {
            entry_response(&entry, source.label())
        }
    }

    fn studies_endpoint(&self) -> Response {
        let list: Vec<Value> = self
            .registry
            .studies()
            .iter()
            .map(|s| {
                let kind = match s.kind {
                    StudyKind::Report => "report",
                    StudyKind::Standalone => "standalone",
                };
                let mut obj = BTreeMap::new();
                obj.insert("name".to_owned(), Value::Str(s.name.to_owned()));
                obj.insert("kind".to_owned(), Value::Str(kind.to_owned()));
                obj.insert("title".to_owned(), Value::Str(s.title.to_owned()));
                Value::Obj(obj)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("studies".to_owned(), Value::Arr(list));
        root.insert("workloads".to_owned(), Value::Arr(
            workload_names().into_iter().map(Value::Str).collect(),
        ));
        Response::json(Value::Obj(root).to_json().into_bytes())
    }
}

fn metrics_endpoint() -> Response {
    let mut counters = BTreeMap::new();
    for (name, value) in bp_metrics::snapshot_counters() {
        counters.insert(name, Value::uint(value));
    }
    let mut root = BTreeMap::new();
    root.insert("counters".to_owned(), Value::Obj(counters));
    Response::json(Value::Obj(root).to_json().into_bytes())
}

fn entry_response(entry: &CacheEntry, source: &str) -> Response {
    Response::text(entry.body.clone())
        .with_header("X-Branch-Lab-Key", &entry.key.hex())
        .with_header("X-Branch-Lab-Cache", source)
}

impl Handler for StudyService {
    fn handle(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::text("ok\n"),
            ("GET", "/studies") => self.studies_endpoint(),
            ("GET", "/metrics") => metrics_endpoint(),
            ("POST", "/run") => self.run_endpoint(req),
            ("POST", "/sweep") => self.sweep_endpoint(req),
            ("GET", path) if path.starts_with("/result/") => self.result_endpoint(path),
            ("POST" | "PUT" | "DELETE", "/healthz" | "/studies" | "/metrics")
            | ("GET" | "PUT" | "DELETE", "/run" | "/sweep") => {
                Response::error(405, &format!("method {} not allowed on {}", req.method, req.path))
            }
            _ => Response::error(404, &format!("no route for {} {}", req.method, req.path)),
        }
    }
}

/// The `branch-lab serve` entry point: resolve options, bind, announce,
/// serve forever.
pub fn run_from(args: Vec<String>) {
    let opts = ServeOptions::resolve(args).unwrap_or_else(|e| cli::usage_error(&e));
    // The serve.* counters are the operational surface (`GET /metrics`);
    // they must count even when BRANCH_LAB_METRICS is unset.
    bp_metrics::force_enable();
    let service = Arc::new(StudyService::new(
        registry::registry(),
        opts.cache_dir.clone(),
        Some(opts.cache_budget),
        opts.deadline,
    ));
    let server = match Server::bind(&opts.addr, opts.workers, service) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("branch-lab serve: cannot bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    println!(
        "branch-lab serve: listening on http://{} ({} workers, cache: {})",
        server.local_addr(),
        opts.workers,
        opts.cache_dir
            .as_ref()
            .map_or_else(|| "memory-only".to_owned(), |d| d.display().to_string()),
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
}

#[cfg(test)]
mod tests {
    use bp_core::SamplingConfig;

    use super::*;

    #[test]
    fn run_request_rejects_unknown_fields_and_bad_values() {
        assert!(RunRequest::parse(b"{\"study\": \"fig3\"}").is_ok());
        assert!(RunRequest::parse(b"not json").is_err());
        assert!(RunRequest::parse(b"{}").unwrap_err().contains("study"));
        assert!(RunRequest::parse(b"{\"study\": \"fig3\", \"typo\": 1}")
            .unwrap_err()
            .contains("unknown field"));
        assert!(RunRequest::parse(b"{\"study\": \"fig3\", \"len\": 3}")
            .unwrap_err()
            .contains("at least 10"));
    }

    #[test]
    fn sweep_request_accepts_both_list_spellings() {
        let a = SweepRequest::parse(
            b"{\"workload\": \"w\", \"predictors\": \"gshare, bimodal\", \"scales\": \"1,4\"}",
        )
        .unwrap()
        .args;
        let b = SweepRequest::parse(
            b"{\"workload\": \"w\", \"predictors\": [\"gshare\", \"bimodal\"], \"scales\": [1, 4]}",
        )
        .unwrap()
        .args;
        assert_eq!(a.specs.len(), 2);
        assert_eq!(a.scales, vec![1, 4]);
        assert_eq!(b.scales, a.scales);
        assert_eq!(a.len, 200_000);
        // A scale `PipelineConfig::scaled` refuses is a 400, not a panic
        // in the worker.
        for scales in ["[0]", "[65]", "[\"x\"]"] {
            let body =
                format!("{{\"workload\": \"w\", \"predictors\": \"gshare\", \"scales\": {scales}}}");
            let err = SweepRequest::parse(body.as_bytes()).unwrap_err();
            assert!(err.contains("must be an integer from 1 to 64"), "{scales}: {err}");
        }
    }

    #[test]
    fn serve_options_reject_malformed_flags() {
        let resolve =
            |args: &[&str]| ServeOptions::resolve(args.iter().map(|a| (*a).to_owned()).collect());
        let opts =
            resolve(&["--workers", "3", "--cache-budget", "64M", "--deadline-secs", "0"]).unwrap();
        assert_eq!((opts.workers, opts.cache_budget, opts.deadline), (3, 64 << 20, None));
        // Without the flag, each tier is bounded at 1 GiB, not unbounded.
        assert_eq!(resolve(&[]).unwrap().cache_budget, 1 << 30);
        assert_eq!(
            resolve(&["--cache-budget", "1G"]).unwrap().cache_budget,
            DEFAULT_CACHE_BUDGET
        );
        for bad in [
            &["--bogus"][..],
            &["--workers"],
            &["--workers", "x"],
            &["--workers", "0"],
            &["--cache-budget", "lots"],
            &["--deadline-secs", "-1"],
        ] {
            assert!(resolve(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn keys_canonicalize_datasets_not_flag_spellings() {
        // `--len 1000000` and the standard default describe the same
        // dataset; the keys must agree because they derive from the
        // resolved context, not the flag spelling.
        let key = |study: &str, cli: &Cli| study_key(study, &cli.ctx());
        let plain = Cli::default();
        let spelled = Cli { len: Some(1_000_000), ..Cli::default() };
        assert_eq!(key("fig3", &plain), key("fig3", &spelled));
        // But a different study or dataset scale never collides.
        let base = key("fig3", &plain);
        let quick = Cli { quick: true, ..Cli::default() };
        assert_ne!(base, key("fig1", &plain));
        assert_ne!(base, key("fig3", &quick));
    }

    #[test]
    fn sampling_is_a_key_dimension_with_resolved_canonicalization() {
        let ctx = Cli::default().ctx();
        let key = study_key("sampled", &ctx);
        // Spelling the resolved defaults explicitly is the same request.
        let resolved = ctx.sampling.resolve(&ctx.dataset);
        let mut explicit = ctx.clone();
        explicit.sampling = SamplingConfig {
            interval_len: Some(resolved.interval_len),
            warmup: Some(resolved.warmup),
            max_phases: resolved.max_phases,
        };
        assert_eq!(key, study_key("sampled", &explicit));
        // Any resolved knob change is a different result.
        let knobs = [
            SamplingConfig { interval_len: Some(resolved.interval_len * 2), ..ctx.sampling },
            SamplingConfig { warmup: Some(resolved.warmup + 1), ..ctx.sampling },
            SamplingConfig { max_phases: 2, ..ctx.sampling },
        ];
        for sampling in knobs {
            let changed = StudyCtx { sampling, ..ctx.clone() };
            assert_ne!(key, study_key("sampled", &changed), "{sampling:?}");
        }
    }

    #[test]
    fn run_request_parses_sampling_fields() {
        let req = RunRequest::parse(
            b"{\"study\": \"sampled\", \"sample_interval\": 5000, \"sample_phases\": 3}",
        )
        .unwrap();
        assert_eq!(req.cli.sampling.interval_len, Some(5000));
        assert_eq!(req.cli.sampling.warmup, None);
        assert_eq!(req.cli.sampling.max_phases, 3);
        for body in [
            &b"{\"study\": \"sampled\", \"sample_intervel\": 1}"[..],
            b"{\"study\": \"sampled\", \"sampled\": true}",
            b"{\"study\": \"calibrate\", \"args\": [\"60000\"]}",
        ] {
            let err = RunRequest::parse(body).unwrap_err();
            assert!(err.contains("unknown field"), "{err}");
        }
    }
}
