//! One request grammar: every case is written as `branch-lab` arguments
//! and as the `/run` or `/sweep` body that mirrors them. The two must
//! parse to the same request under the same cache key, or be refused by
//! both: a body refused at parse is a `400` and its arguments exit 2; a
//! request naming an unknown study or workload parses alike and is then
//! a `404` and an exit 2.

use std::process::Command;

use bp_core::serve::cache::CacheKey;
use bp_core::serve::http::Request;
use bp_core::serve::Handler;
use bp_experiments::cli::SweepArgs;
use bp_experiments::serve::{study_key, sweep_key, RunRequest, StudyService, SweepRequest};
use bp_experiments::{registry, Cli};
use bp_predictors::PredictorSpec;

/// `(branch-lab arguments, body, serve's status)`. A `200` row is only
/// parsed, never run. `--csv` and `--help` have no row: no body reaches
/// them (see `a_refusal_names_the_field_or_flag_at_fault`).
const CASES: &[(&[&str], &str, u16)] = &[
    (&["run", "fig3"], r#"{"study": "fig3"}"#, 200),
    (
        &["run", "fig3", "--quick", "--len", "20000"],
        r#"{"len": 20000, "quick": true, "study": "fig3"}"#,
        200,
    ),
    (&["run", "fig3"], r#"{"study": "fig3", "quick": false, "len": null}"#, 200),
    (
        &["run", "sampled", "--sample-interval", "5000", "--sample-phases", "3"],
        r#"{"study": "sampled", "sample_interval": 5000, "sample_phases": 3}"#,
        200,
    ),
    (
        &["run", "sampled", "--sample-warmup", "100"],
        r#"{"study": "sampled", "sample_warmup": "100"}"#,
        200,
    ),
    (&["run", "fig3", "--len", "5"], r#"{"study": "fig3", "len": 5}"#, 400),
    (&["run", "fig3", "--len", "-5"], r#"{"study": "fig3", "len": -5}"#, 400),
    (&["run", "fig3", "--len", "2.5e4"], r#"{"study": "fig3", "len": 2.5e4}"#, 400),
    (&["run", "fig3", "--quick", "yes"], r#"{"study": "fig3", "quick": "yes"}"#, 400),
    (&["run", "fig3", "--sample-warmup", "x"], r#"{"study": "fig3", "sample_warmup": "x"}"#, 400),
    (&["run"], "{}", 400),
    (&["run", "fig3", "--typo", "1"], r#"{"study": "fig3", "typo": 1}"#, 400),
    (
        &["run", "sampled", "--sample-intervel", "1"],
        r#"{"study": "sampled", "sample_intervel": 1}"#,
        400,
    ),
    (&["run", "sampled", "--sampled"], r#"{"study": "sampled", "sampled": true}"#, 400),
    (
        &["run", "calibrate", "--args", "60000"],
        r#"{"study": "calibrate", "args": ["60000"]}"#,
        400,
    ),
    (&["run", "zzz", "--quick"], r#"{"study": "zzz", "quick": true}"#, 404),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare"],
        r#"{"workload": "streaming", "predictors": "gshare"}"#,
        200,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare,bimodal", "--scales", "1,4"],
        r#"{"workload": "streaming", "predictors": "gshare, bimodal", "scales": "1,4"}"#,
        200,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare, bimodal", "--scales", "1,4"],
        r#"{"workload": "streaming", "predictors": ["gshare", "bimodal"], "scales": [1, 4]}"#,
        200,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", " gshare", "--len", "20000"],
        r#"{"workload": "streaming", "predictors": [" gshare"], "len": 20000}"#,
        200,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare"],
        r#"{"workload": "streaming", "predictors": ["gshare"], "scales": null}"#,
        200,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare,", "--scales", "1,,2", "--len", "1000"],
        r#"{"workload": "streaming", "predictors": "gshare,", "scales": "1,,2", "len": 1000}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare,"],
        r#"{"workload": "streaming", "predictors": "gshare,"}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare", "--scales", "1,,2"],
        r#"{"workload": "streaming", "predictors": "gshare", "scales": "1,,2"}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare", "--scales", ""],
        r#"{"workload": "streaming", "predictors": "gshare", "scales": []}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare", "--scales", "0"],
        r#"{"workload": "streaming", "predictors": "gshare", "scales": [0]}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare", "--scales", "65"],
        r#"{"workload": "streaming", "predictors": "gshare", "scales": [65]}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare", "--scales", "x"],
        r#"{"workload": "streaming", "predictors": "gshare", "scales": ["x"]}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare", "--len", "5"],
        r#"{"workload": "streaming", "predictors": "gshare", "len": 5}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "tage-sc-l-3kb"],
        r#"{"workload": "streaming", "predictors": ["tage-sc-l-3kb"]}"#,
        400,
    ),
    (
        &["sweep", "--workload", "streaming", "--predictors", "gshare,nonesuch"],
        r#"{"workload": "streaming", "predictors": ["gshare", "nonesuch"]}"#,
        400,
    ),
    (&["sweep", "--workload", "streaming"], r#"{"workload": "streaming"}"#, 400),
    (
        &["sweep", "--workload", "nowhere", "--predictors", "gshare"],
        r#"{"workload": "nowhere", "predictors": "gshare"}"#,
        404,
    ),
];

/// A parsed request with the cache key serve would store it under.
#[derive(Debug, PartialEq)]
enum Parsed {
    Run(String, Cli, CacheKey),
    Sweep(SweepArgs, CacheKey),
}

fn run(study: String, cli: Cli) -> Parsed {
    let key = study_key(&study, &cli.ctx());
    Parsed::Run(study, cli, key)
}

fn sweep(args: SweepArgs) -> Parsed {
    let labels: Vec<String> = args.specs.iter().map(PredictorSpec::label).collect();
    let key = sweep_key(&args.workload, &labels, &args.scales, args.len);
    Parsed::Sweep(args, key)
}

/// What `branch-lab` parses `argv` into, before any lookup.
fn from_argv(argv: &[&str]) -> Result<Parsed, String> {
    let owned = |flags: &[&str]| flags.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
    match argv {
        ["run", study, flags @ ..] if !study.starts_with('-') => {
            Ok(run((*study).to_owned(), Cli::parse_from(owned(flags))?))
        }
        ["run", ..] => Err("usage: branch-lab run <study> [flags]".to_owned()),
        ["sweep", flags @ ..] => Ok(sweep(SweepArgs::parse_from(owned(flags))?)),
        _ => unreachable!("{argv:?}"),
    }
}

/// What serve parses `body` into on `route`, before any lookup.
fn from_body(route: &str, body: &str) -> Result<Parsed, String> {
    if route == "run" {
        RunRequest::parse(body.as_bytes()).map(|r| run(r.study, r.cli))
    } else {
        SweepRequest::parse(body.as_bytes()).map(|r| sweep(r.args))
    }
}

#[test]
fn bodies_parse_as_the_flags_they_mirror() {
    let service = StudyService::new(registry::registry(), None, None, None);
    for &(argv, body, status) in CASES {
        let (flags, served) = (from_argv(argv), from_body(argv[0], body));
        match (&flags, &served) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{argv:?} vs {body}"),
            (Err(_), Err(_)) => {}
            _ => panic!("{argv:?} gives {flags:?} but {body} gives {served:?}"),
        }
        assert_eq!(flags.is_ok(), status != 400, "{argv:?}: {flags:?}");
        if status == 200 {
            continue; // accepted rows are not run here
        }
        // The service answers from the same parse, before anything runs.
        let reply = service.handle(&Request {
            method: "POST".to_owned(),
            path: format!("/{}", argv[0]),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        });
        let text = String::from_utf8_lossy(&reply.body);
        assert_eq!(reply.status, status, "{body}: {text}");
        // And the CLI refuses the same request as a usage error.
        let out = Command::new(env!("CARGO_BIN_EXE_branch-lab"))
            .args(argv)
            .output()
            .expect("spawn branch-lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty() && !stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
}

#[test]
fn a_refusal_names_the_field_or_flag_at_fault() {
    for (route, body, needle) in [
        ("run", r#"{"study": "fig3", "typo": 1}"#, "unknown field \"typo\""),
        ("run", "not json", "not valid JSON"),
        ("run", "[1]", "must be a JSON object"),
        ("run", r#"{"quick": true}"#, "missing required field \"study\""),
        ("run", r#"{"study": 3}"#, "field \"study\" must be a string"),
        ("run", r#"{"study": "fig3", "deadline_secs": "x"}"#, "deadline_secs"),
        ("run", r#"{"study": "fig3", "len": {"n": 1}}"#, "field \"len\""),
        ("run", r#"{"study": "fig3", "quick": "--help"}"#, "may not begin with '-'"),
        ("run", r#"{"study": "fig3", "len": 5}"#, "--len must be at least 10"),
        ("run", r#"{"study": "fig3", "csv": "out"}"#, "unknown field \"csv\""),
        ("run", r#"{"study": "fig3", "help": true}"#, "unknown field \"help\""),
        ("sweep", r#"{"workload": "streaming", "csv": "x"}"#, "unknown field \"csv\""),
        ("sweep", r#"{"workload": "streaming", "predictors": "gshare,"}"#, "unknown predictor"),
        ("sweep", r#"{"workload": "streaming", "predictors": "gshare", "scales": [0]}"#, "bad scale"),
    ] {
        let err = from_body(route, body).unwrap_err();
        assert!(err.contains(needle), "{body}: {err}");
    }
    // The serve-only fields are not flags: they parse beside them.
    let req = RunRequest::parse(br#"{"study": "fig3", "deadline_secs": 7}"#).unwrap();
    assert_eq!(req.deadline, Some(std::time::Duration::from_secs(7)));
    let req = SweepRequest::parse(br#"{"workload": "w", "predictors": "gshare", "deadline_secs": 0}"#)
        .unwrap();
    assert_eq!((req.deadline, req.args.scales, req.args.len), (None, vec![1], 200_000));
}
