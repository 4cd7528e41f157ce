//! The `BRANCH_LAB_*` environment variables, the one place branch-lab
//! reads its environment. [`TABLE`] holds each variable's name, grammar,
//! default and help line with its one parser. A reader calls [`Var::get`]
//! at its own first use, not from a start-up snapshot (the benchmark sets
//! the trace directory after start-up), and panics on a value outside
//! the grammar. `run`, `all`, `sweep` and `serve` call [`check`] first:
//! there a malformed value, or a `BRANCH_LAB_*` name the table does not
//! list, exits 2 with the same message.

use std::path::PathBuf;
use std::sync::OnceLock;

use crate::faultpoint::{self, FaultSpec};

/// The grammar of a count: `BRANCH_LAB_THREADS` and serve's `--workers`.
pub const COUNT: &str = "a whole number of at least 1";
/// The grammar of a byte budget: `BRANCH_LAB_MEM_BUDGET` and `--cache-budget`.
pub const BYTES: &str = "a byte count of at least 1 with an optional K, M or G suffix";

/// One variable: its name, grammar, default, help line and parser.
pub struct Var<T> {
    name: &'static str,
    grammar: &'static str,
    default: &'static str,
    help: &'static str,
    pub(crate) parse: fn(&str) -> Option<T>,
}

impl<T> Var<T> {
    /// The variable's value; `None` when it is unset or empty. Panics on a
    /// value outside the grammar, with [`check`]'s message.
    pub fn get(&self) -> Option<T> {
        self.read().unwrap_or_else(|e| panic!("{e}"))
    }

    fn read(&self) -> Result<Option<T>, String> {
        let raw = std::env::var_os(self.name).filter(|v| !v.is_empty());
        let invalid = |raw| format!("invalid value {raw:?} for {}: {}", self.name, self.grammar);
        raw.map(|raw| raw.to_str().and_then(self.parse).ok_or_else(|| invalid(raw))).transpose()
    }
}

/// A [`Var`] of any value type, as [`TABLE`] lists it.
pub trait Entry: Sync {
    /// The variable's name, grammar, default and help line.
    fn doc(&self) -> [&'static str; 4];
    /// Parses the variable's value, if set: `Err` is [`Var::get`]'s message.
    fn check(&self) -> Result<(), String>;
}

impl<T> Entry for Var<T> {
    fn doc(&self) -> [&'static str; 4] {
        [self.name, self.grammar, self.default, self.help]
    }

    fn check(&self) -> Result<(), String> {
        self.read().map(drop)
    }
}

/// Every variable, in `branch-lab help`'s order.
pub static TABLE: [&dyn Entry; 8] = [
    &THREADS,
    &TRACE_DIR,
    &METRICS,
    &FAULTS,
    &CHAOS_SEED,
    &MEM_BUDGET,
    &RETRY_DELAY_MS,
    &UPDATE_GOLDEN,
];

/// Parses every variable of [`TABLE`] and refuses a `BRANCH_LAB_*` name it
/// does not list (a typo, a removed variable): `Err` is the first message.
pub fn check() -> Result<(), String> {
    for (name, value) in std::env::vars_os() {
        let name = name.to_string_lossy();
        if name.starts_with("BRANCH_LAB_") && !TABLE.iter().any(|var| var.doc()[0] == name) {
            return Err(format!("unknown variable {name} (set to {value:?})"));
        }
    }
    TABLE.iter().try_for_each(|var| var.check())
}

pub(crate) static THREADS: Var<usize> = Var {
    name: "BRANCH_LAB_THREADS",
    grammar: COUNT,
    default: "available parallelism",
    help: "worker threads of the study engine (1: serial)",
    parse: parse_count,
};

static TRACE_DIR: Var<PathBuf> = Var {
    name: "BRANCH_LAB_TRACE_DIR",
    grammar: "a directory",
    default: "none (memory only); `all`: out/traces",
    help: "disk cache of generated traces",
    parse: |v| Some(PathBuf::from(v)),
};

/// `Some(None)` turns metrics off; `Some(Some(dir))` names their directory.
pub(crate) static METRICS: Var<Option<PathBuf>> = Var {
    name: "BRANCH_LAB_METRICS",
    grammar: "0 (off), 1 (out/metrics) or a directory",
    default: "0",
    help: "count metrics; write run manifests to this directory",
    parse: |v| Some((v != "0").then(|| PathBuf::from(if v == "1" { "out/metrics" } else { v }))),
};

pub(crate) static FAULTS: Var<Vec<FaultSpec>> = Var {
    name: "BRANCH_LAB_FAULTS",
    grammar: "comma-separated site:fail|panic[@n|@a..b|@a..|@p%]",
    default: "none",
    help: "deterministic fault injection (tests, CI)",
    parse: |v| faultpoint::parse(v).ok(),
};

pub(crate) static CHAOS_SEED: Var<u64> = Var {
    name: "BRANCH_LAB_CHAOS_SEED",
    grammar: "a whole number",
    default: "0",
    help: "seed of probabilistic faults and retry jitter",
    parse: |v| v.trim().parse().ok(),
};

/// The trace store's memory budget in bytes.
pub static MEM_BUDGET: Var<u64> = Var {
    name: "BRANCH_LAB_MEM_BUDGET",
    grammar: BYTES,
    default: "unbounded",
    help: "memory for traces and memoized intermediates",
    parse: parse_budget,
};

/// The base of the executor's retry backoff, in milliseconds.
pub static RETRY_DELAY_MS: Var<u64> = Var {
    name: "BRANCH_LAB_RETRY_DELAY_MS",
    grammar: "a whole number of milliseconds",
    default: "500",
    help: "base of `all`'s jittered retry backoff",
    parse: |v| v.trim().parse().ok(),
};

// Read by the golden tests themselves; listed so that `check` accepts it.
static UPDATE_GOLDEN: Var<()> = Var {
    name: "BRANCH_LAB_UPDATE_GOLDEN",
    grammar: "0 or 1",
    default: "0",
    help: "golden tests: 1 rewrites fixtures instead of comparing",
    parse: |v| matches!(v, "0" | "1").then_some(()),
};

/// Where `all` keeps traces when `BRANCH_LAB_TRACE_DIR` is unset; set it
/// before the global trace store's first [`trace_dir`] read.
pub static TRACE_DIR_DEFAULT: OnceLock<PathBuf> = OnceLock::new();

/// The trace store's disk cache: `BRANCH_LAB_TRACE_DIR`, else
/// [`TRACE_DIR_DEFAULT`]. Panics as [`Var::get`] does.
#[must_use]
pub fn trace_dir() -> Option<PathBuf> {
    TRACE_DIR.get().or_else(|| TRACE_DIR_DEFAULT.get().cloned())
}

/// Parses a count ([`COUNT`]); blanks around it are allowed.
#[must_use]
pub fn parse_count(raw: &str) -> Option<usize> {
    raw.trim().parse().ok().filter(|&n| n >= 1)
}

/// Parses a byte budget ([`BYTES`]), e.g. `512`, `64K`, `8M`, `1G` (the
/// suffix is case-insensitive and 1024-based). `None` for anything
/// unparsable, zero, or past `u64::MAX` bytes.
#[must_use]
pub fn parse_budget(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    let (digits, unit) = match raw.chars().last()? {
        'k' | 'K' => (&raw[..raw.len() - 1], 1u64 << 10),
        'm' | 'M' => (&raw[..raw.len() - 1], 1 << 20),
        'g' | 'G' => (&raw[..raw.len() - 1], 1 << 30),
        _ => (raw, 1),
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_mul(unit).filter(|&b| b > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parser_accepts_suffixes_and_rejects_garbage() {
        assert_eq!(parse_budget("1024"), Some(1024));
        assert_eq!(parse_budget("4K"), Some(4 << 10));
        assert_eq!(parse_budget(" 16m "), Some(16 << 20));
        assert_eq!(parse_budget("2G"), Some(2 << 30));
        assert_eq!(parse_budget("0"), None);
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("lots"), None);
        assert_eq!(parse_budget("-5M"), None);
        // The largest budget that fits, and the first that does not.
        assert_eq!(parse_budget("17179869183G"), Some(17_179_869_183 << 30));
        assert_eq!(parse_budget("17179869184G"), None);
        // Past u64::MAX by a little more than one unit: these must not
        // wrap around to 1 GiB, 1 MiB and 1 KiB.
        assert_eq!(parse_budget("17179869185G"), None);
        assert_eq!(parse_budget("18014398509481985M"), None);
        assert_eq!(parse_budget("18014398509481985K"), None);
        assert_eq!(parse_budget("18446744073709551615"), Some(u64::MAX));
    }
}
