//! The study registry: every paper table, figure, ablation and
//! supplementary study as a named, runnable unit.
//!
//! Each experiment (Table I, Fig. 7, the ablations, the calibration
//! table, …) implements [`Study`]: a static [`StudyInfo`] describing it
//! plus a `run` that computes a [`Report`]. A [`StudyRegistry`] holds
//! them in a fixed order and is the single source of truth the
//! `branch-lab` CLI dispatches from — `branch-lab list` prints it,
//! `branch-lab run <name>` looks it up, and the `all` runner derives its
//! child list from it instead of hand-maintaining one.
//!
//! The registry lives in `bp-core` so any layer can consume it; the
//! studies themselves are registered by `bp-experiments`, which owns the
//! figure/table computations.

use std::collections::BTreeMap;

use crate::config::{DatasetConfig, SamplingConfig};
use crate::report::Report;

/// How a study is invoked and accounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StudyKind {
    /// A paper artifact: runs on the standard dataset options
    /// (`--quick`, `--len`, `--csv`) and is included in `all` sweeps.
    Report,
    /// Same invocation surface as [`StudyKind::Report`] but excluded
    /// from `all` sweeps (supplementary context such as the predictor
    /// survey or the calibration table).
    Standalone,
}

/// Static description of a study.
#[derive(Clone, Copy, Debug)]
pub struct StudyInfo {
    /// Registry key and binary name, e.g. `"fig7"`.
    pub name: &'static str,
    /// One-line description shown by `branch-lab list`.
    pub title: &'static str,
    /// Invocation class.
    pub kind: StudyKind,
}

/// The one description of a study run: everything a study may consult,
/// and so everything its report is a function of.
///
/// [`StudyCtx::describe`] lists it as named entries. Those entries are
/// the `info` block of every run manifest (`branch-lab run`, `all` and
/// serve) and the components of serve's cache key, so what a manifest
/// records, what a key hashes and what a study reads cannot drift apart.
/// Cancellation is not part of it: the executor (`bp_core::exec`)
/// installs each attempt's token as the thread's cancel scope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StudyCtx {
    /// Dataset shape (trace length, slicing, input cap).
    pub dataset: DatasetConfig,
    /// Sampled-replay geometry, resolved against [`StudyCtx::dataset`] by
    /// the studies that sample.
    pub sampling: SamplingConfig,
}

impl StudyCtx {
    /// The run as named entries: the resolved dataset shape
    /// (`trace_len`, `slice_len`, `max_inputs`) and the resolved sampling
    /// geometry (`sample_interval`, `sample_warmup`, `sample_phases`).
    /// Resolved values make two spellings of one run (`--len 1000000`
    /// and the default, or an explicit knob equal to its default)
    /// describe it identically.
    #[must_use]
    pub fn describe(&self) -> BTreeMap<String, String> {
        let sampling = self.sampling.resolve(&self.dataset);
        let max_inputs =
            self.dataset.max_inputs.map_or_else(|| "none".to_owned(), |n| n.to_string());
        [
            ("trace_len", self.dataset.trace_len.to_string()),
            ("slice_len", self.dataset.slice.len().to_string()),
            ("max_inputs", max_inputs),
            ("sample_interval", sampling.interval_len.to_string()),
            ("sample_warmup", sampling.warmup.to_string()),
            ("sample_phases", sampling.max_phases.to_string()),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
    }
}

/// A named, runnable experiment.
pub trait Study {
    /// Static metadata (name, title, kind).
    fn info(&self) -> StudyInfo;
    /// Runs the full computation and returns the printable output.
    fn run(&self, ctx: &StudyCtx) -> Report;
}

/// A [`Study`] built from a closure — the common case.
pub struct FnStudy {
    info: StudyInfo,
    run: Box<dyn Fn(&StudyCtx) -> Report + Send + Sync>,
}

impl FnStudy {
    /// Wraps `run` with the given metadata.
    pub fn new(
        info: StudyInfo,
        run: impl Fn(&StudyCtx) -> Report + Send + Sync + 'static,
    ) -> Self {
        FnStudy {
            info,
            run: Box::new(run),
        }
    }
}

impl Study for FnStudy {
    fn info(&self) -> StudyInfo {
        self.info
    }

    fn run(&self, ctx: &StudyCtx) -> Report {
        (self.run)(ctx)
    }
}

/// An ordered collection of uniquely named studies.
///
/// Registration order is presentation order: `branch-lab list` prints it
/// and the `all` runner executes [`StudyKind::Report`] studies in it.
#[derive(Default)]
pub struct StudyRegistry {
    studies: Vec<Box<dyn Study + Send + Sync>>,
}

impl StudyRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        StudyRegistry::default()
    }

    /// Adds a study at the end of the presentation order.
    ///
    /// # Panics
    ///
    /// Panics if a study with the same name is already registered.
    pub fn register(&mut self, study: Box<dyn Study + Send + Sync>) {
        let name = study.info().name;
        assert!(
            self.get(name).is_none(),
            "duplicate study registration: {name}"
        );
        self.studies.push(study);
    }

    /// Looks a study up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&(dyn Study + Send + Sync)> {
        self.studies
            .iter()
            .find(|s| s.info().name == name)
            .map(Box::as_ref)
    }

    /// All studies, in registration order.
    pub fn studies(&self) -> impl Iterator<Item = &(dyn Study + Send + Sync)> {
        self.studies.iter().map(Box::as_ref)
    }

    /// Names of all studies, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.studies.iter().map(|s| s.info().name).collect()
    }

    /// Names of the [`StudyKind::Report`] studies, in registration order
    /// — the `all` runner's child list.
    #[must_use]
    pub fn report_names(&self) -> Vec<&'static str> {
        self.studies
            .iter()
            .filter(|s| s.info().kind == StudyKind::Report)
            .map(|s| s.info().name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub(name: &'static str, kind: StudyKind) -> Box<FnStudy> {
        Box::new(FnStudy::new(
            StudyInfo {
                name,
                title: "stub",
                kind,
            },
            |_| {
                let mut r = Report::new();
                r.note("ran");
                r
            },
        ))
    }

    #[test]
    fn registry_preserves_order_and_filters_kinds() {
        let mut reg = StudyRegistry::new();
        reg.register(stub("b", StudyKind::Report));
        reg.register(stub("s", StudyKind::Standalone));
        reg.register(stub("c", StudyKind::Report));
        assert_eq!(reg.names(), vec!["b", "s", "c"]);
        assert_eq!(reg.report_names(), vec!["b", "c"]);
        let ctx = StudyCtx {
            dataset: DatasetConfig::quick(),
            sampling: SamplingConfig::default(),
        };
        assert_eq!(reg.get("s").unwrap().run(&ctx).render(), "ran\n");
        assert!(reg.get("zzz").is_none());
    }

    #[test]
    fn describe_canonicalizes_spellings_and_separates_runs() {
        let plain = StudyCtx {
            dataset: DatasetConfig::standard(),
            sampling: SamplingConfig::default(),
        };
        let d = plain.describe();
        assert_eq!(d["trace_len"], "1000000");
        assert_eq!(d["max_inputs"], "none");
        assert_eq!(d["sample_interval"], "50000");
        assert_eq!(d["sample_warmup"], "10000");
        assert_eq!(d["sample_phases"], "4");
        // An explicit default is the same run.
        let mut spelled = StudyCtx {
            dataset: DatasetConfig::standard().with_trace_len(1_000_000),
            ..plain.clone()
        };
        spelled.sampling.interval_len = Some(50_000);
        assert_eq!(spelled.describe(), d);
        // A changed knob is a different run.
        let mut coarser = plain.clone();
        coarser.sampling.interval_len = Some(100_000);
        assert_ne!(coarser.describe(), d);
        let shorter = StudyCtx {
            dataset: DatasetConfig::standard().with_trace_len(30_000),
            ..plain
        };
        assert_ne!(shorter.describe(), d);
    }

    #[test]
    #[should_panic(expected = "duplicate study")]
    fn duplicate_names_panic() {
        let mut reg = StudyRegistry::new();
        reg.register(stub("x", StudyKind::Report));
        reg.register(stub("x", StudyKind::Standalone));
    }
}
