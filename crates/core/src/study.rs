//! The study registry: every paper table, figure, ablation and
//! supplementary study as one row of a table.
//!
//! A [`Study`] is a plain row: a name, a title, a [`StudyKind`] and the
//! function that computes its [`Report`] from a [`StudyCtx`]. A
//! [`StudyRegistry`] holds the rows in a fixed order and is the single
//! source of truth the `branch-lab` CLI and serve dispatch from —
//! `branch-lab list` prints it, `branch-lab run <name>` and `POST /run`
//! look a row up, and the `all` runner derives its child list from it
//! instead of hand-maintaining one.
//!
//! The registry lives in `bp-core` so any layer can consume it; the rows
//! themselves are listed by `bp-experiments`, which owns the
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

/// A named, runnable experiment: one row of the study table.
#[derive(Clone, Copy, Debug)]
pub struct Study {
    /// Registry key, e.g. `"fig7"`.
    pub name: &'static str,
    /// One-line description shown by `branch-lab list`.
    pub title: &'static str,
    /// Invocation class.
    pub kind: StudyKind,
    /// Computes the printable output from the study's whole input.
    pub run: fn(&StudyCtx) -> Report,
}

/// The study table: uniquely named rows in presentation order.
///
/// `branch-lab list` prints the rows in order and the `all` runner
/// executes the [`StudyKind::Report`] rows in it.
pub struct StudyRegistry {
    studies: Vec<Study>,
}

impl StudyRegistry {
    /// The table of `studies`, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if two rows share a name.
    #[must_use]
    pub fn new(studies: Vec<Study>) -> Self {
        for (i, study) in studies.iter().enumerate() {
            let name = study.name;
            assert!(
                studies[..i].iter().all(|s| s.name != name),
                "duplicate study registration: {name}"
            );
        }
        StudyRegistry { studies }
    }

    /// Looks a study up by name.
    ///
    /// # Errors
    ///
    /// An unknown name, with the names the table holds.
    pub fn get(&self, name: &str) -> Result<Study, String> {
        self.studies.iter().copied().find(|s| s.name == name).ok_or_else(|| {
            format!("unknown study '{name}'; available: {}", self.names().join(", "))
        })
    }

    /// All studies, in presentation order.
    #[must_use]
    pub fn studies(&self) -> &[Study] {
        &self.studies
    }

    /// Names of all studies, in presentation order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.studies.iter().map(|s| s.name).collect()
    }

    /// The [`StudyKind::Report`] studies, in presentation order — the
    /// `all` runner's children.
    pub fn reports(&self) -> impl Iterator<Item = Study> + '_ {
        self.studies.iter().copied().filter(|s| s.kind == StudyKind::Report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub(name: &'static str, kind: StudyKind) -> Study {
        Study {
            name,
            title: "stub",
            kind,
            run: |_| {
                let mut r = Report::new();
                r.note("ran");
                r
            },
        }
    }

    #[test]
    fn registry_preserves_order_and_filters_kinds() {
        let reg = StudyRegistry::new(vec![
            stub("b", StudyKind::Report),
            stub("s", StudyKind::Standalone),
            stub("c", StudyKind::Report),
        ]);
        assert_eq!(reg.names(), vec!["b", "s", "c"]);
        let reports: Vec<&str> = reg.reports().map(|s| s.name).collect();
        assert_eq!(reports, vec!["b", "c"]);
        let ctx = StudyCtx {
            dataset: DatasetConfig::quick(),
            sampling: SamplingConfig::default(),
        };
        assert_eq!((reg.get("s").unwrap().run)(&ctx).render(), "ran\n");
        let err = reg.get("zzz").unwrap_err();
        assert!(err.contains("unknown study 'zzz'; available: b, s, c"), "{err}");
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
        let _ = StudyRegistry::new(vec![
            stub("x", StudyKind::Report),
            stub("x", StudyKind::Standalone),
        ]);
    }
}
