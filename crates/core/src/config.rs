//! Experiment-wide configuration.

use bp_trace::SliceConfig;

/// How much of each workload to trace and how to slice it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetConfig {
    /// Instructions per workload trace.
    pub trace_len: usize,
    /// Slice configuration for per-slice statistics.
    pub slice: SliceConfig,
    /// Cap on application inputs per workload (`None` = use the spec's
    /// declared input count).
    pub max_inputs: Option<u32>,
}

impl DatasetConfig {
    /// The default experiment scale: 1M-instruction traces in
    /// 100K-instruction slices (paper: 10B traces in 30M slices — all
    /// count thresholds scale automatically; see `bp-analysis`).
    #[must_use]
    pub fn standard() -> Self {
        DatasetConfig {
            trace_len: 1_000_000,
            slice: SliceConfig::new(100_000),
            max_inputs: None,
        }
    }

    /// A reduced scale for tests and quick runs.
    #[must_use]
    pub fn quick() -> Self {
        DatasetConfig {
            trace_len: 120_000,
            slice: SliceConfig::new(30_000),
            max_inputs: Some(2),
        }
    }

    /// Overrides the trace length, keeping ten slices per trace.
    ///
    /// # Panics
    ///
    /// Panics if `len < 10`.
    #[must_use]
    pub fn with_trace_len(self, len: usize) -> Self {
        assert!(len >= 10, "trace length too small");
        DatasetConfig {
            trace_len: len,
            slice: SliceConfig::new(len / 10),
            ..self
        }
    }

    /// Number of inputs to actually trace for a workload declaring
    /// `declared` inputs.
    #[must_use]
    pub fn inputs_for(&self, declared: u32) -> u32 {
        match self.max_inputs {
            Some(cap) => declared.min(cap),
            None => declared,
        }
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// SimPoint-style sampled-replay configuration.
///
/// The `sampled` study clusters fixed-length intervals by BBV, simulates
/// one medoid representative per phase (preceded by an architectural
/// warm-up prefix whose contribution is discarded), and reconstructs
/// whole-trace MPKI/IPC as cluster-weighted estimates with confidence
/// intervals. `None` fields resolve against the dataset via
/// [`SamplingConfig::resolve`], so the same config adapts to `--quick`
/// and `--len` scales.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Clustering interval length in instructions (`None` = 1/20 of the
    /// trace length, giving 20 intervals per trace).
    pub interval_len: Option<usize>,
    /// Architectural warm-up prefix per representative, in instructions,
    /// discarded from the statistics (`None` = 1/5 of the interval).
    pub warmup: Option<usize>,
    /// Cap on phases (= representatives). The default of 4 keeps worst-case
    /// coverage at `4 × 1.2 × interval / trace = 24%` of the records.
    pub max_phases: usize,
}

impl SamplingConfig {
    /// Every knob at its dataset-relative default; the same as
    /// [`SamplingConfig::default`].
    #[must_use]
    pub fn enabled() -> Self {
        Self::default()
    }

    /// Concrete interval geometry for a dataset: every `None` is replaced
    /// by its dataset-relative default. Execution and cache-key
    /// canonicalization both go through this, so an explicit knob equal to
    /// its default is indistinguishable from leaving it unset.
    #[must_use]
    pub fn resolve(&self, dataset: &DatasetConfig) -> ResolvedSampling {
        let interval_len = self
            .interval_len
            .unwrap_or_else(|| (dataset.trace_len / 20).max(1))
            .max(1);
        ResolvedSampling {
            interval_len,
            warmup: self.warmup.unwrap_or(interval_len / 5),
            max_phases: self.max_phases.max(1),
        }
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            interval_len: None,
            warmup: None,
            max_phases: 4,
        }
    }
}

/// [`SamplingConfig`] with every knob resolved to a concrete number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedSampling {
    /// Clustering interval length in instructions.
    pub interval_len: usize,
    /// Warm-up prefix per representative, in instructions.
    pub warmup: usize,
    /// Cap on phases (= representatives).
    pub max_phases: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_has_ten_slices() {
        let c = DatasetConfig::standard();
        assert_eq!(c.trace_len / c.slice.len(), 10);
    }

    #[test]
    fn with_trace_len_rescales_slices() {
        let c = DatasetConfig::standard().with_trace_len(500_000);
        assert_eq!(c.slice.len(), 50_000);
    }

    #[test]
    fn sampling_resolves_dataset_relative_defaults() {
        let standard = DatasetConfig::standard();
        let r = SamplingConfig::default().resolve(&standard);
        assert_eq!(r.interval_len, 50_000);
        assert_eq!(r.warmup, 10_000);
        assert_eq!(r.max_phases, 4);
        // Explicit values pass through; explicit-equal-to-default
        // canonicalizes to the same resolved shape.
        let explicit = SamplingConfig {
            interval_len: Some(50_000),
            warmup: Some(10_000),
            ..SamplingConfig::default()
        };
        assert_eq!(explicit.resolve(&standard), r);
        let custom = SamplingConfig {
            interval_len: Some(10_000),
            warmup: None,
            ..SamplingConfig::default()
        };
        assert_eq!(custom.resolve(&standard).warmup, 2_000);
    }

    #[test]
    fn inputs_cap() {
        let c = DatasetConfig {
            max_inputs: Some(3),
            ..DatasetConfig::standard()
        };
        assert_eq!(c.inputs_for(10), 3);
        assert_eq!(c.inputs_for(2), 2);
        assert_eq!(DatasetConfig::standard().inputs_for(10), 10);
    }
}
