//! Predictor configuration factory and single-pass lockstep evaluation.
//!
//! The paper's studies are sweeps: the same branch stream scored under
//! many predictor configurations (six TAGE-SC-L storage points in Fig. 7,
//! seven predictor generations in the §II survey, three aging policies in
//! the ablation). [`PredictorSpec`] names each configuration as data, and
//! [`sweep_flags`] steps any set of predictors through **one** pass over
//! the trace's conditional branches instead of re-iterating (and
//! re-decoding) the trace once per configuration.
//!
//! Each predictor still observes exactly the per-branch sequence it would
//! see in a solo [`measure`](crate::measure) /
//! [`misprediction_flags`](crate::misprediction_flags) run — predictors
//! never interact — so flags, accuracies
//! ([`AccuracyStats::from_flags`](crate::AccuracyStats::from_flags)) and
//! instrumentation counters are bit-identical to the per-config passes
//! they replace.

use bp_trace::{ReadTraceError, TraceReader};

use crate::oracle::{DirectionPredictor, PerfectPredictor};
use crate::ppm::{Ppm, PpmConfig};
use crate::simple::{AlwaysTaken, Bimodal, GShare, TwoLevelLocal};
use crate::tagescl::{TageScL, TageSclConfig};
use crate::tournament::Tournament;
use crate::perceptron::Perceptron;

/// A buildable, nameable predictor configuration.
///
/// Specs are plain data: they can be parsed from CLI arguments
/// ([`PredictorSpec::parse`]), listed ([`PredictorSpec::storage_points`],
/// [`PredictorSpec::survey`]), and instantiated on demand
/// ([`PredictorSpec::build`]) into an object-safe
/// [`DirectionPredictor`] replay handle.
///
/// # Examples
///
/// ```
/// use bp_predictors::PredictorSpec;
///
/// let spec = PredictorSpec::parse("tage-sc-l-64kb").unwrap();
/// assert_eq!(spec, PredictorSpec::TageScl { storage_kb: 64 });
/// assert_eq!(spec.label(), "tage-sc-l-64kb");
/// let mut p = spec.build();
/// let _ = p.predict_and_train(0x40, true);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorSpec {
    /// Full TAGE-SC-L at a paper storage point (Fig. 7 sweep axis).
    TageScl {
        /// Storage budget in KB (8–1024 in the paper's Fig. 7).
        storage_kb: usize,
    },
    /// TAGE component only (no SC, no loop predictor) — ablation rows.
    TageOnly {
        /// Storage budget in KB.
        storage_kb: usize,
    },
    /// TAGE + loop predictor, no statistical corrector — ablation rows.
    TageL {
        /// Storage budget in KB.
        storage_kb: usize,
    },
    /// Per-IP 2-bit counters (1990s baseline).
    Bimodal {
        /// log2 of the counter-table size.
        log2_entries: u32,
    },
    /// Two-level local-history predictor.
    TwoLevelLocal {
        /// log2 of the per-IP history table size.
        hist_log2: u32,
        /// Local history bits per entry.
        local_bits: u32,
    },
    /// Global-history XOR-indexed counters.
    GShare {
        /// log2 of the counter-table size.
        log2_entries: u32,
        /// Global history bits folded into the index.
        history_bits: u32,
    },
    /// Alpha 21264-style local/global chooser.
    Tournament {
        /// log2 of the component table sizes.
        log2_entries: u32,
    },
    /// Jiménez–Lin perceptron predictor.
    Perceptron {
        /// log2 of the weight-table size.
        table_log2: u32,
        /// Global history length (weights per perceptron).
        history_len: usize,
    },
    /// PPM-like tagged geometric-history predictor (TAGE ancestor).
    Ppm,
    /// Static always-taken baseline.
    AlwaysTaken,
    /// Oracle that never mispredicts (the paper's "Perfect BP" bound).
    Perfect,
}

impl PredictorSpec {
    /// The §II survey lineup: one representative per predictor
    /// generation, in publication order, as used by the `baselines`
    /// study.
    #[must_use]
    pub fn survey() -> Vec<PredictorSpec> {
        vec![
            PredictorSpec::Bimodal { log2_entries: 12 },
            PredictorSpec::TwoLevelLocal {
                hist_log2: 11,
                local_bits: 10,
            },
            PredictorSpec::GShare {
                log2_entries: 13,
                history_bits: 16,
            },
            PredictorSpec::Tournament { log2_entries: 12 },
            PredictorSpec::Perceptron {
                table_log2: 9,
                history_len: 32,
            },
            PredictorSpec::Ppm,
            PredictorSpec::TageScl { storage_kb: 8 },
        ]
    }

    /// The Fig. 7 storage-scaling axis: full TAGE-SC-L at every paper
    /// storage point.
    #[must_use]
    pub fn storage_points() -> Vec<PredictorSpec> {
        TageSclConfig::STORAGE_POINTS_KB
            .iter()
            .map(|&kb| PredictorSpec::TageScl { storage_kb: kb })
            .collect()
    }

    /// The heterogeneous grid lineup: every distinct configuration the
    /// paper's per-workload grids draw on, trained together in one
    /// lockstep trace walk by the `grid` study.
    ///
    /// Sixteen specs — the six Fig. 7 TAGE-SC-L storage points, the
    /// 8 KB TAGE-only and TAGE-L ablation rows, the six classical §II
    /// survey generations, the always-taken floor, and the perfect
    /// ceiling — i.e. mixed TAGE sizes, SC on/off, and classical
    /// baselines in a single pass.
    #[must_use]
    pub fn hetero_grid() -> Vec<PredictorSpec> {
        let mut specs = Self::storage_points();
        specs.push(PredictorSpec::TageOnly { storage_kb: 8 });
        specs.push(PredictorSpec::TageL { storage_kb: 8 });
        specs.extend(
            Self::survey()
                .into_iter()
                .filter(|s| !matches!(s, PredictorSpec::TageScl { .. })),
        );
        specs.push(PredictorSpec::AlwaysTaken);
        specs.push(PredictorSpec::Perfect);
        specs
    }

    /// Parses a comma-separated list of canonical labels (the CLI's
    /// `--predictors` syntax). Whitespace around items is ignored; empty
    /// items are rejected.
    ///
    /// # Errors
    ///
    /// Returns the first per-label [`PredictorSpec::parse`] error.
    pub fn parse_list(s: &str) -> Result<Vec<PredictorSpec>, String> {
        s.split(',')
            .map(|item| PredictorSpec::parse(item.trim()))
            .collect()
    }

    /// Builds every spec in `specs`, in order — the lane lineup fed to
    /// [`sweep_flags`].
    #[must_use]
    pub fn build_all(specs: &[PredictorSpec]) -> Vec<Box<dyn DirectionPredictor>> {
        specs.iter().map(PredictorSpec::build).collect()
    }

    /// Instantiates the configured predictor behind an object-safe
    /// replay handle.
    #[must_use]
    pub fn build(&self) -> Box<dyn DirectionPredictor> {
        match *self {
            PredictorSpec::TageScl { storage_kb } => {
                Box::new(TageScL::new(TageSclConfig::storage_kb(storage_kb)))
            }
            PredictorSpec::TageOnly { storage_kb } => {
                Box::new(TageScL::new(TageSclConfig::tage_only(storage_kb)))
            }
            PredictorSpec::TageL { storage_kb } => {
                Box::new(TageScL::new(TageSclConfig::tage_l(storage_kb)))
            }
            PredictorSpec::Bimodal { log2_entries } => Box::new(Bimodal::new(log2_entries)),
            PredictorSpec::TwoLevelLocal {
                hist_log2,
                local_bits,
            } => Box::new(TwoLevelLocal::new(hist_log2, local_bits)),
            PredictorSpec::GShare {
                log2_entries,
                history_bits,
            } => Box::new(GShare::new(log2_entries, history_bits)),
            PredictorSpec::Tournament { log2_entries } => Box::new(Tournament::new(log2_entries)),
            PredictorSpec::Perceptron {
                table_log2,
                history_len,
            } => Box::new(Perceptron::new(table_log2, history_len)),
            PredictorSpec::Ppm => Box::new(Ppm::new(PpmConfig::default())),
            PredictorSpec::AlwaysTaken => Box::new(AlwaysTaken),
            PredictorSpec::Perfect => Box::new(PerfectPredictor),
        }
    }

    /// Canonical CLI/report label; [`PredictorSpec::parse`] is its
    /// inverse.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            PredictorSpec::TageScl { storage_kb } => format!("tage-sc-l-{storage_kb}kb"),
            PredictorSpec::TageOnly { storage_kb } => format!("tage-{storage_kb}kb"),
            PredictorSpec::TageL { storage_kb } => format!("tage-l-{storage_kb}kb"),
            PredictorSpec::Bimodal { .. } => "bimodal".to_string(),
            PredictorSpec::TwoLevelLocal { .. } => "two-level-local".to_string(),
            PredictorSpec::GShare { .. } => "gshare".to_string(),
            PredictorSpec::Tournament { .. } => "tournament".to_string(),
            PredictorSpec::Perceptron { .. } => "perceptron".to_string(),
            PredictorSpec::Ppm => "ppm".to_string(),
            PredictorSpec::AlwaysTaken => "always-taken".to_string(),
            PredictorSpec::Perfect => "perfect".to_string(),
        }
    }

    /// Parses a canonical label (as printed by `branch-lab list` and
    /// accepted by the CLI's sweep options) back into a spec.
    ///
    /// Sized families accept a `-<N>kb` suffix with `N` one of
    /// [`TageSclConfig::STORAGE_POINTS_KB`]: `tage-sc-l-64kb`, `tage-8kb`
    /// (TAGE only), `tage-l-8kb`. Fixed-configuration baselines are bare
    /// names: `bimodal`, `two-level-local`, `gshare`, `tournament`,
    /// `perceptron`, `ppm`, `always-taken`, `perfect`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown label and listing the
    /// accepted forms and storage points.
    pub fn parse(s: &str) -> Result<PredictorSpec, String> {
        fn kb_suffix(s: &str, prefix: &str) -> Option<usize> {
            s.strip_prefix(prefix)?
                .strip_suffix("kb")?
                .parse::<usize>()
                .ok()
                .filter(|kb| TageSclConfig::STORAGE_POINTS_KB.contains(kb))
        }
        if let Some(kb) = kb_suffix(s, "tage-sc-l-") {
            return Ok(PredictorSpec::TageScl { storage_kb: kb });
        }
        if let Some(kb) = kb_suffix(s, "tage-l-") {
            return Ok(PredictorSpec::TageL { storage_kb: kb });
        }
        if let Some(kb) = kb_suffix(s, "tage-") {
            return Ok(PredictorSpec::TageOnly { storage_kb: kb });
        }
        match s {
            "bimodal" => Ok(PredictorSpec::Bimodal { log2_entries: 12 }),
            "two-level-local" => Ok(PredictorSpec::TwoLevelLocal {
                hist_log2: 11,
                local_bits: 10,
            }),
            "gshare" => Ok(PredictorSpec::GShare {
                log2_entries: 13,
                history_bits: 16,
            }),
            "tournament" => Ok(PredictorSpec::Tournament { log2_entries: 12 }),
            "perceptron" => Ok(PredictorSpec::Perceptron {
                table_log2: 9,
                history_len: 32,
            }),
            "ppm" => Ok(PredictorSpec::Ppm),
            "always-taken" => Ok(PredictorSpec::AlwaysTaken),
            "perfect" => Ok(PredictorSpec::Perfect),
            other => Err(format!(
                "unknown predictor '{other}'; expected one of bimodal, \
                 two-level-local, gshare, tournament, perceptron, ppm, \
                 always-taken, perfect, tage-sc-l-<N>kb, tage-<N>kb, \
                 tage-l-<N>kb with N one of {:?}",
                TageSclConfig::STORAGE_POINTS_KB
            )),
        }
    }
}

/// Branches buffered per block in the lockstep sweep.
///
/// Predictors process the stream block-by-block rather than interleaving
/// per branch: within a block each predictor's tables stay cache-resident
/// instead of evicting the other configurations' tables on every branch
/// (six TAGE-SC-L points together are megabytes of state). The trace is
/// still scanned exactly once, and each predictor still consumes the
/// identical branch sequence in order.
const SWEEP_BLOCK: usize = 16384;

/// The observer [`sweep_flags`] calls after each block: the cumulative
/// branch count, then the predictors.
type Observer<'a> = dyn FnMut(usize, &[Box<dyn DirectionPredictor>]) + 'a;

/// Steps every predictor through one pass over the conditional branches
/// `reader` streams, returning one misprediction-flag stream per
/// predictor (same order).
///
/// Equivalent to one [`misprediction_flags`](crate::misprediction_flags)
/// call per predictor — each sees the identical (ip, taken) sequence —
/// but the trace is decoded and iterated once. In-memory traces pass
/// [`Trace::reader`](bp_trace::Trace::reader); a block-wise file reader
/// never materializes the trace.
///
/// Training runs in 16,384-branch blocks re-cut from the stream, so
/// results, cancellation and observation do not depend on how the reader
/// chunks it. Before each block the sweep polls the cancellation
/// scope (`sweep.train`). After each block `observe`, when given,
/// receives the cumulative branch count `n` and the predictors, each of
/// which has then consumed exactly the first `n` branches: the state a
/// solo run reaches, so [`DirectionPredictor::state_digest`] checkpoints
/// compare.
///
/// # Errors
///
/// Propagates any [`ReadTraceError`] from the underlying stream.
pub fn sweep_flags<R: TraceReader>(
    predictors: &mut [Box<dyn DirectionPredictor>],
    mut reader: R,
    mut observe: Option<&mut Observer<'_>>,
) -> Result<Vec<Vec<bool>>, ReadTraceError> {
    let mut flags: Vec<Vec<bool>> = predictors.iter().map(|_| Vec::new()).collect();
    let mut seen = 0usize;
    let mut train = |block: &[(u64, bool)]| {
        // Cooperative cancellation (a no-op without an installed scope).
        bp_metrics::cancel::checkpoint("sweep.train");
        for (p, f) in predictors.iter_mut().zip(flags.iter_mut()) {
            for &(ip, taken) in block {
                f.push(p.predict_and_train(ip, taken) != taken);
            }
        }
        seen += block.len();
        if let Some(observe) = observe.as_mut() {
            observe(seen, predictors);
        }
    };
    let mut block: Vec<(u64, bool)> = Vec::with_capacity(SWEEP_BLOCK);
    while let Some(chunk) = reader.next_chunk()? {
        for inst in chunk {
            if let Some(taken) = inst.taken() {
                block.push((inst.ip, taken));
                if block.len() == SWEEP_BLOCK {
                    train(&block);
                    block.clear();
                }
            }
        }
    }
    if !block.is_empty() {
        train(&block);
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{measure, misprediction_flags, AccuracyStats};
    use bp_trace::{RetiredInst, Trace, TraceMeta};

    fn noisy_trace(n: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("spec-test", 0));
        let mut state = 41u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ip = 0x40 + (state % 13) * 4;
            let taken = (state >> 17) % 5 < 3 || i % 7 == 0;
            t.push(RetiredInst::cond_branch(ip, taken, ip + 64, None, None));
        }
        t
    }

    /// Yields a trace's records `n` at a time, so sweep blocks straddle
    /// chunk boundaries at odd offsets.
    struct ChunkedReader<'a> {
        trace: &'a Trace,
        at: usize,
        n: usize,
    }

    impl TraceReader for ChunkedReader<'_> {
        fn meta(&self) -> &TraceMeta {
            self.trace.meta()
        }

        fn len_hint(&self) -> Option<u64> {
            Some(self.trace.len() as u64)
        }

        fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
            let insts = self.trace.insts();
            if self.at == insts.len() {
                return Ok(None);
            }
            let end = (self.at + self.n).min(insts.len());
            let chunk = &insts[self.at..end];
            self.at = end;
            Ok(Some(chunk))
        }
    }

    #[test]
    fn labels_round_trip_through_parse() {
        let mut specs = PredictorSpec::survey();
        specs.extend(PredictorSpec::storage_points());
        specs.push(PredictorSpec::TageL { storage_kb: 8 });
        specs.push(PredictorSpec::TageOnly { storage_kb: 64 });
        specs.push(PredictorSpec::AlwaysTaken);
        specs.push(PredictorSpec::Perfect);
        for spec in specs {
            assert_eq!(PredictorSpec::parse(&spec.label()), Ok(spec));
        }
        assert!(PredictorSpec::parse("tage-sc-l-0kb").is_err());
        assert!(PredictorSpec::parse("neural-net").is_err());
        // Sizes off the storage points would panic in `build`.
        for label in ["tage-sc-l-3kb", "tage-96kb", "tage-l-2048kb"] {
            let err = PredictorSpec::parse(label).expect_err(label);
            assert!(err.contains("[8, 64, 128, 256, 512, 1024]"), "{err}");
        }
    }

    #[test]
    fn sweep_flags_matches_per_predictor_passes() {
        let t = noisy_trace(4_000);
        let specs = PredictorSpec::survey();
        let mut lockstep = PredictorSpec::build_all(&specs);
        let swept = sweep_flags(&mut lockstep, t.reader(), None).unwrap();
        for (spec, flags) in specs.iter().zip(&swept) {
            let solo = misprediction_flags(spec.build().as_mut(), &t);
            assert_eq!(*flags, solo, "{}", spec.label());
        }
    }

    #[test]
    fn swept_flag_accuracy_matches_measure() {
        let t = noisy_trace(4_000);
        let specs = PredictorSpec::survey();
        let mut lockstep = PredictorSpec::build_all(&specs);
        let swept = sweep_flags(&mut lockstep, t.reader(), None).unwrap();
        for (spec, flags) in specs.iter().zip(&swept) {
            let solo = measure(spec.build().as_mut(), &t);
            assert_eq!(AccuracyStats::from_flags(flags), solo, "{}", spec.label());
        }
    }

    #[test]
    fn hetero_grid_is_sixteen_distinct_buildable_specs() {
        let grid = PredictorSpec::hetero_grid();
        assert_eq!(grid.len(), 16);
        for (i, a) in grid.iter().enumerate() {
            assert!(grid[i + 1..].iter().all(|b| a != b), "duplicate {a:?}");
            // Every grid spec round-trips through its label and builds.
            assert_eq!(PredictorSpec::parse(&a.label()), Ok(*a));
            let _ = a.build();
        }
    }

    #[test]
    fn parse_list_accepts_spaced_labels_and_rejects_unknowns() {
        let specs = PredictorSpec::parse_list("gshare, tage-sc-l-64kb ,perfect").unwrap();
        assert_eq!(
            specs,
            vec![
                PredictorSpec::GShare {
                    log2_entries: 13,
                    history_bits: 16
                },
                PredictorSpec::TageScl { storage_kb: 64 },
                PredictorSpec::Perfect,
            ]
        );
        assert!(PredictorSpec::parse_list("gshare,,perfect").is_err());
        assert!(PredictorSpec::parse_list("gshare,warp-drive").is_err());
    }

    #[test]
    fn observed_sweep_checkpoints_match_solo_replay() {
        // Whatever the reader's chunking — one in-memory chunk, v3 codec
        // blocks, or 7 records at a time — the sweep must produce the
        // same flags and checkpoint at the same branch counts, and after
        // the observer reports n branches consumed each lockstep
        // predictor's digest must equal a solo predictor fed exactly the
        // first n branches: blocking must not be observable.
        let t = noisy_trace(70_000);
        let branches: Vec<(u64, bool)> =
            t.conditional_branches().map(|b| (b.ip, b.taken)).collect();
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let specs = [
            PredictorSpec::GShare {
                log2_entries: 10,
                history_bits: 12,
            },
            PredictorSpec::TageScl { storage_kb: 8 },
        ];
        let sweep = |reader: &mut dyn TraceReader| {
            let mut lockstep = PredictorSpec::build_all(&specs);
            let mut checkpoints: Vec<(usize, Vec<u64>)> = Vec::new();
            let flags = sweep_flags(
                &mut lockstep,
                reader,
                Some(&mut |n, ps| {
                    checkpoints.push((n, ps.iter().map(|p| p.state_digest()).collect()));
                }),
            )
            .unwrap();
            (flags, checkpoints)
        };
        let expected = sweep(&mut t.reader());
        let at: Vec<usize> = expected.1.iter().map(|(n, _)| *n).collect();
        assert_eq!(at, [16_384, 32_768, 49_152, 65_536, 70_000]);
        let v3 = sweep(&mut bp_trace::BptrReader::new(bytes.as_slice()).unwrap());
        assert!(v3 == expected, "v3 reader diverged");
        let mut seven = ChunkedReader {
            trace: &t,
            at: 0,
            n: 7,
        };
        assert!(sweep(&mut seven) == expected, "7-record reader diverged");

        let mut solo = PredictorSpec::build_all(&specs);
        let mut fed = 0usize;
        for (n, digests) in &expected.1 {
            for &(ip, taken) in &branches[fed..*n] {
                for p in &mut solo {
                    let _ = p.predict_and_train(ip, taken);
                }
            }
            fed = *n;
            let solo_digests: Vec<u64> = solo.iter().map(|p| p.state_digest()).collect();
            assert_eq!(digests, &solo_digests, "checkpoint at {n}");
        }
    }

    #[test]
    fn perfect_spec_never_mispredicts() {
        let t = noisy_trace(500);
        let mut ps = vec![PredictorSpec::Perfect.build()];
        let flags = sweep_flags(&mut ps, t.reader(), None).unwrap();
        assert!(flags[0].iter().all(|&f| !f));
    }
}
