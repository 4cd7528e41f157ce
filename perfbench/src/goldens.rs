//! Pinned outputs. `goldens.txt` holds, per trace length and trace, the
//! conditional-branch count, and for every lane in [`LANES`] at every
//! pipeline scale the cycles and mispredictions of a full scalar replay
//! (`misprediction_flags` + `simulate`). Every workload checks against
//! this one table: `replay` its TAGE-SC-L 8KB ×1 cell, `sampled` the
//! error bars against that cell, and `serve-mix` every cell of every
//! sweep body it receives.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bp_pipeline::{simulate, PipelineConfig};
use bp_predictors::{misprediction_flags, PredictorSpec};
use bp_workloads::TraceStore;

use crate::traceset::TraceSet;

/// The pinned predictors: `replay` and `sampled` run the first, and every
/// `serve-mix` sweep runs all four.
pub const LANES: [&str; 4] = ["tage-sc-l-8kb", "gshare", "bimodal", "perceptron"];

/// One pinned (trace, lane, scale) outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub cycles: u64,
    pub mispredictions: u64,
}

#[derive(Default)]
pub struct Goldens {
    /// (len, trace) → conditional branches.
    branches: BTreeMap<(usize, String), u64>,
    /// (len, trace, lane label, scale) → outcome.
    cells: BTreeMap<(usize, String, String, u32), Cell>,
}

impl Goldens {
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut g = Goldens::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| -> Result<u64, String> {
                f.get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("goldens line {}: bad field {i}: {line}", n + 1))
            };
            match (f.first().copied(), f.len()) {
                (Some("trace"), 4) => {
                    g.branches
                        .insert((num(1)? as usize, f[2].to_owned()), num(3)?);
                }
                (Some("cell"), 7) => {
                    let key = (
                        num(1)? as usize,
                        f[2].to_owned(),
                        f[3].to_owned(),
                        num(4)? as u32,
                    );
                    g.cells.insert(
                        key,
                        Cell {
                            cycles: num(5)?,
                            mispredictions: num(6)?,
                        },
                    );
                }
                _ => return Err(format!("goldens line {}: unrecognised: {line}", n + 1)),
            }
        }
        Ok(g)
    }

    pub fn branches(&self, len: usize, trace: &str) -> Option<u64> {
        self.branches.get(&(len, trace.to_owned())).copied()
    }

    pub fn cell(&self, len: usize, trace: &str, lane: &str, scale: u32) -> Option<Cell> {
        self.cells
            .get(&(len, trace.to_owned(), lane.to_owned(), scale))
            .copied()
    }

    /// Whether every cell the workloads look up at `len` is pinned.
    pub fn covers(&self, set: &TraceSet) -> bool {
        set.specs.iter().all(|s| {
            self.branches(set.len, &s.name).is_some()
                && LANES.iter().all(|lane| {
                    PipelineConfig::SCALES
                        .iter()
                        .all(|&sc| self.cell(set.len, &s.name, lane, sc).is_some())
                })
        })
    }

    /// Computes the table for `set` on the scalar reference path: one
    /// solo predictor pass per lane and one scalar `simulate` per cell.
    pub fn compute(&mut self, set: &TraceSet) -> Result<(), String> {
        let base = PipelineConfig::skylake();
        for spec in &set.specs {
            let trace = TraceStore::with_cache_dir(&set.dir).get(spec, 0, set.len);
            self.branches.insert(
                (set.len, spec.name.clone()),
                trace.conditional_branch_count() as u64,
            );
            for lane in LANES {
                let flags =
                    misprediction_flags(PredictorSpec::parse(lane)?.build().as_mut(), &trace);
                for scale in PipelineConfig::SCALES {
                    let s = simulate(&trace, &flags, &base.scaled(scale));
                    let key = (set.len, spec.name.clone(), lane.to_owned(), scale);
                    self.cells.insert(
                        key,
                        Cell {
                            cycles: s.cycles,
                            mispredictions: s.mispredictions,
                        },
                    );
                }
            }
        }
        Ok(())
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# perfbench pinned outputs (scalar full replay, Skylake baseline scaled).\n\
             # trace <len> <workload> <conditional branches>\n\
             # cell <len> <workload> <lane> <scale> <cycles> <mispredictions>\n\
             # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-goldens\n",
        );
        for ((len, t), b) in &self.branches {
            let _ = writeln!(out, "trace {len} {t} {b}");
        }
        for ((len, t, lane, scale), c) in &self.cells {
            let _ = writeln!(
                out,
                "cell {len} {t} {lane} {scale} {} {}",
                c.cycles, c.mispredictions
            );
        }
        out
    }
}
