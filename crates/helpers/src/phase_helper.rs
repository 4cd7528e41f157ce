//! Phase-conditioned rare-branch helper (§V-B).
//!
//! Rare branches supply too few samples within one invocation for online
//! learning (§IV-B). This helper learns *long-term* per-branch direction
//! statistics offline — aggregated over multiple traces/invocations — and
//! conditions them on the current program phase, recognized online by
//! matching a lightweight branch-frequency sketch of the recent window
//! against stored phase centroids.

use std::collections::HashMap;

use bp_trace::Trace;

/// Hyper-parameters for the phase helper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseHelperConfig {
    /// Sketch dimensionality for phase recognition.
    pub dims: usize,
    /// Window (in conditional branches) summarized by the online sketch.
    pub window: usize,
    /// Number of phases to learn.
    pub phases: usize,
    /// Minimum per-(phase, ip) samples before the conditioned bias is
    /// trusted over the global bias.
    pub min_samples: u64,
}

impl Default for PhaseHelperConfig {
    fn default() -> Self {
        PhaseHelperConfig {
            dims: 32,
            window: 512,
            phases: 8,
            min_samples: 4,
        }
    }
}

fn sketch_bucket(ip: u64, dims: usize) -> usize {
    ((ip >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % dims
}

/// The trained phase-conditioned direction table.
#[derive(Clone, Debug)]
pub struct PhaseHelper {
    config: PhaseHelperConfig,
    /// Phase centroids over normalized IP-frequency sketches.
    centroids: Vec<Vec<f64>>,
    /// `(phase, ip) -> (taken, total)` long-term statistics.
    table: HashMap<(usize, u64), (u64, u64)>,
    /// `ip -> (taken, total)` phase-agnostic fallback.
    global: HashMap<u64, (u64, u64)>,
    // --- online state ---
    recent: std::collections::VecDeque<u64>,
    sketch: Vec<f64>,
}

impl PhaseHelper {
    /// Trains the helper offline from one or more traces (`&[Trace]` or
    /// `&[Arc<Trace>]`).
    ///
    /// # Panics
    ///
    /// Panics if `traces` contains no conditional branches or the
    /// configuration is degenerate (zero dims/window/phases).
    #[must_use]
    pub fn train<T: std::borrow::Borrow<Trace>>(traces: &[T], config: PhaseHelperConfig) -> Self {
        assert!(config.dims > 0 && config.window > 0 && config.phases > 0);
        // Build per-window sketches and branch streams.
        let mut windows: Vec<Vec<f64>> = Vec::new();
        let mut window_branches: Vec<Vec<(u64, bool)>> = Vec::new();
        for trace in traces {
            let trace = trace.borrow();
            let mut cur = vec![0.0f64; config.dims];
            let mut brs = Vec::with_capacity(config.window);
            for b in trace.conditional_branches() {
                cur[sketch_bucket(b.ip, config.dims)] += 1.0;
                brs.push((b.ip, b.taken));
                if brs.len() == config.window {
                    let total: f64 = cur.iter().sum();
                    for x in &mut cur {
                        *x /= total;
                    }
                    windows.push(std::mem::replace(&mut cur, vec![0.0f64; config.dims]));
                    window_branches.push(std::mem::take(&mut brs));
                }
            }
        }
        assert!(!windows.is_empty(), "traces contain too few branches");

        let k = config.phases.min(windows.len());
        let (labels, _) = bp_analysis::kmeans(&windows, k, 25);
        let centroids = {
            let mut sums = vec![vec![0.0f64; config.dims]; k];
            let mut counts = vec![0usize; k];
            for (w, &l) in windows.iter().zip(&labels) {
                counts[l] += 1;
                for (s, x) in sums[l].iter_mut().zip(w) {
                    *s += x;
                }
            }
            sums.into_iter()
                .zip(counts)
                .map(|(s, c)| {
                    if c == 0 {
                        s
                    } else {
                        s.into_iter().map(|x| x / c as f64).collect()
                    }
                })
                .collect::<Vec<_>>()
        };

        let mut table: HashMap<(usize, u64), (u64, u64)> = HashMap::new();
        let mut global: HashMap<u64, (u64, u64)> = HashMap::new();
        for (brs, &phase) in window_branches.iter().zip(&labels) {
            for &(ip, taken) in brs {
                let e = table.entry((phase, ip)).or_default();
                e.0 += u64::from(taken);
                e.1 += 1;
                let g = global.entry(ip).or_default();
                g.0 += u64::from(taken);
                g.1 += 1;
            }
        }
        PhaseHelper {
            recent: std::collections::VecDeque::with_capacity(config.window),
            sketch: vec![0.0f64; config.dims],
            config,
            centroids,
            table,
            global,
        }
    }

    /// Observes a retired conditional branch, updating the online sketch.
    pub fn observe(&mut self, ip: u64, _taken: bool) {
        if self.recent.len() == self.config.window {
            if let Some(old) = self.recent.pop_back() {
                self.sketch[sketch_bucket(old, self.config.dims)] -= 1.0;
            }
        }
        self.recent.push_front(ip);
        self.sketch[sketch_bucket(ip, self.config.dims)] += 1.0;
    }

    /// The phase the current window most resembles.
    #[must_use]
    pub fn current_phase(&self) -> usize {
        let total: f64 = self.sketch.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let norm: Vec<f64> = self.sketch.iter().map(|x| x / total).collect();
        self.centroids
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| dist2(&norm, a).total_cmp(&dist2(&norm, b)))
            .map_or(0, |(i, _)| i)
    }

    /// Predicts `ip` from phase-conditioned long-term statistics. Returns
    /// `None` when the branch was never seen in training.
    #[must_use]
    pub fn predict(&self, ip: u64) -> Option<bool> {
        let phase = self.current_phase();
        if let Some(&(t, n)) = self.table.get(&(phase, ip)) {
            if n >= self.config.min_samples {
                return Some(2 * t >= n);
            }
        }
        self.global.get(&ip).map(|&(t, n)| 2 * t >= n)
    }

    /// Storage estimate in bits for the deployed tables.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        // Per table entry: ~16-bit tag + two 16-bit counters.
        self.table.len() * 48 + self.global.len() * 48 + self.centroids.len() * self.config.dims * 16
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{RetiredInst, TraceMeta};

    /// Two alternating phases: phase A executes branches 0x1000.. with
    /// direction taken; phase B executes branches 0x2000.. not-taken.
    /// Crucially, IP 0x3000 appears in both phases with *opposite*
    /// directions — only phase conditioning predicts it.
    fn phased_trace(laps: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("ph", 0));
        for lap in 0..laps {
            let phase_a = lap % 2 == 0;
            for i in 0..512u64 {
                let (ip, taken) = if phase_a {
                    (0x1000 + (i % 16) * 4, true)
                } else {
                    (0x2000 + (i % 16) * 4, false)
                };
                t.push(RetiredInst::cond_branch(ip, taken, 0, None, None));
                if i % 16 == 7 {
                    t.push(RetiredInst::cond_branch(0x3000, phase_a, 0, None, None));
                }
            }
        }
        t
    }

    fn cfg() -> PhaseHelperConfig {
        PhaseHelperConfig {
            dims: 16,
            window: 64,
            phases: 2,
            min_samples: 2,
        }
    }

    #[test]
    fn learns_two_phases() {
        let t = phased_trace(8);
        let h = PhaseHelper::train(&[t], cfg());
        assert_eq!(h.centroids.len(), 2);
    }

    #[test]
    fn phase_conditioning_beats_global_bias() {
        let train = phased_trace(8);
        let mut h = PhaseHelper::train(&[train], cfg());
        // Replay a fresh trace; 0x3000's direction flips with the phase,
        // so its global bias is ~50% but phase-conditioned is exact.
        let test = phased_trace(6);
        let mut total = 0u64;
        let mut correct = 0u64;
        for b in test.conditional_branches() {
            if b.ip == 0x3000 {
                if let Some(p) = h.predict(b.ip) {
                    total += 1;
                    correct += u64::from(p == b.taken);
                }
            }
            h.observe(b.ip, b.taken);
        }
        let acc = correct as f64 / total.max(1) as f64;
        assert!(acc > 0.85, "phase-conditioned accuracy {acc}");
    }

    #[test]
    fn unseen_ip_returns_none() {
        let t = phased_trace(4);
        let h = PhaseHelper::train(&[t], cfg());
        assert_eq!(h.predict(0xFFFF_FFFF), None);
    }

    #[test]
    fn storage_is_reported() {
        let t = phased_trace(4);
        let h = PhaseHelper::train(&[t], cfg());
        assert!(h.storage_bits() > 0);
    }

    #[test]
    #[should_panic(expected = "too few branches")]
    fn empty_training_panics() {
        let t = Trace::new(TraceMeta::new("e", 0));
        let _ = PhaseHelper::train(&[t], cfg());
    }
}
