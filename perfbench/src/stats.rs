//! Small measurement helpers: percentiles, peak RSS, a seeded RNG, a
//! digest, and the layer-span accumulator the traced runs use.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile `q` (0..=1) of `values`; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed` so the same seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Self time per layer for one job, in seconds. Disabled spans run the
/// timed closure and record nothing, so untraced runs pay no clock reads.
pub struct Spans {
    on: bool,
    self_s: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            self_s: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        *self.self_s.entry(layer).or_default() += start.elapsed().as_secs_f64();
        out
    }

    /// Moves `secs` of `parent`'s time to `child`: the part of a call
    /// spent in a nested layer (decode under training, say).
    pub fn nest(&mut self, parent: &'static str, child: &'static str, secs: f64) {
        if self.on {
            *self.self_s.entry(parent).or_default() -= secs;
            *self.self_s.entry(child).or_default() += secs;
        }
    }

    pub fn get(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }

    pub fn total(&self) -> f64 {
        self.self_s.values().sum()
    }

    pub fn layers(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.self_s.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }

    #[test]
    fn nested_time_moves_between_layers() {
        let mut s = Spans::new(true);
        s.time("train", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let before = s.total();
        s.nest("train", "decode", 0.001);
        assert!((s.total() - before).abs() < 1e-12);
        assert!((s.get("decode") - 0.001).abs() < 1e-12);
    }
}
