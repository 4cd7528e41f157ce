//! The benchmark's trace set: BPTR v3 files for `641.leela_s` (branchy,
//! compute-bound) and `rdbms` (memory-bound LCF), input 0, generated once
//! into a directory keyed by `suite_digest()` and length, and validated
//! (every block checksum decoded) whenever a run reuses them.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bp_trace::{ReadTraceError, RetiredInst, TraceMeta, TraceReader};
use bp_workloads::{find_workload, suite_digest, StoreReader, TraceStore, WorkloadSpec};

/// Workload names of the trace set, in canonical order.
pub const TRACE_SET: [&str; 2] = ["641.leela_s", "rdbms"];

pub struct TraceSet {
    pub dir: PathBuf,
    pub len: usize,
    pub specs: Vec<WorkloadSpec>,
}

impl TraceSet {
    /// Locates the trace set for `len` under `state`, generating any file
    /// that is missing or fails validation. Generation is a one-time cost
    /// per checkout (like the build) and is not part of set-up time.
    pub fn ensure(state: &Path, len: usize) -> Result<TraceSet, String> {
        let dir = state
            .join("traces")
            .join(format!("{:016x}-l{len}", suite_digest()));
        let specs = TRACE_SET
            .iter()
            .map(|n| find_workload(n).ok_or_else(|| format!("workload {n} is not in the suite")))
            .collect::<Result<Vec<_>, _>>()?;
        let set = TraceSet { dir, len, specs };
        for spec in &set.specs {
            // A missing file is generated by the first stream request
            // itself, so the clock starts before it.
            let started = Instant::now();
            if set.validate_one(spec).is_err() {
                // A fresh store regenerates the trace, quarantining a
                // damaged file first, and persists it as v3.
                drop(TraceStore::with_cache_dir(&set.dir).get(spec, 0, len));
                set.validate_one(spec)?;
                eprintln!(
                    "perfbench: generated {} ({len} records) in {:.1}s",
                    spec.name,
                    started.elapsed().as_secs_f64()
                );
            }
        }
        Ok(set)
    }

    /// A disk stream over `spec`'s file from a fresh store, so nothing is
    /// served from memory.
    pub fn stream(&self, spec: &WorkloadSpec) -> Result<StoreReader, String> {
        match TraceStore::with_cache_dir(&self.dir).stream(spec, 0, self.len) {
            r @ StoreReader::Disk(_) => Ok(r),
            StoreReader::Mem(_) => Err(format!("{}: trace file missing or mislabelled", spec.name)),
        }
    }

    /// Decodes every block of every file (checksums included) and checks
    /// identity and length: the "open and validate" step of set-up.
    pub fn validate(&self) -> Result<(), String> {
        self.specs.iter().try_for_each(|s| self.validate_one(s))
    }

    fn validate_one(&self, spec: &WorkloadSpec) -> Result<(), String> {
        let mut reader = self.stream(spec)?;
        let mut n = 0usize;
        while let Some(chunk) = reader
            .next_chunk()
            .map_err(|e| format!("{}: {e}", spec.name))?
        {
            n += chunk.len();
        }
        if n == self.len {
            Ok(())
        } else {
            Err(format!(
                "{}: file holds {n} records, want {}",
                spec.name, self.len
            ))
        }
    }

    /// Records in one pass over the whole set.
    pub fn records(&self) -> u64 {
        (self.len * self.specs.len()) as u64
    }
}

/// A [`TraceReader`] adapter that times `next_chunk` (the decode layer)
/// and counts the records it hands out.
pub struct Timed<R> {
    inner: R,
    on: bool,
    spent: Duration,
    pub records: u64,
}

impl<R: TraceReader> Timed<R> {
    pub fn new(inner: R, on: bool) -> Timed<R> {
        Timed {
            inner,
            on,
            spent: Duration::ZERO,
            records: 0,
        }
    }

    pub fn secs(&self) -> f64 {
        self.spent.as_secs_f64()
    }
}

impl<R: TraceReader> TraceReader for Timed<R> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        let start = self.on.then(Instant::now);
        let chunk = self.inner.next_chunk();
        if let Some(start) = start {
            self.spent += start.elapsed();
        }
        if let Ok(Some(c)) = &chunk {
            self.records += c.len() as u64;
        }
        chunk
    }
}
