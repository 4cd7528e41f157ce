//! FNV-1a hashing of predictor state, shared by the `state_digest`
//! methods.
//!
//! The bit-identity suite (`tests/bit_identity.rs`) compares digests of
//! full internal state — every table counter, folded-history register and
//! policy counter — after replaying identical branch streams through the
//! optimized predictors and the naive references in `tests/naive/`, which
//! carry a copy of this hash. Both sides must therefore feed fields in
//! the same canonical order: bank-major table entries as
//! (ctr, tag, useful) triples, then folded histories, then scalars.

/// Incremental 64-bit FNV-1a over little-endian `u64` words.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(bp_metrics::FNV_OFFSET)
    }

    pub(crate) fn push(&mut self, v: u64) {
        self.0 = bp_metrics::fnv1a(self.0, &v.to_le_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}
