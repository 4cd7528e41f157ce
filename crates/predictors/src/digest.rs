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
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}
