//! Explicit fixed-width SIMD lane vectors for lockstep replay.
//!
//! [`SweepReplay`](crate::SweepReplay) steps 4, 8 or 16 independent
//! simulations, each with its own flag stream and pipeline capacity,
//! through one pass over a prepared trace. All per-lane state
//! is held in [`LaneVec`] values — thin `[C; K]` wrappers whose
//! operations are written as straight-line per-lane loops that LLVM
//! reliably auto-vectorizes (`max`/`add`/compare over 4–16 integer
//! lanes compile to packed vector instructions, with scalar fallback
//! where the target has no SIMD). There are no intrinsics here and no
//! `unsafe`: the instruction set is whatever the calling function is
//! compiled for. On x86-64 that is the baseline SSE2 target, except
//! inside the AVX2 copy of the replay loop that `SweepReplay` selects
//! at run time (see `crates/pipeline/src/sweep.rs`).
//!
//! The module is public so the replay loop's primitives can be property
//! tested against per-lane scalar loops (see
//! `crates/pipeline/tests/lane_properties.rs`): every operation here is
//! required to be *exactly* the lane-wise lift of its scalar
//! counterpart, which is what makes a 16-lane replay bit-identical to 16
//! scalar replays.
//!
//! Lane *masks* are plain `u32` bit sets (bit `k` = lane `k`), so a
//! single integer test skips the masked path when no lane is affected —
//! the common case for well-trained predictors. `K` may not exceed
//! [`MAX_LANES`].

use std::ops::Range;

/// Maximum lanes per [`LaneVec`]: masks are `u32` bit sets.
pub const MAX_LANES: usize = 32;

/// A lane timestamp word: `u64`, or `u32` when a prepare-time bound
/// proves no timestamp can overflow it (see
/// [`SweepReplay`](crate::SweepReplay)).
///
/// Only the operations the replay loop performs are abstracted; all of
/// them are exact (never wrapping) for in-bound timestamps, so the two
/// widths produce bit-identical results.
pub trait CycleWord: Copy + Default + Ord + std::fmt::Debug {
    /// The constant 1, for the loop's `+ 1` steps.
    const ONE: Self;
    /// Converts from `u64`; the caller guarantees `v` fits.
    fn narrow(v: u64) -> Self;
    /// Converts back to `u64` (always lossless).
    fn widen(self) -> u64;
    /// Exact addition (caller-guaranteed not to overflow).
    fn add(self, rhs: Self) -> Self;
    /// Saturating subtraction, mirroring the scalar loop's
    /// `saturating_sub`.
    fn sub_sat(self, rhs: Self) -> Self;
    /// Every bit set.
    const ALL_ONES: Self;
    /// Whether the top bit is set: the bit a vector blend reads.
    fn top_bit(self) -> bool;
}

macro_rules! impl_cycle_word {
    ($($ty:ty: $signed:ty),*) => {$(
        impl CycleWord for $ty {
            const ONE: Self = 1;
            const ALL_ONES: Self = <$ty>::MAX;
            #[inline(always)]
            fn top_bit(self) -> bool {
                (self as $signed) < 0
            }
            #[inline(always)]
            fn narrow(v: u64) -> Self {
                v as Self
            }
            #[inline(always)]
            fn widen(self) -> u64 {
                u64::from(self)
            }
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                self + rhs
            }
            #[inline(always)]
            fn sub_sat(self, rhs: Self) -> Self {
                self.saturating_sub(rhs)
            }
        }
    )*};
}

impl_cycle_word!(u32: i32, u64: i64);

/// `K` per-lane words stepped in lockstep.
///
/// Every method is the exact lane-wise lift of a scalar operation: lane
/// `k` of the result depends only on lane `k` of the inputs (and bit `k`
/// of a mask), never on its neighbours. `K` must be at most
/// [`MAX_LANES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct LaneVec<C, const K: usize>(pub [C; K]);

impl<C: CycleWord, const K: usize> Default for LaneVec<C, K> {
    fn default() -> Self {
        let () = Self::FITS_MASK;
        LaneVec([C::default(); K])
    }
}

#[allow(clippy::needless_range_loop)] // index k runs over parallel lane arrays
impl<C: CycleWord, const K: usize> LaneVec<C, K> {
    /// Compile-time guard: masks are `u32`, so at most [`MAX_LANES`]
    /// lanes.
    const FITS_MASK: () = assert!(K <= MAX_LANES, "LaneVec is limited to MAX_LANES lanes");

    /// Lane-wise maximum.
    #[inline(always)]
    #[must_use]
    pub fn max(self, rhs: Self) -> Self {
        let mut out = self;
        for k in 0..K {
            out.0[k] = if rhs.0[k] > out.0[k] { rhs.0[k] } else { out.0[k] };
        }
        out
    }

    /// Adds the scalar `rhs` to every lane (exact; the caller guarantees
    /// no overflow, as with [`CycleWord::add`]).
    #[inline(always)]
    #[must_use]
    pub fn add_scalar(self, rhs: C) -> Self {
        let mut out = self;
        for k in 0..K {
            out.0[k] = out.0[k].add(rhs);
        }
        out
    }

    /// Lane-wise addition (exact; the caller guarantees no overflow, as
    /// with [`CycleWord::add`]).
    #[inline(always)]
    #[must_use]
    pub fn add_lanes(self, rhs: Self) -> Self {
        let mut out = self;
        for k in 0..K {
            out.0[k] = out.0[k].add(rhs.0[k]);
        }
        out
    }

    /// Lane-wise saturating subtraction (`max(self - rhs, 0)` per lane).
    #[inline(always)]
    #[must_use]
    pub fn sub_sat(self, rhs: Self) -> Self {
        let mut out = self;
        for k in 0..K {
            out.0[k] = out.0[k].sub_sat(rhs.0[k]);
        }
        out
    }

    /// The masked saturating update: lanes whose mask bit is set take
    /// `max(self, rhs)`, all other lanes keep their value. This is the
    /// redirect-skip primitive — a mispredicting lane advances its
    /// front-end redirect base while correctly-predicting lanes are
    /// untouched.
    #[inline(always)]
    #[must_use]
    pub fn masked_max(self, mask: u32, rhs: Self) -> Self {
        let mut out = self;
        for k in 0..K {
            let take = mask & (1 << k) != 0 && rhs.0[k] > out.0[k];
            out.0[k] = if take { rhs.0[k] } else { out.0[k] };
        }
        out
    }

    /// The lanes in `lanes` take `rhs`'s values; all other lanes keep
    /// their own. With a constant range this is one register move per
    /// vector register the range covers.
    #[inline(always)]
    #[must_use]
    pub fn splice(self, lanes: Range<usize>, rhs: Self) -> Self {
        let mut out = self;
        for k in lanes {
            out.0[k] = rhs.0[k];
        }
        out
    }

    /// The lanes in `lanes` whose `sel` word has its top bit set take
    /// `rhs`, all other lanes keep their value: one vector blend per
    /// register the range covers, which reads exactly that bit. This is
    /// how one ring read serves lanes at different lags: a further lag's
    /// row is blended in under a select vector holding
    /// [`CycleWord::ALL_ONES`] in the lanes that read at that lag.
    #[inline(always)]
    #[must_use]
    pub fn blend(self, lanes: Range<usize>, sel: Self, rhs: Self) -> Self {
        let mut out = self;
        for k in lanes {
            out.0[k] = if sel.0[k].top_bit() {
                rhs.0[k]
            } else {
                out.0[k]
            };
        }
        out
    }

    /// Adds 1 to every lane where `a == b` — the lane-wise lift of
    /// `count += u64::from(a == b)`, kept in the word width so the
    /// compare result feeds the add without leaving the vector. Equality
    /// is one AVX2 instruction, where unsigned `>` takes three. The
    /// caller bounds the count below the word's range (as with
    /// [`CycleWord::add`]).
    #[inline(always)]
    pub fn count_eq(&mut self, a: Self, b: Self) {
        for k in 0..K {
            self.0[k] = self.0[k].add(C::narrow(u64::from(a.0[k] == b.0[k])));
        }
    }

    /// Widens every lane to `u64` (lossless).
    #[inline(always)]
    #[must_use]
    pub fn widen(self) -> LaneVec<u64, K> {
        let mut out = LaneVec([0u64; K]);
        for k in 0..K {
            out.0[k] = self.0[k].widen();
        }
        out
    }
}

#[allow(clippy::needless_range_loop)] // index k runs over parallel lane arrays
impl<const K: usize> LaneVec<u64, K> {
    /// Adds 1 to every lane whose mask bit is set — the lane-wise lift of
    /// `counter += u64::from(condition)`.
    #[inline(always)]
    pub fn add_mask_bits(&mut self, mask: u32) {
        for k in 0..K {
            self.0[k] += u64::from(mask & (1 << k) != 0);
        }
    }

    /// Adds `delta`'s lanes into the masked lanes only: each lane adds
    /// its delta ANDed with all-ones or zero from its mask bit, so no
    /// lane takes a branch.
    #[inline(always)]
    pub fn add_masked(&mut self, mask: u32, delta: LaneVec<u64, K>) {
        for k in 0..K {
            let keep = 0u64.wrapping_sub(u64::from((mask >> k) & 1));
            self.0[k] += delta.0[k] & keep;
        }
    }
}
