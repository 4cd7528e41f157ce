//! Saturating counters — the basic hysteresis element of every BPU.

/// An unsigned saturating up/down counter of configurable width.
///
/// The canonical 2-bit counter predicts taken when in the upper half of its
/// range. Widths up to 8 bits are supported.
///
/// # Examples
///
/// ```
/// use bp_predictors::SatCounter;
///
/// let mut c = SatCounter::weakly_not_taken(2);
/// assert!(!c.taken());
/// c.update(true);
/// assert!(c.taken());
/// c.update(true);
/// c.update(true); // saturates
/// assert_eq!(c.value(), 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u8,
    max: u8,
}

impl SatCounter {
    /// Creates a counter of `bits` width initialized to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8, or `value` exceeds the
    /// maximum for the width.
    #[must_use]
    pub fn new(bits: u32, value: u8) -> Self {
        assert!((1..=8).contains(&bits), "counter width must be 1..=8 bits");
        let max = if bits == 8 { u8::MAX } else { (1u8 << bits) - 1 };
        assert!(value <= max, "initial value exceeds counter range");
        SatCounter { value, max }
    }

    /// A counter at the weakly-taken threshold (e.g. 2 for a 2-bit counter).
    #[must_use]
    pub fn weakly_taken(bits: u32) -> Self {
        let mut c = Self::new(bits, 0);
        c.value = c.max / 2 + 1;
        c
    }

    /// A counter just below the taken threshold.
    #[must_use]
    pub fn weakly_not_taken(bits: u32) -> Self {
        let mut c = Self::new(bits, 0);
        c.value = c.max / 2;
        c
    }

    /// Current raw value.
    #[must_use]
    pub fn value(self) -> u8 {
        self.value
    }

    /// Maximum representable value.
    #[must_use]
    pub fn max(self) -> u8 {
        self.max
    }

    /// Predicted direction: taken when in the upper half of the range.
    #[must_use]
    pub fn taken(self) -> bool {
        self.value > self.max / 2
    }

    /// True when at either saturation point (confident).
    #[must_use]
    pub fn is_strong(self) -> bool {
        self.value == 0 || self.value == self.max
    }

    /// True at the two central (low-confidence) values.
    #[must_use]
    pub fn is_weak(self) -> bool {
        let mid = self.max / 2;
        self.value == mid || self.value == mid + 1
    }

    /// Moves the counter toward `taken`.
    pub fn update(&mut self, taken: bool) {
        if taken {
            if self.value < self.max {
                self.value += 1;
            }
        } else if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Resets to a specific value (used by allocation).
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the counter range.
    pub fn set(&mut self, value: u8) {
        assert!(value <= self.max, "value exceeds counter range");
        self.value = value;
    }
}

/// Branchless saturating-counter step over a raw counter lane.
///
/// The flattened TAGE tables (see [`crate::Tage`]) store counters as bare
/// `u8` lanes of a structure-of-arrays table rather than as
/// [`SatCounter`] values, so the hot path updates them with this free
/// function: it computes exactly `SatCounter::update` (guaranteed by the
/// `sat_helpers_match_sat_counter` exhaustive test) but compiles to two
/// compare/mask steps with no data-dependent branch, which matters when
/// the branch predictor being *simulated* makes the update direction
/// unpredictable.
#[inline]
#[must_use]
pub fn sat_update(value: u8, max: u8, taken: bool) -> u8 {
    let up = u8::from(taken) & u8::from(value < max);
    let down = u8::from(!taken) & u8::from(value > 0);
    value + up - down
}

/// Branchless form of [`SatCounter::taken`] over a raw counter lane:
/// taken when in the upper half of the `0..=max` range.
#[inline]
#[must_use]
pub fn sat_taken(value: u8, max: u8) -> bool {
    value > max / 2
}

/// Branchless form of [`SatCounter::is_weak`] over a raw counter lane:
/// true at the two central (low-confidence) values.
#[inline]
#[must_use]
pub fn sat_is_weak(value: u8, max: u8) -> bool {
    let mid = max / 2;
    value == mid || value == mid + 1
}

/// Branchless form of [`SatCounter::is_strong`] over a raw counter lane:
/// true at either saturation point.
#[inline]
#[must_use]
pub fn sat_is_strong(value: u8, max: u8) -> bool {
    value == 0 || value == max
}

/// A signed saturating counter, used by perceptron weights and the
/// statistical corrector.
///
/// # Examples
///
/// ```
/// use bp_predictors::SignedCounter;
///
/// let mut w = SignedCounter::new(6);
/// w.update(true);
/// w.update(true);
/// assert_eq!(w.value(), 2);
/// for _ in 0..100 { w.update(false); }
/// assert_eq!(w.value(), -32); // saturates at -(2^(bits-1))
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SignedCounter {
    value: i16,
    limit: i16,
}

impl SignedCounter {
    /// Creates a zero-initialized signed counter of `bits` total width
    /// (range `-(2^(bits-1)) ..= 2^(bits-1) - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 15.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=15).contains(&bits), "width must be 1..=15 bits");
        SignedCounter {
            value: 0,
            limit: 1 << (bits - 1),
        }
    }

    /// Current value.
    #[must_use]
    pub fn value(self) -> i16 {
        self.value
    }

    /// Moves the counter toward positive for `taken`, negative otherwise,
    /// saturating at either end. Branchless, like [`sat_update`]: the
    /// statistical corrector steps several of these per branch in
    /// directions the host cannot predict.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        let up = i16::from(taken) & i16::from(self.value < self.limit - 1);
        let down = i16::from(!taken) & i16::from(self.value > -self.limit);
        self.value += up - down;
    }

    /// Centered magnitude `2*v + 1`, the GEHL summation term: never zero,
    /// so every counter always votes a direction.
    #[must_use]
    pub fn centered(self) -> i32 {
        2 * i32::from(self.value) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_state_machine() {
        let mut c = SatCounter::new(2, 0);
        assert!(!c.taken());
        assert!(c.is_strong());
        c.update(true); // 1
        assert!(!c.taken());
        assert!(c.is_weak());
        c.update(true); // 2
        assert!(c.taken());
        assert!(c.is_weak());
        c.update(true); // 3
        assert!(c.taken());
        assert!(c.is_strong());
        c.update(false); // 2
        assert!(c.taken());
    }

    #[test]
    fn saturation_bounds() {
        let mut c = SatCounter::new(3, 7);
        c.update(true);
        assert_eq!(c.value(), 7);
        for _ in 0..20 {
            c.update(false);
        }
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn weakly_constructors() {
        assert!(SatCounter::weakly_taken(2).taken());
        assert!(!SatCounter::weakly_not_taken(2).taken());
        assert!(SatCounter::weakly_taken(3).is_weak());
    }

    #[test]
    fn signed_counter_saturates_both_ways() {
        let mut s = SignedCounter::new(4);
        for _ in 0..100 {
            s.update(true);
        }
        assert_eq!(s.value(), 7);
        for _ in 0..100 {
            s.update(false);
        }
        assert_eq!(s.value(), -8);
    }

    /// `update` against an explicit saturating reference at every width,
    /// value and direction. The naive reference predictors in
    /// `tests/naive/` share this type, so the bit-identity suite cannot
    /// catch a change to it.
    #[test]
    fn signed_update_matches_reference_exhaustively() {
        for bits in 1..=15u32 {
            let limit = SignedCounter::new(bits).limit;
            assert_eq!(i32::from(limit), 1 << (bits - 1), "limit {bits}");
            for value in -limit..limit {
                for taken in [false, true] {
                    let mut c = SignedCounter { value, limit };
                    c.update(taken);
                    let want = if taken {
                        (value + 1).min(limit - 1)
                    } else {
                        (value - 1).max(-limit)
                    };
                    assert_eq!(c.value(), want, "update {bits}/{value}/{taken}");
                }
            }
        }
    }

    #[test]
    fn centered_is_never_zero() {
        let mut s = SignedCounter::new(6);
        assert_eq!(s.centered(), 1);
        s.update(false);
        assert_eq!(s.centered(), -1);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = SatCounter::new(0, 0);
    }

    /// The branchless lane helpers must agree with the `SatCounter` state
    /// machine at every (width, value, direction) — they are the hot-path
    /// form of the same hardware element.
    #[test]
    fn sat_helpers_match_sat_counter() {
        for bits in 1..=8u32 {
            let max = SatCounter::new(bits, 0).max();
            for value in 0..=max {
                let c = SatCounter::new(bits, value);
                assert_eq!(sat_taken(value, max), c.taken(), "taken {bits}/{value}");
                assert_eq!(sat_is_weak(value, max), c.is_weak(), "weak {bits}/{value}");
                assert_eq!(sat_is_strong(value, max), c.is_strong(), "strong {bits}/{value}");
                for taken in [false, true] {
                    let mut stepped = c;
                    stepped.update(taken);
                    assert_eq!(
                        sat_update(value, max, taken),
                        stepped.value(),
                        "update {bits}/{value}/{taken}"
                    );
                }
            }
        }
    }
}
