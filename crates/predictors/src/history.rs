//! Branch history registers: long global histories with O(1) folded hashes,
//! and path history.

/// A long global direction history with random access to recent bits.
///
/// TAGE-class predictors need histories of thousands of bits (the paper:
/// 1,000 at 8KB, 3,000 at 64KB). Bits are stored in a circular buffer;
/// `bit(0)` is the most recent outcome.
///
/// # Examples
///
/// ```
/// use bp_predictors::BitHistory;
///
/// let mut h = BitHistory::new(16);
/// h.push(true);
/// h.push(false);
/// assert!(!h.bit(0)); // most recent
/// assert!(h.bit(1));
/// ```
#[derive(Clone, Debug)]
pub struct BitHistory {
    bits: Vec<u64>,
    head: usize,
    /// Requested (logical) capacity: the age range `bit` accepts.
    capacity: usize,
    /// Ring-position mask. The ring is sized to the next power of two of
    /// `capacity` so the per-push / per-read position arithmetic is a
    /// mask instead of an integer division — `push` and `bit` sit inside
    /// TAGE's per-branch folded-history update, a few calls per bank per
    /// branch. Holding more than `capacity` bits never changes an answer:
    /// `bit(age)` is only defined for `age < capacity`, and those
    /// positions hold identical outcomes in either ring size.
    mask: usize,
}

impl BitHistory {
    /// Creates a zero-filled history of `capacity` bits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        let ring = capacity.next_power_of_two();
        BitHistory {
            bits: vec![0; ring.div_ceil(64)],
            head: 0,
            capacity,
            mask: ring - 1,
        }
    }

    /// Number of bits retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes the newest outcome, discarding the oldest.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        self.head = (self.head + 1) & self.mask;
        let w = self.head / 64;
        let b = self.head % 64;
        self.bits[w] = (self.bits[w] & !(1 << b)) | (u64::from(taken) << b);
    }

    /// Returns the outcome `age` branches ago (0 = most recent).
    ///
    /// # Panics
    ///
    /// Panics if `age >= capacity`.
    #[inline]
    #[must_use]
    pub fn bit(&self, age: usize) -> bool {
        assert!(age < self.capacity, "age {age} out of range");
        let pos = (self.head.wrapping_sub(age)) & self.mask;
        (self.bits[pos / 64] >> (pos % 64)) & 1 == 1
    }
}

/// A folded-history register: maintains `hash = history[0..olen]` folded
/// into `clen` bits, updated in O(1) per branch (the standard
/// cyclic-shift-register construction from CBP predictors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldedHistory {
    comp: u64,
    clen: u32,
    olen: usize,
    outpoint: u32,
}

impl FoldedHistory {
    /// Folds an original history of `olen` bits into `clen` bits.
    ///
    /// # Panics
    ///
    /// Panics if `clen` is 0 or greater than 32, or `olen` is zero.
    #[must_use]
    pub fn new(olen: usize, clen: u32) -> Self {
        assert!((1..=32).contains(&clen), "compressed length must be 1..=32");
        assert!(olen > 0, "original length must be positive");
        FoldedHistory {
            comp: 0,
            clen,
            olen,
            outpoint: (olen % clen as usize) as u32,
        }
    }

    /// Current folded value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.comp
    }

    /// Shifts in the newest bit and shifts out the bit that just aged past
    /// `olen`. `outgoing` must be `history.bit(olen - 1)` *before* the new
    /// bit was pushed.
    pub fn update(&mut self, incoming: bool, outgoing: bool) {
        self.comp = (self.comp << 1) | u64::from(incoming);
        self.comp ^= u64::from(outgoing) << self.outpoint;
        self.comp ^= self.comp >> self.clen;
        self.comp &= (1u64 << self.clen) - 1;
    }
}

/// Path history: low-order bits of recent branch IPs, used to decorrelate
/// table indices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathHistory {
    value: u64,
}

impl PathHistory {
    /// Creates an empty path history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current packed path value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Pushes one bit of a branch IP.
    pub fn push(&mut self, ip: u64) {
        self.value = (self.value << 1) | ((ip >> 2) & 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_roundtrip() {
        let mut h = BitHistory::new(100);
        let pattern: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            h.push(b);
        }
        for (age, &b) in pattern.iter().rev().enumerate() {
            assert_eq!(h.bit(age), b, "age {age}");
        }
    }

    #[test]
    fn history_wraps() {
        let mut h = BitHistory::new(8);
        for i in 0..100 {
            h.push(i % 2 == 0);
        }
        // Last pushed was i=99 (odd -> false).
        assert!(!h.bit(0));
        assert!(h.bit(1));
    }

    /// The folded register must equal a brute-force XOR fold of the true
    /// history at all times: a bit of age `a` (0 = newest) occupies
    /// position `a` of the conceptual shift register and therefore
    /// contributes at folded position `a mod clen`.
    #[test]
    fn folded_matches_brute_force() {
        for (olen, clen) in [(37usize, 11u32), (130, 12), (8, 8), (1000, 13)] {
            let mut f = FoldedHistory::new(olen, clen);
            let mut bits: Vec<bool> = Vec::new();
            let mut state = 0x1234_5678_u64;
            for _ in 0..400 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let newbit = (state >> 40) & 1 == 1;
                let outgoing = if bits.len() >= olen {
                    bits[bits.len() - olen]
                } else {
                    false
                };
                f.update(newbit, outgoing);
                bits.push(newbit);

                let mut expect = 0u64;
                for (age, &b) in bits.iter().rev().take(olen).enumerate() {
                    if b {
                        expect ^= 1 << (age as u32 % clen);
                    }
                }
                assert_eq!(f.value(), expect, "olen={olen} clen={clen}");
            }
        }
    }

    #[test]
    fn folded_stays_in_range() {
        let mut f = FoldedHistory::new(1000, 12);
        for i in 0..5000u64 {
            f.update(i % 7 == 0, i % 5 == 0);
            assert!(f.value() < (1 << 12));
        }
    }

    #[test]
    fn path_history_packs_bits() {
        let mut p = PathHistory::new();
        p.push(0b100); // bit 2 = 1
        p.push(0b000); // bit 2 = 0
        assert_eq!(p.value(), 0b10);
    }
}
