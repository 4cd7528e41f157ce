//! Global-history encoding for CNN helper predictors.
//!
//! Following the companion paper's input encoding, the most recent `W`
//! retired conditional branches are encoded as one-hot vectors: each
//! `(IP, direction)` pair hashes into one of `E` embedding buckets, giving
//! a binary `W x E` input that a low-precision convolutional network can
//! process with a handful of integer operations.

use std::collections::VecDeque;

/// Maintains a sliding window of `(IP, direction)` pairs and exposes the
/// bucketized encoding.
///
/// # Examples
///
/// ```
/// use bp_helpers::HistoryEncoder;
///
/// let mut enc = HistoryEncoder::new(8, 32);
/// enc.push(0x40, true);
/// enc.push(0x44, false);
/// let buckets = enc.buckets();
/// assert_eq!(buckets.len(), 8);
/// // Position 0 is the most recent branch.
/// assert_eq!(buckets[0], HistoryEncoder::bucket_of(0x44, false, 32));
/// ```
#[derive(Clone, Debug)]
pub struct HistoryEncoder {
    window: VecDeque<u16>,
    window_len: usize,
    buckets: usize,
}

/// Bucket index reserved for "no history yet".
pub const EMPTY_BUCKET: u16 = u16::MAX;

impl HistoryEncoder {
    /// Creates an encoder over a window of `window_len` branches hashed
    /// into `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is 0 or greater than 512, or `buckets` is 0
    /// or greater than 4,096.
    #[must_use]
    pub fn new(window_len: usize, buckets: usize) -> Self {
        assert!(
            (1..=512).contains(&window_len),
            "window length must be 1..=512"
        );
        assert!((1..=4096).contains(&buckets), "buckets must be 1..=4096");
        HistoryEncoder {
            window: VecDeque::with_capacity(window_len),
            window_len,
            buckets,
        }
    }

    /// The bucket an `(ip, direction)` pair hashes to.
    #[must_use]
    pub fn bucket_of(ip: u64, taken: bool, buckets: usize) -> u16 {
        let key = ((ip >> 2) << 1) | u64::from(taken);
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 33) % buckets as u64) as u16
    }

    /// Records a retired conditional branch.
    pub fn push(&mut self, ip: u64, taken: bool) {
        if self.window.len() == self.window_len {
            self.window.pop_back();
        }
        self.window
            .push_front(Self::bucket_of(ip, taken, self.buckets));
    }

    /// The current window as bucket indices, position 0 = most recent;
    /// positions beyond the observed history hold [`EMPTY_BUCKET`].
    #[must_use]
    pub fn buckets(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.window.iter().copied().collect();
        v.resize(self.window_len, EMPTY_BUCKET);
        v
    }

    /// Window length `W`.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_slides_most_recent_first() {
        let mut e = HistoryEncoder::new(3, 64);
        e.push(0x10, true);
        e.push(0x20, false);
        e.push(0x30, true);
        e.push(0x40, true); // evicts 0x10
        let b = e.buckets();
        assert_eq!(b[0], HistoryEncoder::bucket_of(0x40, true, 64));
        assert_eq!(b[1], HistoryEncoder::bucket_of(0x30, true, 64));
        assert_eq!(b[2], HistoryEncoder::bucket_of(0x20, false, 64));
    }

    #[test]
    fn short_history_pads_with_empty() {
        let mut e = HistoryEncoder::new(4, 64);
        e.push(0x10, true);
        let b = e.buckets();
        assert_ne!(b[0], EMPTY_BUCKET);
        assert!(b[1..].iter().all(|&x| x == EMPTY_BUCKET));
    }

    #[test]
    fn direction_changes_bucket() {
        let t = HistoryEncoder::bucket_of(0x100, true, 256);
        let n = HistoryEncoder::bucket_of(0x100, false, 256);
        assert_ne!(t, n);
    }

    #[test]
    fn buckets_are_in_range() {
        for ip in (0..4096u64).step_by(4) {
            for taken in [true, false] {
                assert!(HistoryEncoder::bucket_of(ip, taken, 32) < 32);
            }
        }
    }

    #[test]
    fn reset_clears_window() {
        let mut e = HistoryEncoder::new(2, 16);
        e.push(0x10, true);
        e.reset();
        assert!(e.buckets().iter().all(|&b| b == EMPTY_BUCKET));
    }
}
