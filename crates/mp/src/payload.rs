//! Message payloads as runs of `u64` words.
//!
//! A message crosses the simulated machine as bits, under the word rule
//! [`parallel::Payload`] states for every model. An envelope is a plain
//! `Vec<u64>`, recycled through a per-world [`WordPool`], and a queued
//! message is serialisable as it stands.
//!
//! A value's *accounted* size stays `size_of::<T>()`: message bytes, and
//! with them arrival times and every counter, do not depend on how many
//! words the encoding happens to take.

use std::sync::{Mutex, MutexGuard};

use parallel::Payload;

/// Encode `data` into `buf`, replacing its contents.
pub(crate) fn encode_into<T: Payload>(data: &[T], buf: &mut Vec<u64>) {
    buf.clear();
    buf.resize(data.len() * T::WORDS, 0);
    for (v, w) in data.iter().zip(buf.chunks_exact_mut(T::WORDS)) {
        v.encode(w);
    }
}

/// Replace the contents of `out` with the values `words` holds, reusing
/// its capacity.
pub(crate) fn decode_into<T: Payload>(words: &[u64], out: &mut Vec<T>) {
    out.clear();
    out.extend(words.chunks_exact(T::WORDS).map(T::decode));
}

/// Size classes: class `k` holds buffers of capacity in `(2^(k-1), 2^k]`.
const CLASSES: usize = usize::BITS as usize + 1;

fn class_of(words: usize) -> usize {
    words.next_power_of_two().trailing_zeros() as usize
}

/// Payload buffers returned by receivers, for senders to reuse.
///
/// One LIFO stack per power-of-two size class. A send of `n` words takes
/// the top buffer of `n`'s class and reuses it only if it holds `n` words;
/// a buffer too short is freed instead. A reused buffer is therefore never
/// more than twice its payload, and the pool only ever holds buffers that
/// were once in flight at the same time, so it keeps no more than the
/// world's busiest moment had in its mailboxes.
pub(crate) struct WordPool {
    classes: Mutex<[Vec<Vec<u64>>; CLASSES]>,
}

impl WordPool {
    pub(crate) fn new() -> Self {
        WordPool {
            classes: Mutex::new(std::array::from_fn(|_| Vec::new())),
        }
    }

    /// `classes`, locked: no panic leaves it half-updated, so poison is ignored.
    fn classes(&self) -> MutexGuard<'_, [Vec<Vec<u64>>; CLASSES]> {
        self.classes.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An empty buffer with room for `words` words.
    pub(crate) fn take(&self, words: usize) -> Vec<u64> {
        if words == 0 {
            return Vec::new();
        }
        match self.classes()[class_of(words)].pop() {
            Some(buf) if buf.capacity() >= words => buf,
            _ => Vec::with_capacity(words),
        }
    }

    /// Return a buffer for later sends.
    pub(crate) fn put(&self, buf: Vec<u64>) {
        if buf.capacity() > 0 {
            self.classes()[class_of(buf.capacity())].push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode `values` the way a send does and decode them the way a
    /// receive does.
    fn round_trip<T: Payload>(values: &[T]) -> Vec<T> {
        let mut words = Vec::new();
        encode_into(values, &mut words);
        assert_eq!(words.len(), values.len() * T::WORDS);
        let mut out = Vec::new();
        decode_into(&words, &mut out);
        out
    }

    #[test]
    fn every_payload_type_round_trips() {
        assert_eq!(round_trip(&[0u8, 7, u8::MAX]), [0, 7, u8::MAX]);
        assert_eq!(round_trip(&[-2.25f32, f32::MAX]), [-2.25, f32::MAX]);
        assert_eq!(round_trip(&[-1i32, i32::MIN, 42]), [-1, i32::MIN, 42]);
        assert_eq!(round_trip(&[u64::MAX, 0]), [u64::MAX, 0]);
        assert_eq!(round_trip(&[-5i64, usize::MAX as i64]), [-5, -1]);
        assert_eq!(round_trip(&[usize::MAX]), [usize::MAX]);
        // NaN payloads keep their exact bits, quiet or signalling.
        let nans = [f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001), -f64::NAN];
        let back = round_trip(&nans);
        for (a, b) in nans.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(round_trip(&[(3u32, -0.25f64)]), [(3, -0.25)]);
        let migr = (
            u64::MAX - 1,
            [0.5, -1.0, 2.0, 0.0, -0.0, 1e300, f64::MIN, 3.0],
        );
        assert_eq!(round_trip(&[migr, migr]), [migr, migr]);
        assert_eq!(<(u64, [f64; 8])>::WORDS, 9);
        assert_eq!(
            round_trip(&[[1.0f64, 2.0, 3.0, 4.0]]),
            [[1.0, 2.0, 3.0, 4.0]]
        );
    }

    #[test]
    fn the_pool_reuses_only_buffers_that_fit_within_twice() {
        let pool = WordPool::new();
        assert_eq!(pool.take(0).capacity(), 0);
        let a = pool.take(6);
        let ptr = a.as_ptr();
        pool.put(a);
        // 5..=8 words share 6's class: 5 reuses the 6-word buffer.
        let b = pool.take(5);
        assert_eq!(b.as_ptr(), ptr);
        pool.put(b);
        // 8 does not fit in it: that buffer is freed, a fresh one made.
        let c = pool.take(8);
        assert!(c.capacity() >= 8);
        pool.put(c);
        // A 1-word payload never takes an 8-word buffer.
        let d = pool.take(1);
        assert!(d.capacity() < 2);
    }
}
