//! The one word rule: what crosses the simulated machine is `u64` words.
//!
//! Symmetric and shared storage is backed by `AtomicU64` words so that
//! concurrent one-sided access from any PE is well-defined at the Rust
//! level (SHMEM semantics allow races; the *bits* transfer atomically per
//! element). An [`Element`] is a primitive that encodes to one such word.
//! A message [`Payload`] is the same rule widened to a fixed run of words:
//! every `Element` is a one-word payload, and arrays and pairs of payloads
//! are payloads. Only data whose value is its bits can cross — no
//! pointers, no boxes, no trait objects.

/// A value storable in symmetric or shared memory: bit-convertible to a
/// `u64` word.
pub trait Element: Copy + Send + Sync + 'static {
    /// Size used for traffic accounting (the real element size, not the
    /// 8-byte backing word).
    const BYTES: usize;

    /// Encode to a backing word.
    fn to_bits(self) -> u64;

    /// Decode from a backing word.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! int_element {
    ($t:ty) => {
        impl Element for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn to_bits(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    };
}

int_element!(u8);
int_element!(u32);
int_element!(i32);
int_element!(u64);
int_element!(i64);
int_element!(usize);

impl Element for f64 {
    const BYTES: usize = 8;
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl Element for f32 {
    const BYTES: usize = 4;
    #[inline]
    fn to_bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

/// Integer elements supporting remote fetch-add (wrapping, as on hardware).
pub trait IntElement: Element {
    /// Add in bit space (two's-complement wrapping add works for all
    /// supported widths because high garbage bits are masked on decode).
    fn add_bits(a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }
}

impl IntElement for u32 {}
impl IntElement for i32 {}
impl IntElement for u64 {}
impl IntElement for i64 {}
impl IntElement for usize {}

/// A value that can travel in a message: a fixed run of `u64` words.
/// A value's *accounted* size stays `size_of::<T>()`, whatever number of
/// words its encoding takes.
pub trait Payload: Sized {
    /// Words one value occupies (at least one).
    const WORDS: usize;

    /// Write the value into `out[..Self::WORDS]`.
    fn encode(&self, out: &mut [u64]);

    /// Read a value back from `words[..Self::WORDS]`.
    fn decode(words: &[u64]) -> Self;
}

impl<T: Element> Payload for T {
    const WORDS: usize = 1;
    #[inline]
    fn encode(&self, out: &mut [u64]) {
        out[0] = self.to_bits();
    }
    #[inline]
    fn decode(words: &[u64]) -> Self {
        T::from_bits(words[0])
    }
}

impl<T: Payload, const N: usize> Payload for [T; N] {
    const WORDS: usize = N * T::WORDS;
    fn encode(&self, out: &mut [u64]) {
        for (v, w) in self.iter().zip(out.chunks_exact_mut(T::WORDS)) {
            v.encode(w);
        }
    }
    fn decode(words: &[u64]) -> Self {
        std::array::from_fn(|i| T::decode(&words[i * T::WORDS..]))
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    const WORDS: usize = A::WORDS + B::WORDS;
    fn encode(&self, out: &mut [u64]) {
        self.0.encode(out);
        self.1.encode(&mut out[A::WORDS..]);
    }
    fn decode(words: &[u64]) -> Self {
        (A::decode(words), B::decode(&words[A::WORDS..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        assert_eq!(u32::from_bits(12345u32.to_bits()), 12345);
        assert_eq!(i32::from_bits((-7i32).to_bits()), -7);
        assert_eq!(i64::from_bits((-1i64).to_bits()), -1);
        assert_eq!(u64::from_bits(u64::MAX.to_bits()), u64::MAX);
        assert_eq!(usize::from_bits(99usize.to_bits()), 99);
    }

    #[test]
    fn roundtrip_floats() {
        for v in [0.0f64, -1.5, f64::INFINITY, 1e-300] {
            assert_eq!(f64::from_bits(Element::to_bits(v)), v);
        }
        for v in [0.0f32, -2.25, f32::MAX] {
            assert_eq!(<f32 as Element>::from_bits(Element::to_bits(v)), v);
        }
        // NaN preserves bit pattern
        let nan_bits = Element::to_bits(f64::NAN);
        assert!(<f64 as Element>::from_bits(nan_bits).is_nan());
    }

    #[test]
    fn negative_i32_masks_correctly() {
        // i32 -1 encodes with sign extension; decode must recover -1.
        let bits = (-1i32).to_bits();
        assert_eq!(i32::from_bits(bits), -1);
    }

    #[test]
    fn fetch_add_bits_wraps() {
        let a = i32::MAX.to_bits();
        let b = 1i32.to_bits();
        assert_eq!(
            i32::from_bits(<i32 as IntElement>::add_bits(a, b)),
            i32::MIN
        );
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(<u32 as Element>::BYTES, 4);
        assert_eq!(<f64 as Element>::BYTES, 8);
        assert_eq!(<f32 as Element>::BYTES, 4);
        assert_eq!(<u8 as Element>::BYTES, 1);
    }
}
