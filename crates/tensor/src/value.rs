//! The scalar value abstraction used by every tensor in the workspace.
//!
//! Stardust kernels compute over fixed- or floating-point element types
//! (Capstan PCUs support both). The [`Value`] trait captures exactly the
//! operations the compiler, interpreters, and simulators need, so that all
//! of them stay generic over the element type.

use std::fmt::Debug;
use std::ops::{Add, Mul, Neg, Sub};

/// Scalar element type of a tensor.
///
/// Implemented for `f64`, `f32`, `i64`, and `i32`, mirroring the word types
/// Capstan's 32-bit lanes (and the paper's `Tensor<int>` examples) operate
/// on. The trait is deliberately small: additive/multiplicative monoid plus
/// conversions used by dataset generators and approximate comparisons in
/// tests.
///
/// # Example
///
/// ```
/// use stardust_tensor::Value;
///
/// fn dot<T: Value>(a: &[T], b: &[T]) -> T {
///     a.iter().zip(b).fold(T::ZERO, |acc, (&x, &y)| acc + x * y)
/// }
/// assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// assert_eq!(dot::<i64>(&[1, 2], &[3, 4]), 11);
/// ```
pub trait Value:
    Copy
    + Debug
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Converts from `f64`, truncating for integer types.
    fn from_f64(x: f64) -> Self;

    /// Converts to `f64` (lossy for large 64-bit integers).
    fn to_f64(self) -> f64;

    /// The value's exact bit pattern, widened to 64 bits: what
    /// [`crate::SparseTensor::fingerprint`] mixes per stored value. It
    /// is bitwise, not `==`: `0.0` and `-0.0` differ.
    fn word_bits(self) -> u64;

    /// Absolute value, used by approximate comparisons in tests.
    fn abs_value(self) -> Self {
        if self < Self::ZERO {
            -self
        } else {
            self
        }
    }

    /// Returns `true` when the value equals the additive identity.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Approximate equality with a relative/absolute tolerance, exact for
    /// integer types.
    fn approx_eq(self, other: Self) -> bool {
        let a = self.to_f64();
        let b = other.to_f64();
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= 1e-9 * scale
    }
}

impl Value for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    fn from_f64(x: f64) -> Self {
        x
    }

    fn to_f64(self) -> f64 {
        self
    }

    fn word_bits(self) -> u64 {
        self.to_bits()
    }
}

impl Value for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    fn from_f64(x: f64) -> Self {
        x as f32
    }

    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    fn word_bits(self) -> u64 {
        u64::from(self.to_bits())
    }

    fn approx_eq(self, other: Self) -> bool {
        let a = f64::from(self);
        let b = f64::from(other);
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= 1e-5 * scale
    }
}

impl Value for i64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    fn from_f64(x: f64) -> Self {
        x as i64
    }

    fn to_f64(self) -> f64 {
        self as f64
    }

    fn word_bits(self) -> u64 {
        self as u64
    }

    fn approx_eq(self, other: Self) -> bool {
        self == other
    }
}

impl Value for i32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    fn from_f64(x: f64) -> Self {
        x as i32
    }

    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    fn word_bits(self) -> u64 {
        u64::from(self as u32)
    }

    fn approx_eq(self, other: Self) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
        let one = i64::ONE;
        assert_eq!(one * one, 1);
        assert_eq!(f32::ZERO, 0.0f32);
        assert_eq!(i32::ZERO, 0);
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(f64::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(i64::from_f64(2.9), 2);
        assert_eq!(i32::from_f64(-3.2), -3);
        assert_eq!(f32::from_f64(0.5).to_f64(), 0.5);
    }

    #[test]
    fn abs_and_zero() {
        assert_eq!((-4.0f64).abs_value(), 4.0);
        assert_eq!((-4i64).abs_value(), 4);
        assert!(0.0f64.is_zero());
        assert!(!1.0f64.is_zero());
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = 0.1f64 + 0.2;
        assert!(a.approx_eq(0.3));
        assert!(!1.0f64.approx_eq(1.1));
        assert!(7i64.approx_eq(7));
        assert!(!7i64.approx_eq(8));
    }

    #[test]
    fn generic_accumulation() {
        fn sum<T: Value>(xs: &[T]) -> T {
            xs.iter().fold(T::ZERO, |a, &x| a + x)
        }
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(sum::<i32>(&[1, 2, 3]), 6);
    }
}
