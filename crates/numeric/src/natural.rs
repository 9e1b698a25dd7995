//! Arbitrary-precision unsigned integers.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Rem, Sub, SubAssign};

const BASE_BITS: u32 = 32;

/// An arbitrary-precision unsigned ("natural") integer.
///
/// Stored as little-endian `u32` limbs (least-significant limb first) with
/// no trailing zero limbs; the value zero is represented by an empty limb
/// vector.  The implementation favours clarity and correctness over raw
/// speed: the magnitudes appearing in the repair-counting algorithms are
/// large (hundreds to a few thousand bits) but the arithmetic is never the
/// bottleneck of the algorithms that use it.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Natural {
    /// Little-endian limbs, no trailing zeros.
    limbs: Vec<u32>,
}

impl Natural {
    /// The value `0`.
    pub fn zero() -> Self {
        Natural { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        Natural { limbs: vec![1] }
    }

    /// Returns `true` iff this is the value `0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` iff this is the value `1`.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Constructs a natural from a `u64`.
    pub fn from_u64(value: u64) -> Self {
        let lo = (value & 0xFFFF_FFFF) as u32;
        let hi = (value >> 32) as u32;
        let mut limbs = vec![lo, hi];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// The number of `u32` limbs of the value (0 for zero).
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// Constructs a natural from a `u128`.
    pub fn from_u128(value: u128) -> Self {
        let mut limbs = Vec::with_capacity(4);
        let mut v = value;
        while v != 0 {
            limbs.push((v & 0xFFFF_FFFF) as u32);
            v >>= 32;
        }
        Natural { limbs }
    }

    /// Returns the value as a `u64` if it fits, `None` otherwise.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u64::from(self.limbs[0])),
            2 => Some(u64::from(self.limbs[0]) | (u64::from(self.limbs[1]) << 32)),
            _ => None,
        }
    }

    /// Returns the value as a `u128` if it fits, `None` otherwise.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, limb) in self.limbs.iter().enumerate() {
            v |= u128::from(*limb) << (32 * i as u32);
        }
        Some(v)
    }

    /// Number of significant bits (`0` for the value zero).
    fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(top) => {
                (self.limbs.len() as u64 - 1) * u64::from(BASE_BITS)
                    + u64::from(32 - top.leading_zeros())
            }
        }
    }

    /// Approximates the value as an `f64` (may lose precision, may be
    /// `f64::INFINITY` for huge values).
    pub fn to_f64(&self) -> f64 {
        let mut value = 0.0f64;
        for limb in self.limbs.iter().rev() {
            value = value * 4_294_967_296.0 + f64::from(*limb);
        }
        value
    }

    /// Natural logarithm of the value; `-inf` for zero.
    pub fn ln(&self) -> f64 {
        if self.is_zero() {
            return f64::NEG_INFINITY;
        }
        // Use the top 128 bits for the mantissa and account for the shift.
        let bits = self.bits();
        if bits <= 64 {
            return (self.to_u64().expect("fits in u64") as f64).ln();
        }
        let shift = bits - 64;
        let shifted = self.shr_bits(shift);
        let mantissa = shifted.to_u64().expect("shifted value fits in u64") as f64;
        mantissa.ln() + (shift as f64) * std::f64::consts::LN_2
    }

    /// Logical right shift by `bits` bits.
    fn shr_bits(&self, bits: u64) -> Natural {
        let limb_shift = (bits / u64::from(BASE_BITS)) as usize;
        let bit_shift = (bits % u64::from(BASE_BITS)) as u32;
        if limb_shift >= self.limbs.len() {
            return Natural::zero();
        }
        let mut limbs = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            let mut carry = 0u32;
            for limb in limbs.iter_mut().rev() {
                let new_carry = *limb << (32 - bit_shift);
                *limb = (*limb >> bit_shift) | carry;
                carry = new_carry;
            }
        }
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// Checked subtraction: `self - other`, or `None` if `other > self`.
    pub fn checked_sub(&self, other: &Natural) -> Option<Natural> {
        if self < other {
            return None;
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let a = i64::from(self.limbs[i]);
            let b = i64::from(other.limbs.get(i).copied().unwrap_or(0));
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1i64 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(d as u32);
        }
        debug_assert_eq!(borrow, 0, "subtraction underflow despite ordering check");
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Some(Natural { limbs })
    }

    /// Multiplies by a single `u32` digit.
    fn mul_u32(&self, digit: u32) -> Natural {
        if digit == 0 || self.is_zero() {
            return Natural::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for limb in &self.limbs {
            let prod = u64::from(*limb) * u64::from(digit) + carry;
            limbs.push((prod & 0xFFFF_FFFF) as u32);
            carry = prod >> 32;
        }
        if carry > 0 {
            limbs.push(carry as u32);
        }
        Natural { limbs }
    }

    /// Divides by a single `u32` digit, returning `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `digit == 0`.
    fn div_rem_u32(&self, digit: u32) -> (Natural, u32) {
        assert!(digit != 0, "division by zero");
        let mut quotient = vec![0u32; self.limbs.len()];
        let mut remainder = 0u64;
        for i in (0..self.limbs.len()).rev() {
            let cur = (remainder << 32) | u64::from(self.limbs[i]);
            quotient[i] = (cur / u64::from(digit)) as u32;
            remainder = cur % u64::from(digit);
        }
        while quotient.last() == Some(&0) {
            quotient.pop();
        }
        (Natural { limbs: quotient }, remainder as u32)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and `remainder < divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Natural) -> (Natural, Natural) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Natural::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u32(divisor.limbs[0]);
            return (q, Natural::from_u64(u64::from(r)));
        }
        // Schoolbook long division, binary-shift variant: simple and
        // adequate for the magnitudes used in this project.
        let mut remainder = Natural::zero();
        let mut quotient_bits = vec![false; self.bits() as usize];
        for bit in (0..self.bits()).rev() {
            // remainder = remainder * 2 + bit(self, bit)
            remainder = remainder.shl1();
            if self.bit(bit) {
                remainder = &remainder + &Natural::one();
            }
            if remainder >= *divisor {
                remainder = remainder
                    .checked_sub(divisor)
                    .expect("remainder >= divisor ensured by comparison");
                quotient_bits[bit as usize] = true;
            }
        }
        let mut quotient = Natural::zero();
        for bit in (0..quotient_bits.len()).rev() {
            quotient = quotient.shl1();
            if quotient_bits[bit] {
                quotient = &quotient + &Natural::one();
            }
        }
        (quotient, remainder)
    }

    /// Left shift by one bit.
    fn shl1(&self) -> Natural {
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u32;
        for limb in &self.limbs {
            limbs.push((limb << 1) | carry);
            carry = limb >> 31;
        }
        if carry > 0 {
            limbs.push(carry);
        }
        Natural { limbs }
    }

    /// Returns bit `index` (0 = least significant).
    fn bit(&self, index: u64) -> bool {
        let limb = (index / u64::from(BASE_BITS)) as usize;
        let bit = (index % u64::from(BASE_BITS)) as u32;
        match self.limbs.get(limb) {
            Some(l) => (l >> bit) & 1 == 1,
            None => false,
        }
    }

    /// Greatest common divisor (binary-free Euclid via `div_rem`).
    pub fn gcd(&self, other: &Natural) -> Natural {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let (_, r) = a.div_rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// `self^exp` by repeated squaring.
    pub fn pow(&self, mut exp: u32) -> Natural {
        let mut base = self.clone();
        let mut result = Natural::one();
        while exp > 0 {
            if exp & 1 == 1 {
                result = &result * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        result
    }

    /// Parses a decimal string.
    ///
    /// Returns `None` on empty input or any non-digit character.
    pub fn from_decimal_str(text: &str) -> Option<Natural> {
        if text.is_empty() {
            return None;
        }
        let mut value = Natural::zero();
        for ch in text.chars() {
            let digit = ch.to_digit(10)?;
            value = value.mul_u32(10) + Natural::from_u64(u64::from(digit));
        }
        Some(value)
    }
}

impl fmt::Debug for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Natural({self})")
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut value = self.clone();
        while !value.is_zero() {
            let (q, r) = value.div_rem_u32(1_000_000_000);
            digits.push(r);
            value = q;
        }
        let mut out = String::new();
        for (i, chunk) in digits.iter().rev().enumerate() {
            if i == 0 {
                out.push_str(&chunk.to_string());
            } else {
                out.push_str(&format!("{chunk:09}"));
            }
        }
        f.write_str(&out)
    }
}

impl From<u64> for Natural {
    fn from(value: u64) -> Self {
        Natural::from_u64(value)
    }
}

impl From<u32> for Natural {
    fn from(value: u32) -> Self {
        Natural::from_u64(u64::from(value))
    }
}

impl From<usize> for Natural {
    fn from(value: usize) -> Self {
        Natural::from_u64(value as u64)
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl Add for &Natural {
    type Output = Natural;

    fn add(self, rhs: &Natural) -> Natural {
        let (longer, shorter) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = Vec::with_capacity(longer.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.limbs.len() {
            let sum = u64::from(longer.limbs[i])
                + u64::from(shorter.limbs.get(i).copied().unwrap_or(0))
                + carry;
            limbs.push((sum & 0xFFFF_FFFF) as u32);
            carry = sum >> 32;
        }
        if carry > 0 {
            limbs.push(carry as u32);
        }
        Natural { limbs }
    }
}

impl Add for Natural {
    type Output = Natural;

    fn add(self, rhs: Natural) -> Natural {
        &self + &rhs
    }
}

impl AddAssign<&Natural> for Natural {
    fn add_assign(&mut self, rhs: &Natural) {
        *self = &*self + rhs;
    }
}

impl Sub for &Natural {
    type Output = Natural;

    /// # Panics
    /// Panics if the result would be negative.
    fn sub(self, rhs: &Natural) -> Natural {
        self.checked_sub(rhs)
            .expect("Natural subtraction underflow")
    }
}

impl Sub for Natural {
    type Output = Natural;

    fn sub(self, rhs: Natural) -> Natural {
        &self - &rhs
    }
}

impl SubAssign<&Natural> for Natural {
    fn sub_assign(&mut self, rhs: &Natural) {
        *self = &*self - rhs;
    }
}

impl Mul for &Natural {
    type Output = Natural;

    fn mul(self, rhs: &Natural) -> Natural {
        if self.is_zero() || rhs.is_zero() {
            return Natural::zero();
        }
        let mut limbs = vec![0u32; self.limbs.len() + rhs.limbs.len()];
        for (i, a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, b) in rhs.limbs.iter().enumerate() {
                let idx = i + j;
                let cur = u64::from(limbs[idx]) + u64::from(*a) * u64::from(*b) + carry;
                limbs[idx] = (cur & 0xFFFF_FFFF) as u32;
                carry = cur >> 32;
            }
            let mut idx = i + rhs.limbs.len();
            while carry > 0 {
                let cur = u64::from(limbs[idx]) + carry;
                limbs[idx] = (cur & 0xFFFF_FFFF) as u32;
                carry = cur >> 32;
                idx += 1;
            }
        }
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }
}

impl Mul for Natural {
    type Output = Natural;

    fn mul(self, rhs: Natural) -> Natural {
        &self * &rhs
    }
}

impl MulAssign<&Natural> for Natural {
    fn mul_assign(&mut self, rhs: &Natural) {
        *self = &*self * rhs;
    }
}

impl Div for &Natural {
    type Output = Natural;

    fn div(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).0
    }
}

impl Rem for &Natural {
    type Output = Natural;

    fn rem(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).1
    }
}

impl Sum for Natural {
    fn sum<I: Iterator<Item = Natural>>(iter: I) -> Natural {
        iter.fold(Natural::zero(), |acc, x| &acc + &x)
    }
}

impl<'a> Sum<&'a Natural> for Natural {
    fn sum<I: Iterator<Item = &'a Natural>>(iter: I) -> Natural {
        iter.fold(Natural::zero(), |acc, x| &acc + x)
    }
}

impl Product for Natural {
    fn product<I: Iterator<Item = Natural>>(iter: I) -> Natural {
        iter.fold(Natural::one(), |acc, x| &acc * &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Natural::zero().is_zero());
        assert!(Natural::one().is_one());
        assert_eq!(Natural::zero().to_u64(), Some(0));
        assert_eq!(Natural::one().to_u64(), Some(1));
    }

    #[test]
    fn from_and_to_u64_roundtrip() {
        for v in [0u64, 1, 2, 41, 1 << 31, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(Natural::from_u64(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn addition_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, 1),
            (u128::from(u64::MAX), 1),
            (u128::from(u64::MAX), u128::from(u64::MAX)),
            (123_456_789_012_345, 987_654_321_098_765),
        ];
        for (a, b) in cases {
            let sum = &Natural::from_u128(a) + &Natural::from_u128(b);
            assert_eq!(sum.to_u128(), Some(a + b));
        }
    }

    #[test]
    fn subtraction_matches_u128() {
        let cases = [(10u128, 3u128), (u128::from(u64::MAX) + 5, 7), (42, 42)];
        for (a, b) in cases {
            let diff = &Natural::from_u128(a) - &Natural::from_u128(b);
            assert_eq!(diff.to_u128(), Some(a - b));
        }
        assert!(Natural::from_u64(3)
            .checked_sub(&Natural::from_u64(4))
            .is_none());
    }

    #[test]
    fn multiplication_matches_u128() {
        let cases = [
            (0u64, 12345u64),
            (1, u64::MAX),
            (u64::MAX, u64::MAX),
            (123_456_789, 987_654_321),
        ];
        for (a, b) in cases {
            let prod = &Natural::from_u64(a) * &Natural::from_u64(b);
            assert_eq!(prod.to_u128(), Some(u128::from(a) * u128::from(b)));
        }
    }

    #[test]
    fn division_matches_u128() {
        let cases = [
            (100u128, 7u128),
            (u128::from(u64::MAX) * 13 + 5, 13),
            (1, 2),
            (0, 5),
        ];
        for (a, b) in cases {
            let (q, r) = Natural::from_u128(a).div_rem(&Natural::from_u128(b));
            assert_eq!(q.to_u128(), Some(a / b), "quotient of {a}/{b}");
            assert_eq!(r.to_u128(), Some(a % b), "remainder of {a}/{b}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Natural::from_u64(5).div_rem(&Natural::zero());
    }

    #[test]
    fn gcd_small() {
        let g = Natural::from_u64(48).gcd(&Natural::from_u64(36));
        assert_eq!(g.to_u64(), Some(12));
        assert_eq!(Natural::zero().gcd(&Natural::from_u64(7)).to_u64(), Some(7));
    }

    #[test]
    fn pow_small() {
        assert_eq!(Natural::from_u64(3).pow(0).to_u64(), Some(1));
        assert_eq!(Natural::from_u64(3).pow(5).to_u64(), Some(243));
        assert_eq!(
            Natural::from_u64(2).pow(100).to_string(),
            "1267650600228229401496703205376"
        );
    }

    #[test]
    fn display_large_value() {
        // 100! has a well known decimal representation of 158 digits starting
        // with 93326215443944152681...
        let mut f = Natural::one();
        for i in 1..=100u64 {
            f = &f * &Natural::from_u64(i);
        }
        let text = f.to_string();
        assert_eq!(text.len(), 158);
        assert!(text.starts_with("93326215443944152681"));
    }

    #[test]
    fn decimal_parse_roundtrip() {
        let v = Natural::from_decimal_str("123456789012345678901234567890").unwrap();
        assert_eq!(v.to_string(), "123456789012345678901234567890");
        assert!(Natural::from_decimal_str("12a").is_none());
        assert!(Natural::from_decimal_str("").is_none());
    }

    #[test]
    fn ordering_is_consistent() {
        let a = Natural::from_u128(u128::from(u64::MAX) + 1);
        let b = Natural::from_u64(u64::MAX);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn to_f64_and_ln() {
        assert_eq!(Natural::from_u64(1000).to_f64(), 1000.0);
        let ln = Natural::from_u64(1000).ln();
        assert!((ln - 1000f64.ln()).abs() < 1e-12);
        // ln(2^200) = 200 ln 2
        let big = Natural::from_u64(2).pow(200);
        assert!((big.ln() - 200.0 * std::f64::consts::LN_2).abs() < 1e-9);
        assert_eq!(Natural::zero().ln(), f64::NEG_INFINITY);
    }

    #[test]
    fn sum_and_product_iterators() {
        let values: Vec<Natural> = (1..=10u64).map(Natural::from_u64).collect();
        let sum: Natural = values.iter().sum();
        assert_eq!(sum.to_u64(), Some(55));
        let product: Natural = values.into_iter().product();
        assert_eq!(product.to_u64(), Some(3_628_800));
    }
}
