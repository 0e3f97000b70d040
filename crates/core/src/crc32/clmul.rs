//! The carry-less-multiply arm of [`super::Crc32::update`] (x86_64 with
//! `pclmulqdq` and `sse4.1`), after Gopal et al., *Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ Instruction* (Intel, 2009).
//!
//! Four 128-bit lanes fold 64 bytes per step: each lane `x` becomes
//! `x.lo·K1 ⊕ x.hi·K2 ⊕ next` in GF(2)[x], which moves its contribution
//! 512 bits forward without changing the remainder mod P. The lanes then
//! fold into one (K3, K4), the remaining 16-byte blocks fold into it, and
//! 128 bits reduce to 64 (K4, K5) and then to 32 by Barrett reduction (P,
//! μ). The constants are derived from the polynomial at compile time in
//! the bit-reflected form the reflected CRC needs. The tail under 16 bytes
//! goes to the slice-by-16 arm.
//!
//! This module holds all of the crate's `unsafe`: the intrinsics, and the
//! one call into the `#[target_feature]` function after run-time detection.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Inputs shorter than this stay on slice-by-16: the fold needs four lanes.
const MIN_LEN: usize = 64;

/// The IEEE polynomial P(x) in normal (non-reflected) form, x^32 included.
const P_NORMAL: u64 = 0x1_04C1_1DB7;

/// `x^n mod P(x)` (degree < 32), bit-reflected over 32 bits and shifted
/// left by one: the form in which a reflected 64-bit lane half multiplies
/// it and lands aligned (Gopal et al., §"bit-reflected").
const fn fold_constant(n: u32) -> u64 {
    let mut r: u64 = 1;
    let mut i = 0;
    while i < n {
        r <<= 1;
        if r & (1 << 32) != 0 {
            r ^= P_NORMAL;
        }
        i += 1;
    }
    ((r as u32).reverse_bits() as u64) << 1
}

/// Barrett's μ = ⌊x^64 / P(x)⌋ (33 bits), bit-reflected over 33 bits.
const fn barrett_mu() -> u64 {
    // Long division: start from the dividend's leading x^64 term and bring
    // down its 64 zero bits one at a time.
    let mut rem: u64 = 1;
    let mut quot: u64 = 0;
    let mut i = 0;
    while i < 64 {
        rem <<= 1;
        quot <<= 1;
        if rem & (1 << 32) != 0 {
            rem ^= P_NORMAL;
            quot |= 1;
        }
        i += 1;
    }
    quot.reverse_bits() >> 31
}

const K1: u64 = fold_constant(4 * 128 + 32);
const K2: u64 = fold_constant(4 * 128 - 32);
const K3: u64 = fold_constant(128 + 32);
const K4: u64 = fold_constant(128 - 32);
const K5: u64 = fold_constant(64);
/// P(x) bit-reflected over 33 bits (`0xEDB88320` with x^0 as the top bit).
const P_REFLECTED: u64 = P_NORMAL.reverse_bits() >> 31;
const MU: u64 = barrett_mu();

/// True when this CPU can run the fold.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// Advances the raw CRC register `state` over `bytes` through the fold, or
/// returns `None` when the input is shorter than [`MIN_LEN`] or the CPU
/// lacks the instructions.
pub(super) fn update(state: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < MIN_LEN || !available() {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() & !15);
    // SAFETY: `available()` just confirmed `pclmulqdq` and `sse4.1`, the
    // two features `fold` is compiled for, and `body` is a whole number of
    // 16-byte blocks of at least `MIN_LEN` bytes, as `fold` requires.
    let state = unsafe { fold(state, body) };
    Some(super::update_slice16(state, tail))
}

/// Reads the next 16 bytes of `data` as one lane and advances the slice.
///
/// # Safety
/// `data` must hold at least 16 bytes, and the CPU must support the
/// features this function is compiled for.
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn load(data: &mut &[u8]) -> __m128i {
    debug_assert!(data.len() >= 16);
    // SAFETY: the caller guarantees 16 readable bytes; `loadu` has no
    // alignment requirement.
    let lane = unsafe { _mm_loadu_si128(data.as_ptr().cast::<__m128i>()) };
    *data = &data[16..];
    lane
}

/// Folds `lane` forward by the distance `keys` encodes and adds `next`.
///
/// # Safety
/// The CPU must support the features this function is compiled for.
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold_lane(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
    let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

/// The fold proper: returns the raw register after all of `data`.
///
/// # Safety
/// The CPU must support `pclmulqdq` and `sse4.1`, and `data.len()` must
/// be a multiple of 16 and at least [`MIN_LEN`].
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold(state: u32, mut data: &[u8]) -> u32 {
    debug_assert!(data.len() >= MIN_LEN && data.len().is_multiple_of(16));
    // SAFETY: each `load` below is guarded by the length precondition (the
    // first four) or by its loop condition; `load`, `fold_lane` and the
    // intrinsics need only the features this function is compiled for.
    unsafe {
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        // The register is the CRC of everything before: add it to the
        // first 32 bits of the message.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        while data.len() >= 64 {
            x3 = fold_lane(x3, load(&mut data), k1k2);
            x2 = fold_lane(x2, load(&mut data), k1k2);
            x1 = fold_lane(x1, load(&mut data), k1k2);
            x0 = fold_lane(x0, load(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut x = fold_lane(x3, x2, k3k4);
        x = fold_lane(x, x1, k3k4);
        x = fold_lane(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold_lane(x, load(&mut data), k3k4);
        }

        // 128 -> 96 bits: the low half times x^96 mod P, plus the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 -> 64 bits: the low 32 bits times x^64 mod P, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5 as i64), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // remainder is the high 32 bits of R ⊕ T2 in reflected order.
        let pu = _mm_set_epi64x(MU as i64, P_REFLECTED as i64);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The derived constants are the published ones (Gopal et al.; the
    /// same values appear in the Linux and zlib `pclmulqdq` CRC-32s).
    #[test]
    fn constants_match_published_values() {
        assert_eq!(K1, 0x1_5444_2bd4);
        assert_eq!(K2, 0x1_c6e4_1596);
        assert_eq!(K3, 0x1_7519_97d0);
        assert_eq!(K4, 0x0_ccaa_009e);
        assert_eq!(K5, 0x1_63cd_6124);
        assert_eq!(P_REFLECTED, 0x1_db71_0641);
        assert_eq!(MU, 0x1_f701_1641);
    }
}
