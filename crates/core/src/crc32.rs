//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Shared integrity primitive for the fault-tolerance layer: checkpoint
//! files carry per-tensor and whole-file checksums, and the all-reduce
//! implementations checksum every message so transient link corruption is
//! detected instead of silently averaged into the gradients. APFW1 frames,
//! APT1 tiles and the serving cache's content keys hash with it too.
//!
//! [`Crc32::update`] picks one of two arms at run time, and both compute
//! the same bits as [`crc32_bytewise`], the byte-at-a-time reference kept
//! as the test oracle:
//!
//! - **carry-less-multiply fold** (`clmul`): on x86_64 CPUs with
//!   `pclmulqdq` and `sse4.1`, inputs of 64 bytes or more fold four
//!   128-bit lanes per 64-byte block and finish with a Barrett reduction;
//!   memory speed on current cores. The crate's only `unsafe` lives there.
//! - **slice-by-16** ([`crc32_slice16`]): sixteen compile-time tables,
//!   derived from the byte-wise `TABLE`, fold one 16-byte block per step
//!   with sixteen independent lookups instead of sixteen dependent ones; a
//!   byte loop handles the tail. Plain safe Rust; it takes every shorter
//!   input, the fold's sub-16-byte tail, and everything on other CPUs.
//!
//! [`crc32_arm`] names the arm large inputs take on this CPU.

use crate::le::for_each_le_block;

#[cfg(target_arch = "x86_64")]
mod clmul;

/// Byte-at-a-time lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slice-by-16 tables: `SLICES[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so `SLICES[0] == TABLE`.
const SLICES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    t[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Advances a raw CRC register over `bytes`, one table lookup per byte.
fn update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Advances a raw CRC register over `bytes`, 16 bytes per step.
fn update_slice16(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &SLICES;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    update_bytewise(crc, blocks.remainder())
}

#[cfg(target_arch = "x86_64")]
use clmul::{available as fold_available, update as update_folded};

/// Other architectures have no fold: every input runs slice-by-16.
#[cfg(not(target_arch = "x86_64"))]
fn fold_available() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn update_folded(_state: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// Name of the arm [`Crc32::update`] runs inputs of 64 bytes or more
/// through on this CPU: `"pclmulqdq"` or `"slice-by-16"`.
pub fn crc32_arm() -> &'static str {
    if fold_available() {
        "pclmulqdq"
    } else {
        "slice-by-16"
    }
}

/// Streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum through the fastest arm this CPU
    /// runs for their length.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state =
            update_folded(self.state, bytes).unwrap_or_else(|| update_slice16(self.state, bytes));
    }

    /// Final checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

/// One-shot CRC-32 through the portable slice-by-16 arm only, whatever the
/// CPU: the baseline `kernel_bench` gates the dispatched arm against.
pub fn crc32_slice16(bytes: &[u8]) -> u32 {
    update_slice16(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Byte-at-a-time CRC-32: the reference oracle for both arms of
/// [`Crc32::update`] (as `gemm_naive` is for the packed SGEMM): same
/// polynomial, same bits.
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// CRC-32 of an `f32` slice, hashing each value's little-endian bytes.
/// The values are packed a few KiB at a time on the stack, so long slices
/// reach the fold without a heap copy.
pub fn crc32_f32(values: &[f32]) -> u32 {
    let mut h = Crc32::new();
    for_each_le_block(values, |bytes| h.update(bytes));
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // 43 bytes: two 16-byte blocks plus a tail.
        assert_eq!(crc32(FOX), 0x414F_A339);
    }

    const FOX: &[u8] = b"The quick brown fox jumps over the lazy dog";

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn known_vectors_bytewise() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
        assert_eq!(crc32_bytewise(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(FOX), 0x414F_A339);
    }

    #[test]
    fn f32_hash_matches_byte_hash() {
        let vals = [1.5f32, -0.25, f32::MIN_POSITIVE, 1e30, -0.0, f32::NAN, 3.0, 1e-40, -7.5];
        // Short slices, then lengths on both sides of the 1024-value
        // packing block and of two blocks.
        let lens = (0..=vals.len()).chain([15, 16, 17, 1023, 1024, 1025, 2047, 2048, 2049, 5000]);
        for n in lens {
            let values: Vec<f32> =
                (0..n).map(|i| vals[i % vals.len()] * (i / vals.len() + 1) as f32).collect();
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(crc32_f32(&values), crc32(&bytes), "{n} values");
            assert_eq!(crc32_f32(&values), crc32_bytewise(&bytes), "{n} values");
        }
    }

    /// Deterministic pseudo-random bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len)
            .map(|i| ((seed ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    /// The fold, called directly: `None` below its minimum length or on a
    /// CPU without it.
    fn fold_arm(bytes: &[u8]) -> Option<u32> {
        update_folded(0xFFFF_FFFF, bytes).map(|s| s ^ 0xFFFF_FFFF)
    }

    /// Both arms called directly, and the dispatcher, against `oracle`.
    fn assert_arms_match(bytes: &[u8], oracle: u32, what: &str) {
        assert_eq!(crc32_slice16(bytes), oracle, "slice-by-16, {what}");
        if let Some(folded) = fold_arm(bytes) {
            assert_eq!(folded, oracle, "fold, {what}");
        }
        assert_eq!(crc32(bytes), oracle, "dispatched, {what}");
    }

    #[test]
    fn fold_runs_wherever_the_cpu_has_it() {
        assert_eq!(fold_arm(&[0; 64]).is_some(), fold_available());
        assert_eq!(fold_arm(&[0; 63]), None, "under 64 bytes stays on slice-by-16");
        assert_eq!(crc32_arm() == "pclmulqdq", fold_available());
    }

    #[test]
    fn arms_match_bytewise_at_every_length_to_1024() {
        let data = noise(1024, 1);
        for len in 0..=data.len() {
            let bytes = &data[..len];
            assert_arms_match(bytes, crc32_bytewise(bytes), &format!("len {len}"));
        }
    }

    #[test]
    fn arms_match_bytewise_around_one_mib() {
        const MIB: usize = 1 << 20;
        let data = noise(MIB + 15, 2);
        // Extend the oracle's raw register byte by byte from 1 MiB - 15.
        let mut state = update_bytewise(0xFFFF_FFFF, &data[..MIB - 15]);
        for len in MIB - 15..=MIB + 15 {
            if len > MIB - 15 {
                state = update_bytewise(state, &data[len - 1..len]);
            }
            assert_arms_match(&data[..len], state ^ 0xFFFF_FFFF, &format!("len {len}"));
        }
    }

    #[test]
    fn streaming_matches_bytewise_at_every_split_of_300_bytes() {
        let data = noise(300, 3);
        let oracle = crc32_bytewise(&data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            let mut h = Crc32::new();
            h.update(a);
            h.update(b);
            assert_eq!(h.finalize(), oracle, "split at {cut}");
            // Each arm on its own, carrying the raw register across the cut.
            let sliced = update_slice16(update_slice16(0xFFFF_FFFF, a), b);
            assert_eq!(sliced ^ 0xFFFF_FFFF, oracle, "slice-by-16, split at {cut}");
            let folded = |state, part: &[u8]| {
                update_folded(state, part).unwrap_or_else(|| update_slice16(state, part))
            };
            assert_eq!(folded(folded(0xFFFF_FFFF, a), b) ^ 0xFFFF_FFFF, oracle, "split at {cut}");
        }
    }

    #[test]
    fn arms_match_bytewise_at_unaligned_starts() {
        let backing = noise(16 + 4096 + 17, 4);
        for start in 0..16 {
            for len in [64, 65, 100, 127, 128, 1000, 4096 + 17] {
                let bytes = &backing[start..start + len];
                let what = format!("start {start}, len {len}");
                assert_arms_match(bytes, crc32_bytewise(bytes), &what);
            }
        }
    }

    #[test]
    fn arms_match_bytewise_on_constant_inputs() {
        for fill in [0x00u8, 0xFF] {
            for len in [0, 1, 15, 16, 63, 64, 65, 255, 256, 4096, 65_537] {
                let bytes = vec![fill; len];
                assert_arms_match(&bytes, crc32_bytewise(&bytes), &format!("{fill:#04x} x {len}"));
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let base = b"gradient segment payload".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "byte {} bit {}", i, bit);
            }
        }
    }
}
