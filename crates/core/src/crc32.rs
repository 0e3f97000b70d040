//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Shared integrity primitive for the fault-tolerance layer: checkpoint
//! files carry per-tensor and whole-file checksums, and the all-reduce
//! implementations checksum every message so transient link corruption is
//! detected instead of silently averaged into the gradients. APFW1 frames,
//! APT1 tiles and the serving cache's content keys hash with it too.
//!
//! [`Crc32::update`] runs *slice-by-16*: sixteen compile-time tables,
//! derived from the byte-wise `TABLE`, fold one 16-byte block per step
//! with sixteen independent lookups instead of sixteen dependent ones; a
//! byte loop handles the tail. It is plain safe Rust, identical on every
//! architecture, and computes the same bits as [`crc32_bytewise`], the
//! byte-at-a-time reference kept as the test oracle.

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

    /// Feeds `bytes` into the checksum, 16 bytes per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &SLICES;
        let mut crc = self.state;
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
        self.state = update_bytewise(crc, blocks.remainder());
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

/// Byte-at-a-time CRC-32: the reference oracle for [`Crc32::update`]'s
/// slice-by-16 path (as `gemm_naive` is for the packed SGEMM): same
/// polynomial, same bits.
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// CRC-32 of an `f32` slice, hashing each value's little-endian bytes.
/// Four values go in per 16-byte `update`, so the slice-by-16 path runs.
pub fn crc32_f32(values: &[f32]) -> u32 {
    let mut h = Crc32::new();
    let mut quads = values.chunks_exact(4);
    for q in &mut quads {
        let mut block = [0u8; 16];
        for (dst, v) in block.chunks_exact_mut(4).zip(q) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        h.update(&block);
    }
    for v in quads.remainder() {
        h.update(&v.to_le_bytes());
    }
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
        for n in 0..=vals.len() {
            let bytes: Vec<u8> = vals[..n].iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(crc32_f32(&vals[..n]), crc32(&bytes), "{n} values");
            assert_eq!(crc32_f32(&vals[..n]), crc32_bytewise(&bytes), "{n} values");
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
