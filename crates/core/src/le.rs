//! `f32` ↔ little-endian bytes, one pass each way.
//!
//! Every checked byte stream in the workspace carries pixels or weights as
//! little-endian `f32`: APFW1 segment payloads, APT1 tile payloads, APF2
//! tensors, and the bytes the all-reduce and the serving cache hash.
//! [`put_f32s_le`] and [`f32s_from_le`] are the one encoder and decoder
//! they share; [`for_each_le_block`] streams a slice's bytes through a
//! small stack buffer for callers that only hash them.

/// Values per [`for_each_le_block`] block: 4 KiB of bytes on the stack.
const BLOCK_VALUES: usize = 1024;

/// Appends the little-endian bytes of `values` to `out`: one reservation,
/// then one pass over the destination, packed through a stack block.
pub fn put_f32s_le(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for_each_le_block(values, |bytes| out.extend_from_slice(bytes));
}

/// Decodes little-endian `f32`s into a pre-sized buffer. Trailing bytes
/// that do not make a whole value are ignored; callers check the length
/// where it is declared.
pub fn f32s_from_le(bytes: &[u8]) -> Vec<f32> {
    let mut out = vec![0.0f32; bytes.len() / 4];
    for (dst, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *dst = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    out
}

/// Calls `f` on the little-endian bytes of `values`, in order, a block of
/// at most 4 KiB at a time; the blocks concatenate to the bytes
/// [`put_f32s_le`] appends.
pub fn for_each_le_block(values: &[f32], mut f: impl FnMut(&[u8])) {
    let mut block = [0u8; BLOCK_VALUES * 4];
    for chunk in values.chunks(BLOCK_VALUES) {
        let bytes = &mut block[..chunk.len() * 4];
        for (dst, v) in bytes.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        f(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_value(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn encoders_match_per_value_bytes_and_round_trip() {
        let special = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, 1e-40, f32::INFINITY, f32::NAN];
        for n in [0, 1, 7, BLOCK_VALUES - 1, BLOCK_VALUES, BLOCK_VALUES + 1, 3 * BLOCK_VALUES + 5] {
            let values: Vec<f32> = (0..n).map(|i| special[i % special.len()] * i as f32).collect();
            let want = per_value(&values);
            let mut put = vec![0xAB];
            put_f32s_le(&mut put, &values);
            assert_eq!(put[0], 0xAB, "{n} values: prefix kept");
            assert_eq!(&put[1..], &want[..], "{n} values");
            let mut streamed = Vec::new();
            for_each_le_block(&values, |b| {
                assert!(!b.is_empty() && b.len() <= BLOCK_VALUES * 4);
                streamed.extend_from_slice(b);
            });
            assert_eq!(streamed, want, "{n} values");
            let back = f32s_from_le(&want);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&values), "{n} values");
        }
        assert_eq!(f32s_from_le(&[0, 0, 128, 63, 9]), vec![1.0]);
    }
}
