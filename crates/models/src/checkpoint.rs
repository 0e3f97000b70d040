//! Model checkpointing: crash-safe, integrity-checked binary serialization
//! of a [`ParamSet`] plus optional training state.
//!
//! The on-disk format is **APF2** (little-endian):
//!
//! ```text
//! magic "APF2" | u32 param count
//! per param:   u16 name len | name | u8 rank | u64 dims... | u32 data crc | f32 data...
//! u32 aux count     | per aux tensor: same record as a param
//! u32 counter count | per counter: u16 name len | name | u64 value
//! u32 scalar count  | per scalar:  u16 name len | name | f32 value
//! u32 trailer crc   (CRC-32 of every preceding byte)
//! ```
//!
//! Every tensor carries a CRC-32 of its payload and the file ends with a
//! trailer CRC over everything, so flipping any byte of a saved checkpoint
//! is detected at load time — corrupted checkpoints are never restored.
//! [`save`] writes atomically (temp file in the same directory, then
//! rename), so a crash mid-write can never destroy the previous good
//! checkpoint.
//!
//! Loading verifies names, shapes, and ordering against the target model's
//! parameter set, so a checkpoint can only be restored into the
//! architecture that produced it.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use apf_core::crc32::{crc32, crc32_f32};
use apf_core::le::{f32s_from_le, put_f32s_le};
use apf_tensor::tensor::Tensor;

use crate::params::ParamSet;

const MAGIC: &[u8; 4] = b"APF2";

/// Largest accepted parameter-name length, in bytes.
const MAX_NAME_LEN: usize = 4096;
/// Largest accepted tensor rank.
const MAX_RANK: usize = 8;

/// Why a checkpoint could not be loaded. Every variant names the offending
/// record so corruption reports are actionable.
#[derive(Debug)]
pub enum CheckpointError {
    /// The buffer ended before a record was complete.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the record needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The first four bytes are not `APF2`.
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// A length field exceeds its sanity bound (oversized name, rank, or a
    /// dims product that overflows).
    Oversized {
        /// Which field overflowed.
        field: &'static str,
        /// The stored value.
        value: u64,
        /// The accepted maximum.
        limit: u64,
    },
    /// Checkpoint and model disagree on the number of parameters.
    CountMismatch {
        /// Parameter count in the checkpoint.
        checkpoint: usize,
        /// Parameter count in the model.
        model: usize,
    },
    /// Checkpoint and model disagree on a parameter's name.
    NameMismatch {
        /// Name stored in the checkpoint.
        checkpoint: String,
        /// Name expected by the model.
        model: String,
    },
    /// Checkpoint and model disagree on a parameter's shape.
    ShapeMismatch {
        /// The parameter.
        name: String,
        /// Shape stored in the checkpoint.
        checkpoint: Vec<usize>,
        /// Shape expected by the model.
        model: Vec<usize>,
    },
    /// A stored name is not valid UTF-8.
    NonUtf8Name {
        /// Byte offset of the name record.
        offset: usize,
    },
    /// A tensor payload does not match its stored CRC-32.
    CrcMismatch {
        /// The tensor whose data is corrupt.
        name: String,
        /// CRC stored in the file.
        stored: u32,
        /// CRC of the bytes actually read.
        computed: u32,
    },
    /// The whole-file trailer CRC-32 does not match.
    TrailerMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC of the bytes actually read.
        computed: u32,
    },
    /// Bytes remain after the final record.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// Filesystem failure while reading or writing.
    Io(io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { offset, needed, available } => write!(
                f,
                "truncated checkpoint: needed {} bytes at offset {}, only {} remain",
                needed, offset, available
            ),
            CheckpointError::BadMagic { found } => {
                write!(f, "not an APF checkpoint (bad magic {:?})", found)
            }
            CheckpointError::Oversized { field, value, limit } => write!(
                f,
                "oversized checkpoint field {}: {} exceeds limit {}",
                field, value, limit
            ),
            CheckpointError::CountMismatch { checkpoint, model } => write!(
                f,
                "checkpoint has {} params, model has {}",
                checkpoint, model
            ),
            CheckpointError::NameMismatch { checkpoint, model } => write!(
                f,
                "param name mismatch: checkpoint '{}' vs model '{}'",
                checkpoint, model
            ),
            CheckpointError::ShapeMismatch { name, checkpoint, model } => write!(
                f,
                "shape mismatch for '{}': checkpoint {:?} vs model {:?}",
                name, checkpoint, model
            ),
            CheckpointError::NonUtf8Name { offset } => {
                write!(f, "non-utf8 param name at offset {}", offset)
            }
            CheckpointError::CrcMismatch { name, stored, computed } => write!(
                f,
                "data corruption in '{}': stored crc {:08x}, computed {:08x}",
                name, stored, computed
            ),
            CheckpointError::TrailerMismatch { stored, computed } => write!(
                f,
                "checkpoint trailer corruption: stored crc {:08x}, computed {:08x}",
                stored, computed
            ),
            CheckpointError::TrailingBytes { extra } => {
                write!(f, "{} trailing bytes after checkpoint", extra)
            }
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {}", e),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CheckpointError> for io::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Training state carried alongside the model weights in an APF2
/// checkpoint: optimizer moments as named aux tensors, plus named integer
/// counters (step, epoch) and float scalars (learning-rate scale).
#[derive(Debug, Clone, Default)]
pub struct TrainState {
    /// Named auxiliary tensors (e.g. `opt.m.3` for an AdamW first moment).
    pub aux: Vec<(String, Tensor)>,
    /// Named integer counters (e.g. `opt.step`, `epoch`).
    pub counters: Vec<(String, u64)>,
    /// Named float scalars (e.g. `opt.lr_scale`).
    pub scalars: Vec<(String, f32)>,
}

impl TrainState {
    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.aux.is_empty() && self.counters.is_empty() && self.scalars.is_empty()
    }

    /// Looks up an aux tensor by name.
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        self.aux.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a scalar by name.
    pub fn scalar(&self, name: &str) -> Option<f32> {
        self.scalars.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    assert!(bytes.len() <= MAX_NAME_LEN, "name too long: {}", name);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_tensor_record(out: &mut Vec<u8>, name: &str, tensor: &Tensor) {
    put_name(out, name);
    let dims = tensor.dims();
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&crc32_f32(tensor.data()).to_le_bytes());
    put_f32s_le(out, tensor.data());
}

/// Serializes a parameter set into the current (APF2) byte format, with no
/// training state.
pub fn to_bytes(params: &ParamSet) -> Vec<u8> {
    to_bytes_with_state(params, &TrainState::default())
}

/// Serializes a parameter set plus training state into APF2 bytes.
pub fn to_bytes_with_state(params: &ParamSet, state: &TrainState) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + params.num_scalars() * 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for (_, name, tensor) in params.iter() {
        put_tensor_record(&mut out, name, tensor);
    }
    out.extend_from_slice(&(state.aux.len() as u32).to_le_bytes());
    for (name, tensor) in &state.aux {
        put_tensor_record(&mut out, name, tensor);
    }
    out.extend_from_slice(&(state.counters.len() as u32).to_le_bytes());
    for (name, value) in &state.counters {
        put_name(&mut out, name);
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&(state.scalars.len() as u32).to_le_bytes());
    for (name, value) in &state.scalars {
        put_name(&mut out, name);
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

/// Bounds-checked reader over a checkpoint buffer.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn name(&mut self) -> Result<String, CheckpointError> {
        let len = self.u16()? as usize;
        if len > MAX_NAME_LEN {
            return Err(CheckpointError::Oversized {
                field: "name length",
                value: len as u64,
                limit: MAX_NAME_LEN as u64,
            });
        }
        let offset = self.pos;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| CheckpointError::NonUtf8Name { offset })
    }

    /// Reads `rank | dims | crc | data`, verifying the payload CRC.
    fn tensor_body(&mut self, name: &str) -> Result<(Vec<usize>, Vec<f32>), CheckpointError> {
        let rank = self.u8()? as usize;
        if rank > MAX_RANK {
            return Err(CheckpointError::Oversized {
                field: "tensor rank",
                value: rank as u64,
                limit: MAX_RANK as u64,
            });
        }
        let mut dims = Vec::with_capacity(rank);
        let mut numel: usize = 1;
        for _ in 0..rank {
            let d = self.u64()?;
            let d = usize::try_from(d).map_err(|_| CheckpointError::Oversized {
                field: "tensor dim",
                value: d,
                limit: usize::MAX as u64,
            })?;
            numel = numel.checked_mul(d).ok_or(CheckpointError::Oversized {
                field: "tensor element count",
                value: u64::MAX,
                limit: usize::MAX as u64,
            })?;
            dims.push(d);
        }
        let stored_crc = self.u32()?;
        let byte_len = numel.checked_mul(4).ok_or(CheckpointError::Oversized {
            field: "tensor byte length",
            value: numel as u64,
            limit: (usize::MAX / 4) as u64,
        })?;
        let raw = self.take(byte_len)?;
        let computed = crc32(raw);
        if computed != stored_crc {
            return Err(CheckpointError::CrcMismatch {
                name: name.to_string(),
                stored: stored_crc,
                computed,
            });
        }
        Ok((dims, f32s_from_le(raw)))
    }
}

/// Restores a parameter tensor after validating its name and shape against
/// the model's expectations.
fn restore_param(
    params: &mut ParamSet,
    id: crate::params::ParamId,
    name: String,
    dims: Vec<usize>,
    data: Vec<f32>,
) -> Result<(), CheckpointError> {
    if name != params.name(id) {
        return Err(CheckpointError::NameMismatch {
            checkpoint: name,
            model: params.name(id).to_string(),
        });
    }
    let expect_dims = params.get(id).dims().to_vec();
    if dims != expect_dims {
        return Err(CheckpointError::ShapeMismatch {
            name,
            checkpoint: dims,
            model: expect_dims,
        });
    }
    *params.get_mut(id) = Tensor::new(dims, data);
    Ok(())
}

/// Restores parameter values from a byte buffer into `params`, discarding
/// any stored training state.
///
/// # Errors
/// Returns a [`CheckpointError`] naming the defect if the buffer is
/// malformed, corrupt, or does not match the parameter set.
pub fn from_bytes(params: &mut ParamSet, bytes: &[u8]) -> Result<(), CheckpointError> {
    from_bytes_with_state(params, bytes).map(|_| ())
}

/// Restores parameter values and training state from a byte buffer.
///
/// # Errors
/// Returns a [`CheckpointError`] naming the defect if the buffer is
/// malformed, corrupt, or does not match the parameter set.
pub fn from_bytes_with_state(
    params: &mut ParamSet,
    bytes: &[u8],
) -> Result<TrainState, CheckpointError> {
    let mut cur = Cursor::new(bytes);
    let magic: [u8; 4] = cur.take(4)?.try_into().unwrap();
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic { found: magic });
    }
    // Verify the trailer first: any single corrupted byte anywhere in the
    // file fails here even if it would also parse "successfully".
    if bytes.len() < 8 {
        return Err(CheckpointError::Truncated {
            offset: bytes.len(),
            needed: 8,
            available: bytes.len(),
        });
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    let computed = crc32(body);
    if stored != computed {
        return Err(CheckpointError::TrailerMismatch { stored, computed });
    }

    let count = cur.u32()? as usize;
    if count != params.len() {
        return Err(CheckpointError::CountMismatch { checkpoint: count, model: params.len() });
    }
    let ids: Vec<_> = params.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let name = cur.name()?;
        let (dims, data) = cur.tensor_body(&name)?;
        restore_param(params, id, name, dims, data)?;
    }

    let mut state = TrainState::default();
    let aux_count = cur.u32()? as usize;
    for _ in 0..aux_count {
        let name = cur.name()?;
        let (dims, data) = cur.tensor_body(&name)?;
        state.aux.push((name, Tensor::new(dims, data)));
    }
    let counter_count = cur.u32()? as usize;
    for _ in 0..counter_count {
        let name = cur.name()?;
        let value = cur.u64()?;
        state.counters.push((name, value));
    }
    let scalar_count = cur.u32()? as usize;
    for _ in 0..scalar_count {
        let name = cur.name()?;
        let value = cur.f32()?;
        state.scalars.push((name, value));
    }
    // Only the 4-byte trailer may remain.
    if cur.remaining() != 4 {
        if cur.remaining() < 4 {
            return Err(CheckpointError::Truncated {
                offset: cur.pos,
                needed: 4,
                available: cur.remaining(),
            });
        }
        return Err(CheckpointError::TrailingBytes { extra: cur.remaining() - 4 });
    }
    Ok(state)
}

/// Writes `bytes` to `path` atomically: the data lands in a temporary file
/// in the same directory, is flushed to disk, and is then renamed over the
/// destination. A crash at any point leaves either the old file or the new
/// one, never a torn mix.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp_path, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

/// Saves a parameter set to a file (APF2, atomic write).
pub fn save(params: &ParamSet, path: impl AsRef<Path>) -> io::Result<()> {
    atomic_write(path.as_ref(), &to_bytes(params))
}

/// Saves a parameter set plus training state to a file (APF2, atomic write).
pub fn save_with_state(
    params: &ParamSet,
    state: &TrainState,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    atomic_write(path.as_ref(), &to_bytes_with_state(params, state))
}

/// Loads a parameter set from a file (names/shapes must match).
pub fn load(params: &mut ParamSet, path: impl AsRef<Path>) -> io::Result<()> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    from_bytes(params, &bytes).map_err(io::Error::from)
}

/// Loads a parameter set and its training state from a file.
pub fn load_with_state(
    params: &mut ParamSet,
    path: impl AsRef<Path>,
) -> Result<TrainState, CheckpointError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path.as_ref())
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(CheckpointError::Io)?;
    from_bytes_with_state(params, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rearrange::GridOrder;
    use crate::unetr::{Unetr2d, UnetrConfig};
    use apf_tensor::prelude::*;

    #[test]
    fn round_trip_preserves_all_values() {
        let model = Unetr2d::new(UnetrConfig::tiny(4, 2, GridOrder::Morton), 3);
        let bytes = to_bytes(&model.params);
        let mut fresh = Unetr2d::new(UnetrConfig::tiny(4, 2, GridOrder::Morton), 99);
        // Different seed => different weights before loading.
        let differs = model
            .params
            .iter()
            .zip(fresh.params.iter())
            .any(|((_, _, a), (_, _, b))| a.to_vec() != b.to_vec());
        assert!(differs);
        from_bytes(&mut fresh.params, &bytes).unwrap();
        for ((_, n, a), (_, _, b)) in model.params.iter().zip(fresh.params.iter()) {
            assert_eq!(a.to_vec(), b.to_vec(), "param {}", n);
        }
    }

    #[test]
    fn restored_model_computes_identically() {
        let model = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::RowMajor), 5);
        let x = Tensor::rand_uniform([1, 4, 4], -1.0, 1.0, 6);
        let run = |m: &Unetr2d| {
            let mut g = Graph::new();
            let bp = m.params.bind(&mut g);
            let xv = g.constant(x.clone());
            let y = m.forward(&mut g, &bp, xv, false);
            g.value(y).to_vec()
        };
        let expect = run(&model);
        let bytes = to_bytes(&model.params);
        let mut fresh = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::RowMajor), 77);
        from_bytes(&mut fresh.params, &bytes).unwrap();
        assert_eq!(run(&fresh), expect);
    }

    #[test]
    fn wrong_architecture_is_rejected() {
        let a = Unetr2d::new(UnetrConfig::tiny(4, 2, GridOrder::Morton), 1);
        let bytes = to_bytes(&a.params);
        // Different grid side => different positional-table shape.
        let mut b = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 1);
        let err = from_bytes(&mut b.params, &bytes).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("mismatch") || msg.contains("params"),
            "unexpected error: {}",
            msg
        );
    }

    #[test]
    fn corrupted_data_is_rejected() {
        let model = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 1);
        let mut bytes = to_bytes(&model.params);
        bytes.truncate(bytes.len() / 2);
        let mut fresh = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 1);
        assert!(from_bytes(&mut fresh.params, &bytes).is_err());
        assert!(from_bytes(&mut fresh.params, b"NOPE").is_err());
    }

    /// Appends a valid trailer CRC to `body`, so the loader gets past the
    /// trailer check and its record parser meets whatever `body` holds.
    fn seal(body: &[u8]) -> Vec<u8> {
        let mut bytes = body.to_vec();
        bytes.extend_from_slice(&crc32(body).to_le_bytes());
        bytes
    }

    #[test]
    fn truncation_error_names_offset_and_need() {
        let model = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 1);
        let bytes = to_bytes(&model.params);
        let cut = bytes.len() / 3;
        let mut fresh = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 1);
        match from_bytes(&mut fresh.params, &seal(&bytes[..cut])) {
            Err(CheckpointError::Truncated { offset, needed, available }) => {
                assert!(offset <= cut);
                assert!(needed > available);
            }
            other => panic!("expected Truncated, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn oversized_dims_are_rejected_without_panic() {
        // Hand-craft an APF2 record whose dims product overflows usize.
        let mut ps = ParamSet::new();
        ps.add("w", Tensor::zeros([2, 2]));
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(b"w");
        body.push(2); // rank 2
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = from_bytes(&mut ps, &seal(&body)).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Oversized { .. }),
            "expected Oversized, got {}",
            err
        );
    }

    #[test]
    fn train_state_round_trips() {
        let model = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 4);
        let state = TrainState {
            aux: vec![
                ("opt.m.0".to_string(), Tensor::rand_uniform([3, 2], -1.0, 1.0, 1)),
                ("opt.v.0".to_string(), Tensor::rand_uniform([3, 2], 0.0, 1.0, 2)),
            ],
            counters: vec![("opt.step".to_string(), 41), ("epoch".to_string(), 7)],
            scalars: vec![("opt.lr_scale".to_string(), 0.25)],
        };
        let bytes = to_bytes_with_state(&model.params, &state);
        let mut fresh = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 5);
        let restored = from_bytes_with_state(&mut fresh.params, &bytes).unwrap();
        assert_eq!(restored.counters, state.counters);
        assert_eq!(restored.scalars, state.scalars);
        assert_eq!(restored.aux.len(), state.aux.len());
        assert_eq!(restored.counter("opt.step"), Some(41));
        assert_eq!(restored.scalar("opt.lr_scale"), Some(0.25));
        assert_eq!(
            restored.tensor("opt.m.0").unwrap().to_vec(),
            state.aux[0].1.to_vec()
        );
    }

    #[test]
    fn every_corrupted_byte_position_is_detected() {
        // The acceptance bar for crash safety: flip a bit at EVERY byte
        // position of a saved checkpoint and the loader must refuse it.
        let mut ps = ParamSet::new();
        ps.add("a", Tensor::rand_uniform([3, 3], -1.0, 1.0, 11));
        ps.add("b", Tensor::rand_uniform([5], 0.0, 1.0, 12));
        let state = TrainState {
            aux: vec![("opt.m.0".to_string(), Tensor::rand_uniform([3, 3], -1.0, 1.0, 13))],
            counters: vec![("opt.step".to_string(), 3)],
            scalars: vec![("opt.lr_scale".to_string(), 1.0)],
        };
        let bytes = to_bytes_with_state(&ps, &state);
        let mut target = ps.clone();
        for pos in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x40;
            assert!(
                from_bytes_with_state(&mut target, &corrupted).is_err(),
                "corruption at byte {} of {} went undetected",
                pos,
                bytes.len()
            );
        }
        // The pristine buffer still loads.
        from_bytes_with_state(&mut target, &bytes).unwrap();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("apf_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.apf");
        let model = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 9);
        save(&model.params, &path).unwrap();
        let mut fresh = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 10);
        load(&mut fresh.params, &path).unwrap();
        for ((_, n, a), (_, _, b)) in model.params.iter().zip(fresh.params.iter()) {
            assert_eq!(a.to_vec(), b.to_vec(), "param {}", n);
        }
    }

    #[test]
    fn atomic_save_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("apf_ckpt_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.apf");
        let model = Unetr2d::new(UnetrConfig::tiny(2, 2, GridOrder::Morton), 9);
        save(&model.params, &path).unwrap();
        // Overwrite: the previous good file must be replaced, not torn.
        save(&model.params, &path).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec!["model.apf".to_string()], "stray files: {:?}", entries);
    }
}
