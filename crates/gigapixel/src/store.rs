//! `APT1` — a single-file container of fixed-size CRC-checked f32 tiles.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "APT1"
//! 4       4     version (u32, currently 1)
//! 8       8     image width in pixels (u64)
//! 16      8     image height in pixels (u64)
//! 24      4     tile side length in pixels (u32)
//! 28      4     CRC-32 of the index block (u32)
//! 32      16*n  index: per tile, row-major over the tile grid:
//!                 offset (u64), byte length (u32), payload CRC-32 (u32)
//! 32+16n  ...   tile payloads: raw f32 LE pixels, row-major within a tile
//! ```
//!
//! Edge tiles are clamped to the image bounds, so the payload of tile
//! `(tx, ty)` holds exactly `tile_dims(tx, ty)` pixels. The writer streams
//! tiles in any order into a dot-prefixed temp file and atomically renames
//! it into place from [`TileStoreWriter::finish`]; a crash can therefore
//! never leave a half-written container at the final path. The reader
//! verifies the header, the index checksum, and every tile payload CRC on
//! read, turning silent disk corruption into a typed
//! [`GigapixelError::CrcMismatch`].

use std::fs::{self, File};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use apf_core::crc32;
use apf_core::le::{f32s_from_le, put_f32s_le};

use crate::error::GigapixelError;

/// Fixed byte length of the header that precedes the index.
pub const HEADER_LEN: u64 = 32;
/// Bytes per index entry.
pub const INDEX_ENTRY_LEN: u64 = 16;
/// The container magic.
pub const MAGIC: [u8; 4] = *b"APT1";
/// Supported container version.
pub const VERSION: u32 = 1;

/// Tile grid geometry shared by the reader and writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGeometry {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Tile side length in pixels.
    pub tile_size: usize,
}

impl TileGeometry {
    /// Validates and builds a geometry.
    pub fn new(width: usize, height: usize, tile_size: usize) -> Result<Self, GigapixelError> {
        if width == 0 || height == 0 {
            return Err(GigapixelError::Header {
                field: "dimensions",
                offset: 8,
                detail: format!("image is {width} x {height}; both sides must be positive"),
            });
        }
        if tile_size == 0 {
            return Err(GigapixelError::Header {
                field: "tile_size",
                offset: 24,
                detail: "tile side must be positive".into(),
            });
        }
        Ok(TileGeometry { width, height, tile_size })
    }

    /// Tiles per row.
    pub fn tiles_x(&self) -> u32 {
        (self.width.div_ceil(self.tile_size)) as u32
    }

    /// Tiles per column.
    pub fn tiles_y(&self) -> u32 {
        (self.height.div_ceil(self.tile_size)) as u32
    }

    /// Total tile count.
    pub fn tile_count(&self) -> usize {
        self.tiles_x() as usize * self.tiles_y() as usize
    }

    /// Pixel width and height of tile `(tx, ty)` (edge tiles are clamped).
    pub fn tile_dims(&self, tx: u32, ty: u32) -> (usize, usize) {
        let w = (self.width - tx as usize * self.tile_size).min(self.tile_size);
        let h = (self.height - ty as usize * self.tile_size).min(self.tile_size);
        (w, h)
    }

    /// Flat row-major index of tile `(tx, ty)`.
    pub fn tile_index(&self, tx: u32, ty: u32) -> usize {
        ty as usize * self.tiles_x() as usize + tx as usize
    }

    /// Bounds check returning a typed error.
    pub fn check_tile(&self, tx: u32, ty: u32) -> Result<(), GigapixelError> {
        if tx >= self.tiles_x() || ty >= self.tiles_y() {
            return Err(GigapixelError::TileOutOfBounds {
                tx,
                ty,
                tiles_x: self.tiles_x(),
                tiles_y: self.tiles_y(),
            });
        }
        Ok(())
    }

    /// Byte offset of the first tile payload.
    pub fn payload_start(&self) -> u64 {
        HEADER_LEN + INDEX_ENTRY_LEN * self.tile_count() as u64
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct IndexEntry {
    offset: u64,
    byte_len: u32,
    crc: u32,
}

impl IndexEntry {
    fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.offset.to_le_bytes());
        b[8..12].copy_from_slice(&self.byte_len.to_le_bytes());
        b[12..].copy_from_slice(&self.crc.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8]) -> IndexEntry {
        IndexEntry {
            offset: u64::from_le_bytes(b[..8].try_into().unwrap()),
            byte_len: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            crc: u32::from_le_bytes(b[12..16].try_into().unwrap()),
        }
    }
}

/// Streaming writer: tiles arrive in any order, each at most once; the
/// container appears at the final path only after a successful
/// [`TileStoreWriter::finish`].
pub struct TileStoreWriter {
    geom: TileGeometry,
    file: Option<BufWriter<File>>,
    tmp_path: PathBuf,
    final_path: PathBuf,
    index: Vec<Option<IndexEntry>>,
    cursor: u64,
    finished: bool,
}

impl TileStoreWriter {
    /// Creates the temp file and reserves the header + index region.
    pub fn create(
        path: impl AsRef<Path>,
        width: usize,
        height: usize,
        tile_size: usize,
    ) -> Result<Self, GigapixelError> {
        let geom = TileGeometry::new(width, height, tile_size)?;
        let final_path = path.as_ref().to_path_buf();
        let file_name = final_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("tilestore.apt1")
            .to_string();
        let tmp_path = final_path.with_file_name(format!(".{file_name}.tmp"));
        if let Some(parent) = final_path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(GigapixelError::io("creating store directory"))?;
            }
        }
        let mut file = BufWriter::new(
            File::create(&tmp_path).map_err(GigapixelError::io("creating temp tile store"))?,
        );
        // Reserve header + index with zeros; rewritten with real contents in
        // finish(). A reader can never observe this state because the file
        // only reaches `final_path` through the atomic rename.
        let reserved = geom.payload_start() as usize;
        file.write_all(&vec![0u8; reserved])
            .map_err(GigapixelError::io("reserving tile store header"))?;
        let cursor = geom.payload_start();
        Ok(TileStoreWriter {
            index: vec![None; geom.tile_count()],
            geom,
            file: Some(file),
            tmp_path,
            final_path,
            cursor,
            finished: false,
        })
    }

    /// The grid geometry this writer was created with.
    pub fn geometry(&self) -> TileGeometry {
        self.geom
    }

    /// CRCs of the written row-major prefix of tiles (stops at the first
    /// unwritten tile). For a writer that appends strictly in row-major
    /// order — the stitcher's discipline — this is the complete durable
    /// high-water mark a checkpoint needs to validate a resumed temp file.
    pub fn written_prefix_crcs(&self) -> Vec<u32> {
        self.index.iter().map_while(|e| e.as_ref().map(|e| e.crc)).collect()
    }

    /// Appends the payload of tile `(tx, ty)`; `data` must hold exactly
    /// `tile_dims(tx, ty)` pixels, row-major.
    pub fn write_tile(&mut self, tx: u32, ty: u32, data: &[f32]) -> Result<(), GigapixelError> {
        self.geom.check_tile(tx, ty)?;
        let (tw, th) = self.geom.tile_dims(tx, ty);
        if data.len() != tw * th {
            return Err(GigapixelError::BadTileLength {
                tx,
                ty,
                expected: tw * th,
                found: data.len(),
            });
        }
        let i = self.geom.tile_index(tx, ty);
        if self.index[i].is_some() {
            return Err(GigapixelError::DuplicateTile { tx, ty });
        }
        let mut bytes = Vec::new();
        put_f32s_le(&mut bytes, data);
        let entry = IndexEntry {
            offset: self.cursor,
            byte_len: bytes.len() as u32,
            crc: crc32(&bytes),
        };
        self.file
            .as_mut()
            .expect("writer used after finish")
            .write_all(&bytes)
            .map_err(GigapixelError::io("writing tile payload"))?;
        self.cursor += bytes.len() as u64;
        self.index[i] = Some(entry);
        Ok(())
    }

    /// Pushes all buffered payload bytes through to the OS and syncs them
    /// to disk. The resumable stitcher calls this before recording a
    /// durable high-water mark in a checkpoint: a tile counted as written
    /// must survive a kill -9 of the process.
    pub fn flush_to_disk(&mut self) -> Result<(), GigapixelError> {
        let file = self.file.as_mut().expect("writer used after finish");
        file.flush().map_err(GigapixelError::io("flushing tile store"))?;
        file.get_ref()
            .sync_data()
            .map_err(GigapixelError::io("syncing tile store payloads"))?;
        Ok(())
    }

    /// Abandons the writer but — unlike [`Drop`] — leaves the temp file on
    /// disk, flushed, exactly as a hard kill would (modulo the flush, which
    /// only ever preserves *more* bytes than a kill; resume truncates past
    /// its checkpointed high-water mark anyway). Used by the crash-injection
    /// paths to simulate a kill without exiting the test process.
    pub fn suspend(mut self) -> Result<PathBuf, GigapixelError> {
        self.flush_to_disk()?;
        self.file.take();
        self.finished = true; // disarm Drop's temp-file cleanup
        Ok(self.tmp_path.clone())
    }

    /// Re-opens a previous run's temp file and verifies the first
    /// `tiles_written` row-major tiles against their checkpointed CRCs.
    ///
    /// Only valid for writers that append tiles strictly in row-major
    /// order with deterministic payload lengths (the stitcher's
    /// discipline), which makes every prefix offset derivable from the
    /// geometry alone. Bytes past the verified prefix — torn writes from
    /// the kill — are truncated away. Any CRC disagreement or a too-short
    /// file yields a typed error so the caller can fall back to a fresh
    /// start instead of stitching onto corrupt output.
    pub fn resume_partial(
        path: impl AsRef<Path>,
        width: usize,
        height: usize,
        tile_size: usize,
        crcs: &[u32],
    ) -> Result<Self, GigapixelError> {
        let geom = TileGeometry::new(width, height, tile_size)?;
        let tiles_written = crcs.len();
        if tiles_written > geom.tile_count() {
            return Err(GigapixelError::TileOutOfBounds {
                tx: 0,
                ty: (tiles_written / geom.tiles_x() as usize) as u32,
                tiles_x: geom.tiles_x(),
                tiles_y: geom.tiles_y(),
            });
        }
        let final_path = path.as_ref().to_path_buf();
        let file_name = final_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("tilestore.apt1")
            .to_string();
        let tmp_path = final_path.with_file_name(format!(".{file_name}.tmp"));
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tmp_path)
            .map_err(GigapixelError::io("reopening partial tile store"))?;
        let file_len =
            file.metadata().map_err(GigapixelError::io("statting partial tile store"))?.len();

        let tiles_x = geom.tiles_x() as usize;
        let mut index: Vec<Option<IndexEntry>> = vec![None; geom.tile_count()];
        let mut cursor = geom.payload_start();
        file.seek(SeekFrom::Start(cursor))
            .map_err(GigapixelError::io("seeking partial tile store"))?;
        for (i, &expected) in crcs.iter().enumerate() {
            let (tx, ty) = ((i % tiles_x) as u32, (i / tiles_x) as u32);
            let (tw, th) = geom.tile_dims(tx, ty);
            let byte_len = (tw * th * 4) as u64;
            if cursor + byte_len > file_len {
                return Err(GigapixelError::Header {
                    field: "payload",
                    offset: cursor,
                    detail: format!(
                        "partial store holds {file_len} bytes, checkpoint high-water mark needs {}",
                        cursor + byte_len
                    ),
                });
            }
            let mut bytes = vec![0u8; byte_len as usize];
            file.read_exact(&mut bytes)
                .map_err(GigapixelError::io("reading partial tile payload"))?;
            let found = crc32(&bytes);
            if found != expected {
                return Err(GigapixelError::CrcMismatch { tx, ty, expected, found });
            }
            index[i] = Some(IndexEntry { offset: cursor, byte_len: byte_len as u32, crc: expected });
            cursor += byte_len;
        }
        // Drop torn bytes past the verified prefix and continue appending.
        file.set_len(cursor).map_err(GigapixelError::io("truncating partial tile store"))?;
        file.seek(SeekFrom::Start(cursor))
            .map_err(GigapixelError::io("seeking partial tile store"))?;
        Ok(TileStoreWriter {
            index,
            geom,
            file: Some(BufWriter::new(file)),
            tmp_path,
            final_path,
            cursor,
            finished: false,
        })
    }

    /// Validates completeness, rewrites the header + index, syncs, and
    /// atomically renames the temp file to the final path.
    pub fn finish(mut self) -> Result<(), GigapixelError> {
        if let Some(missing_at) = self.index.iter().position(|e| e.is_none()) {
            let tiles_x = self.geom.tiles_x() as usize;
            let missing = self.index.iter().filter(|e| e.is_none()).count();
            return Err(GigapixelError::MissingTile {
                tx: (missing_at % tiles_x) as u32,
                ty: (missing_at / tiles_x) as u32,
                missing,
            });
        }
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_LEN as usize);
        for e in &self.index {
            index_bytes.extend_from_slice(&e.unwrap().to_bytes());
        }
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(self.geom.width as u64).to_le_bytes());
        header.extend_from_slice(&(self.geom.height as u64).to_le_bytes());
        header.extend_from_slice(&(self.geom.tile_size as u32).to_le_bytes());
        header.extend_from_slice(&crc32(&index_bytes).to_le_bytes());

        let mut file = self.file.take().expect("writer used after finish");
        file.flush().map_err(GigapixelError::io("flushing tile store"))?;
        let mut inner = file.into_inner().map_err(|e| GigapixelError::Io {
            context: "flushing tile store",
            source: e.into_error(),
        })?;
        inner
            .seek(SeekFrom::Start(0))
            .map_err(GigapixelError::io("seeking to tile store header"))?;
        inner
            .write_all(&header)
            .map_err(GigapixelError::io("writing tile store header"))?;
        inner
            .write_all(&index_bytes)
            .map_err(GigapixelError::io("writing tile store index"))?;
        inner.sync_all().map_err(GigapixelError::io("syncing tile store"))?;
        drop(inner);
        fs::rename(&self.tmp_path, &self.final_path)
            .map_err(GigapixelError::io("renaming tile store into place"))?;
        self.finished = true;
        Ok(())
    }
}

impl Drop for TileStoreWriter {
    fn drop(&mut self) {
        // An abandoned writer must not leave a stray temp file behind.
        if !self.finished {
            self.file.take();
            let _ = fs::remove_file(&self.tmp_path);
        }
    }
}

/// Read handle over a finished `APT1` container. Cheap to share behind an
/// `Arc`; reads serialize on an internal file lock (decoding and checksum
/// verification happen outside it in the cache layer).
pub struct TileStore {
    geom: TileGeometry,
    index: Vec<IndexEntry>,
    file: Mutex<File>,
    path: PathBuf,
}

impl std::fmt::Debug for TileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileStore")
            .field("geom", &self.geom)
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl TileStore {
    /// Opens and validates a container: magic, version, dimensions, index
    /// checksum, and per-entry payload bounds are all checked up front.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, GigapixelError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(GigapixelError::io("opening tile store"))?;
        let file_len = file
            .metadata()
            .map_err(GigapixelError::io("reading tile store metadata"))?
            .len();
        let bad = |field: &'static str, offset: u64, detail: String| GigapixelError::Header {
            field,
            offset,
            detail,
        };
        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(bad("magic", 0, format!("file is {file_len} bytes, header needs {HEADER_LEN}")));
        }
        file.read_exact(&mut header)
            .map_err(GigapixelError::io("reading tile store header"))?;
        if header[..4] != MAGIC {
            return Err(bad("magic", 0, format!("expected \"APT1\", found {:?}", &header[..4])));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad("version", 4, format!("only version {VERSION} is supported, found {version}")));
        }
        let width = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let height = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let tile_size = u32::from_le_bytes(header[24..28].try_into().unwrap());
        let index_crc = u32::from_le_bytes(header[28..32].try_into().unwrap());
        if width > usize::MAX as u64 || height > usize::MAX as u64 {
            return Err(bad("dimensions", 8, format!("{width} x {height} exceeds the address space")));
        }
        let geom = TileGeometry::new(width as usize, height as usize, tile_size as usize)?;

        let index_len = INDEX_ENTRY_LEN * geom.tile_count() as u64;
        if file_len < HEADER_LEN + index_len {
            return Err(bad(
                "index",
                HEADER_LEN,
                format!(
                    "file is {file_len} bytes, {} tiles need a {index_len}-byte index",
                    geom.tile_count()
                ),
            ));
        }
        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_exact(&mut index_bytes)
            .map_err(GigapixelError::io("reading tile store index"))?;
        let found_crc = crc32(&index_bytes);
        if found_crc != index_crc {
            return Err(bad(
                "index_crc",
                28,
                format!("index hashes to {found_crc:#010x}, header says {index_crc:#010x}"),
            ));
        }
        let mut index = Vec::with_capacity(geom.tile_count());
        for (i, chunk) in index_bytes.chunks_exact(INDEX_ENTRY_LEN as usize).enumerate() {
            let e = IndexEntry::from_bytes(chunk);
            let tx = (i % geom.tiles_x() as usize) as u32;
            let ty = (i / geom.tiles_x() as usize) as u32;
            let (tw, th) = geom.tile_dims(tx, ty);
            if e.byte_len as usize != tw * th * 4 {
                return Err(bad(
                    "index",
                    HEADER_LEN + i as u64 * INDEX_ENTRY_LEN,
                    format!(
                        "tile ({tx}, {ty}) records {} payload bytes, grid position requires {}",
                        e.byte_len,
                        tw * th * 4
                    ),
                ));
            }
            if e.offset < geom.payload_start() || e.offset + e.byte_len as u64 > file_len {
                return Err(bad(
                    "index",
                    HEADER_LEN + i as u64 * INDEX_ENTRY_LEN,
                    format!(
                        "tile ({tx}, {ty}) payload at {}..{} lies outside the {file_len}-byte file",
                        e.offset,
                        e.offset + e.byte_len as u64
                    ),
                ));
            }
            index.push(e);
        }
        Ok(TileStore { geom, index, file: Mutex::new(file), path })
    }

    /// The container's grid geometry.
    pub fn geometry(&self) -> TileGeometry {
        self.geom
    }

    /// The path the container was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the raw payload bytes of a tile (no checksum verification);
    /// the caller verifies. Split from decoding so the cache can hold the file
    /// lock only for the read itself.
    pub fn read_tile_bytes(&self, tx: u32, ty: u32) -> Result<Vec<u8>, GigapixelError> {
        self.geom.check_tile(tx, ty)?;
        let e = self.index[self.geom.tile_index(tx, ty)];
        let mut bytes = vec![0u8; e.byte_len as usize];
        {
            let mut f = self.file.lock().expect("tile store lock poisoned");
            f.seek(SeekFrom::Start(e.offset))
                .map_err(GigapixelError::io("seeking to tile payload"))?;
            f.read_exact(&mut bytes)
                .map_err(GigapixelError::io("reading tile payload"))?;
        }
        Ok(bytes)
    }

    /// Reads, checksum-verifies, and decodes one tile.
    pub fn read_tile(&self, tx: u32, ty: u32) -> Result<Vec<f32>, GigapixelError> {
        let bytes = self.read_tile_bytes(tx, ty)?;
        self.verify_and_decode(tx, ty, &bytes)
    }

    /// Verifies a payload against the index CRC and decodes it to pixels.
    pub fn verify_and_decode(
        &self,
        tx: u32,
        ty: u32,
        bytes: &[u8],
    ) -> Result<Vec<f32>, GigapixelError> {
        let expected = self.index[self.geom.tile_index(tx, ty)].crc;
        let found = crc32(bytes);
        if found != expected {
            return Err(GigapixelError::CrcMismatch { tx, ty, expected, found });
        }
        Ok(f32s_from_le(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("apf_gigapixel_store_test");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn tile_fill(tw: usize, th: usize, tx: u32, ty: u32) -> Vec<f32> {
        (0..tw * th)
            .map(|i| (tx as f32 * 1000.0 + ty as f32 * 100.0 + i as f32) / 7.0)
            .collect()
    }

    fn write_store(path: &Path, w: usize, h: usize, ts: usize) {
        let mut wtr = TileStoreWriter::create(path, w, h, ts).unwrap();
        let g = wtr.geometry();
        // Write in deliberately scrambled order: the index records offsets.
        let mut coords: Vec<(u32, u32)> = (0..g.tiles_y())
            .flat_map(|ty| (0..g.tiles_x()).map(move |tx| (tx, ty)))
            .collect();
        coords.reverse();
        for (tx, ty) in coords {
            let (tw, th) = g.tile_dims(tx, ty);
            wtr.write_tile(tx, ty, &tile_fill(tw, th, tx, ty)).unwrap();
        }
        wtr.finish().unwrap();
    }

    #[test]
    fn round_trip_any_write_order() {
        let path = tmp("rt.apt1");
        write_store(&path, 100, 70, 32);
        let store = TileStore::open(&path).unwrap();
        let g = store.geometry();
        assert_eq!((g.width, g.height, g.tile_size), (100, 70, 32));
        assert_eq!((g.tiles_x(), g.tiles_y()), (4, 3));
        for ty in 0..g.tiles_y() {
            for tx in 0..g.tiles_x() {
                let (tw, th) = g.tile_dims(tx, ty);
                assert_eq!(store.read_tile(tx, ty).unwrap(), tile_fill(tw, th, tx, ty));
            }
        }
        // Edge tiles are clamped.
        assert_eq!(g.tile_dims(3, 2), (4, 6));
    }

    #[test]
    fn finish_is_atomic_and_drop_cleans_temp() {
        let path = tmp("atomic.apt1");
        let _ = fs::remove_file(&path);
        {
            let mut w = TileStoreWriter::create(&path, 8, 8, 8).unwrap();
            w.write_tile(0, 0, &vec![0.5; 64]).unwrap();
            // Abandoned without finish: no final file, no temp file.
        }
        assert!(!path.exists());
        assert!(!tmp(".atomic.apt1.tmp").exists());
        write_store(&path, 8, 8, 8);
        assert!(path.exists());
        assert!(!tmp(".atomic.apt1.tmp").exists());
    }

    #[test]
    fn missing_and_duplicate_tiles_are_typed_errors() {
        let path = tmp("missing.apt1");
        let mut w = TileStoreWriter::create(&path, 64, 64, 32).unwrap();
        w.write_tile(1, 0, &vec![1.0; 1024]).unwrap();
        assert!(matches!(
            w.write_tile(1, 0, &vec![1.0; 1024]),
            Err(GigapixelError::DuplicateTile { tx: 1, ty: 0 })
        ));
        assert!(matches!(
            w.write_tile(0, 0, &[1.0; 3]),
            Err(GigapixelError::BadTileLength { expected: 1024, found: 3, .. })
        ));
        assert!(matches!(
            w.write_tile(7, 0, &vec![1.0; 1024]),
            Err(GigapixelError::TileOutOfBounds { tx: 7, .. })
        ));
        match w.finish() {
            Err(GigapixelError::MissingTile { tx: 0, ty: 0, missing: 3 }) => {}
            other => panic!("expected MissingTile, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_tile_payload_is_detected_by_crc() {
        let path = tmp("corrupt.apt1");
        write_store(&path, 64, 64, 32);
        // Flip one bit in the payload region (past header + 4-entry index).
        let mut bytes = fs::read(&path).unwrap();
        let payload_start = (HEADER_LEN + 4 * INDEX_ENTRY_LEN) as usize;
        bytes[payload_start + 100] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let store = TileStore::open(&path).unwrap();
        let failures: Vec<bool> = (0..2)
            .flat_map(|ty| (0..2).map(move |tx| (tx, ty)))
            .map(|(tx, ty)| store.read_tile(tx, ty).is_err())
            .collect();
        assert_eq!(failures.iter().filter(|&&f| f).count(), 1, "exactly one tile corrupted");
        // And the error is the typed CRC mismatch.
        let (btx, bty) = (0..4)
            .map(|i| (i % 2, i / 2))
            .find(|&(tx, ty)| store.read_tile(tx, ty).is_err())
            .unwrap();
        assert!(matches!(
            store.read_tile(btx, bty),
            Err(GigapixelError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_header_fields_name_field_and_offset() {
        let path = tmp("hdr.apt1");
        write_store(&path, 64, 64, 32);
        let good = fs::read(&path).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        match TileStore::open(&path) {
            Err(GigapixelError::Header { field: "magic", offset: 0, .. }) => {}
            other => panic!("expected magic error, got {other:?}"),
        }

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        fs::write(&path, &bad_version).unwrap();
        match TileStore::open(&path) {
            Err(GigapixelError::Header { field: "version", offset: 4, .. }) => {}
            other => panic!("expected version error, got {other:?}"),
        }

        let mut bad_index = good.clone();
        bad_index[HEADER_LEN as usize + 3] ^= 0xFF;
        fs::write(&path, &bad_index).unwrap();
        match TileStore::open(&path) {
            Err(GigapixelError::Header { field: "index_crc", offset: 28, .. }) => {}
            other => panic!("expected index_crc error, got {other:?}"),
        }

        let truncated = &good[..40];
        fs::write(&path, truncated).unwrap();
        match TileStore::open(&path) {
            Err(GigapixelError::Header { field: "index", .. }) => {}
            other => panic!("expected index error, got {other:?}"),
        }

        let mut zero_dims = good.clone();
        zero_dims[8..16].copy_from_slice(&0u64.to_le_bytes());
        fs::write(&path, &zero_dims).unwrap();
        match TileStore::open(&path) {
            Err(GigapixelError::Header { field: "dimensions", offset: 8, .. }) => {}
            other => panic!("expected dimensions error, got {other:?}"),
        }

        fs::write(&path, &good).unwrap();
        assert!(TileStore::open(&path).is_ok());
    }
}
