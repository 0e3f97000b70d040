//! Out-of-core gigapixel pipeline: tiled on-disk images, streaming quadtree
//! construction, and stitched whole-slide inference.
//!
//! The paper targets slides up to 65536² pixels — 16 GiB of f32 luminance —
//! which cannot be materialized on most machines. This crate keeps the slide
//! on disk in a checksummed tiled container (`APT1`) and reproduces the APF
//! pipeline over it with bounded memory:
//!
//! - [`store`]: the `APT1` container — fixed-size CRC32-checked tiles behind
//!   a header index, written atomically (temp file + rename).
//! - [`generate`]: streams the procedural PAIP synthesizer into a container
//!   tile-by-tile, bit-identical to a dense render.
//! - [`cache`]: a byte-bounded LRU tile cache with Morton-order prefetch and
//!   `apf_gigapixel_*` hit/miss/eviction/residency telemetry.
//! - [`stream_tree`]: builds the adaptive quadtree from tile statistics in
//!   one streaming pass, bit-identical to the in-memory
//!   [`apf_core::QuadTree`] builder on images that fit.
//! - [`infer`]: sliding-window whole-slide inference with halo overlap and
//!   weighted-blend stitching into a tiled output logit store.
//! - [`dist`]: the distributed drive — sliding windows sharded over the
//!   distsim work-stealing fabric, merged in deterministic order, with
//!   APF2 stitch checkpoints for bit-identical crash-safe resume.
//! - [`residency`]: shared accounting of transient bytes, mirrored to
//!   telemetry gauges, so benches can assert a hard memory budget.

pub mod cache;
pub mod dist;
pub mod error;
pub mod generate;
pub mod infer;
pub mod residency;
pub mod store;
pub mod stream_tree;

pub use cache::{TileCache, MAX_TILE_READ_ATTEMPTS};
pub use dist::{
    load_stitch_checkpoint, DistStitchOptions, DistStitchReport, StitchCheckpointInfo,
};
pub use error::GigapixelError;
pub use generate::{stream_paip_slide, write_tiled};
pub use infer::{SlideSegmenter, StitchConfig, StitchReport};
pub use residency::{Residency, ResidencyCharge};
pub use store::{TileGeometry, TileStore, TileStoreWriter};
pub use stream_tree::{build_streaming_quadtree, extract_patches_streaming};
