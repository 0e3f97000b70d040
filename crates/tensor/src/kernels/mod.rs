//! Low-level compute kernels behind the tensor and autograd ops.
//!
//! Kernels are pure functions over buffers/tensors, rayon-parallel where the
//! problem size warrants it, and individually unit-tested so autograd can be
//! tested independently of the numerics.
//!
//! ## Fast kernels and their references
//!
//! Each throughput-critical kernel ships in two forms: a **fast** path
//! (packed/tiled SGEMM, streaming fused attention, fused bias+GELU and
//! layernorm, im2col conv) that every call site uses, and a **naive**
//! reference that spells out the textbook loop. Only [`gemm::gemm`] still
//! picks its reference at run time, for products too small to pack. The
//! references are otherwise test oracles, called directly: the differential kernel-oracle suite
//! (`tests/kernel_oracle.rs`) proptests fast against naive over ragged
//! shapes and non-finite inputs, so a silent divergence cannot ship. To
//! rule out SIMD when bisecting, pin the scalar [`backend`] with
//! `APF_KERNEL_BACKEND=scalar`.
//!
//! Error-bound policy: fast kernels may reassociate sums (blocking changes
//! the reduction tree) and may contract multiply+add to FMA (the avx2/neon
//! [`backend`]s do), so agreement with the naive reference is asserted
//! elementwise within `REL_TOL * |a|·|b| + ABS_TOL` where `|a|·|b|` is the
//! same product computed over absolute values — a bound that scales with
//! the condition of the dot product rather than its (possibly cancelled)
//! value. Layernorm does *not* reassociate and must match bit-for-bit on
//! every backend. Bias+GELU may evaluate `tanh` through a vector `exp`:
//! with `v = x + b` it is held within `1e-6·max(1, |v|)` of libm forward
//! and `1e-5·|g|` backward, with no subnormal output and each output a
//! pure function of its own inputs (see [`fused`]).

/// Marks the calling thread so every kernel it runs stays on it, in index
/// order, instead of splitting over the `rayon` pool. Threads that are
/// themselves one of several parallel workers (serve engine workers, stitch
/// and fabric workers, simulated ranks) call it once at start, so the pool
/// does not put more runnable threads than cores behind them.
pub use rayon::mark_thread_inline;

pub mod attention;
pub mod backend;
pub mod conv;
pub mod fused;
pub mod gemm;
pub mod pool;
pub(crate) mod stats;
