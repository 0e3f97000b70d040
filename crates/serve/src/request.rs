//! Request/response types of the serving engine.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use apf_imaging::GrayImage;

use crate::degrade::Tier;

/// One segmentation request.
#[derive(Debug)]
pub struct SegRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// The image to segment.
    pub image: GrayImage,
    /// Latency budget from submission; `None` uses the engine default.
    pub deadline_ms: Option<u64>,
}

/// One whole-slide segmentation request. The slide never enters the request:
/// it stays on disk in an `APT1` tiled container and is segmented
/// window-by-window by the out-of-core stitcher, which writes the blended
/// logit map to another container at `output_path`.
#[derive(Debug, Clone)]
pub struct SlideRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Path of the input `APT1` slide container.
    pub slide_path: PathBuf,
    /// Where the stitched logit container is written (atomically).
    pub output_path: PathBuf,
    /// Sliding-window side in pixels (power of two).
    pub window: usize,
    /// Blend-ramp halo in pixels; windows overlap by `2 * halo`.
    pub halo: usize,
    /// Tile-cache byte budget for reading the slide.
    pub cache_budget_bytes: usize,
    /// Latency budget from submission; `None` uses the engine default.
    pub deadline_ms: Option<u64>,
    /// Stitch workers for the distributed drive. `1` keeps the serial
    /// in-worker stitcher; `2..=32` shards windows over the distsim
    /// work-stealing fabric.
    pub stitch_workers: usize,
    /// Where stitch progress is checkpointed (APF2, rotated). `None`
    /// disables checkpointing; a killed or cancelled request then restarts
    /// from scratch.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from `checkpoint_path` if a valid checkpoint (or its `.prev`
    /// rotation) is present; silently starts fresh when neither decodes.
    pub resume: bool,
}

impl SlideRequest {
    /// A serial, non-resumable request — the pre-distributed behaviour.
    /// Callers opt in to sharding and crash-safety per request.
    pub fn serial(
        id: u64,
        slide_path: PathBuf,
        output_path: PathBuf,
        window: usize,
        halo: usize,
        cache_budget_bytes: usize,
        deadline_ms: Option<u64>,
    ) -> Self {
        SlideRequest {
            id,
            slide_path,
            output_path,
            window,
            halo,
            cache_budget_bytes,
            deadline_ms,
            stitch_workers: 1,
            checkpoint_path: None,
            resume: false,
        }
    }
}

/// Where a deadline was detected as blown. An image request meets only
/// `Queued` and `Inference`: a worker gathers its batch from what is already
/// queued, so no stage lies between the two. Slides add `Stitching`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// Expired while still queued, found when a worker popped it as a seed
    /// or while gathering a batch; it was never forwarded, and no inference
    /// work was spent on it.
    Queued,
    /// Expired mid-forward-pass; the encoder abandoned the stack
    /// cooperatively after this many completed blocks.
    Inference {
        /// Encoder blocks that ran before cancellation.
        completed_blocks: usize,
    },
    /// Expired between sliding windows of a whole-slide request; the
    /// stitcher abandoned the drive and removed its partial output.
    Stitching {
        /// Windows fully inferred and blended before cancellation.
        windows_done: usize,
        /// Windows the full drive would have run.
        windows_total: usize,
    },
}

/// Why a worker failed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The worker panicked; the engine's unwind barrier contained it.
    Panicked,
    /// The model produced NaN/Inf logits.
    NonFiniteOutput,
}

/// Terminal outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Inference finished inside the deadline.
    Completed {
        /// Tokens actually run through the encoder (the served budget).
        tokens: usize,
        /// Fraction of pixels predicted positive (quick mask summary).
        positive_fraction: f32,
    },
    /// Admission control refused the request (queue full or shutting
    /// down); retry after the hinted delay.
    Rejected {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The image failed validation; `reason` is the typed error rendered.
    InvalidInput {
        /// Human-readable rejection cause.
        reason: String,
    },
    /// The deadline expired before a result was produced.
    DeadlineExceeded {
        /// Where the expiry was detected.
        stage: DeadlineStage,
    },
    /// Whole-slide stitched inference finished inside the deadline; the
    /// blended logit container is at the request's `output_path`.
    SlideCompleted {
        /// Sliding windows inferred and blended.
        windows: usize,
        /// Tokens pushed through the model across all windows.
        tokens: usize,
        /// Fraction of slide pixels with positive blended logit.
        positive_fraction: f64,
    },
    /// The assigned worker failed; the breaker heard about it.
    WorkerFailure {
        /// What went wrong.
        reason: FailureReason,
    },
}

impl Outcome {
    /// Stable lowercase label for logs and JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed { .. } => "completed",
            Outcome::Rejected { .. } => "rejected",
            Outcome::InvalidInput { .. } => "invalid_input",
            Outcome::DeadlineExceeded { .. } => "deadline_exceeded",
            Outcome::SlideCompleted { .. } => "slide_completed",
            Outcome::WorkerFailure { .. } => "worker_failure",
        }
    }
}

/// The engine's reply. Every response — including rejections — is labelled
/// with the degradation [`Tier`] in effect when the request was admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct SegResponse {
    /// Echoed request id.
    pub id: u64,
    /// Degradation tier assigned at admission.
    pub tier: Tier,
    /// Queue depth observed at admission (drives the tier).
    pub depth_at_admission: usize,
    /// What happened.
    pub outcome: Outcome,
    /// Worker that handled the request, if one did.
    pub worker: Option<usize>,
    /// Submission-to-response latency in milliseconds.
    pub latency_ms: f64,
}

/// Handle to a pending response.
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<SegResponse>,
}

impl Ticket {
    /// Blocks until the response arrives. Returns `None` only if the
    /// engine dropped the request without responding (a bug — every code
    /// path responds).
    pub fn wait(self) -> Option<SegResponse> {
        self.rx.recv().ok()
    }

    /// Blocks up to `timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<SegResponse> {
        self.rx.recv_timeout(timeout).ok()
    }
}
