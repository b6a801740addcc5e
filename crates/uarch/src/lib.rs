//! # sdo-uarch — speculative out-of-order core with STT and SDO
//!
//! A cycle-level out-of-order pipeline (Table I of the SDO paper) that can
//! run in any of the protection configurations of Table II:
//!
//! * [`Protection::Unsafe`] — the insecure baseline (and the target of
//!   the Spectre V1 penetration test),
//! * [`Protection::Stt`] — Speculative Taint Tracking with delayed
//!   execution of tainted transmitters (`STT{ld}` / `STT{ld+fp}`),
//! * [`Protection::Sdo`] — STT + Speculative Data-Oblivious execution:
//!   Obl-Ld operations driven by a location predictor, plus the
//!   predict-normal FP DO variant.
//!
//! See [`Core`] for the pipeline and the crate-level modules for the
//! individual structures (rename/[`regfile`], [`branch`] prediction,
//! [`stats`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod config;
mod core;
pub mod regfile;
mod rob;
mod sched;
pub mod stats;

pub use crate::core::{Core, RunError, ITEXT_BASE};
pub use config::{
    AttackModel, CoreConfig, FuPool, Latencies, PredictorKind, Protection, SdoConfig,
    SecurityConfig,
};
pub use stats::{CoreStats, OblStats, SquashCounts};
// Re-exported so downstream code can configure and consume the
// observability probe, and use the shared JSON codec, without naming
// sdo-obs directly.
pub use sdo_obs::{
    json, Divergence, Event as ObsEvent, EventKind as ObsEventKind, EventTrace, Histogram, MemOp,
    Metric, MetricsSnapshot, ObsConfig, ObservableTrace, PipelineObs, QueueCaps, SquashCause,
};
