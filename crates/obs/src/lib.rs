//! # sdo-obs — observability layer for the SDO simulator
//!
//! Three cooperating pieces and the workspace's JSON codec, all
//! dependency-free:
//!
//! * a **metrics registry** ([`MetricsSnapshot`]) — typed counters and
//!   histograms keyed by hierarchical dotted path
//!   (`core.squash.obl_fail`, `mem.l1.hits`), with a canonical merge
//!   that is deterministic regardless of how many parallel workers
//!   produced the per-run snapshots, and stable-order JSON rendering;
//! * **occupancy histograms** ([`Histogram`]) — per-cycle ROB / IQ /
//!   LQ / SQ / MSHR fill levels bucketed against structure capacity;
//! * a **structured event trace** ([`EventTrace`]) — a bounded JSONL
//!   stream of dispatch / issue / obl-probe / validate / expose /
//!   squash events that round-trips through [`EventTrace::parse_jsonl`];
//! * the workspace's one **JSON codec** ([`json`]) — the event trace,
//!   the `sdo-serve` wire protocol and the analyzer and verifier reports
//!   all render and parse through it.
//!
//! The per-core façade is [`PipelineObs`], constructed from an
//! [`ObsConfig`]. The default config is fully off, and the simulator
//! then allocates nothing and pays one `Option` check per cycle — the
//! zero-cost-when-disabled contract the harness relies on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hist;
pub mod json;
mod metrics;
mod observable;
mod probe;
mod trace;

pub use hist::{Histogram, OCCUPANCY_BUCKETS};
pub use metrics::{Metric, MetricsSnapshot};
pub use observable::{is_observable, Divergence, ObservableTrace};
pub use probe::{ObsConfig, PipelineObs, QueueCaps};
pub use trace::{Event, EventKind, EventTrace, MemOp, SquashCause};
