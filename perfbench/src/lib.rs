//! # perfbench
//!
//! The LTRF reproduction's benchmark: cold campaigns over three workloads,
//! measured end to end with tracing off, and a separate traced replay that
//! times every layer (crate) of a point through its public API. See
//! `perfbench/README.md` for the workloads, the metrics, and which layer
//! metric should move which end-to-end metric.
//!
//! * [`campaign`] defines the workloads and runs one cold pass of each,
//!   untraced through the executor or traced through [`replay`];
//! * [`replay`] calls each layer of a point inside a [`spans`] span;
//! * [`check`] compares outputs with the committed goldens and the recorded
//!   exact fingerprints;
//! * [`stats`] holds the medians, tail percentiles and rates.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod check;
pub mod replay;
pub mod spans;
pub mod stats;
