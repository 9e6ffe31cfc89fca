//! `wirebench`: the repository benchmark, built from outside the
//! program.
//!
//! * A closed-loop load generator drives `fedex serve` over NDJSON with
//!   one of three analyst workloads ([`workload`]), checks every answer
//!   against an in-process run ([`gate`]), and reports the end-to-end
//!   metrics ([`run`]).
//! * A traced run ([`trace`]) replays the same requests through the
//!   public functions of each layer and reports per-layer self times.
//!
//! `README.md` next to this crate documents the workloads and metrics.

pub mod context;
pub mod gate;
pub mod metrics;
pub mod run;
pub mod summarize;
pub mod trace;
pub mod wire;
pub mod workload;
