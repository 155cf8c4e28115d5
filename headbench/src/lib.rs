//! # headbench — end-to-end and per-layer benchmark of the test head
//!
//! Three closed-loop workloads drive the `atd` daemon and the `atd-farm`
//! coordinator the way a test campaign does: submit, wait for the
//! verified result, submit the next. An untraced run reports what a user
//! sees (throughput, latency, CPU per job, set-up time, memory). A traced
//! run replays the same generated inputs through each layer's public
//! functions, with a span around every call, and reports where the time
//! goes. `README.md` describes the workloads and every figure.

pub mod calib;
pub mod drive;
pub mod gen;
pub mod measure;
pub mod replay;
pub mod rig;
pub mod run;
pub mod trace;
