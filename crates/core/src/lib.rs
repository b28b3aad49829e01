//! Nabbit and NabbitC task-graph executors — the paper's primary
//! contribution.
//!
//! [`static_exec::StaticExecutor`] executes a pre-built
//! [`TaskGraph`](nabbitc_graph::TaskGraph): every node known up front,
//! readiness tracked with one [`JoinCounter`] per node, built already
//! scanned at the node's in-degree. This is the path the
//! paper's benchmarks exercise (their task graphs are fully determined by
//! the problem configuration).
//!
//! [`dynamic`] provides the full on-demand Nabbit protocol from Agrawal,
//! Leiserson & Sukha (IPDPS'10): the computation is *specified* by a sink
//! key plus a predecessor function; nodes are created lazily as they are
//! discovered, racing threads arbitrate creation through a concurrent node
//! table, and late arrivals enqueue themselves on a predecessor's successor
//! list (the `try_init_compute` path of the paper's Figure 4). Its
//! readiness arbiter is the same [`JoinCounter`], armed with a +1
//! initialization bias while a node's predecessors are scanned.
//!
//! Both executors route every batch spawn through [`spawn`] —
//! `gather_colors` + `spawn_colors`, the *morphing continuation* mechanism
//! of §III: batches are recursively split by color so the spawning worker
//! dives into its own color's sub-batch while the other colors sit in
//! stealable tasks tagged with exactly their color sets.
//!
//! [`metrics`] implements the paper's §V-B node-granularity remote-access
//! accounting, counted on every run of both executors; [`coloring`] the Correct / Bad (Table II) / Invalid
//! (Table III) coloring strategies; [`auto`] hooks the
//! `nabbitc-autocolor` subsystem into both executors so graphs and specs
//! without hand-written colors still schedule locality-aware.
//!
//! # Pre-flight schedule linting
//!
//! [`ExecOptions::lint`] turns `execute_auto` into a gated pipeline: with
//! [`LintGate::Report`] the inferred coloring is run through the
//! `nabbitc-lint` graph/schedule detectors before any task executes and
//! the findings ride along on [`RunReport::lint`]; the
//! [`LintGate::DenyErrors`] / [`LintGate::DenyWarnings`] gates make a
//! degenerate schedule (serialized wide levels, out-of-range colors,
//! starved workers, ...) a hard stop instead of a slow run. Linting is
//! opt-in and priced with the same [`ExecOptions::cost`] /
//! [`ExecOptions::topology`] the selection scored with, so the gate sees
//! the machine the scheduler sees.

pub mod auto;
pub mod coloring;
pub mod dynamic;
pub mod join;
pub mod metrics;
pub mod report;
pub mod spawn;
pub mod static_exec;

pub use auto::AutoColoredSpec;
pub use coloring::ColoringMode;
pub use dynamic::{DynamicExecutor, DynamicReport, TaskSpec};
pub use join::JoinCounter;
pub use metrics::{RemoteAccessReport, RemoteCounters};
pub use report::RunReport;
pub use static_exec::{ExecOptions, LintGate, StaticExecutor};
