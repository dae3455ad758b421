//! Workload generators and the experiment harness that reproduces the
//! paper's complexity shapes (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured).

pub mod experiments;
pub mod ingest;
pub mod json;
pub mod kernel;
pub mod serve;
pub mod trace;
pub mod wcoj;
pub mod workloads;

pub use experiments::{all_experiments, run_experiment, ExperimentTable};
pub use ingest::{ingest_benchmark, ingest_json, ingest_smoke, IngestMetric};
pub use json::tables_to_json;
pub use kernel::{kernel_benchmark, kernel_json, KernelMetric};
pub use serve::{serve_benchmark, serve_json, ServeMetric};
pub use trace::{trace_all, trace_json, TracedExperiment};
pub use wcoj::{wcoj_benchmark, wcoj_json, WcojMetric};
