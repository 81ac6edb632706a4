//! # scatter — the paper's contribution: scAtteR and scAtteR++
//!
//! scAtteR (§3.1) is a distributed stream-processing AR pipeline of five
//! containerized microservices:
//!
//! ```text
//! client ──► primary ──► sift ──► encoding ──► lsh ──► matching ──► client
//!                         ▲                               │
//!                         └──────── feature fetch ────────┘   (scAtteR only)
//! ```
//!
//! `sift` is stateful: it keeps each frame's extracted features in memory
//! until `matching` fetches them for pose estimation — the dependency loop
//! the paper identifies as the scalability bottleneck. Every service
//! processes one frame at a time and *drops* requests that arrive while it
//! is busy.
//!
//! scAtteR++ (§5) applies the paper's recommendations: `sift` becomes
//! stateless by embedding the feature state in the forwarded frame
//! (≈180 KB → ≈480 KB), and a sidecar attaches to each service ingress to
//! queue, filter (100 ms staleness threshold), and meter requests.
//!
//! Two execution substrates share this crate's service semantics:
//!
//! - [`world`]: the deterministic discrete-event simulation of the
//!   paper's testbed (used by every experiment/figure reproduction);
//! - [`runtime`]: a real-threads, real-`UdpSocket` loopback deployment
//!   whose services run the actual `vision` compute — demonstrating the
//!   pipeline's data plane end-to-end on one host.

pub mod client;
pub mod config;
pub mod costmodel;
pub mod gpu;
pub mod message;
pub mod obs;
pub mod report;
pub mod resilience;
pub mod runtime;
pub mod service;
pub mod sidecar;
pub mod wirev2;
pub mod world;

pub use config::{Mode, RunConfig, ScaleConfig};
pub use costmodel::CostModel;
pub use message::{FrameMsg, ServiceKind, SERVICE_KINDS, SERVICE_NAMES};
pub use obs::DesTelemetry;
pub use report::RunReport;
pub use world::{
    run_experiment, run_experiment_observed, run_experiment_observed_with,
    run_experiment_telemetered, run_experiment_telemetered_observed, run_experiment_traced,
    run_experiment_traced_with, run_experiment_with, ObsArtifacts,
};
