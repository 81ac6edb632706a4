//! # runtime — the real-execution substrate
//!
//! The DES in [`crate::world`] reproduces the paper's *measurements*;
//! this module demonstrates that the pipeline's *data plane* is real: the
//! five services run as OS threads, each bound to its own loopback
//! `UdpSocket`, exchanging the same message shapes the paper describes
//! (client id, frame number, return address, pipeline step) and running
//! the actual `vision` compute — synthetic-scene rendering, SIFT-style
//! detection/description, PCA + Fisher encoding, LSH lookup, ratio-test
//! matching, and RANSAC pose estimation.
//!
//! The deployment follows the scAtteR++ design: `sift` is stateless (its
//! output frame carries the descriptors forward — the paper's
//! 180 KB → 480 KB growth shows up here as real datagram bytes), and
//! each service fronts its socket with a sidecar-style staleness filter
//! before spending compute.
//!
//! Descriptors travel in SIFT's own byte format, one byte per value
//! (150 B a descriptor, [`wire::FrameState`]). `sift` quantises them once;
//! `encoding` and `lsh` forward the descriptor section as the bytes they
//! received ([`wire::split_state`], [`wire::join_state`]), and the
//! baseline's `sift` parks the same bytes for `matching` to fetch.
//!
//! Large messages exceed a single UDP datagram, so [`wire`] implements
//! application-level fragmentation and reassembly — loss of any fragment
//! loses the message, exactly like the testbed's fragmented frames.

pub mod batch;
pub mod deploy;
pub mod impair;
pub mod services;
pub mod stateful;
pub mod wire;

pub use deploy::{run_local, run_local_traced, LocalDeployment, RuntimeOptions, RuntimeReport};
pub use impair::{
    Ep, ImpairedNet, ImpairmentProfile, LinkImpairment, LinkRule, RtSocket, SendDisposition,
};
pub use wire::WireError;
