//! # orchestra — the edge orchestration substrate
//!
//! A compact reimplementation of the Oakestra features the paper's
//! evaluation actually exercises (§3.2):
//!
//! - heterogeneous machine inventory with CPU count, memory, and GPU
//!   *architecture* (GeForce RTX on E1, Ampere on E2, Tesla in the cloud)
//!   — the paper must map differently-compiled container images per
//!   architecture, which we model as an SLA compatibility check;
//! - SLA-constrained service placement of the paper's hand-pinned
//!   configurations (C1, C2, C12, C21, …); like the paper, nothing here
//!   chooses a placement automatically;
//! - replica scale-out with round-robin load balancing across replicas,
//!   plus the sticky binding that stateful services force ("frames
//!   balanced across sift instances remain tied to that replica");
//! - failure detection and automatic re-deployment;
//! - per-node hardware metric sampling (CPU, GPU, memory), normalized by
//!   machine capacity — the only signals a hardware-level orchestrator
//!   sees, which the paper shows are insufficient for AR QoS.

pub mod balancer;
pub mod cluster;
pub mod detector;
pub mod node;
pub mod sla;

pub use balancer::{Balancer, BalancerKind, LastReplica};
pub use cluster::{Cluster, InstanceId, InstanceState, ServiceInstance};
pub use detector::{DetectorConfig, FailureDetector, Suspicion};
pub use node::{GpuArch, MachineSpec};
pub use sla::{PlacementSpec, ServiceSla};
