//! # vision — the computer-vision substrate of the scAtteR pipeline
//!
//! The paper's five services wrap classic CV stages: grayscale
//! pre-processing, SIFT feature detection/extraction, PCA + Fisher-vector
//! encoding, LSH nearest-neighbour search, and descriptor matching with
//! pose estimation. The authors run CUDA implementations on edge GPUs; we
//! implement each stage from scratch in portable Rust so the pipeline's
//! data plane is real end-to-end:
//!
//! - [`image`]: grayscale frames, RGB→gray, bilinear resize.
//! - [`scene`]: deterministic synthetic "workplace" video (monitor,
//!   keyboard, table) standing in for the paper's pre-recorded 10 s,
//!   30 FPS, 720p smartphone clip.
//! - [`pyramid`]: separable Gaussian blur, scale-space, difference of
//!   Gaussians.
//! - [`keypoints`]: DoG extrema with edge-response rejection and
//!   orientation assignment ([Lowe 2004] structure, reduced constants).
//! - [`descriptor`]: 128-dimensional gradient-histogram descriptors.
//! - [`pca`]: principal component analysis by power iteration.
//! - [`gmm`]: diagonal-covariance Gaussian mixture fitted with EM.
//! - [`fisher`]: improved Fisher vectors (power + L2 normalized).
//! - [`lsh`]: random-hyperplane locality-sensitive hashing.
//! - [`matching`]: ratio-test descriptor matching.
//! - [`ransac`]: RANSAC homography and object pose (projected bounding
//!   box) estimation.
//! - [`db`]: the reference-object database the `matching` service
//!   recognizes against.
//! - [`tracking`]: persistent multi-frame object tracks (the stability
//!   the paper's FPS metric proxies).
//! - [`codec`]: block-DCT intra-frame compression for the client uplink
//!   (the compressed-vs-raw asymmetry behind fig. 11).
//!
//! Everything is deterministic given a seed. The kernels are compiled
//! for the host's vector ISA, and their output bits are still identical
//! across hosts: every element sees the same IEEE operations in the same
//! order at any lane width (DESIGN.md §17), which
//! `tests/isa_digest.rs` pins.

pub mod codec;
pub mod db;
pub mod descriptor;
pub mod fisher;
pub mod gmm;
pub mod image;
pub mod keypoints;
pub mod lsh;
pub mod matching;
pub mod pca;
pub mod pose_filter;
pub mod pyramid;
pub mod ransac;
pub mod scene;
pub mod tracking;

pub use db::ReferenceDb;
pub use descriptor::Descriptor;
pub use fisher::FisherEncoder;
pub use gmm::DiagGmm;
pub use image::GrayImage;
pub use keypoints::Keypoint;
pub use lsh::LshIndex;
pub use pca::Pca;
