//! # experiments — regenerating every figure of the paper
//!
//! Each module reproduces one evaluation artifact (the paper has no
//! numbered tables; its evaluation is figs. 2–4 and 6–12 plus headline
//! claims in the text). A module builds the exact workload and placement
//! sweep of its figure, runs the simulation, and renders a table whose
//! rows are the figure's series — alongside the paper's reported anchor
//! values so the shape comparison is one `cargo run` away:
//!
//! ```text
//! cargo run --release -p experiments --bin fig2      # one figure
//! cargo run --release -p experiments --bin all       # everything (also
//!                                                    # regenerates EXPERIMENTS.md content)
//! ```
//!
//! Beyond the figures, `ablation` splits scAtteR++ into its two fixes and
//! `latency_breakdown` decomposes E2E per stage. The `*_study` modules
//! (chaos, resilience, wire, telemetry, trace, observatory) are
//! self-gating checks of the fault, wire and observer planes: each
//! `--bin` exits non-zero when a gate fails.
//!
//! Run length defaults to 60 simulated seconds per point (the paper runs
//! five minutes); override with `SCATTER_EXP_SECS`.

pub mod ablation;
pub mod chaos_study;
pub mod common;
pub mod fig10_jitter;
pub mod fig11_hybrid;
pub mod fig12_timeline;
pub mod fig2_baseline_edge;
pub mod fig3_scalability;
pub mod fig4_cloud;
pub mod fig6_scatterpp_edge;
pub mod fig7_scaling;
pub mod fig8_sidecar;
pub mod fig9_network;
pub mod headline;
pub mod latency_breakdown;
pub mod observatory_study;
pub mod resilience_study;
pub mod scale;
pub mod table;
pub mod telemetry_study;
pub mod trace_study;
pub mod wire_study;

pub use table::Table;
