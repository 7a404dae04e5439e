//! Seeded adversary fuzzer for the TetraBFT reproduction.
//!
//! Each fuzz seed deterministically samples a whole hostile world:
//!
//! * a **Byzantine strategy composition** per faulty node — equivocation,
//!   selective silence toward a sampled subset, view-skewed vote replay,
//!   value spam, or random compositions thereof, assembled from the
//!   attack catalogue in [`behaviors`];
//! * a **random [`LinkPlan`](tetrabft_sim::LinkPlan)** — delay/jitter/loss
//!   matrices plus scripted partition windows;
//!
//! then runs the deterministic simulator against safety oracles (agreement
//! across honest nodes, chain-prefix consistency) and liveness oracles
//! (progress within a computed bound after the last partition heals).
//!
//! On a violation the [`shrink`] pass greedily reduces the scenario —
//! dropping faulty nodes, individual attacks, partition windows, and
//! halving the horizon — while the same oracle class still fails, and
//! [`Scenario::to_rust_source`] renders the minimum as a replayable
//! deterministic test. A safety hit is additionally cross-audited by
//! [`cross_audit`]: the honest nodes' votes are reconstructed from the sim
//! trace and fed to the model checker's `Explorer::with_initial`, replaying
//! the finding as an mc counterexample trace.
//!
//! Accountability rides along end to end: the sim's omniscient recorder and
//! the honest nodes' registers both emit typed
//! [`Evidence`](tetrabft_types::Evidence) records — "node 3 voted both v
//! and v′ in view 7" — surfaced in every [`RunReport`] and campaign
//! summary.
//!
//! # Examples
//!
//! A bounded fixed-seed campaign (what CI's `fuzz-smoke` job runs):
//!
//! ```
//! use tetrabft_fuzz::{run_campaign, CampaignCfg};
//!
//! let cfg = CampaignCfg { seeds: (0..4).collect(), ..CampaignCfg::default() };
//! let report = run_campaign(&cfg);
//! assert_eq!(report.outcomes.len(), 4);
//! assert_eq!(report.violations(), 0, "{}", report.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod behaviors;
mod campaign;
mod scenario;
mod shrink;

pub use audit::{cross_audit, McAudit};
pub use campaign::{run_campaign, sample_scenario, CampaignCfg, CampaignReport, SeedOutcome};
pub use scenario::{Attack, FaultSpec, HonestVote, Mode, RunReport, Scenario, Verdict};
pub use shrink::shrink;
