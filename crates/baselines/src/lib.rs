//! Baseline protocols from Table 1 of the TetraBFT paper, implemented from
//! scratch so that the paper's comparison can be *measured* rather than
//! quoted:
//!
//! * [`iths`] — **Information-Theoretic HotStuff** (Abraham & Stern 2020):
//!   responsive, constant storage, O(n²) communication, good-case latency
//!   **6** message delays (propose, echo, key-1, key-2, key-3, lock), **9**
//!   with a view change;
//! * [`ithsblog`] — the **blog version of IT-HS**: *non-responsive*,
//!   good-case latency **4** (propose, echo, accept, lock), **5** with a
//!   view change — but a new leader must wait a full Δ before proposing,
//!   which experiment E5 exposes;
//! * [`pbft`] — a **bounded-storage PBFT**-style protocol: good-case
//!   latency **3** (pre-prepare, prepare, commit), **7** with a view change
//!   (request, view-change, ack, new-view) — whose certificate-carrying
//!   view change costs O(n³) total bits, the scaling experiment E6 measures;
//! * [`repeated`] — **sequentially repeated single-shot TetraBFT**, the
//!   baseline for the ×5 pipelining throughput claim (experiment E7).
//!
//! These are latency- and communication-faithful reimplementations (the
//! originals have no open-source unauthenticated implementations); their
//! good-case and view-change message flows follow the phase structures the
//! TetraBFT paper itself attributes to them in Section 1.2, which is
//! exactly what Table 1 measures: the latency columns count message delays
//! per phase, which these flows reproduce exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
pub mod iths;
pub mod ithsblog;
pub mod pbft;
pub mod repeated;

pub use common::{PhaseRegisters, ViewChangeEngine, ViewChangeVerdict};
pub use iths::IthsNode;
pub use ithsblog::BlogNode;
pub use pbft::PbftNode;
pub use repeated::RepeatedTetra;
