//! # `ric-constraints` — containment constraints and data consistency
//!
//! A *containment constraint* (CC, Section 2.1) has the form
//! `q_v(R) ⊆ p(R_m)`: a query `q_v` in a language `L_C` over the database
//! schema, contained in a projection `p` of one master relation (or in `∅`).
//! A database `D` is **partially closed** with respect to `(D_m, V)` when
//! `(D, D_m) |= V`.
//!
//! Section 2.2 of the paper shows the same machinery captures *consistency*:
//! denial constraints and CFDs compile to CCs in CQ, CINDs to CCs in FO
//! (Proposition 2.1). The [`classical`] module provides those constraint
//! classes with direct checkers, and [`compile`] the equivalence-preserving
//! compilers — tested against each other property-style.

pub mod cc;
pub mod classical;
pub mod compile;
pub mod delta;

pub use cc::{CcBody, CcRhs, ConstraintSet, ContainmentConstraint, LowerBound, Projection};
pub use classical::{Cfd, Cind, Denial, Fd, IndCc};
pub use delta::{DeltaCheck, PreparedInds, PreparedUpper};
// Re-exported so downstream crates (notably `ric-complete`) can accept
// arbitrary statistics providers without a direct `ric-plan` dependency.
pub use ric_plan::planner::StatsProvider;
