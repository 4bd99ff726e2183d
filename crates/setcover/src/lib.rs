#![warn(missing_docs)]

//! Set cover substrate.
//!
//! The shared-aggregation planner in the paper leans on set cover twice:
//!
//! * **Hardness** (Theorems 2 and 3): finding a min-cost shared plan is
//!   NP-hard and inapproximable within `log n`, by reduction from set
//!   cover.
//! * **The heuristic** (Section II-D): an incomplete plan is completed "by
//!   finding a set cover of the missing query nodes from the collection of
//!   existing nodes", using the classical greedy covering algorithm, which
//!   is a `(1 + ln n)`-approximation [Johnson 1973].
//!
//! This crate provides the machinery both uses: a compact fixed-capacity
//! [`BitSet`] for element sets, the [greedy] covering algorithm
//! (instrumented with marginal gains, since the planner's *greedy coverage
//! gain* needs them), and an [exact] branch-and-bound solver used to
//! validate the reductions and measure heuristic quality on small
//! instances.
//!
//! Note the paper's convention, which we follow: "we use the term 'set
//! cover' to mean a cover whose union exactly equals the target set instead
//! of just being a superset" — so only candidate sets that are *subsets* of
//! the target are feasible.

pub mod bitset;
pub mod exact;
pub mod greedy;
pub mod instance;
pub mod varset;

pub use bitset::BitSet;
pub use exact::exact_min_cover;
pub use greedy::{
    greedy_cover, greedy_cover_views, greedy_disjoint_cover, greedy_disjoint_cover_views,
    GreedyCover,
};
pub use instance::SetCoverInstance;
pub use varset::{AsVarSetRef, VarSet, VarSetRef};
