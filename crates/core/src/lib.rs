#![warn(missing_docs)]

//! Shared winner determination for sponsored search auctions.
//!
//! This crate is the primary contribution of *Shared Winner Determination
//! in Sponsored Search Auctions* (Martin & Halpern, ICDE 2009), built on
//! the substrate crates of this workspace:
//!
//! * [`topk`] — the top-k list and its merge, the aggregation operator at
//!   the heart of Section II ("the binary function that takes in two
//!   k-lists and outputs a k-list of the top k elements of the union").
//! * [`bloom`] — a Bloom filter, the paper's other running example of a
//!   semilattice aggregation operator.
//! * [`algebra`] — the abstract aggregation framework: axioms A1–A5,
//!   ⊕-expressions, per-axiom-set canonical forms and A-equivalence
//!   (Lemma 1), and the algebra-class taxonomy of Figure 5.
//! * [`plan`] — shared aggregation plans (Section II): the A-plan DAG and
//!   its probabilistic cost model, fragment identification, the greedy
//!   set-cover-driven completion heuristic, a syntactic CSE planner (the
//!   non-associative baseline), an exact optimal planner for small
//!   instances, and the executable set-cover reductions behind Theorems 2
//!   and 3.
//! * [`sort`] — shared sorting (Section III): on-demand merge-sort
//!   networks with per-operator caches, the bottom-up greedy network
//!   planner, and the Threshold Algorithm driver.
//! * [`budget`] — budget uncertainty (Section IV): outstanding ads,
//!   throttled bids `b̂ᵢ = E(min(bᵢ, max(0, βᵢ − S)/mᵢ))` computed exactly
//!   or via refined Hoeffding bounds, comparison and top-k under
//!   uncertainty, and the naive-vs-throttled gaming demonstration.
//! * [`nonsep`] — the Section V integration: shared top-k plans driving
//!   the graph-pruning step of non-separable winner determination.
//! * [`engine`] — the round-based auction engine tying it together:
//!   batching, per-round shared evaluation, pricing, delayed clicks,
//!   budget settlement, and automated bidding programs. It is
//!   single-threaded: every round runs on the caller's thread.
//! * [`exec`] — a scoped worker pool the engine does not use, kept only
//!   for the frozen benchmark package's replay.

pub mod algebra;
pub mod bloom;
pub mod budget;
pub mod engine;
pub mod exec;
pub mod nonsep;
pub mod plan;
pub mod sort;
pub mod topk;

pub use plan::{DisjointPlanner, PlanDag, SharedPlanner};
pub use topk::KList;
