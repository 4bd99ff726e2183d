#![warn(missing_docs)]

//! Differential-oracle test harness for shared winner determination.
//!
//! Every optimized evaluation path in this repository — the Section II
//! shared aggregation plans, the Section III shared merge-sort networks
//! with the Threshold Algorithm, and the Section IV budget-throttled
//! engine — must produce *exactly* the allocations and prices that a
//! naive system computing each bid phrase independently would. This crate
//! turns that statement into executable checks:
//!
//! * [`gen`] — deterministic, seeded workload generators layered on
//!   `ssa-workload`: phrase universes with controlled interest-set
//!   overlap, Zipf search rates, separable and non-separable (jittered)
//!   CTR factor matrices, and budget/outstanding-ad states. Every
//!   generator is a pure function of a `u64` seed: the same seed
//!   reproduces the same workload byte for byte.
//! * [`oracle`] — the naive reference: each phrase resolved independently
//!   with the `O(n log k)` scan from `ssa-auction`, throttled bids
//!   recomputed from first principles via the exact convolution in
//!   `ssa-core::budget` / `ssa-stats`. The oracle shares *nothing* with
//!   the engine's evaluation paths beyond the domain types.
//! * [`plan_oracle`] — the paper-literal Section II-D completion loop
//!   (`reference_plan`), the cost oracle for the production planner.
//! * [`diff`] — differential runners and invariant checkers. Each check
//!   takes a seed, derives a workload, executes it through an optimized
//!   path and through the oracle, and returns a [`diff::Divergence`]
//!   (carrying the reproducing seed) on any mismatch. Covered invariants:
//!   allocation and pricing equivalence across all sharing strategies and
//!   budget policies, the algebra axioms A1–A5 for the k-list and
//!   Bloom-filter operators, plan-cost sanity
//!   (`expected_cost ≤ unshared_expected_cost`), and Hoeffding-bound
//!   soundness (bounds contain the exact value and tighten monotonically).
//!
//! # Running the corpus
//!
//! The fixed CI corpus lives in `tests/differential.rs` and replays 200+
//! seeds through every check. Locally it can be widened:
//!
//! ```text
//! TESTKIT_SEEDS=2000 cargo test -p ssa-testkit --release
//! ```
//!
//! For long soak runs (with automatic workload minimization and
//! pretty-printing of any diverging seed) use the binary:
//!
//! ```text
//! cargo run --release -p ssa-testkit --bin testkit -- --count 100000
//! cargo run --release -p ssa-testkit --bin testkit -- --seed 12345
//! ```

pub mod diff;
pub mod gen;
pub mod oracle;
pub mod plan_oracle;

pub use diff::{run_all, Divergence};
