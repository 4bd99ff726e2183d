//! Per-shard budget-accounting domains and their reconciliation.
//!
//! Under sharded execution every shard prices its auctions against the
//! *pre-round* budget state — ledgers are immutable for the whole
//! throttle/winner-determination/pricing pipeline, exactly as they are
//! inside one round of the sequential executor. Each shard accumulates
//! its budget effects as a list of [`DisplayEvent`]s (one priced slot
//! each) instead of mutating ledgers directly; those event lists are the
//! shard's budget domain.
//!
//! **Reconciliation invariant.** The committing thread replays every
//! shard's events in *global phrase-occurrence order* (ascending phrase
//! id, slots in priced order within a phrase) — the exact order the
//! sequential executor displays winners in. Because the click
//! simulator's RNG is consumed once per event, in that order, and ledger
//! mutations (pending-ad pushes, then settlement) happen only during
//! this ordered replay, an advertiser whose interest set spans shards
//! accrues pending ads in the same order, with the same click fates and
//! the same charges, as under sequential execution — sharded and
//! sequential runs are bit-identical in outcomes, effective bids, and
//! budget snapshots for every shard count. The differential corpus'
//! `shard-exec` check pins this across seeds × policies × shard counts.

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;

/// One priced slot display, recorded by the round's pricing step (serial,
/// or a shard's settle-prep stage) and committed against the ledgers in
/// global phrase-occurrence order.
/// Everything here is a pure function of the round's effective bids and
/// the pre-round workload state — crucially *not* of the RNG, which is
/// only consumed at commit time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplayEvent {
    /// The advertiser whose ad was displayed.
    pub advertiser: AdvertiserId,
    /// The price charged if the click lands, already rounded down to the
    /// billing increment.
    pub price: Money,
    /// The displayed ad's click-through rate (phrase factor × slot
    /// factor, clamped to `[0, 1]`).
    pub display_ctr: f64,
}
