//! The round's display events: what pricing hands to the commit.
//!
//! The round prices every outcome against the *pre-round* budget state
//! into a list of [`DisplayEvent`]s (one priced slot each) before any
//! ledger changes. The commit then replays that list in *phrase
//! occurrence order* (ascending phrase id, slots in priced order within a
//! phrase): the click simulator's RNG is consumed once per event, in that
//! order, and ledger mutations (pending-ad pushes, then settlement)
//! happen only during this replay. Pricing therefore never sees a
//! ledger the round itself has changed, and the click fates of a run are
//! a function of its seed and its outcomes alone.

use ssa_auction::ids::AdvertiserId;
use ssa_auction::money::Money;

/// One priced slot display, recorded by the round's pricing step and
/// committed against the ledgers in phrase-occurrence order.
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
