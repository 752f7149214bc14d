//! Step IV's routing rule: which table answers a lookup.
//!
//! Both engines run the same lookup chain (paper §III step IV, plus the
//! §V partial replication and the adaptive hot-shard replicas). Where a
//! key resolves is decided here, once, for both key kinds; the engines
//! differ only in how they *answer* a route. The threaded engine reads a
//! table or does a wire round trip, and the virtual engine reads the
//! global spectrum and charges the cost model. This function is what
//! makes the two engines run the identical logical algorithm.

use crate::heuristics::HeuristicConfig;

/// The spectrum a key belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KeyKind {
    Kmer,
    Tile,
}

/// Where the lookup chain resolves a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The full replica of the kind's spectrum (the allgather heuristics).
    Replica,
    /// This rank's owned table or, under partial replication, the merged
    /// table of its group (which includes the rank's own entries).
    Local,
    /// The merged replica of the hot owners' shards (adaptive balancing):
    /// an exact copy, so it returns what the owner would.
    Hot,
    /// The owner rank. This costs a request unless the rank's reads table
    /// (own keys plus cached remote answers) or the chunk's prefetch
    /// already holds the count.
    Owner(usize),
}

/// Route a `kind` key looked up on rank `me`; `owner` yields the key's
/// owner rank. It is called only when no full replica answers, so a
/// replicated kind never pays for hashing the key to its owner.
/// `hot_owners` flags the replicated hot owners; it is empty when
/// hot-shard replication is off or found no skew.
pub(crate) fn route(
    heur: &HeuristicConfig,
    hot_owners: &[bool],
    me: usize,
    kind: KeyKind,
    owner: impl FnOnce() -> usize,
) -> Route {
    let replicated = match kind {
        KeyKind::Kmer => heur.replicate_kmers,
        KeyKind::Tile => heur.replicate_tiles,
    };
    if replicated {
        return Route::Replica;
    }
    let owner = owner();
    // a group of one is the rank itself (and skips the division on the
    // per-lookup hot path)
    let g = heur.partial_group;
    let local = if g > 1 { owner / g == me / g } else { owner == me };
    if local {
        return Route::Local;
    }
    if hot_owners.get(owner) == Some(&true) {
        return Route::Hot;
    }
    Route::Owner(owner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_order_replica_then_group_then_hot_then_owner() {
        let base = HeuristicConfig::default();
        let hot = [false, false, true, false];
        assert_eq!(route(&base, &[], 1, KeyKind::Kmer, || 1), Route::Local);
        assert_eq!(route(&base, &[], 1, KeyKind::Tile, || 2), Route::Owner(2));
        assert_eq!(route(&base, &hot, 1, KeyKind::Tile, || 2), Route::Hot);
        let kmers = HeuristicConfig { replicate_kmers: true, ..base };
        assert_eq!(route(&kmers, &hot, 1, KeyKind::Kmer, || 2), Route::Replica);
        assert_eq!(route(&kmers, &hot, 1, KeyKind::Tile, || 3), Route::Owner(3));
        let group = HeuristicConfig { partial_group: 2, ..base };
        assert_eq!(route(&group, &[], 1, KeyKind::Kmer, || 0), Route::Local);
        assert_eq!(route(&group, &hot, 1, KeyKind::Kmer, || 2), Route::Hot);
        assert_eq!(route(&group, &[], 1, KeyKind::Kmer, || 3), Route::Owner(3));
        assert_eq!(route(&group, &[], 2, KeyKind::Kmer, || 3), Route::Local);
    }
}
