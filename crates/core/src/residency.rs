//! Versioned buffer-replica residency tracking.
//!
//! [`ResidencyTracker`] is the coherence brain extracted from the buffer
//! layer: every buffer carries a monotonically increasing *version*, and
//! every replica — the host shadow included, it is just another
//! [`Location`] — remembers which version it holds. A replica is
//! *current* iff its version equals the buffer's newest version. Writes
//! bump the version and leave the writer as the sole current replica;
//! syncs (transfers) mark the receiving replica current without bumping.
//!
//! Device replicas additionally remember the **routing epoch** of their
//! node at sync time, plus whether their content lineage is
//! **replayable**: established entirely by host-journaled traffic
//! (creates, writes, kernel launches), which failover replay re-executes
//! in order on the survivor *before* the bumped epoch becomes
//! observable. Bytes that reached the node via a direct peer transfer
//! are only re-pulled on replay and may race the failure, so a peer sync
//! taints the replica (and kernel writes propagate the taint — they
//! transform whatever was there).
//!
//! On [`ResidencyTracker::revalidate`], a replica whose recorded epoch
//! fell behind the node's live epoch is *refreshed* if replayable — the
//! journal rebuilt exactly its contents on the new route — and dropped
//! if tainted. If nothing current remains anywhere, the host shadow is
//! promoted as the best surviving copy.

use std::collections::{BTreeMap, BTreeSet};

/// Where a replica of a buffer lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Location {
    /// The host shadow copy.
    Host,
    /// A device, by platform-global device index.
    Device(usize),
}

#[derive(Debug, Clone, Copy)]
struct Replica {
    /// Version this replica holds.
    version: u64,
    /// Node routing epoch observed when the replica last synced.
    epoch: u32,
    /// Whether failover replay reconstructs this content bit-for-bit:
    /// true for host-journaled lineage, false once peer-transferred
    /// bytes entered the picture.
    replayable: bool,
}

/// Monotonically versioned replica map for one buffer.
#[derive(Debug, Default)]
pub(crate) struct ResidencyTracker {
    /// Newest version of the buffer contents.
    version: u64,
    /// Version the host shadow holds. Starts equal to `version`: a fresh
    /// buffer's zero-filled shadow *is* the newest contents.
    host_version: u64,
    /// Device replicas, keyed by platform-global device index. BTreeMap
    /// keeps owner selection deterministic.
    replicas: BTreeMap<usize, Replica>,
    /// Devices holding an allocation (regardless of currency).
    allocated: BTreeSet<usize>,
}

impl ResidencyTracker {
    pub(crate) fn new() -> Self {
        ResidencyTracker::default()
    }

    /// The newest version of the buffer contents.
    pub(crate) fn newest(&self) -> u64 {
        self.version
    }

    /// Records a write at `loc`: bumps the version and leaves `loc` as
    /// the sole current replica. `replayable` says whether failover
    /// replay reconstructs the resulting content (ignored for the host).
    pub(crate) fn record_write(&mut self, loc: Location, epoch: u32, replayable: bool) {
        self.version += 1;
        self.sync_at(loc, epoch, replayable);
    }

    /// Marks `loc` as holding the newest version (after a transfer).
    pub(crate) fn record_sync(&mut self, loc: Location, epoch: u32, replayable: bool) {
        self.sync_at(loc, epoch, replayable);
    }

    fn sync_at(&mut self, loc: Location, epoch: u32, replayable: bool) {
        match loc {
            Location::Host => self.host_version = self.version,
            Location::Device(dev) => {
                self.replicas.insert(
                    dev,
                    Replica {
                        version: self.version,
                        epoch,
                        replayable,
                    },
                );
            }
        }
    }

    /// Forgets the host's copy (the host let go of its shadow): it is
    /// stale until the next host write or sync.
    pub(crate) fn drop_host(&mut self) {
        self.host_version = self.version.wrapping_sub(1);
    }

    /// Whether `dev`'s replica (if any) has a host-journaled lineage.
    /// A device with no replica is trivially replayable: whatever a
    /// kernel writes there derives only from journaled calls.
    pub(crate) fn replayable_at(&self, dev: usize) -> bool {
        self.replicas.get(&dev).is_none_or(|r| r.replayable)
    }

    /// Whether the host shadow holds the newest contents.
    pub(crate) fn host_current(&self) -> bool {
        self.host_version == self.version
    }

    /// Whether `dev` holds the newest contents under `live_epoch`.
    pub(crate) fn is_current(&self, dev: usize, live_epoch: u32) -> bool {
        self.replicas
            .get(&dev)
            .is_some_and(|r| r.version == self.version && r.epoch == live_epoch)
    }

    /// Settles device replicas against live node epochs after failovers.
    /// Replayable replicas are refreshed — the journal re-executed their
    /// whole lineage on the new route before the epoch bump became
    /// visible, so the survivor holds the same bytes. Tainted replicas
    /// (peer-fed) are dropped. If no current replica remains anywhere,
    /// promotes the host shadow: it is the best copy the cluster still
    /// has.
    pub(crate) fn revalidate(&mut self, live_epoch_of: impl Fn(usize) -> u32) {
        self.replicas.retain(|&dev, r| {
            let live = live_epoch_of(dev);
            if r.epoch != live && r.replayable && live != u32::MAX {
                r.epoch = live;
            }
            r.epoch == live
        });
        let any_current =
            self.host_current() || self.replicas.values().any(|r| r.version == self.version);
        if !any_current {
            self.host_version = self.version;
        }
    }

    /// The current device with the smallest index, if any. Call after
    /// [`ResidencyTracker::revalidate`] so epochs are already settled.
    pub(crate) fn owner_device(&self) -> Option<usize> {
        self.replicas
            .iter()
            .find(|(_, r)| r.version == self.version)
            .map(|(&dev, _)| dev)
    }

    /// Records an allocation on `dev`.
    pub(crate) fn note_allocated(&mut self, dev: usize) {
        self.allocated.insert(dev);
    }

    /// Whether `dev` holds an allocation.
    pub(crate) fn is_allocated(&self, dev: usize) -> bool {
        self.allocated.contains(&dev)
    }

    /// Number of devices holding an allocation.
    pub(crate) fn allocated_count(&self) -> usize {
        self.allocated.len()
    }

    /// Devices holding an allocation, in ascending index order.
    pub(crate) fn allocated_devices(&self) -> Vec<usize> {
        self.allocated.iter().copied().collect()
    }

    /// Evicts one device's replica and allocation (the device's node is
    /// voluntarily leaving the cluster and its state has been migrated
    /// or is about to be destroyed). Unlike an epoch-driven drop in
    /// [`ResidencyTracker::revalidate`], eviction is unconditional —
    /// even a replayable lineage dies with a departed node, because its
    /// journal is cleared on retirement. If the evicted replica was the
    /// last current copy, the host shadow is promoted (the caller is
    /// expected to have refreshed it first when the bytes matter).
    pub(crate) fn evict_device(&mut self, dev: usize) {
        self.replicas.remove(&dev);
        self.allocated.remove(&dev);
        let any_current =
            self.host_current() || self.replicas.values().any(|r| r.version == self.version);
        if !any_current {
            self.host_version = self.version;
        }
    }

    /// Forgets every replica and allocation (buffer teardown).
    pub(crate) fn clear(&mut self) {
        self.replicas.clear();
        self.allocated.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tracker_has_host_current() {
        let t = ResidencyTracker::new();
        assert_eq!(t.newest(), 0);
        assert!(t.host_current());
        assert_eq!(t.owner_device(), None);
    }

    #[test]
    fn writes_bump_versions_and_invalidate_peers() {
        let mut t = ResidencyTracker::new();
        t.record_sync(Location::Device(0), 0, true);
        t.record_sync(Location::Device(1), 0, true);
        assert!(t.is_current(0, 0) && t.is_current(1, 0));
        t.record_write(Location::Device(0), 0, true);
        assert_eq!(t.newest(), 1);
        assert!(t.is_current(0, 0));
        assert!(!t.is_current(1, 0));
        assert!(!t.host_current());
        assert_eq!(t.owner_device(), Some(0));
    }

    #[test]
    fn sync_marks_current_without_bumping() {
        let mut t = ResidencyTracker::new();
        t.record_write(Location::Host, 0, true);
        t.record_sync(Location::Device(2), 0, true);
        assert_eq!(t.newest(), 1);
        assert!(t.host_current());
        assert!(t.is_current(2, 0));
    }

    #[test]
    fn a_dropped_host_copy_is_stale_until_synced() {
        let mut t = ResidencyTracker::new();
        t.record_sync(Location::Device(0), 0, true);
        t.drop_host();
        assert!(!t.host_current());
        assert_eq!((t.newest(), t.owner_device()), (0, Some(0)));
        t.record_write(Location::Device(0), 0, true);
        assert!(!t.host_current(), "a later version is no sync");
        t.record_sync(Location::Host, 0, true);
        assert!(t.host_current());
    }

    #[test]
    fn epoch_mismatch_drops_a_tainted_replica() {
        let mut t = ResidencyTracker::new();
        t.record_write(Location::Device(0), 0, false);
        assert!(t.is_current(0, 0));
        assert!(!t.is_current(0, 1), "a bumped epoch must not be trusted");
        t.revalidate(|_| 1);
        assert_eq!(t.owner_device(), None);
        // With the only current replica gone, the shadow is promoted.
        assert!(t.host_current());
    }

    #[test]
    fn epoch_mismatch_refreshes_a_replayable_replica() {
        let mut t = ResidencyTracker::new();
        t.record_write(Location::Device(0), 0, true);
        t.revalidate(|_| 1);
        // Journal replay rebuilt the same bytes on the new route: the
        // replica survives at the live epoch, the shadow stays stale.
        assert!(t.is_current(0, 1));
        assert_eq!(t.owner_device(), Some(0));
        assert!(!t.host_current());
    }

    #[test]
    fn vanished_devices_are_dropped_even_when_replayable() {
        let mut t = ResidencyTracker::new();
        t.record_write(Location::Device(0), 0, true);
        t.revalidate(|_| u32::MAX);
        assert_eq!(t.owner_device(), None);
        assert!(t.host_current());
    }

    #[test]
    fn taint_tracking_defaults_open_and_sticks() {
        let mut t = ResidencyTracker::new();
        assert!(t.replayable_at(0), "no replica: trivially replayable");
        t.record_sync(Location::Device(0), 0, false);
        assert!(!t.replayable_at(0));
        t.record_write(Location::Device(0), 0, t.replayable_at(0));
        assert!(!t.replayable_at(0), "kernel writes propagate the taint");
        t.record_sync(Location::Device(0), 0, true);
        assert!(t.replayable_at(0), "a full host push resets the lineage");
    }

    #[test]
    fn revalidate_keeps_live_replicas() {
        let mut t = ResidencyTracker::new();
        t.record_write(Location::Device(0), 3, false);
        t.record_sync(Location::Device(1), 5, false);
        t.revalidate(|dev| if dev == 0 { 3 } else { 9 });
        assert_eq!(t.owner_device(), Some(0));
        assert!(!t.host_current());
    }

    #[test]
    fn evict_drops_even_replayable_replicas_and_promotes_the_shadow() {
        let mut t = ResidencyTracker::new();
        t.note_allocated(0);
        t.record_write(Location::Device(0), 0, true);
        assert!(!t.host_current());
        t.evict_device(0);
        assert_eq!(t.owner_device(), None);
        assert!(!t.is_allocated(0));
        assert!(t.host_current(), "last copy gone: shadow promoted");
        // Evicting one of several replicas leaves the others current.
        let mut t = ResidencyTracker::new();
        t.record_write(Location::Device(0), 0, true);
        t.record_sync(Location::Device(1), 0, true);
        t.evict_device(0);
        assert_eq!(t.owner_device(), Some(1));
        assert!(!t.host_current(), "a surviving replica is still newest");
    }

    #[test]
    fn allocations_track_independently_of_currency() {
        let mut t = ResidencyTracker::new();
        t.note_allocated(4);
        t.note_allocated(1);
        assert!(t.is_allocated(4));
        assert_eq!(t.allocated_count(), 2);
        assert_eq!(t.allocated_devices(), vec![1, 4]);
        t.clear();
        assert_eq!(t.allocated_count(), 0);
        assert!(!t.is_allocated(4));
    }
}
