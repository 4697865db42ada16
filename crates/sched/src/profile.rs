//! The runtime profiling database.
//!
//! The host runtime's `AutoScheduler` records the virtual duration of
//! every launch it placed, once the launch completes, and this database
//! folds those into exponential moving averages keyed by
//! `(kernel, device class)`. The heterogeneity-aware policy prefers these
//! *observed* times over model-based estimates once enough runs exist —
//! the "automatic scheduler with runtime profiling information" the paper
//! names as the upgrade path (§III-B).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use haocl_proto::messages::DeviceKind;
use haocl_sim::SimDuration;
use parking_lot::RwLock;

/// EMA smoothing factor: weight of the newest observation.
const ALPHA: f64 = 0.3;

/// Observations below this count are considered too thin to trust.
const MIN_RUNS: u64 = 2;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    runs: u64,
    ema_nanos: f64,
}

/// Thread-safe profile store.
///
/// # Examples
///
/// ```
/// use haocl_sched::ProfileDb;
/// use haocl_proto::messages::DeviceKind;
/// use haocl_sim::SimDuration;
///
/// let db = ProfileDb::new();
/// db.record("matmul", DeviceKind::Gpu, SimDuration::from_millis(10));
/// db.record("matmul", DeviceKind::Gpu, SimDuration::from_millis(12));
/// let predicted = db.observed("matmul", DeviceKind::Gpu).unwrap();
/// assert!(predicted >= SimDuration::from_millis(10));
/// assert!(predicted <= SimDuration::from_millis(12));
/// ```
#[derive(Debug, Default)]
pub struct ProfileDb {
    /// One slot per device class (`kind as usize`) for each kernel name,
    /// so a lookup by `&str` allocates nothing and only a kernel's first
    /// record does.
    entries: RwLock<HashMap<String, [Entry; 3]>>,
    /// How many observations have updated an *already warm* key — each
    /// one is an online recalibration of a trusted estimate. Feeds the
    /// `haocl_profile_recalibrations_total` metric.
    recalibrations: AtomicU64,
}

impl ProfileDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ProfileDb::default()
    }

    /// Records one observed execution time, updating the rolling EWMA.
    /// Every record against an already-warm key counts as an online
    /// recalibration.
    pub fn record(&self, kernel: &str, kind: DeviceKind, duration: SimDuration) {
        let mut entries = self.entries.write();
        if !entries.contains_key(kernel) {
            entries.insert(kernel.to_string(), Default::default());
        }
        let e = &mut entries.get_mut(kernel).expect("inserted above")[kind as usize];
        let nanos = duration.as_nanos() as f64;
        if e.runs == 0 {
            e.ema_nanos = nanos;
        } else {
            if e.runs >= MIN_RUNS {
                self.recalibrations.fetch_add(1, Ordering::Relaxed);
            }
            e.ema_nanos += ALPHA * (nanos - e.ema_nanos);
        }
        e.runs += 1;
    }

    /// The warm observed EMA — `None` while the key is cold (fewer than
    /// `MIN_RUNS` observations).
    pub fn observed(&self, kernel: &str, kind: DeviceKind) -> Option<SimDuration> {
        self.entry(kernel, kind)
            .filter(|e| e.runs >= MIN_RUNS)
            .map(|e| SimDuration::from_nanos(e.ema_nanos as u64))
    }

    /// How many observations have recalibrated an already-warm key.
    /// Feeds the `haocl_profile_recalibrations_total` metric.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations.load(Ordering::Relaxed)
    }

    /// Number of recorded observations for a key.
    pub fn runs(&self, kernel: &str, kind: DeviceKind) -> u64 {
        self.entry(kernel, kind).map_or(0, |e| e.runs)
    }

    /// Number of distinct `(kernel, device class)` keys.
    pub fn len(&self) -> usize {
        let entries = self.entries.read();
        entries.values().flatten().filter(|e| e.runs > 0).count()
    }

    fn entry(&self, kernel: &str, kind: DeviceKind) -> Option<Entry> {
        self.entries
            .read()
            .get(kernel)
            .map(|slots| slots[kind as usize])
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_observation_is_not_enough() {
        let db = ProfileDb::new();
        db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(100));
        assert_eq!(db.observed("k", DeviceKind::Gpu), None);
        assert_eq!(db.runs("k", DeviceKind::Gpu), 1);
    }

    #[test]
    fn ema_converges_toward_recent_observations() {
        let db = ProfileDb::new();
        db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(1000));
        for _ in 0..50 {
            db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(100));
        }
        let p = db.observed("k", DeviceKind::Gpu).unwrap();
        assert!(p < SimDuration::from_nanos(110), "{p}");
    }

    #[test]
    fn kinds_are_independent_keys() {
        let db = ProfileDb::new();
        db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(10));
        db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(10));
        db.record("k", DeviceKind::Fpga, SimDuration::from_nanos(999));
        assert!(db.observed("k", DeviceKind::Gpu).is_some());
        assert!(db.observed("k", DeviceKind::Fpga).is_none());
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn unknown_kernel_predicts_none() {
        let db = ProfileDb::new();
        assert_eq!(db.observed("ghost", DeviceKind::Cpu), None);
        assert!(db.is_empty());
    }

    #[test]
    fn recalibrations_count_warm_updates_only() {
        let db = ProfileDb::new();
        db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(100));
        db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(100));
        assert_eq!(db.recalibrations(), 0, "warm-up records are not recals");
        db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(120));
        db.record("k", DeviceKind::Gpu, SimDuration::from_nanos(90));
        assert_eq!(db.recalibrations(), 2);
    }
}
