//! Prometheus-text metrics in virtual time.
//!
//! A [`Registry`] holds counters, gauges and histograms keyed by metric
//! name plus a sorted label set, and renders them in the Prometheus text
//! exposition format. Histograms bucket **virtual-time** values (latency
//! metrics use nanosecond bounds); there is no scrape loop — the registry
//! is rendered once at the end of a run, matching the simulation's
//! batch-oriented lifecycle.
//!
//! Rendering is deterministic: metric families and label sets are emitted
//! in lexicographic order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use haocl_sim::SimDuration;

/// Default histogram bounds for virtual-time latencies, in nanoseconds
/// (1µs … 10s, roughly log-spaced).
pub const LATENCY_BUCKETS_NANOS: [u64; 10] = [
    1_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// A label set in canonical (sorted-by-key) order.
type Labels = Vec<(String, String)>;

fn canon(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    // Per the exposition format, label values escape backslash, double
    // quote and line feed (in that order, so the escapes themselves
    // survive).
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}=\"{}\"",
                v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

#[derive(Debug, Clone)]
struct Hist {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u128,
    count: u64,
}

impl Hist {
    fn new(bounds: &[u64]) -> Hist {
        Hist {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            sum: 0,
            count: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        for (i, b) in self.bounds.iter().enumerate() {
            if value <= *b {
                self.counts[i] += 1;
            }
        }
        self.sum += u128::from(value);
        self.count += 1;
    }
}

/// One counter series, resolved once with [`Registry::counter`] so a hot
/// path can bump it without building the label set (and taking the
/// registry lock) on every increment. Clones share the series.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `by` to the series.
    pub fn inc(&self, by: u64) {
        // A statistic: publishes no other data.
        self.0.fetch_add(by, Ordering::Relaxed);
    }
}

/// One gauge series, resolved once with [`Registry::gauge`]: setting it
/// is one atomic store, with no label set built and no registry lock
/// taken. Clones share the series.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the series to `value`.
    pub fn set(&self, value: i64) {
        // A statistic: publishes no other data.
        self.0.store(value, Ordering::Relaxed);
    }

    /// The series' current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A deterministic, thread-safe metrics registry.
///
/// # Examples
///
/// ```
/// use haocl_obs::Registry;
///
/// let m = Registry::new();
/// m.inc_counter("haocl_frames_total", &[("plane", "control")], 3);
/// m.observe_nanos("haocl_kernel_latency_nanos", &[("kernel", "mm")], 42_000);
/// let text = m.render();
/// assert!(text.contains("haocl_frames_total{plane=\"control\"} 3"));
/// assert!(text.contains("haocl_kernel_latency_nanos_count{kernel=\"mm\"} 1"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, BTreeMap<Labels, Counter>>>,
    gauges: Mutex<BTreeMap<String, BTreeMap<Labels, Gauge>>>,
    histograms: Mutex<BTreeMap<String, BTreeMap<Labels, Hist>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `by` to a counter.
    pub fn inc_counter(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.with_counter(name, labels, |c| c.inc(by));
    }

    /// A handle on one counter series, created at zero if it does not
    /// exist yet (it renders from then on). The handle counts into the
    /// registry until [`Registry::clear`] drops the series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.with_counter(name, labels, Counter::clone)
    }

    fn with_counter<R>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl FnOnce(&Counter) -> R,
    ) -> R {
        f(self
            .counters
            .lock()
            .entry(name.to_string())
            .or_default()
            .entry(canon(labels))
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0)))))
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .lock()
            .get(name)
            .and_then(|m| m.get(&canon(labels)))
            .map_or(0, |c| c.0.load(Ordering::Relaxed))
    }

    /// Raises a counter to `total`, the reading of a count kept
    /// elsewhere (a link's atomics, the fabric, the VM): counters only
    /// move forward, so this adds what the registry has not seen yet.
    pub fn advance_counter(&self, name: &str, labels: &[(&str, &str)], total: u64) {
        let behind = total.saturating_sub(self.counter_value(name, labels));
        self.inc_counter(name, labels, behind);
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.gauge(name, labels).set(value);
    }

    /// A handle on one gauge series, created at zero if it does not
    /// exist yet (it renders from then on). The handle sets the series
    /// until [`Registry::clear`] drops it.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauges
            .lock()
            .entry(name.to_string())
            .or_default()
            .entry(canon(labels))
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Records a nanosecond value into a histogram with
    /// [`LATENCY_BUCKETS_NANOS`] bounds.
    pub fn observe_nanos(&self, name: &str, labels: &[(&str, &str)], nanos: u64) {
        self.observe_with_buckets(name, labels, nanos, &LATENCY_BUCKETS_NANOS);
    }

    /// Records a virtual duration into a latency histogram.
    pub fn observe_duration(&self, name: &str, labels: &[(&str, &str)], dur: SimDuration) {
        self.observe_nanos(name, labels, dur.as_nanos());
    }

    /// Records a value into a histogram with explicit bucket bounds.
    /// Bounds are fixed by the first observation of each series.
    pub fn observe_with_buckets(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        value: u64,
        bounds: &[u64],
    ) {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .entry(canon(labels))
            .or_insert_with(|| Hist::new(bounds))
            .observe(value);
    }

    /// Total observation count of a histogram series (zero if absent).
    pub fn histogram_count(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.histograms
            .lock()
            .get(name)
            .and_then(|m| m.get(&canon(labels)))
            .map(|h| h.count)
            .unwrap_or(0)
    }

    /// Renders every family in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, series) in self.counters.lock().iter() {
            out.push_str(&format!("# TYPE {name} counter\n"));
            for (labels, counter) in series {
                let value = counter.0.load(Ordering::Relaxed);
                out.push_str(&format!("{name}{} {value}\n", render_labels(labels, None)));
            }
        }
        for (name, series) in self.gauges.lock().iter() {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for (labels, gauge) in series {
                let value = gauge.0.load(Ordering::Relaxed);
                out.push_str(&format!("{name}{} {value}\n", render_labels(labels, None)));
            }
        }
        for (name, series) in self.histograms.lock().iter() {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (labels, h) in series {
                for (bound, cumulative) in h.bounds.iter().zip(h.counts.iter()) {
                    out.push_str(&format!(
                        "{name}_bucket{} {cumulative}\n",
                        render_labels(labels, Some(("le", &bound.to_string())))
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{} {}\n",
                    render_labels(labels, Some(("le", "+Inf"))),
                    h.count
                ));
                out.push_str(&format!(
                    "{name}_sum{} {}\n",
                    render_labels(labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{name}_count{} {}\n",
                    render_labels(labels, None),
                    h.count
                ));
            }
        }
        out
    }

    /// Drops every recorded series.
    pub fn clear(&self) {
        self.counters.lock().clear();
        self.gauges.lock().clear();
        self.histograms.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = Registry::new();
        m.inc_counter("c", &[("a", "1")], 2);
        m.inc_counter("c", &[("a", "1")], 3);
        m.inc_counter("c", &[("a", "2")], 1);
        assert_eq!(m.counter_value("c", &[("a", "1")]), 5);
        assert_eq!(m.counter_value("c", &[("a", "2")]), 1);
        assert_eq!(m.counter_value("c", &[("a", "9")]), 0);
    }

    #[test]
    fn a_counter_handle_counts_into_its_series() {
        let m = Registry::new();
        m.inc_counter("c", &[("node", "n0")], 2);
        let handle = m.counter("c", &[("node", "n0")]);
        handle.inc(3);
        handle.clone().inc(1);
        m.inc_counter("c", &[("node", "n0")], 1);
        assert_eq!(m.counter_value("c", &[("node", "n0")]), 7);
        assert!(m.render().contains("c{node=\"n0\"} 7\n"));
    }

    #[test]
    fn a_gauge_handle_sets_its_series() {
        let m = Registry::new();
        let handle = m.gauge("g", &[("node", "n0")]);
        assert!(m.render().contains("g{node=\"n0\"} 0\n"));
        handle.set(5);
        m.set_gauge("g", &[("node", "n0")], 3);
        assert!(m.render().contains("g{node=\"n0\"} 3\n"));
        handle.clone().set(-2);
        assert!(m.render().contains("g{node=\"n0\"} -2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Registry::new();
        m.observe_with_buckets("h", &[], 1, &[1, 10, 100]);
        m.observe_with_buckets("h", &[], 5, &[1, 10, 100]);
        m.observe_with_buckets("h", &[], 1_000, &[1, 10, 100]);
        let text = m.render();
        assert!(text.contains("h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("h_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("h_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("h_sum 1006\n"));
        assert!(text.contains("h_count 3\n"));
    }

    #[test]
    fn render_is_sorted_and_label_values_escaped() {
        let m = Registry::new();
        m.inc_counter("z_metric", &[], 1);
        m.inc_counter("a_metric", &[("k", "quo\"te")], 1);
        m.set_gauge("depth", &[("node", "n0")], 4);
        let text = m.render();
        let a = text.find("a_metric").unwrap();
        let z = text.find("z_metric").unwrap();
        assert!(a < z, "families sorted: {text}");
        assert!(text.contains("k=\"quo\\\"te\""));
        assert!(text.contains("# TYPE depth gauge\ndepth{node=\"n0\"} 4\n"));
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        let m = Registry::new();
        m.inc_counter("c", &[("k", "line1\nline2")], 1);
        m.inc_counter("c", &[("k", "back\\slash \"quoted\"")], 1);
        m.inc_counter("c", &[("k", "\\n")], 1);
        let text = m.render();
        // A raw newline inside a label value would split the sample line
        // and corrupt the whole exposition; it must render as \n.
        assert!(text.contains("c{k=\"line1\\nline2\"} 1"), "{text}");
        assert!(
            text.contains("c{k=\"back\\\\slash \\\"quoted\\\"\"} 1"),
            "{text}"
        );
        // A literal backslash-n survives distinct from a real newline.
        assert!(text.contains("c{k=\"\\\\n\"} 1"), "{text}");
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.ends_with(" 1"),
                "unterminated sample line: {line:?}"
            );
        }
    }
}
