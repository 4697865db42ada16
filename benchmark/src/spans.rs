//! Bench-owned spans around calls into the layers' public functions.
//!
//! The program under test is measured from outside: the traced pass
//! wraps every call the benchmark makes into a layer in a span (name,
//! start, end, parent, op id), keeps them in memory, and writes them as
//! Chrome trace-event JSON when the run ends. A disabled recorder costs
//! one branch per call site, so the untraced pass runs the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; a block can record hundreds of
/// thousands, the viewer needs a representative prefix.
const TRACE_FILE_SPANS: usize = 40_000;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recording, if any.
    pub parent: Option<u32>,
    /// The workload operation this span belongs to.
    pub op: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    recs: Vec<SpanRec>,
    open: Vec<u32>,
    op: u32,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Marks the start of the next workload operation; spans recorded
    /// until the next call carry its id.
    pub fn next_op(&mut self) {
        self.op = self.op.wrapping_add(1);
    }

    /// Runs `f` inside a span named `name` (or bare, when disabled).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.recs.len() as u32;
        let parent = self.open.last().copied();
        self.recs.push(SpanRec {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.recs[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    #[cfg(test)]
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.recs)
    }

    /// The recording (a prefix of it, for very long ones) as a Chrome
    /// trace-event document.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, r) in self.recs.iter().take(TRACE_FILE_SPANS).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"op\":{}}}}}",
                r.name,
                r.start_ns as f64 / 1e3,
                r.dur_ns() as f64 / 1e3,
                r.parent.map_or(-1, i64::from),
                r.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// [`Spans::totals`] over a bare recording.
pub fn totals(recs: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; recs.len()];
    for r in recs {
        if let Some(p) = r.parent {
            child_ns[p as usize] += r.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (r, covered) in recs.iter().zip(child_ns) {
        let t = out.entry(r.name).or_default();
        t.count += 1;
        t.total_ns += r.dur_ns();
        t.self_ns += r.dur_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let recs = [
            rec("op", 0, 100, None),
            rec("enqueue", 5, 45, Some(0)),
            rec("submit", 10, 30, Some(1)),
            rec("wait", 50, 95, Some(0)),
        ];
        let t = totals(&recs);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["op"].self_ns, 100 - 40 - 45);
        assert_eq!(t["enqueue"].self_ns, 20);
        assert_eq!(t["submit"].self_ns, 20);
        assert_eq!(t["wait"].self_ns, 45);
        // Self times add back up to the root.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_runs_the_call() {
        let mut spans = Spans::new(false);
        let v = spans.time("x", |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(spans.records().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_op_ids() {
        let mut spans = Spans::new(true);
        spans.next_op();
        spans.time("outer", |s| {
            s.time("inner", |_| ());
        });
        spans.next_op();
        spans.time("outer", |_| ());
        let r = spans.records();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].parent, None);
        assert_eq!(r[1].parent, Some(0));
        assert_eq!((r[0].op, r[1].op, r[2].op), (1, 1, 2));
        assert!(r[1].start_ns >= r[0].start_ns && r[1].end_ns <= r[0].end_ns);
        assert_eq!(spans.totals()["outer"].count, 2);
        let doc = spans.chrome_trace("w");
        assert!(haocl_obs::json::parse(&doc).is_ok(), "{doc}");
    }
}
