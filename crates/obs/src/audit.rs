//! The scheduler decision audit log.
//!
//! Answers "where did this kernel run, and *why*": for every placement the
//! scheduler records the candidate devices it considered, what each
//! prediction source said about them, which one won, and the reason. The
//! log renders as one line per placement and aggregates into a per-kernel
//! summary for the bench JSON.
//!
//! A row holds facts, not text: names are shared [`Arc<str>`]s, the
//! device kind is static, the health is the penalty it is rendered from
//! and a placement's reason is read off its winner's prediction when
//! the row renders. Only rows without a prediction to explain them
//! (pins, carried fused members, node-health, membership and autoscale
//! rows) keep text of their own.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::{Arc, LazyLock};

use haocl_sim::SimDuration;
use parking_lot::Mutex;

/// Where a candidate's predicted runtime came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionSource {
    /// Warm profile-database entry built from observed runs.
    Observed,
    /// No warm profile entry; the roofline cost model estimated the time.
    CostModel,
}

impl fmt::Display for PredictionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PredictionSource::Observed => "observed",
            PredictionSource::CostModel => "cost-model",
        })
    }
}

/// One device the scheduler considered for a placement.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateInfo {
    /// Index of the device in the caller's device list.
    pub device: usize,
    /// Node the device lives on.
    pub node: Arc<str>,
    /// Device kind (`Cpu` / `Gpu` / `Fpga`).
    pub kind: &'static str,
    /// Predicted runtime in virtual nanoseconds, if any source had one.
    pub predicted_nanos: Option<u64>,
    /// Which source produced the prediction.
    pub source: PredictionSource,
    /// The drift detector's slowdown penalty on the candidate's node at
    /// placement time: [`CandidateInfo::HEALTHY`], or the measured ratio
    /// (above 1) the policies down-weighted it by. Renders as `ok` or
    /// `degraded(x<ratio>)`.
    pub health: f64,
}

impl CandidateInfo {
    /// The health penalty a healthy candidate carries.
    pub const HEALTHY: f64 = 1.0;

    /// Whether the candidate carried a degraded verdict at placement.
    pub fn is_degraded(&self) -> bool {
        self.health > Self::HEALTHY
    }

    fn write_health(&self, out: &mut impl fmt::Write) -> fmt::Result {
        if self.is_degraded() {
            write!(out, "degraded(x{:.2})", self.health)
        } else {
            out.write_str("ok")
        }
    }
}

impl fmt::Display for CandidateInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}/{}", self.device, self.node, self.kind)?;
        match self.predicted_nanos {
            Some(n) => write!(f, " pred={n}ns src={}", self.source)?,
            None => write!(f, " pred=none src={}", self.source)?,
        }
        f.write_str(" health=")?;
        self.write_health(f)
    }
}

/// What the fusion prover decided about a launch, rendered as the
/// audit line's `fused=` column. Launches that never went through the
/// graph path carry [`FusionDecision::Unconsidered`] (`-`), so the
/// single-launch audit trail stays recognizable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FusionDecision {
    /// The launch never went through the task-graph path.
    #[default]
    Unconsidered,
    /// Graph path, but the node dispatched alone (no fusable neighbor,
    /// or fusion disabled on the graph).
    Solo,
    /// Leads a fused dispatch covering `len` kernels.
    Fused {
        /// Total kernels in the fused dispatch (including the lead).
        len: usize,
    },
    /// Folded into the dispatch led by `lead` — no wire command of its
    /// own.
    FusedInto {
        /// Kernel name of the dispatch lead.
        lead: Arc<str>,
    },
    /// Fusing with its predecessor was not provably safe; `code` is the
    /// prover's machine-readable rejection reason.
    Rejected {
        /// Stable rejection code (e.g. `write-write-overlap`).
        code: String,
    },
}

impl fmt::Display for FusionDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionDecision::Unconsidered => f.write_str("-"),
            FusionDecision::Solo => f.write_str("solo"),
            FusionDecision::Fused { len } => write!(f, "lead:{len}"),
            FusionDecision::FusedInto { lead } => write!(f, "into:{lead}"),
            FusionDecision::Rejected { code } => write!(f, "rejected:{code}"),
        }
    }
}

/// Why a placement's winner won.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// Read off the winner's prediction when the row renders:
    /// `observed profile predicts <t>`, `cost model estimates <t>` or
    /// `no prediction (src=<source>)`; `policy choice` when the winner
    /// has no candidate record.
    Predicted,
    /// Text the row carries itself.
    Text(Cow<'static, str>),
}

impl From<&'static str> for Reason {
    fn from(text: &'static str) -> Reason {
        Reason::Text(Cow::Borrowed(text))
    }
}

impl From<String> for Reason {
    fn from(text: String) -> Reason {
        Reason::Text(Cow::Owned(text))
    }
}

/// The full record of one placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementAudit {
    /// Kernel being placed (a fused dispatch's names joined with `+`).
    pub kernel: Arc<str>,
    /// Billing tenant the launch was submitted under. Untagged
    /// (single-tenant) launches carry `"default"`, so existing
    /// dashboards keep matching without a rewrite.
    pub tenant: Arc<str>,
    /// Active policy name.
    pub policy: Arc<str>,
    /// Devices that survived eligibility filtering.
    pub candidates: Vec<CandidateInfo>,
    /// Index (into the caller's device list) of the winner.
    pub chosen: usize,
    /// Why the winner won.
    pub reason: Reason,
    /// The fusion prover's verdict for this launch.
    pub fused: FusionDecision,
}

/// The tenant label untagged placements carry.
pub const DEFAULT_TENANT: &str = "default";

/// [`DEFAULT_TENANT`] as a shared name: every untagged launch holds the
/// same one.
pub fn default_tenant() -> Arc<str> {
    static NAME: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from(DEFAULT_TENANT));
    Arc::clone(&NAME)
}

impl PlacementAudit {
    /// The winning candidate's record, if present in `candidates`.
    pub fn winner(&self) -> Option<&CandidateInfo> {
        self.candidates.iter().find(|c| c.device == self.chosen)
    }

    /// The rendered `reason=` column.
    pub fn reason_text(&self) -> String {
        let mut out = String::new();
        self.write_reason(&mut out).expect("writing to a String");
        out
    }

    fn write_reason(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match (&self.reason, self.winner()) {
            (Reason::Text(text), _) => out.write_str(text),
            (Reason::Predicted, None) => out.write_str("policy choice"),
            (Reason::Predicted, Some(w)) => match (w.source, w.predicted_nanos) {
                (PredictionSource::Observed, Some(n)) => {
                    write!(
                        out,
                        "observed profile predicts {}",
                        SimDuration::from_nanos(n)
                    )
                }
                (PredictionSource::CostModel, Some(n)) => {
                    write!(out, "cost model estimates {}", SimDuration::from_nanos(n))
                }
                (src, None) => write!(out, "no prediction (src={src})"),
            },
        }
    }

    /// Renders the decision as a single audit-log line.
    pub fn line(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for PlacementAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "place kernel={} tenant={} policy={} chosen=",
            self.kernel, self.tenant, self.policy
        )?;
        match self.winner() {
            Some(w) => {
                write!(f, "{}/{} health=", w.node, w.kind)?;
                w.write_health(f)?;
            }
            None => write!(f, "device{} health=-", self.chosen)?,
        }
        write!(f, " fused={} reason=\"", self.fused)?;
        self.write_reason(f)?;
        f.write_str("\" candidates=[")?;
        for (i, c) in self.candidates.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{c}")?;
        }
        f.write_str("]")
    }
}

/// Thread-safe collector of placement decisions.
#[derive(Debug, Default)]
pub struct AuditLog {
    entries: Mutex<Vec<PlacementAudit>>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Appends one placement decision.
    pub fn record(&self, audit: PlacementAudit) {
        self.entries.lock().push(audit);
    }

    /// Snapshot of every decision so far, in placement order.
    pub fn entries(&self) -> Vec<PlacementAudit> {
        self.entries.lock().clone()
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Renders the whole log, one line per placement.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.entries.lock().iter() {
            writeln!(out, "{e}").expect("writing to a String");
        }
        out
    }

    /// Placement counts aggregated by (kernel, winning device kind) —
    /// the shape the bench JSON summary carries.
    pub fn summary(&self) -> BTreeMap<(String, String), u64> {
        let mut out = BTreeMap::new();
        for e in self.entries.lock().iter() {
            let kind = e.winner().map_or("unknown", |w| w.kind);
            *out.entry((e.kernel.to_string(), kind.to_string()))
                .or_insert(0) += 1;
        }
        out
    }

    /// Drops every recorded decision.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(kernel: &str, chosen: usize) -> PlacementAudit {
        PlacementAudit {
            kernel: kernel.into(),
            tenant: default_tenant(),
            policy: "hetero-aware".into(),
            candidates: vec![
                CandidateInfo {
                    device: 0,
                    node: "node0".into(),
                    kind: "Cpu",
                    predicted_nanos: Some(500),
                    source: PredictionSource::Observed,
                    health: CandidateInfo::HEALTHY,
                },
                CandidateInfo {
                    device: 1,
                    node: "node1".into(),
                    kind: "Gpu",
                    predicted_nanos: None,
                    source: PredictionSource::CostModel,
                    health: CandidateInfo::HEALTHY,
                },
            ],
            chosen,
            reason: "lowest predicted time".into(),
            fused: FusionDecision::Unconsidered,
        }
    }

    /// A row keeps no text inline: names are shared pointers and a
    /// placement's reason is derived (160 and 104 bytes as `String`s).
    #[test]
    fn rows_hold_pointers_not_text() {
        assert!(std::mem::size_of::<PlacementAudit>() <= 128);
        assert!(std::mem::size_of::<CandidateInfo>() <= 72);
    }

    #[test]
    fn line_names_winner_and_every_candidate() {
        let line = audit("mm", 0).line();
        assert!(line.contains("kernel=mm"));
        assert!(line.contains("tenant=default"));
        assert!(line.contains("chosen=node0/Cpu"));
        assert!(line.contains("fused=-"));
        assert!(line.contains("pred=500ns src=observed"));
        assert!(line.contains("pred=none src=cost-model"));
    }

    #[test]
    fn health_column_carries_the_winners_verdict() {
        let mut a = audit("mm", 0);
        assert!(a.line().contains(" health=ok "), "{}", a.line());
        a.candidates[0].health = 2.5;
        assert!(a.candidates[0].is_degraded());
        let line = a.line();
        assert!(line.contains(" health=degraded(x2.50) "), "{line}");
        assert!(
            line.contains("src=observed health=degraded(x2.50)"),
            "{line}"
        );
        // A row with no candidate records (e.g. node-health transitions)
        // renders a placeholder.
        a.candidates.clear();
        assert!(a.line().contains(" health=- "), "{}", a.line());
    }

    #[test]
    fn fusion_column_renders_every_decision() {
        let mut a = audit("mm", 0);
        a.fused = FusionDecision::Fused { len: 3 };
        assert!(a.line().contains("fused=lead:3"));
        a.fused = FusionDecision::FusedInto { lead: "mm".into() };
        assert!(a.line().contains("fused=into:mm"));
        a.fused = FusionDecision::Rejected {
            code: "write-write-overlap".to_string(),
        };
        assert!(a.line().contains("fused=rejected:write-write-overlap"));
        a.fused = FusionDecision::Solo;
        assert!(a.line().contains("fused=solo"));
    }

    #[test]
    fn summary_counts_by_kernel_and_kind() {
        let log = AuditLog::new();
        log.record(audit("mm", 0));
        log.record(audit("mm", 0));
        log.record(audit("mm", 1));
        log.record(audit("knn", 1));
        let s = log.summary();
        assert_eq!(s[&("mm".to_string(), "Cpu".to_string())], 2);
        assert_eq!(s[&("mm".to_string(), "Gpu".to_string())], 1);
        assert_eq!(s[&("knn".to_string(), "Gpu".to_string())], 1);
        assert_eq!(log.len(), 4);
        assert_eq!(log.render().lines().count(), 4);
    }
}
