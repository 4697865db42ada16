//! The scheduler decision audit log.
//!
//! Answers "where did this kernel run, and *why*": for every placement the
//! scheduler records the candidate devices it considered, what each
//! prediction source said about them, which one won, and the reason. The
//! log renders as one line per placement and aggregates into a per-kernel
//! summary for the bench JSON.

use std::collections::BTreeMap;
use std::fmt;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateInfo {
    /// Index of the device in the caller's device list.
    pub device: usize,
    /// Node the device lives on.
    pub node: String,
    /// Device kind (`Cpu` / `Gpu` / `Fpga`).
    pub kind: String,
    /// Predicted runtime in virtual nanoseconds, if any source had one.
    pub predicted_nanos: Option<u64>,
    /// Which source produced the prediction.
    pub source: PredictionSource,
    /// The drift detector's verdict on the candidate's node at placement
    /// time: `"ok"`, or `"degraded(x<ratio>)"` with the measured
    /// slowdown the policies down-weighted it by.
    pub health: String,
}

impl CandidateInfo {
    /// The health string a healthy candidate carries.
    pub const HEALTHY: &'static str = "ok";

    /// Renders a degraded verdict with its measured slowdown ratio.
    pub fn degraded_health(penalty: f64) -> String {
        format!("degraded(x{penalty:.2})")
    }

    /// Whether the candidate carried a degraded verdict at placement.
    pub fn is_degraded(&self) -> bool {
        self.health.starts_with("degraded")
    }
}

impl fmt::Display for CandidateInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}/{}", self.device, self.node, self.kind)?;
        match self.predicted_nanos {
            Some(n) => write!(f, " pred={n}ns src={}", self.source)?,
            None => write!(f, " pred=none src={}", self.source)?,
        }
        write!(f, " health={}", self.health)
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
        lead: String,
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

/// The full record of one placement decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementAudit {
    /// Kernel being placed.
    pub kernel: String,
    /// Billing tenant the launch was submitted under. Untagged
    /// (single-tenant) launches carry `"default"`, so existing
    /// dashboards keep matching without a rewrite.
    pub tenant: String,
    /// Active policy name.
    pub policy: String,
    /// Devices that survived eligibility filtering.
    pub candidates: Vec<CandidateInfo>,
    /// Index (into the caller's device list) of the winner.
    pub chosen: usize,
    /// Why the winner won (policy-specific).
    pub reason: String,
    /// The fusion prover's verdict for this launch.
    pub fused: FusionDecision,
}

/// The tenant label untagged placements carry.
pub const DEFAULT_TENANT: &str = "default";

impl PlacementAudit {
    /// The winning candidate's record, if present in `candidates`.
    pub fn winner(&self) -> Option<&CandidateInfo> {
        self.candidates.iter().find(|c| c.device == self.chosen)
    }

    /// Renders the decision as a single audit-log line.
    pub fn line(&self) -> String {
        let chosen = match self.winner() {
            Some(w) => format!("{}/{}", w.node, w.kind),
            None => format!("device{}", self.chosen),
        };
        let health = self
            .winner()
            .map(|w| w.health.clone())
            .unwrap_or_else(|| "-".to_string());
        let cands: Vec<String> = self.candidates.iter().map(|c| c.to_string()).collect();
        format!(
            "place kernel={} tenant={} policy={} chosen={} health={} fused={} reason=\"{}\" candidates=[{}]",
            self.kernel,
            self.tenant,
            self.policy,
            chosen,
            health,
            self.fused,
            self.reason,
            cands.join(", ")
        )
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
            out.push_str(&e.line());
            out.push('\n');
        }
        out
    }

    /// Placement counts aggregated by (kernel, winning device kind) —
    /// the shape the bench JSON summary carries.
    pub fn summary(&self) -> BTreeMap<(String, String), u64> {
        let mut out = BTreeMap::new();
        for e in self.entries.lock().iter() {
            let kind = e
                .winner()
                .map(|w| w.kind.clone())
                .unwrap_or_else(|| "unknown".to_string());
            *out.entry((e.kernel.clone(), kind)).or_insert(0) += 1;
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
            kernel: kernel.to_string(),
            tenant: DEFAULT_TENANT.to_string(),
            policy: "hetero-aware".to_string(),
            candidates: vec![
                CandidateInfo {
                    device: 0,
                    node: "node0".to_string(),
                    kind: "Cpu".to_string(),
                    predicted_nanos: Some(500),
                    source: PredictionSource::Observed,
                    health: CandidateInfo::HEALTHY.to_string(),
                },
                CandidateInfo {
                    device: 1,
                    node: "node1".to_string(),
                    kind: "Gpu".to_string(),
                    predicted_nanos: None,
                    source: PredictionSource::CostModel,
                    health: CandidateInfo::HEALTHY.to_string(),
                },
            ],
            chosen,
            reason: "lowest predicted time".to_string(),
            fused: FusionDecision::Unconsidered,
        }
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
        a.candidates[0].health = CandidateInfo::degraded_health(2.5);
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
        a.fused = FusionDecision::FusedInto {
            lead: "mm".to_string(),
        };
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
