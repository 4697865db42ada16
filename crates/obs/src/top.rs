//! Fleet health dashboard (`haocl-top`).
//!
//! Consumes the two text artifacts every run can already export — the
//! Prometheus metrics rendering and the scheduler audit log — and folds
//! them into one per-node health/placement table: queue depth, mean
//! observed latency, and the drift detector's verdict. The `haocl-top`
//! binary renders it for terminals; `--report json` emits the same
//! snapshot as a machine-readable CI artifact.

use std::collections::BTreeMap;

/// One parsed metric sample: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric (family) name, including `_sum`/`_count`/`_bucket`
    /// suffixes for histogram series.
    pub name: String,
    /// Label set, unescaped.
    pub labels: BTreeMap<String, String>,
    /// Sample value.
    pub value: f64,
}

/// Parses a Prometheus text exposition into samples, undoing the label
/// value escaping (`\\`, `\"`, `\n`) the renderer applies.
pub fn parse_metrics(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(sample) = parse_sample(line) else {
            continue;
        };
        out.push(sample);
    }
    out
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (head, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match head.find('{') {
        Some(brace) => {
            let name = &head[..brace];
            let body = head[brace + 1..].strip_suffix('}')?;
            (name, parse_labels(body)?)
        }
        None => (head, BTreeMap::new()),
    };
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses `k="v",k2="v2"` respecting escapes inside quoted values.
fn parse_labels(body: &str) -> Option<BTreeMap<String, String>> {
    let mut labels = BTreeMap::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = rest[..eq].trim_start_matches(',').trim().to_string();
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return None,
                },
                '"' => {
                    consumed = Some(eq + 2 + i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        labels.insert(key, value);
        rest = &rest[consumed?..];
    }
    Some(labels)
}

/// Extracts `key=value` from one audit line (value runs to the next
/// space; audit keys of interest all precede the quoted `reason=`).
fn audit_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!(" {key}=");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    Some(rest.split_whitespace().next().unwrap_or(rest))
}

/// One node's row in the dashboard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeRow {
    /// Node name (`node0`, …).
    pub node: String,
    /// Device class placed on this node (from the audit log), upper-case.
    pub kind: String,
    /// Health verdict: `healthy` / `degraded` / `quarantined` /
    /// `unknown` (no gauge exported).
    pub health: String,
    /// Membership state: `joining` / `active` / `draining` / `departed`
    /// / `unknown` — from the `policy=membership` audit records (last
    /// transition wins), falling back to the `haocl_node_state` gauge
    /// for transitions that predate tracing (e.g. the founding join).
    pub state: String,
    /// Placements won by this node.
    pub placements: u64,
    /// Placements won *while flagged degraded* (the advisory verdict in
    /// the audit's `health=` column).
    pub degraded_wins: u64,
    /// Times a healthy device won while this node's degraded candidate
    /// was on offer.
    pub avoided: u64,
    /// Host-side queue depth at last sample (the node-labelled device
    /// gauge), absent when the run never sampled it.
    pub queue_depth: Option<i64>,
    /// Mean observed kernel latency of this node's device class, virtual
    /// nanoseconds.
    pub mean_latency_nanos: Option<f64>,
    /// Wall-clock launch round trips per second on this node —
    /// `haocl_wall_requests_total / haocl_wall_nanos_total`, real time
    /// rather than the virtual model. Absent until the node completes a
    /// launch.
    pub wall_rps: Option<f64>,
    /// Calls in flight on the node's backbone link at the scrape, both
    /// planes (`haocl_link_pending`); absent when not exported.
    pub link_pending: Option<u64>,
    /// Responses a waiter received on behalf of another, both planes
    /// (`haocl_link_foreign_completions_total`) — how often callers
    /// actually overlapped on this node's link; absent when not
    /// exported.
    pub foreign_completions: Option<u64>,
}

/// The parsed fleet state `haocl-top` renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSnapshot {
    /// Per-node rows, ascending by node name.
    pub nodes: Vec<NodeRow>,
    /// Warm-profile recalibrations performed.
    pub recalibrations: u64,
    /// Audit placements parsed (excludes node-health, membership and
    /// autoscale rows).
    pub total_placements: u64,
    /// Drift verdict transitions recorded in the audit log.
    pub drift_transitions: u64,
    /// Autoscaler scale decisions recorded in the audit log.
    pub autoscale_events: u64,
}

impl FleetSnapshot {
    /// Builds the snapshot from a Prometheus metrics rendering and a
    /// scheduler audit-log rendering.
    pub fn from_text(metrics: &str, audit: &str) -> FleetSnapshot {
        let samples = parse_metrics(metrics);
        let find = |name: &str, key: &str, val: &str| -> Option<f64> {
            samples
                .iter()
                .find(|s| s.name == name && s.labels.get(key).map(String::as_str) == Some(val))
                .map(|s| s.value)
        };
        // One node's per-plane series, summed; `None` when the node
        // exports none.
        let sum = |name: &str, node: &str| -> Option<u64> {
            let mut series = samples
                .iter()
                .filter(|s| {
                    s.name == name && s.labels.get("node").map(String::as_str) == Some(node)
                })
                .peekable();
            series.peek()?;
            Some(series.map(|s| s.value as u64).sum())
        };
        let mut rows: BTreeMap<String, NodeRow> = BTreeMap::new();
        let row = |node: &str, rows: &mut BTreeMap<String, NodeRow>| {
            rows.entry(node.to_string()).or_insert_with(|| NodeRow {
                node: node.to_string(),
                kind: "?".to_string(),
                health: "unknown".to_string(),
                state: "unknown".to_string(),
                ..NodeRow::default()
            });
        };
        // Membership baseline from the unconditional gauge; audit
        // transition rows (recorded only while tracing) override below.
        for s in samples
            .iter()
            .filter(|s| s.name == crate::names::NODE_STATE)
        {
            if let Some(node) = s.labels.get("node") {
                row(node, &mut rows);
                rows.get_mut(node).unwrap().state = match s.value as i64 {
                    0 => "joining",
                    1 => "active",
                    2 => "draining",
                    3 => "departed",
                    _ => "unknown",
                }
                .to_string();
            }
        }
        for s in samples
            .iter()
            .filter(|s| s.name == crate::names::DEVICE_HEALTH)
        {
            if let Some(node) = s.labels.get("node") {
                row(node, &mut rows);
                let r = rows.get_mut(node).unwrap();
                r.health = match s.value as i64 {
                    0 => "healthy",
                    1 => "degraded",
                    2 => "quarantined",
                    _ => "unknown",
                }
                .to_string();
            }
        }
        for s in samples
            .iter()
            .filter(|s| s.name == crate::names::DEGRADED_PLACEMENTS_AVOIDED)
        {
            if let Some(node) = s.labels.get("node") {
                row(node, &mut rows);
                rows.get_mut(node).unwrap().avoided = s.value as u64;
            }
        }
        let mut snapshot = FleetSnapshot {
            recalibrations: samples
                .iter()
                .find(|s| s.name == crate::names::PROFILE_RECALIBRATIONS)
                .map(|s| s.value)
                .unwrap_or(0.0) as u64,
            ..FleetSnapshot::default()
        };
        for line in audit.lines() {
            if !line.starts_with("place ") {
                continue;
            }
            if audit_field(line, "policy") == Some("drift") {
                snapshot.drift_transitions += 1;
                continue;
            }
            if audit_field(line, "policy") == Some("autoscale") {
                snapshot.autoscale_events += 1;
                continue;
            }
            let Some(chosen) = audit_field(line, "chosen") else {
                continue;
            };
            if audit_field(line, "policy") == Some("membership") {
                // `reason="state=<State> node=<name>"` transition rows:
                // the chosen column carries the node, later rows win.
                let state = audit_field(line, "reason")
                    .and_then(|r| r.trim_start_matches('"').strip_prefix("state="));
                if let (Some((node, _)), Some(state)) = (chosen.split_once('/'), state) {
                    row(node, &mut rows);
                    rows.get_mut(node).unwrap().state = state.to_lowercase();
                }
                continue;
            }
            snapshot.total_placements += 1;
            let (node, kind) = match chosen.split_once('/') {
                Some((node, kind)) => (node, Some(kind)),
                None => (chosen, None),
            };
            row(node, &mut rows);
            let r = rows.get_mut(node).unwrap();
            r.placements += 1;
            if let Some(kind) = kind {
                r.kind = kind.to_uppercase();
            }
            if audit_field(line, "health").is_some_and(|h| h.starts_with("degraded")) {
                r.degraded_wins += 1;
            }
        }
        // Per-class series join the rows through each node's device
        // class; the queue-depth gauge carries the node name directly.
        let mean_latency: BTreeMap<String, (f64, f64)> = {
            let mut acc: BTreeMap<String, (f64, f64)> = BTreeMap::new();
            for s in &samples {
                let suffix = if s.name == format!("{}_sum", crate::names::KERNEL_LATENCY) {
                    0
                } else if s.name == format!("{}_count", crate::names::KERNEL_LATENCY) {
                    1
                } else {
                    continue;
                };
                if let Some(kind) = s.labels.get("kind") {
                    let e = acc.entry(kind.to_uppercase()).or_insert((0.0, 0.0));
                    if suffix == 0 {
                        e.0 += s.value;
                    } else {
                        e.1 += s.value;
                    }
                }
            }
            acc
        };
        for r in rows.values_mut() {
            if let Some((sum, count)) = mean_latency.get(&r.kind) {
                if *count > 0.0 {
                    r.mean_latency_nanos = Some(sum / count);
                }
            }
            // One gauge per device: a node queues what all of them do.
            r.queue_depth = sum(crate::names::QUEUE_DEPTH, &r.node).map(|v| v as i64);
            if let (Some(requests), Some(nanos)) = (
                find(crate::names::WALL_REQUESTS, "node", &r.node),
                find(crate::names::WALL_NANOS, "node", &r.node),
            ) {
                if nanos > 0.0 {
                    r.wall_rps = Some(requests / (nanos / 1e9));
                }
            }
            r.link_pending = sum(crate::names::LINK_PENDING, &r.node);
            r.foreign_completions = sum(crate::names::LINK_FOREIGN_COMPLETIONS, &r.node);
        }
        snapshot.nodes = rows.into_values().collect();
        snapshot
    }

    /// Whether any node is currently flagged degraded or quarantined.
    pub fn any_unhealthy(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| n.health == "degraded" || n.health == "quarantined")
    }

    /// Renders the terminal dashboard.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "haocl-top — {} nodes, {} placements, {} recalibrations, {} drift transitions, \
             {} autoscale events\n",
            self.nodes.len(),
            self.total_placements,
            self.recalibrations,
            self.drift_transitions,
            self.autoscale_events
        ));
        out.push_str(&format!(
            "{:<8} {:<6} {:<12} {:<9} {:>6} {:>9} {:>8} {:>6} {:>14} {:>9} {:>7} {:>8}\n",
            "NODE",
            "KIND",
            "HEALTH",
            "STATE",
            "PLACE",
            "DEGR.WIN",
            "AVOIDED",
            "QUEUE",
            "MEAN.LAT(ns)",
            "WALL.RPS",
            "PENDING",
            "FOREIGN"
        ));
        for n in &self.nodes {
            out.push_str(&format!(
                "{:<8} {:<6} {:<12} {:<9} {:>6} {:>9} {:>8} {:>6} {:>14} {:>9} {:>7} {:>8}\n",
                n.node,
                n.kind,
                n.health,
                n.state,
                n.placements,
                n.degraded_wins,
                n.avoided,
                n.queue_depth.map_or("-".into(), |v| v.to_string()),
                n.mean_latency_nanos
                    .map_or("-".into(), |v| format!("{v:.0}")),
                n.wall_rps.map_or("-".into(), |v| format!("{v:.0}")),
                n.link_pending.map_or("-".into(), |v| v.to_string()),
                n.foreign_completions.map_or("-".into(), |v| v.to_string()),
            ));
        }
        out
    }

    /// Renders the snapshot as a JSON report (CI artifact shape).
    pub fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"node\":{},\"kind\":{},\"health\":{},\"state\":{},\"placements\":{},\
                     \"degraded_wins\":{},\"avoided\":{},\"queue_depth\":{},\
                     \"mean_latency_nanos\":{},\"wall_rps\":{},\
                     \"link_pending\":{},\"foreign_completions\":{}}}",
                    json_str(&n.node),
                    json_str(&n.kind),
                    json_str(&n.health),
                    json_str(&n.state),
                    n.placements,
                    n.degraded_wins,
                    n.avoided,
                    n.queue_depth.map_or("null".into(), |v| v.to_string()),
                    n.mean_latency_nanos
                        .map_or("null".into(), |v| format!("{v:.1}")),
                    n.wall_rps.map_or("null".into(), |v| format!("{v:.1}")),
                    n.link_pending.map_or("null".into(), |v| v.to_string()),
                    n.foreign_completions
                        .map_or("null".into(), |v| v.to_string()),
                )
            })
            .collect();
        format!(
            "{{\"total_placements\":{},\"recalibrations\":{},\"drift_transitions\":{},\
             \"autoscale_events\":{},\"any_unhealthy\":{},\"nodes\":[{}]}}",
            self.total_placements,
            self.recalibrations,
            self.drift_transitions,
            self.autoscale_events,
            self.any_unhealthy(),
            nodes.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = "\
# TYPE haocl_degraded_placements_avoided_total counter
haocl_degraded_placements_avoided_total{node=\"node1\"} 7
# TYPE haocl_device_health gauge
haocl_device_health{node=\"node0\"} 0
haocl_device_health{node=\"node1\"} 1
# TYPE haocl_node_state gauge
haocl_node_state{node=\"node0\"} 1
haocl_node_state{node=\"node1\"} 1
# TYPE haocl_kernel_latency_nanos histogram
haocl_kernel_latency_nanos_bucket{kernel=\"mm\",kind=\"GPU\",le=\"+Inf\"} 2
haocl_kernel_latency_nanos_sum{kernel=\"mm\",kind=\"GPU\"} 3000
haocl_kernel_latency_nanos_count{kernel=\"mm\",kind=\"GPU\"} 2
# TYPE haocl_profile_recalibrations_total counter
haocl_profile_recalibrations_total 4
# TYPE haocl_queue_depth gauge
haocl_queue_depth{device=\"0\",node=\"node0\"} 3
";

    const AUDIT: &str = "\
place kernel=mm tenant=default policy=hetero-aware chosen=node0/Gpu health=ok fused=- reason=\"r\" candidates=[]
place kernel=mm tenant=default policy=hetero-aware chosen=node1/Gpu health=degraded(x2.00) fused=- reason=\"r\" candidates=[]
place kernel=<node-health> tenant=default policy=drift chosen=device1 health=- fused=- reason=\"node node1 degraded\" candidates=[]
place kernel=mm tenant=default policy=hetero-aware chosen=node0/Gpu health=ok fused=- reason=\"r\" candidates=[]
place kernel=<autoscale> tenant=default policy=autoscale chosen=device0 health=- fused=- reason=\"decision=up queue_depth=20\" candidates=[]
place kernel=<membership> tenant=default policy=membership chosen=node1/- health=- fused=- reason=\"state=Draining node=node1\" candidates=[]
";

    #[test]
    fn parses_escaped_label_values() {
        let samples = parse_metrics("m{k=\"a\\\\b\\\"c\\nd\"} 1\n");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].labels["k"], "a\\b\"c\nd");
    }

    #[test]
    fn snapshot_joins_metrics_and_audit_per_node() {
        let snap = FleetSnapshot::from_text(METRICS, AUDIT);
        assert_eq!(snap.total_placements, 3);
        assert_eq!(snap.recalibrations, 4);
        assert_eq!(snap.drift_transitions, 1);
        assert_eq!(snap.autoscale_events, 1);
        assert!(snap.any_unhealthy());
        assert_eq!(snap.nodes.len(), 2);
        let n0 = &snap.nodes[0];
        assert_eq!((n0.node.as_str(), n0.health.as_str()), ("node0", "healthy"));
        assert_eq!((n0.placements, n0.degraded_wins), (2, 0));
        assert_eq!(n0.state, "active");
        assert_eq!(n0.queue_depth, Some(3));
        assert_eq!(n0.mean_latency_nanos, Some(1500.0));
        let n1 = &snap.nodes[1];
        assert_eq!(n1.health, "degraded");
        assert_eq!((n1.placements, n1.degraded_wins, n1.avoided), (1, 1, 7));
        // The audit transition row wins over the gauge baseline.
        assert_eq!(n1.state, "draining");
    }

    #[test]
    fn wall_rps_divides_requests_by_wall_seconds() {
        let metrics = "\
# TYPE haocl_node_state gauge
haocl_node_state{node=\"gpu0\"} 1
haocl_node_state{node=\"gpu1\"} 1
# TYPE haocl_wall_requests_total counter
haocl_wall_requests_total{node=\"gpu0\"} 600
haocl_wall_requests_total{node=\"gpu1\"} 4
# TYPE haocl_wall_nanos_total counter
haocl_wall_nanos_total{node=\"gpu0\"} 2000000000
haocl_wall_nanos_total{node=\"gpu1\"} 0
";
        let snap = FleetSnapshot::from_text(metrics, "");
        let by_name = |name: &str| snap.nodes.iter().find(|n| n.node == name).unwrap();
        // 600 round trips over 2 wall-clock seconds.
        assert_eq!(by_name("gpu0").wall_rps, Some(300.0));
        // A zero wall-time denominator renders as unknown, not infinity.
        assert_eq!(by_name("gpu1").wall_rps, None);
        let text = snap.render();
        assert!(text.contains("WALL.RPS"), "{text}");
        assert!(text.contains("300"), "{text}");
        assert!(
            snap.to_json().contains("\"wall_rps\":300.0"),
            "{}",
            snap.to_json()
        );
    }

    #[test]
    fn queue_depth_sums_a_nodes_devices() {
        let metrics = "\
# TYPE haocl_node_state gauge
haocl_node_state{node=\"node0\"} 1
haocl_node_state{node=\"node1\"} 1
# TYPE haocl_queue_depth gauge
haocl_queue_depth{device=\"0\",node=\"node0\"} 3
haocl_queue_depth{device=\"1\",node=\"node0\"} 5
";
        let snap = FleetSnapshot::from_text(metrics, "");
        let by_name = |name: &str| snap.nodes.iter().find(|n| n.node == name).unwrap();
        // Both of node0's devices count, as the autoscaler counts them.
        assert_eq!(by_name("node0").queue_depth, Some(8));
        assert_eq!(by_name("node1").queue_depth, None);
    }

    #[test]
    fn link_self_reports_sum_over_planes() {
        let metrics = "\
# TYPE haocl_node_state gauge
haocl_node_state{node=\"gpu0\"} 1
haocl_node_state{node=\"gpu1\"} 1
# TYPE haocl_link_foreign_completions_total counter
haocl_link_foreign_completions_total{node=\"gpu0\",plane=\"control\"} 40
haocl_link_foreign_completions_total{node=\"gpu0\",plane=\"data\"} 2
# TYPE haocl_link_pending gauge
haocl_link_pending{node=\"gpu0\",plane=\"control\"} 3
haocl_link_pending{node=\"gpu0\",plane=\"data\"} 0
";
        let snap = FleetSnapshot::from_text(metrics, "");
        let by_name = |name: &str| snap.nodes.iter().find(|n| n.node == name).unwrap();
        assert_eq!(by_name("gpu0").link_pending, Some(3));
        assert_eq!(by_name("gpu0").foreign_completions, Some(42));
        // A node that exports neither series renders as unknown, not 0.
        assert_eq!(by_name("gpu1").link_pending, None);
        let text = snap.render();
        assert!(
            text.contains("PENDING") && text.contains("FOREIGN"),
            "{text}"
        );
        assert!(
            snap.to_json()
                .contains("\"link_pending\":3,\"foreign_completions\":42"),
            "{}",
            snap.to_json()
        );
    }

    #[test]
    fn text_render_lists_every_node() {
        let snap = FleetSnapshot::from_text(METRICS, AUDIT);
        let text = snap.render();
        assert!(text.contains("node0"), "{text}");
        assert!(text.contains("degraded"), "{text}");
        assert!(text.contains("4 recalibrations"), "{text}");
    }

    #[test]
    fn json_report_round_trips_the_verdict() {
        let snap = FleetSnapshot::from_text(METRICS, AUDIT);
        let json = snap.to_json();
        assert!(json.contains("\"any_unhealthy\":true"), "{json}");
        assert!(
            json.contains(
                "\"node\":\"node1\",\"kind\":\"GPU\",\"health\":\"degraded\",\"state\":\"draining\""
            ),
            "{json}"
        );
        assert!(json.contains("\"avoided\":7"), "{json}");
        assert!(json.contains("\"autoscale_events\":1"), "{json}");
    }

    #[test]
    fn membership_states_render_without_counting_as_placements() {
        let metrics = "\
# TYPE haocl_node_state gauge
haocl_node_state{node=\"gpu0\"} 3
haocl_node_state{node=\"gpu1\"} 0
";
        let audit = "\
place kernel=<membership> tenant=default policy=membership chosen=gpu1/- health=- fused=- reason=\"state=Joining node=gpu1\" candidates=[]
place kernel=<membership> tenant=default policy=membership chosen=gpu1/- health=- fused=- reason=\"state=Active node=gpu1\" candidates=[]
place kernel=<autoscale> tenant=default policy=autoscale chosen=device0 health=- fused=- reason=\"decision=up queue_depth=9\" candidates=[]
";
        let snap = FleetSnapshot::from_text(metrics, audit);
        assert_eq!(snap.total_placements, 0);
        assert_eq!(snap.autoscale_events, 1);
        let by_name = |name: &str| snap.nodes.iter().find(|n| n.node == name).unwrap();
        assert_eq!(by_name("gpu0").state, "departed");
        assert_eq!(by_name("gpu1").state, "active");
        let text = snap.render();
        assert!(text.contains("departed"), "{text}");
        assert!(text.contains("1 autoscale events"), "{text}");
        // Golden `--report json` shape for the elastic fleet columns.
        assert_eq!(
            snap.to_json(),
            "{\"total_placements\":0,\"recalibrations\":0,\"drift_transitions\":0,\
             \"autoscale_events\":1,\"any_unhealthy\":false,\"nodes\":[\
             {\"node\":\"gpu0\",\"kind\":\"?\",\"health\":\"unknown\",\"state\":\"departed\",\
             \"placements\":0,\"degraded_wins\":0,\"avoided\":0,\"queue_depth\":null,\
             \"mean_latency_nanos\":null,\"wall_rps\":null,\
             \"link_pending\":null,\"foreign_completions\":null},\
             {\"node\":\"gpu1\",\"kind\":\"?\",\"health\":\"unknown\",\"state\":\"active\",\
             \"placements\":0,\"degraded_wins\":0,\"avoided\":0,\"queue_depth\":null,\
             \"mean_latency_nanos\":null,\"wall_rps\":null,\
             \"link_pending\":null,\"foreign_completions\":null}]}"
        );
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_inputs_make_an_empty_snapshot() {
        let snap = FleetSnapshot::from_text("", "");
        assert!(snap.nodes.is_empty());
        assert!(!snap.any_unhealthy());
        assert_eq!(snap.to_json(), "{\"total_placements\":0,\"recalibrations\":0,\"drift_transitions\":0,\"autoscale_events\":0,\"any_unhealthy\":false,\"nodes\":[]}");
    }
}
