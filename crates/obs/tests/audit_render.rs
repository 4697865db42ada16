//! Every kind of audit row renders as it did while rows held their text:
//! the lines below were captured from that rendering, and `haocl-top`'s
//! parse of them must not move either.

use std::sync::Arc;

use haocl_obs::top::FleetSnapshot;
use haocl_obs::{
    AuditLog, CandidateInfo, FusionDecision, PlacementAudit, PredictionSource, Reason,
};
use FusionDecision::Unconsidered;
use PredictionSource::{CostModel, Observed};

const LINES: [&str; 18] = [
    "place kernel=saxpy tenant=alpha policy=hetero-aware chosen=gpu0/Gpu health=ok fused=- reason=\"observed profile predicts 1.500us\" candidates=[0:gpu0/Gpu pred=1500ns src=observed health=ok, 1:gpu1/Gpu pred=2250ns src=observed health=ok]",
    "place kernel=scale tenant=default policy=hetero-aware chosen=node1/Gpu health=ok fused=- reason=\"cost model estimates 12ns\" candidates=[0:node0/Cpu pred=73000ns src=cost-model health=ok, 1:node1/Gpu pred=12ns src=cost-model health=ok]",
    "place kernel=k tenant=default policy=first-fit chosen=gpu0/Gpu health=ok fused=- reason=\"no prediction (src=cost-model)\" candidates=[0:gpu0/Gpu pred=none src=cost-model health=ok]",
    "place kernel=k tenant=default policy=first-fit chosen=device3 health=- fused=- reason=\"policy choice\" candidates=[0:gpu0/Gpu pred=5ns src=observed health=ok]",
    "place kernel=k tenant=beta policy=round-robin chosen=gpu1/Fpga health=ok fused=- reason=\"pinned by task spec\" candidates=[2:gpu1/Fpga pred=900ns src=observed health=ok]",
    "place kernel=saxpy tenant=alpha policy=hetero-aware chosen=gpu0/Gpu health=degraded(x2.50) fused=- reason=\"observed profile predicts 4.000ms\" candidates=[0:gpu0/Gpu pred=4000000ns src=observed health=degraded(x2.50), 1:gpu1/Cpu pred=9000001ns src=cost-model health=ok]",
    "place kernel=saxpy tenant=alpha policy=hetero-aware chosen=gpu1/Cpu health=ok fused=- reason=\"cost model estimates 9.000ms\" candidates=[0:gpu0/Gpu pred=4000000ns src=observed health=degraded(x3.14), 1:gpu1/Cpu pred=9000001ns src=cost-model health=ok]",
    "place kernel=nn_dist+nn_dist+nn_dist tenant=default policy=hetero-aware chosen=gpu0/Gpu health=ok fused=lead:3 reason=\"observed profile predicts 61.234us\" candidates=[0:gpu0/Gpu pred=61234ns src=observed health=ok, 1:gpu1/Gpu pred=1234567890ns src=cost-model health=ok]",
    "place kernel=nn_dist tenant=default policy=hetero-aware chosen=device0 health=- fused=into:nn_dist reason=\"carried by fused dispatch `nn_dist+nn_dist+nn_dist`\" candidates=[]",
    "place kernel=nn_dist tenant=default policy=hetero-aware chosen=device0 health=- fused=into:nn_dist reason=\"carried by fused dispatch `nn_dist+nn_dist+nn_dist`\" candidates=[]",
    "place kernel=add3 tenant=gamma policy=hetero-aware chosen=gpu1/Gpu health=ok fused=rejected:write-write-overlap reason=\"cost model estimates 7ns\" candidates=[1:gpu1/Gpu pred=7ns src=cost-model health=ok]",
    "place kernel=add3 tenant=gamma policy=hetero-aware chosen=gpu1/Gpu health=ok fused=solo reason=\"cost model estimates 7ns\" candidates=[1:gpu1/Gpu pred=7ns src=cost-model health=ok]",
    "place kernel=<node-health> tenant=default policy=drift chosen=device1 health=- fused=- reason=\"node gpu1 degraded: launches running 2.50x over healthy baseline\" candidates=[]",
    "place kernel=<node-health> tenant=default policy=drift chosen=device1 health=- fused=- reason=\"node gpu1 recovered to healthy baseline\" candidates=[]",
    "place kernel=<node-health> tenant=default policy=quarantine chosen=device0 health=- fused=- reason=\"node gpu0 quarantined after 2 route failovers\" candidates=[]",
    "place kernel=<membership> tenant=default policy=membership chosen=gpu2/- health=ok fused=- reason=\"state=Active node=gpu2\" candidates=[2:gpu2/- pred=none src=cost-model health=ok]",
    "place kernel=<membership> tenant=default policy=membership chosen=gpu0/- health=ok fused=- reason=\"state=Departed node=gpu0\" candidates=[0:gpu0/- pred=none src=cost-model health=ok]",
    "place kernel=<autoscale> tenant=default policy=autoscale chosen=device0 health=- fused=- reason=\"decision=up depth_per_node=4.50 active=2 total_depth=9\" candidates=[]",
];

const SNAPSHOT: &str = "{\"total_placements\":13,\"recalibrations\":0,\"drift_transitions\":2,\"autoscale_events\":1,\"any_unhealthy\":false,\"nodes\":[{\"node\":\"device0\",\"kind\":\"?\",\"health\":\"unknown\",\"state\":\"unknown\",\"placements\":3,\"degraded_wins\":0,\"avoided\":0,\"queue_depth\":null,\"mean_latency_nanos\":null,\"wall_rps\":null,\"link_pending\":null,\"foreign_completions\":null},{\"node\":\"device3\",\"kind\":\"?\",\"health\":\"unknown\",\"state\":\"unknown\",\"placements\":1,\"degraded_wins\":0,\"avoided\":0,\"queue_depth\":null,\"mean_latency_nanos\":null,\"wall_rps\":null,\"link_pending\":null,\"foreign_completions\":null},{\"node\":\"gpu0\",\"kind\":\"GPU\",\"health\":\"unknown\",\"state\":\"departed\",\"placements\":4,\"degraded_wins\":1,\"avoided\":0,\"queue_depth\":null,\"mean_latency_nanos\":null,\"wall_rps\":null,\"link_pending\":null,\"foreign_completions\":null},{\"node\":\"gpu1\",\"kind\":\"GPU\",\"health\":\"unknown\",\"state\":\"unknown\",\"placements\":4,\"degraded_wins\":0,\"avoided\":0,\"queue_depth\":null,\"mean_latency_nanos\":null,\"wall_rps\":null,\"link_pending\":null,\"foreign_completions\":null},{\"node\":\"gpu2\",\"kind\":\"?\",\"health\":\"unknown\",\"state\":\"active\",\"placements\":0,\"degraded_wins\":0,\"avoided\":0,\"queue_depth\":null,\"mean_latency_nanos\":null,\"wall_rps\":null,\"link_pending\":null,\"foreign_completions\":null},{\"node\":\"node1\",\"kind\":\"GPU\",\"health\":\"unknown\",\"state\":\"unknown\",\"placements\":1,\"degraded_wins\":0,\"avoided\":0,\"queue_depth\":null,\"mean_latency_nanos\":null,\"wall_rps\":null,\"link_pending\":null,\"foreign_completions\":null}]}";

fn cand(
    device: usize,
    node: &str,
    kind: &'static str,
    predicted_nanos: Option<u64>,
    source: PredictionSource,
    health: f64,
) -> CandidateInfo {
    CandidateInfo {
        device,
        node: node.into(),
        kind,
        predicted_nanos,
        source,
        health,
    }
}

fn row(
    kernel: &str,
    tenant: &str,
    policy: &str,
    candidates: Vec<CandidateInfo>,
    chosen: usize,
    reason: Reason,
    fused: FusionDecision,
) -> PlacementAudit {
    PlacementAudit {
        kernel: kernel.into(),
        tenant: tenant.into(),
        policy: policy.into(),
        candidates,
        chosen,
        reason,
        fused,
    }
}

/// A rare row: no candidates, text of its own.
fn note(kernel: &str, policy: &str, chosen: usize, reason: String) -> PlacementAudit {
    let reason = reason.into();
    row(
        kernel,
        "default",
        policy,
        Vec::new(),
        chosen,
        reason,
        Unconsidered,
    )
}

fn pair(penalty: f64) -> Vec<CandidateInfo> {
    vec![
        cand(0, "gpu0", "Gpu", Some(4_000_000), Observed, penalty),
        cand(1, "gpu1", "Cpu", Some(9_000_001), CostModel, 1.0),
    ]
}

#[test]
fn every_row_kind_renders_as_captured() {
    let log = AuditLog::new();
    let place = |kernel, tenant, policy, candidates, chosen, fused| {
        log.record(row(
            kernel,
            tenant,
            policy,
            candidates,
            chosen,
            Reason::Predicted,
            fused,
        ));
    };
    // Placements won by an observed prediction, a cost-model one, none,
    // and by a device with no candidate record.
    let observed = vec![
        cand(0, "gpu0", "Gpu", Some(1500), Observed, 1.0),
        cand(1, "gpu1", "Gpu", Some(2250), Observed, 1.0),
    ];
    place("saxpy", "alpha", "hetero-aware", observed, 0, Unconsidered);
    let estimated = vec![
        cand(0, "node0", "Cpu", Some(73_000), CostModel, 1.0),
        cand(1, "node1", "Gpu", Some(12), CostModel, 1.0),
    ];
    place(
        "scale",
        "default",
        "hetero-aware",
        estimated,
        1,
        Unconsidered,
    );
    let unpredicted = vec![cand(0, "gpu0", "Gpu", None, CostModel, 1.0)];
    place("k", "default", "first-fit", unpredicted, 0, Unconsidered);
    let stray = vec![cand(0, "gpu0", "Gpu", Some(5), Observed, 1.0)];
    place("k", "default", "first-fit", stray, 3, Unconsidered);
    // A pinned placement.
    let pinned = vec![cand(2, "gpu1", "Fpga", Some(900), Observed, 1.0)];
    let why = Reason::from("pinned by task spec");
    log.record(row(
        "k",
        "beta",
        "round-robin",
        pinned,
        2,
        why,
        Unconsidered,
    ));
    // A degraded winner, then a degraded loser.
    place("saxpy", "alpha", "hetero-aware", pair(2.5), 0, Unconsidered);
    place(
        "saxpy",
        "alpha",
        "hetero-aware",
        pair(3.138),
        1,
        Unconsidered,
    );
    // A fused lead and the rows it carries; a rejected and a solo node.
    let joined = "nn_dist+nn_dist+nn_dist";
    let lead_candidates = vec![
        cand(0, "gpu0", "Gpu", Some(61_234), Observed, 1.0),
        cand(1, "gpu1", "Gpu", Some(1_234_567_890), CostModel, 1.0),
    ];
    let lead = FusionDecision::Fused { len: 3 };
    place(joined, "default", "hetero-aware", lead_candidates, 0, lead);
    let lead: Arc<str> = "nn_dist".into();
    for _ in 0..2 {
        let mut carried = note(
            "nn_dist",
            "hetero-aware",
            0,
            format!("carried by fused dispatch `{joined}`"),
        );
        carried.fused = FusionDecision::FusedInto {
            lead: Arc::clone(&lead),
        };
        log.record(carried);
    }
    let gpu1 = || vec![cand(1, "gpu1", "Gpu", Some(7), CostModel, 1.0)];
    let rejected = FusionDecision::Rejected {
        code: "write-write-overlap".to_string(),
    };
    place("add3", "gamma", "hetero-aware", gpu1(), 1, rejected);
    place(
        "add3",
        "gamma",
        "hetero-aware",
        gpu1(),
        1,
        FusionDecision::Solo,
    );
    // Drift and quarantine rows.
    let ratio = 2.5;
    let degraded =
        format!("node gpu1 degraded: launches running {ratio:.2}x over healthy baseline");
    log.record(note("<node-health>", "drift", 1, degraded));
    let recovered = "node gpu1 recovered to healthy baseline".to_string();
    log.record(note("<node-health>", "drift", 1, recovered));
    let quarantined = format!("node gpu0 quarantined after {} route failovers", 2);
    log.record(note("<node-health>", "quarantine", 0, quarantined));
    // Membership and autoscale rows.
    for (device, state) in [(2, "Active"), (0, "Departed")] {
        let node = format!("gpu{device}");
        let mut member = note(
            "<membership>",
            "membership",
            device,
            format!("state={state} node={node}"),
        );
        let healthy = CandidateInfo::HEALTHY;
        member.candidates = vec![cand(device, &node, "-", None, CostModel, healthy)];
        log.record(member);
    }
    let scaled = format!(
        "decision=up depth_per_node={:.2} active={} total_depth={}",
        4.5, 2, 9
    );
    log.record(note("<autoscale>", "autoscale", 0, scaled));

    let text = log.render();
    for (got, want) in text.lines().zip(LINES) {
        assert_eq!(got, want);
    }
    assert_eq!(text.lines().count(), LINES.len());
    assert_eq!(FleetSnapshot::from_text("", &text).to_json(), SNAPSHOT);
}
