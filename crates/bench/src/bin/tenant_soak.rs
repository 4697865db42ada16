//! Multi-tenant serving-plane soak with CI gates.
//!
//! ```text
//! cargo run --release -p haocl-bench --bin tenant_soak
//! cargo run --release -p haocl-bench --bin tenant_soak -- --rounds 12 \
//!     --json out.json --trace trace.json --metrics metrics.prom --audit audit.log
//! ```
//!
//! Four synthetic tenants (two equal-weight, one weight-2, one hog
//! oversubmitting a bounded queue) share a 2-GPU cluster through the
//! serving plane for a fixed virtual-compute budget. The process exits
//! nonzero when any gate fails:
//!
//! * **no starvation** — every tenant's completed count > 0;
//! * **fairness** — equal-weight tenants' completed compute within 1.5×
//!   over the contended window;
//! * **admission** — the hog was shed (bounded queues held);
//! * **consistency** — each tenant's buffer matches its completed
//!   count, and `submitted == completed (+ pending)` per tenant.
//!
//! The `--metrics` and `--audit` files are what `haocl-top --metrics
//! <file> --audit <file>` renders as a fleet dashboard.
//!
//! `HAOCL_CHAOS_SPEC` / `HAOCL_CHAOS_SEED` arm fault injection exactly
//! as for every cluster launch — the nightly chaos matrix re-runs this
//! soak with a crash+lossy spec while the tenants are active.

use haocl_bench::tenant_soak;
use haocl_bench::text::{json_string, render_table, write_artifact};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg_after = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        })
    };
    let rounds: usize = arg_after("--rounds")
        .map(|v| v.parse().expect("--rounds takes a number"))
        .unwrap_or(8);
    let json_path = arg_after("--json");
    let trace_path = arg_after("--trace");
    let metrics_path = arg_after("--metrics");
    let audit_path = arg_after("--audit");

    println!("Tenant soak — {rounds} contended rounds, 4 tenants on a 2-GPU cluster");
    println!();
    let report = tenant_soak::run(rounds).expect("tenant soak run");

    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.weight.to_string(),
                r.submitted.to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                format!("{:.3}ms", r.compute_nanos as f64 / 1e6),
                r.mem_bytes.to_string(),
                if r.consistent { "ok" } else { "MISMATCH" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "tenant",
                "weight",
                "submitted",
                "completed",
                "shed",
                "compute",
                "mem",
                "digest"
            ],
            &table
        )
    );
    println!();
    println!(
        "equal-weight fairness ratio: {:.3} (gate <= 1.5)   weight-2 ratio: {:.3}",
        report.fairness_ratio, report.weighted_ratio
    );
    if !report.chaos_schedule.is_empty() {
        println!("chaos faults injected: {}", report.chaos_schedule.len());
        for line in &report.chaos_schedule {
            println!("  {line}");
        }
    }

    for (path, body) in [
        (&trace_path, &report.trace_json),
        (&metrics_path, &report.metrics),
        (&audit_path, &report.audit),
    ] {
        if let Some(path) = path {
            write_artifact(path, body);
        }
    }
    if let Some(path) = json_path {
        let records: Vec<String> = report
            .rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"tenant\": {}, \"weight\": {}, \"submitted\": {}, ",
                        "\"completed\": {}, \"shed\": {}, \"compute_nanos\": {}, ",
                        "\"contended_compute_nanos\": {}, \"mem_bytes\": {}, ",
                        "\"digest\": \"{:016x}\", \"consistent\": {}}}"
                    ),
                    json_string(r.name),
                    r.weight,
                    r.submitted,
                    r.completed,
                    r.shed,
                    r.compute_nanos,
                    r.contended_compute_nanos,
                    r.mem_bytes,
                    r.digest,
                    r.consistent,
                )
            })
            .collect();
        let violations: Vec<String> = report
            .violations
            .iter()
            .map(|v| format!("    {}", json_string(v)))
            .collect();
        let body = format!(
            concat!(
                "{{\n  \"soak\": \"tenant\",\n  \"rounds\": {},\n",
                "  \"fairness_ratio\": {:.4},\n  \"weighted_ratio\": {:.4},\n",
                "  \"tenants\": [\n{}\n  ],\n  \"violations\": [\n{}\n  ]\n}}\n"
            ),
            rounds,
            report.fairness_ratio,
            report.weighted_ratio,
            records.join(",\n"),
            violations.join(",\n"),
        );
        write_artifact(&path, &body);
    }

    if report.violations.is_empty() {
        println!();
        println!("all gates passed");
    } else {
        eprintln!();
        for v in &report.violations {
            eprintln!("GATE VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
