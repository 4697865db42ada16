//! Regenerates Fig. 2: end-to-end speedup over a single GPU/FPGA node
//! for all five benchmarks across cluster sizes and systems.
//!
//! ```text
//! cargo run --release -p haocl-bench --bin fig2           # paper scale (modeled)
//! cargo run --release -p haocl-bench --bin fig2 -- --small  # quick test scale
//! cargo run --release -p haocl-bench --bin fig2 -- --small --json out.json
//! cargo run --release -p haocl-bench --bin fig2 -- --small \
//!     --trace trace.json --metrics metrics.prom   # observability artifacts
//! ```
//!
//! `--trace`/`--metrics` run one traced probe configuration (MatrixMul on
//! a 2+2 hetero cluster plus an auto-scheduled burst) and write its
//! Chrome trace / Prometheus dump; `--json` output always carries the
//! per-phase breakdown per row and the probe's audit-log summary.

use haocl_bench::text::{json_string, render_table, write_artifact};
use haocl_bench::{fig2, probe};
use haocl_sim::PhaseBreakdown;
use haocl_workloads::{RunOptions, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let path_arg = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires an output path");
                std::process::exit(2);
            })
        })
    };
    let json_path = path_arg("--json");
    let trace_path = path_arg("--trace");
    let metrics_path = path_arg("--metrics");
    let workloads = if small {
        Workload::test_suite()
    } else {
        Workload::paper_suite()
    };
    let node_counts = [1usize, 2, 4, 8, 16];
    // Steady-state (data-resident) measurement: the paper's regime where
    // the data lives distributed; pass --staged for cold-start runs.
    let opts = if args.iter().any(|a| a == "--staged") {
        RunOptions::modeled()
    } else {
        RunOptions::modeled_resident()
    };
    println!("Fig. 2 — End-to-end speedup over a single GPU (virtual time)");
    println!();
    // Wall clock (monotonic) around the measured runs: the JSON artifact
    // reports simulated-vs-real throughput so CI history can spot harness
    // slowdowns that virtual time is blind to.
    let wall_start = std::time::Instant::now();
    let mut virtual_nanos: u128 = 0;
    let mut records = Vec::new();
    for workload in &workloads {
        let rows = fig2::rows(workload, &node_counts, &opts).expect("fig2 rows");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.series.clone(),
                    r.nodes.to_string(),
                    format!("{}", r.makespan),
                    format!("{:.2}x", r.speedup),
                    format!("{:.2}x", r.scaling),
                ]
            })
            .collect();
        println!("== {} ==", workload.name());
        print!(
            "{}",
            render_table(
                &["series", "nodes", "makespan", "vs Local-GPU", "scaling"],
                &table
            )
        );
        if matches!(workload, Workload::Cfd(_)) {
            println!("(SnuCL-D: CFD cannot be implemented without significant change)");
        }
        println!();
        for r in &rows {
            virtual_nanos += u128::from(r.makespan.as_nanos());
            records.push(format!(
                concat!(
                    "    {{\"workload\": {}, \"series\": {}, \"nodes\": {}, ",
                    "\"makespan_nanos\": {}, \"speedup\": {:.4}, \"scaling\": {:.4}, ",
                    "\"phases\": {}, \"phase_bytes\": {}}}"
                ),
                json_string(workload.name()),
                json_string(&r.series),
                r.nodes,
                r.makespan.as_nanos(),
                r.speedup,
                r.scaling,
                phases_json(&r.phases),
                phase_bytes_json(&r.phases),
            ));
        }
    }
    // The traced probe backs both the artifact flags and the JSON audit
    // summary; skip it entirely when nobody asked for observability data.
    let artifacts = if json_path.is_some() || trace_path.is_some() || metrics_path.is_some() {
        Some(probe::run().expect("traced probe run"))
    } else {
        None
    };
    if let (Some(path), Some(a)) = (&trace_path, &artifacts) {
        write_artifact(path, &a.trace_json);
    }
    if let (Some(path), Some(a)) = (&metrics_path, &artifacts) {
        write_artifact(path, &a.metrics);
    }
    if let Some(path) = json_path {
        let audit = artifacts
            .as_ref()
            .map(|a| audit_json(&a.audit_summary))
            .unwrap_or_else(|| "[]".to_string());
        let wall_nanos = wall_start.elapsed().as_nanos().max(1);
        let body = format!(
            concat!(
                "{{\n  \"figure\": \"fig2\",\n  \"scale\": \"{}\",\n",
                "  \"wall\": {{\"elapsed_nanos\": {}, \"virtual_nanos\": {}, ",
                "\"virtual_per_wall\": {:.3}}},\n",
                "  \"audit\": {},\n  \"rows\": [\n{}\n  ]\n}}\n"
            ),
            if small { "small" } else { "paper" },
            wall_nanos,
            virtual_nanos,
            virtual_nanos as f64 / wall_nanos as f64,
            audit,
            records.join(",\n"),
        );
        write_artifact(&path, &body);
    }
}

/// Per-phase breakdown as a JSON object, category name → nanos.
fn phases_json(b: &PhaseBreakdown) -> String {
    let parts: Vec<String> = b
        .phases()
        .iter()
        .map(|p| format!("{}: {}", json_string(p.as_str()), b.time(*p).as_nanos()))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Bytes moved per phase as a JSON object, category name → bytes.
/// Phases that moved no data are omitted (most compute categories).
fn phase_bytes_json(b: &PhaseBreakdown) -> String {
    let parts: Vec<String> = b
        .phases()
        .iter()
        .filter(|p| b.bytes(**p) > 0)
        .map(|p| format!("{}: {}", json_string(p.as_str()), b.bytes(*p)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Audit-log summary as a JSON array of placement counts.
fn audit_json(summary: &std::collections::BTreeMap<(String, String), u64>) -> String {
    if summary.is_empty() {
        return "[]".to_string();
    }
    let parts: Vec<String> = summary
        .iter()
        .map(|((kernel, kind), n)| {
            format!(
                "{{\"kernel\": {}, \"kind\": {}, \"placements\": {n}}}",
                json_string(kernel),
                json_string(kind),
            )
        })
        .collect();
    format!("[{}]", parts.join(", "))
}
