//! Design-choice ablations beyond the paper's figures: scheduler-policy
//! quality on a mixed cluster, the interconnect-bandwidth sweep, the
//! asynchronous backbone's pipelining win, the residency-aware data
//! plane's locality win, and the effect prover's kernel-fusion win.
//!
//! ```text
//! cargo run --release -p haocl-bench --bin ablations
//! cargo run --release -p haocl-bench --bin ablations -- --json out.json
//! cargo run --release -p haocl-bench --bin ablations -- --json-fusion fusion.json
//! ```
//!
//! `--json` writes the locality-ablation rows and `--json-fusion` the
//! fusion-ablation rows as machine-readable artifacts (consumed by the
//! nightly bench CI job).

use haocl_bench::ablations;
use haocl_bench::text::{render_table, write_artifact};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path_after = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires an output path");
                std::process::exit(2);
            })
        })
    };
    let json_path = path_after("--json");
    let fusion_json_path = path_after("--json-fusion");
    println!("Ablation 1 — scheduling policy (32 mixed kernels on 2 GPU + 2 FPGA nodes)");
    println!();
    let rows = ablations::scheduler_policies(32).expect("scheduler ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, makespan)| vec![name.clone(), format!("{makespan}")])
        .collect();
    print!("{}", render_table(&["policy", "makespan"], &table));
    println!();

    println!("Ablation 2 — interconnect bandwidth (MatrixMul, 8 GPU nodes, paper scale)");
    println!();
    let rows =
        ablations::network_bandwidth(&[1.0, 2.5, 10.0, 25.0, 100.0]).expect("bandwidth ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(gbps, makespan)| vec![format!("{gbps} Gb/s"), format!("{makespan}")])
        .collect();
    print!("{}", render_table(&["link", "makespan"], &table));
    println!();

    println!("Ablation 3 — backbone pipelining (4-node fan-out of small launches)");
    println!();
    let result = ablations::pipelining(4, 2).expect("pipelining ablation");
    let table = vec![
        vec!["synchronous".to_string(), format!("{}", result.synchronous)],
        vec!["pipelined".to_string(), format!("{}", result.pipelined)],
        vec!["speedup".to_string(), format!("{:.2}x", result.speedup())],
    ];
    print!(
        "{}",
        render_table(&["host semantics", "fan-out makespan"], &table)
    );
    println!();

    println!("Ablation 4 — residency-aware data plane (2 GPU nodes, 16 real launches)");
    println!();
    let rows = ablations::locality(16).expect("locality ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                r.config.to_string(),
                format!("{}", r.data_transfer),
                format!("{}", r.relay_bytes),
                format!("{}", r.peer_bytes),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "config",
                "DataTransfer",
                "host-relay bytes",
                "peer bytes",
                "output digest"
            ],
            &table
        )
    );
    println!();

    println!("Ablation 5 — kernel fusion (effect-prover-approved chains, 2 GPU nodes)");
    println!();
    let fusion_rows = ablations::fusion().expect("fusion ablation");
    let table: Vec<Vec<String>> = fusion_rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                r.config.to_string(),
                format!("{}", r.nodes),
                format!("{}", r.wire_launches),
                format!("{}", r.commands_saved),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "config",
                "launches",
                "wire commands",
                "saved",
                "output digest"
            ],
            &table
        )
    );

    if let Some(path) = fusion_json_path {
        let records: Vec<String> = fusion_rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"app\": \"{}\", \"config\": \"{}\", ",
                        "\"nodes\": {}, \"wire_launches\": {}, ",
                        "\"commands_saved\": {}, \"digest\": \"{:016x}\"}}"
                    ),
                    r.app, r.config, r.nodes, r.wire_launches, r.commands_saved, r.digest,
                )
            })
            .collect();
        let body = format!(
            "{{\n  \"ablation\": \"fusion\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            records.join(",\n")
        );
        write_artifact(&path, &body);
    }

    if let Some(path) = json_path {
        let records: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"app\": \"{}\", \"config\": \"{}\", ",
                        "\"data_transfer_nanos\": {}, \"relay_bytes\": {}, ",
                        "\"peer_bytes\": {}, \"digest\": \"{:016x}\"}}"
                    ),
                    r.app,
                    r.config,
                    r.data_transfer.as_nanos(),
                    r.relay_bytes,
                    r.peer_bytes,
                    r.digest,
                )
            })
            .collect();
        let body = format!(
            "{{\n  \"ablation\": \"locality\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            records.join(",\n")
        );
        write_artifact(&path, &body);
    }
}
