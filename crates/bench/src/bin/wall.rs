//! Wall-clock wire-path report: real requests/sec and p50/p99 latency
//! of the framing strategies (copy vs pooled).
//!
//! ```text
//! cargo run --release -p haocl-bench --bin wall
//! cargo run --release -p haocl-bench --bin wall -- --iters 200 \
//!     --json-wire results/BENCH_wall_wire.json
//! ```
//!
//! The nightly `wall-bench` CI job uploads the JSON artifact and gates
//! pooled framing at no slower than the copying path.

use haocl_bench::text::render_table;
use haocl_bench::wall::{self, LatencyStats};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        })
    };
    let iters: usize = flag_value("--iters")
        .map(|v| v.parse().expect("--iters takes a number"))
        .unwrap_or(60);
    let json_wire = flag_value("--json-wire");

    println!("Wall-clock hot path — real time, not the virtual models");
    println!();

    let wire = wall::wire_rows(iters.max(200));
    let table: Vec<Vec<String>> = wire
        .iter()
        .map(|r| {
            vec![
                r.payload.to_string(),
                r.payload_bytes.to_string(),
                r.path.to_string(),
                format!("{:.0}", r.stats.requests_per_sec()),
                format!("{}", r.stats.p50_nanos),
                format!("{}", r.stats.p99_nanos),
            ]
        })
        .collect();
    println!("== Wire framing (encode → segment → reassemble) ==");
    print!(
        "{}",
        render_table(
            &["payload", "bytes", "path", "req/s", "p50 ns", "p99 ns"],
            &table
        )
    );

    if let Some(path) = json_wire {
        let rows: Vec<String> = wire
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"payload\": \"{}\", \"payload_bytes\": {}, ",
                        "\"path\": \"{}\", {}}}"
                    ),
                    r.payload,
                    r.payload_bytes,
                    r.path,
                    stats_json(&r.stats),
                )
            })
            .collect();
        let body = format!(
            "{{\n  \"bench\": \"wall_wire\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n"),
        );
        write_artifact(&path, &body);
    }
}

fn stats_json(s: &LatencyStats) -> String {
    format!(
        concat!(
            "\"requests\": {}, \"total_nanos\": {}, \"requests_per_sec\": {:.2}, ",
            "\"p50_nanos\": {}, \"p99_nanos\": {}"
        ),
        s.requests,
        s.total_nanos,
        s.requests_per_sec(),
        s.p50_nanos,
        s.p99_nanos,
    )
}

fn write_artifact(path: &str, body: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(path, body).expect("write output file");
    println!("wrote {path}");
}
