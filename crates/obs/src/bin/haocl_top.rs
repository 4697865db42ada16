//! `haocl-top` — fleet health / placement dashboard.
//!
//! Joins a Prometheus metrics rendering with the scheduler audit log
//! into one per-node table: device class, drift verdict, placements won
//! (and how many while degraded), avoidance count, queue depth, mean
//! observed latency, wall-clock round trips per second, and link
//! traffic.
//!
//! Usage:
//!
//! ```text
//! haocl-top --metrics metrics.prom --audit audit.log
//! haocl-top --metrics metrics.prom --audit audit.log --report json
//! ```
//!
//! Exit codes: 0 = ok, 2 = unreadable input / bad usage. The verdict
//! itself never fails the process — gating on health is the caller's
//! job (see the CI soak job), the dashboard just reports it.

use std::process::ExitCode;

use haocl_obs::FleetSnapshot;

const USAGE: &str =
    "usage: haocl-top --metrics <metrics.prom> [--audit <audit.log>] [--report json]";

fn main() -> ExitCode {
    let mut metrics_path: Option<String> = None;
    let mut audit_path: Option<String> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => metrics_path = args.next(),
            "--audit" => audit_path = args.next(),
            "--report" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!("haocl-top: unknown report format {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("haocl-top: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(metrics_path) = metrics_path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let metrics = match std::fs::read_to_string(&metrics_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("haocl-top: cannot read {metrics_path}: {e}");
            return ExitCode::from(2);
        }
    };
    // The audit log is optional: without it the table still carries the
    // metric-derived columns, just no placement counts.
    let audit = match &audit_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("haocl-top: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => String::new(),
    };

    let snapshot = FleetSnapshot::from_text(&metrics, &audit);
    if json {
        println!("{}", snapshot.to_json());
    } else {
        print!("{}", snapshot.render());
    }
    ExitCode::SUCCESS
}
