//! `--compare <a.json> <b.json>`: two result sets, side by side.
//!
//! A result set is what a full pass writes: one or more runs of every
//! workload. For every workload × end-to-end metric this prints the two
//! medians, the ratio with its base, and a verdict against the bound in
//! `BENCHMARK.json`: `ok`, `regressed` (b's median is worse than a's by
//! more than the bound) or `unresolved` (either set's own spread is
//! wider than the bound, so the comparison cannot tell). Counts that
//! must repeat exactly are compared for equality.

use std::collections::BTreeMap;
use std::path::Path;

use haocl_obs::json::{self, Json};

use crate::harness::Res;
use crate::stats::{median, spread};

/// Per-layer counts that a deterministic program repeats exactly from
/// run to run on the same seed.
pub const EXACT_COUNTS: [&str; 11] = [
    "clc.vm.instructions.matmul",
    "clc.vm.instructions.cfd",
    "clc.vm.instructions.knn",
    "clc.vm.instructions.bfs",
    "clc.vm.instructions.spmv",
    "clc.vm.instructions.saxpy64",
    "proto.launch_req_bytes",
    "proto.launch_resp_bytes",
    "net.fabric.frames_per_op",
    "net.fabric.bytes_per_op",
    "bench.virtual_us_per_op",
];

/// `workload → metric → one value per run`, for one kind of run.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct ResultSet {
    seeds: Vec<u64>,
    end_to_end: Table,
    per_layer: Table,
    failed: f64,
}

fn load(path: &str) -> Res<ResultSet> {
    let doc = json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result set has no \"runs\" array")?;
    let mut set = ResultSet {
        seeds: Vec::new(),
        end_to_end: Table::new(),
        per_layer: Table::new(),
        failed: 0.0,
    };
    for run in runs {
        set.seeds.push(
            run.get("seed")
                .and_then(Json::as_f64)
                .ok_or("run without a seed")? as u64,
        );
        let Some(Json::Obj(workloads)) = run.get("workloads") else {
            return Err("run without workloads".into());
        };
        for (workload, results) in workloads {
            for (kind, table) in [
                ("end_to_end", &mut set.end_to_end),
                ("per_layer", &mut set.per_layer),
            ] {
                let Some(result) = results.get(kind) else {
                    continue;
                };
                set.failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                if let Some(Json::Obj(metrics)) = result.get("metrics") {
                    for (name, m) in metrics {
                        let value = m
                            .get("value")
                            .and_then(Json::as_f64)
                            .ok_or("metric without a value")?;
                        table
                            .entry(workload.clone())
                            .or_default()
                            .entry(name.clone())
                            .or_default()
                            .push(value);
                    }
                }
            }
        }
    }
    Ok(set)
}

/// `metric → (higher is better, bound)` from `BENCHMARK.json`.
fn bounds(benchmark_json: &Path) -> Res<BTreeMap<String, (bool, f64)>> {
    let doc = json::parse(&std::fs::read_to_string(benchmark_json)?)?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
    {
        let field = |key: &str| {
            m.get(key)
                .ok_or_else(|| format!("end_to_end entry without {key}"))
        };
        let name = field("name")?.as_str().ok_or("name is not a string")?;
        let higher = field("better")?.as_str() == Some("higher");
        let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
        out.insert(name.to_string(), (higher, bound));
    }
    Ok(out)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// The rule: a spread wider than the bound on either side leaves the
/// pair unresolved; otherwise b regresses when its median is worse than
/// a's by more than the bound.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let wide = |v: &[f64]| v.len() >= 2 && spread(v) > bound;
    if wide(a) || wide(b) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; `Ok(true)` when nothing regressed, nothing
/// failed and every exact count repeated.
pub fn run(a_path: &str, b_path: &str, benchmark_json: &Path) -> Res<bool> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(benchmark_json)?;
    let mut clean = true;
    println!(
        "a = {a_path} ({} runs), b = {b_path} ({} runs); ratio is b/a",
        a.seeds.len(),
        b.seeds.len()
    );
    println!(
        "{:<17} {:<14} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "a iqr%", "b median", "b iqr%", "b/a", "bound%"
    );
    for (workload, metrics) in &a.end_to_end {
        for (name, (higher, bound)) in &bounds {
            let (Some(va), Some(vb)) = (
                metrics.get(name),
                b.end_to_end.get(workload).and_then(|m| m.get(name)),
            ) else {
                println!("{workload:<17} {name:<14} missing from one of the sets");
                clean = false;
                continue;
            };
            let v = verdict(va, vb, *higher, *bound);
            clean &= v != Verdict::Regressed;
            let iqr = |v: &[f64]| {
                if v.len() >= 2 {
                    format!("{:.1}", spread(v) * 100.0)
                } else {
                    "-".to_string()
                }
            };
            println!(
                "{:<17} {:<14} {:>14.4} {:>8} {:>14.4} {:>8} {:>8.3} {:>6.0}  {}",
                workload,
                name,
                median(va),
                iqr(va),
                median(vb),
                iqr(vb),
                median(vb) / median(va),
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if a.failed + b.failed > 0.0 {
        println!(
            "failed ops: a {} b {} — any failure is a regression",
            a.failed, b.failed
        );
        clean = false;
    }

    if a.seeds == b.seeds {
        println!("exact-repeat counts (same seeds, so they must be identical):");
        for (workload, metrics) in &a.per_layer {
            for name in EXACT_COUNTS {
                let (Some(va), Some(vb)) = (
                    metrics.get(name),
                    b.per_layer.get(workload).and_then(|m| m.get(name)),
                ) else {
                    continue;
                };
                // Per-op figures divide by a run's op count, which differs
                // between runs; allow the last bits of the quotient.
                let same = va.len() == vb.len()
                    && va
                        .iter()
                        .zip(vb)
                        .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()));
                if same {
                    println!("  {workload:<17} {name:<34} identical ({})", va[0]);
                } else {
                    println!("  {workload:<17} {name:<34} DIFFERS: a {va:?} b {vb:?}");
                    clean = false;
                }
            }
        }
    } else {
        println!(
            "seeds differ ({:?} vs {:?}): exact-repeat counts not compared",
            a.seeds, b.seeds
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        // Lower is better: +12 % is over a 10 % bound, under a 25 % one.
        assert_eq!(verdict(&steady, &slower, false, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&steady, &slower, false, 0.25), Verdict::Ok);
        // Getting faster is never a regression.
        assert_eq!(verdict(&slower, &steady, false, 0.10), Verdict::Ok);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(verdict(&slower, &steady, true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&steady, &slower, true, 0.10), Verdict::Ok);
        // A spread wider than the bound cannot resolve either way.
        assert_eq!(verdict(&steady, &noisy, false, 0.10), Verdict::Unresolved);
        // Single runs have no spread; they compare on their values.
        assert_eq!(verdict(&[100.0], &[105.0], false, 0.10), Verdict::Ok);
    }
}
