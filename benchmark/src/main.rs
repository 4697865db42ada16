//! `haocl-perf`: the repository's wall-clock benchmark.
//!
//! ```text
//! haocl-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what BENCHMARK.json's command gets)
//! haocl-perf [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]    every workload, untraced and traced
//! haocl-perf --compare <a.json> <b.json>                                 two result sets against the bounds
//! ```
//!
//! `--smoke` shrinks every problem size (the integration test uses it).

mod compare;
mod gen;
mod harness;
mod kernels;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use harness::{repo_root, Res, Scale, Workload};
use metrics::RunResult;
use workloads::{BulkTransfer, ColdBuild, PaperApps, PipelinedFanout, ServeMix, SmallLaunch};

/// What the command line asked for.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 16.0,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse()?,
            "--seconds" => parsed.seconds = value()?.parse()?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            "--runs" => parsed.runs = value()?.parse()?,
            "--out" => parsed.out = Some(value()?),
            "--compare" => parsed.compare = Some((value()?, value()?)),
            "--smoke" => parsed.scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn run_one(name: &str, args: &Args) -> Res<RunResult> {
    fn go<W: Workload>(args: &Args) -> Res<RunResult> {
        if args.trace {
            run::per_layer::<W>(args.seed, args.seconds, args.scale)
        } else {
            run::end_to_end::<W>(args.seed, args.seconds, args.scale)
        }
    }
    match name {
        SmallLaunch::NAME => go::<SmallLaunch>(args),
        PipelinedFanout::NAME => go::<PipelinedFanout>(args),
        BulkTransfer::NAME => go::<BulkTransfer>(args),
        PaperApps::NAME => go::<PaperApps>(args),
        ServeMix::NAME => go::<ServeMix>(args),
        ColdBuild::NAME => go::<ColdBuild>(args),
        other => Err(format!(
            "unknown workload {other}; the workloads are {:?}",
            workloads::ALL.map(|(n, _)| n)
        )
        .into()),
    }
}

/// Every workload, each kind of run in a child process of its own (so
/// `peak_rss_mib` and every cache are per workload), `runs` times on
/// consecutive seeds. Writes the result set `--compare` reads.
fn full_pass(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    let mut runs = Vec::new();
    for seed in args.seed..args.seed + args.runs {
        let mut workloads = Vec::new();
        for (name, why) in workloads::ALL {
            println!("== {name} (seed {seed}): {why}");
            let mut kinds = Vec::new();
            for (kind, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
                let mut child = Command::new(&exe);
                child.args([
                    "--workload",
                    name,
                    "--seed",
                    &seed.to_string(),
                    "--trace",
                    trace,
                ]);
                child.args(["--seconds", &args.seconds.to_string()]);
                if args.scale == Scale::Smoke {
                    child.arg("--smoke");
                }
                let output = child.output()?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let (report, result) = stdout
                    .trim_end()
                    .rsplit_once('\n')
                    .unwrap_or(("", stdout.trim_end()));
                println!("{report}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                if !result.starts_with('{') {
                    return Err(format!(
                        "{name} ({kind}) exited with {} and no result",
                        output.status
                    )
                    .into());
                }
                all_correct &= output.status.success();
                kinds.push(format!("\"{kind}\": {result}"));
            }
            workloads.push(format!("\"{name}\": {{{}}}", kinds.join(", ")));
        }
        runs.push(format!(
            "{{\"seed\": {seed}, \"workloads\": {{\n    {}\n  }}}}",
            workloads.join(",\n    ")
        ));
    }
    let mut doc = String::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    write!(
        doc,
        "{{\"claim\": null, \"seconds\": {}, \"nodes\": {}, \"cores\": {cores}, \"runs\": [\n  {}\n]}}\n",
        args.seconds,
        harness::NODES,
        runs.join(",\n  ")
    )?;
    let path = match &args.out {
        Some(path) => path.into(),
        None => {
            let dir = repo_root().join("benchmark/out");
            std::fs::create_dir_all(&dir)?;
            dir.join(format!("results_seed{}.json", args.seed))
        }
    };
    std::fs::write(&path, doc)?;
    println!("result set written to {}", path.display());
    Ok(all_correct)
}

fn dispatch(args: &Args) -> Res<bool> {
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b, &repo_root().join("BENCHMARK.json"));
    }
    match &args.workload {
        Some(name) => {
            let result = run_one(name, args)?;
            println!("{}", result.json_line());
            Ok(result.correct())
        }
        None => full_pass(args),
    }
}

/// The CPUs this process may run on, from `/proc/self/status`
/// (`Cpus_allowed_list: 0-1` → `[0, 1]`).
fn allowed_cpus() -> Vec<u32> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            Some(lo.parse::<u32>().ok()?..=hi.parse::<u32>().ok()?)
        })
        .flatten()
        .collect()
}

/// Re-runs this program under `taskset` on the first CPU it is allowed,
/// unless it is already confined to one (or `HAOCL_PERF_PIN=off`).
/// Returns the pinned child's exit code, or `None` to carry on in this
/// process.
///
/// Why pin: on the 2-vCPU reference box a wake-up that crosses cores
/// goes through the hypervisor (HLT exit + IPI, ~50 us against ~2 us on
/// one core) and flips between two regimes with the scheduler's thread
/// placement — `small_launch` reads 24 us or 105 us per op for whole
/// runs at a time. Unpinned numbers measure that, not the repository's
/// code. On one core every wake-up is a context switch and the same
/// binary repeats to about 1 %.
fn pin_to_one_cpu(argv: &[String]) -> Option<ExitCode> {
    let cpus = allowed_cpus();
    if cpus.len() <= 1 || std::env::var("HAOCL_PERF_PIN").is_ok_and(|v| v == "off") {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .args(["-c", &cpus[0].to_string()])
        .arg(exe)
        .args(argv)
        .status();
    match status {
        Ok(status) => Some(ExitCode::from(status.code().unwrap_or(2) as u8)),
        Err(e) => {
            eprintln!("haocl-perf: cannot pin to one CPU (taskset: {e}); timings will be noisier");
            None
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = pin_to_one_cpu(&argv) {
        return code;
    }
    match parse_args(&argv).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("haocl-perf: {e}");
            ExitCode::from(2)
        }
    }
}
