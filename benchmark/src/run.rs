//! The two kinds of run the contract asks for: an untraced run that
//! reports the end-to-end metrics, and a traced run that reports the
//! per-layer ones.

use std::time::{Duration, Instant};

use haocl::Platform;
use haocl_obs::{names, Span};

use crate::harness::{
    peak_rss_mib, repo_root, run_blocks, thread_cpu_ns, OpLog, Res, Scale, Workload, MIN_BLOCKS,
};
use crate::metrics::{Layers, RunResult, Value, END_TO_END};
use crate::probes;
use crate::spans::Spans;
use crate::stats::{block_fast_end, fast_end, Block};

/// The whole set-up is performed several times per run and the
/// fast-end one is reported, like every other timing: at least
/// `MIN_SETUPS` times, and for cheap set-ups (tens of milliseconds, one
/// scheduler hiccup wide) until `SETUP_BUDGET` is spent or `MAX_SETUPS`
/// are done.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 30;
const SETUP_BUDGET: Duration = Duration::from_millis(2_500);

/// Set-up as a user pays it: cluster launch + context + builds + buffer
/// allocation + one warm-up block (caches filled, lazy set-up done).
fn set_up<W: Workload>(seed: u64, scale: Scale, totals: &mut (u64, u64)) -> Res<(W, Duration)> {
    let t0 = Instant::now();
    let mut w = W::setup(seed, scale)?;
    let mut log = OpLog::default();
    w.block(&mut Spans::new(false), &mut log)?;
    let took = t0.elapsed();
    totals.0 += log.lat_ns.len() as u64;
    totals.1 += log.failed;
    Ok((w, took))
}

pub fn end_to_end<W: Workload>(seed: u64, seconds: f64, scale: Scale) -> Res<RunResult> {
    let mut warmup_totals = (0, 0);
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let mut current = None;
    let started = Instant::now();
    let (min_setups, max_setups) = scale.pick((MIN_SETUPS, MAX_SETUPS), (2, 2));
    while setups.len() < min_setups
        || (setups.len() < max_setups && started.elapsed() < SETUP_BUDGET)
    {
        // Tear the previous cluster down first: two live at once would
        // double the peak resident set.
        drop(current.take());
        let (w, took) = set_up::<W>(seed, scale, &mut warmup_totals)?;
        setups.push(took.as_secs_f64());
        current = Some(w);
    }
    let mut w: W = current.expect("at least one set-up");

    let (mut blocks_done, mut rss_mib) = (0, None);
    let phase = run_blocks(
        &mut w,
        &mut Spans::new(false),
        Duration::from_secs_f64(seconds),
        MIN_BLOCKS,
        |_, _| {
            blocks_done += 1;
            if blocks_done == W::RSS_AT_BLOCKS {
                rss_mib = Some(peak_rss_mib());
            }
        },
    )?;
    let b = &phase.blocks;
    println!(
        "{}: {} ops in {} blocks over {:.2} s (closed loop, 1 client, {} NMP nodes, in-process fabric); \
         peak_rss_mib is read after block {}; not gated: op tail = {:.3} us (p{} of {} samples per block)",
        W::NAME,
        phase.ops(),
        b.len(),
        phase.wall_s(),
        crate::harness::NODES,
        W::RSS_AT_BLOCKS.min(b.len()),
        block_fast_end(b, |b| b.tail_us),
        b[0].tail_q * 100.0,
        b[0].ops,
    );
    let values = [
        fast_end(&setups, false),
        b[0].ops as f64 / block_fast_end(b, |b| b.wall_s),
        block_fast_end(b, |b| b.p50_us),
        rss_mib.unwrap_or_else(peak_rss_mib),
    ];
    let metrics: Vec<Value> = END_TO_END
        .iter()
        .zip(values)
        .map(|((def, _), value)| Value {
            name: def.name,
            unit: def.unit,
            value,
        })
        .collect();
    for m in &metrics {
        println!("  {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(RunResult {
        attempted: warmup_totals.0 + phase.ops(),
        failed: warmup_totals.1 + phase.failed,
        metrics,
    })
}

/// A numeric attribute of an `obs` span, 0 when absent.
fn span_attr(span: &Span, key: &str) -> u64 {
    span.attrs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// `(vm.run spans, instructions retired, wall nanoseconds inside them)`
/// of an `obs` recording. The nodes stamp `wall_nanos` on the `vm.run`
/// spans they ship back; the host's enqueue span carries the
/// instruction count.
pub fn vm_run_totals(spans: &[Span]) -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    for span in spans {
        if span.name == "vm.run" {
            totals.0 += 1;
            totals.2 += span_attr(span, "wall_nanos");
        }
        totals.1 += span_attr(span, "instructions");
    }
    totals
}

/// Sum over every label set of one series in a Prometheus text dump,
/// optionally restricted to lines containing `label`.
fn series_sum(dump: &str, series: &str, label: Option<&str>) -> f64 {
    dump.lines()
        .filter(|line| {
            line.strip_prefix(series)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter(|line| label.is_none_or(|l| line.contains(l)))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The cumulative counts a traced pass reads before and after.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    virtual_ns: f64,
    frames: f64,
    bytes: f64,
    retries: f64,
    dedup_hits: f64,
    peer_bytes: f64,
    relay_bytes: f64,
    commands_saved: f64,
    batch_sum: f64,
    batch_count: f64,
    audits: f64,
}

impl Counts {
    fn read(platform: &Platform) -> Counts {
        // Rendering folds the fabric's own counters into the registry.
        let dump = platform.render_metrics();
        let sum = |series: &str| series_sum(&dump, series, None);
        Counts {
            virtual_ns: platform.now().as_nanos() as f64,
            frames: sum(names::FABRIC_FRAMES),
            bytes: sum(names::FABRIC_BYTES),
            retries: sum(names::RETRIES),
            dedup_hits: sum(names::DEDUP_HITS),
            peer_bytes: series_sum(&dump, names::DATAPLANE_BYTES, Some(names::PATH_PEER)),
            relay_bytes: series_sum(&dump, names::DATAPLANE_BYTES, Some(names::PATH_HOST_RELAY)),
            commands_saved: sum(names::FUSION_COMMANDS_SAVED),
            batch_sum: sum(&format!("{}_sum", names::BATCH_SIZE)),
            batch_count: sum(&format!("{}_count", names::BATCH_SIZE)),
            audits: platform.obs().audit.len() as f64,
        }
    }
}

/// Share of the run's time given to each part of a traced run.
const UNTRACED_SHARE: f64 = 0.12;
const TRACED_SHARE: f64 = 0.25;
const PROBE_SHARE: f64 = 0.55;

/// What a traced pass harvests, block by block, from the program's own
/// tracing and counters.
struct Harvest {
    obs_spans: u64,
    vm_runs: u64,
    instructions: u64,
    vm_ns: u64,
    dispatch_ns: u64,
    start: Counts,
    last: Counts,
    /// Per block: virtual time, fabric frames and fabric bytes per op —
    /// the counts that must repeat exactly from block to block.
    per_block: Vec<[f64; 3]>,
}

impl Harvest {
    fn new(platform: &Platform) -> Harvest {
        platform.obs().recorder.clear();
        let start = Counts::read(platform);
        Harvest {
            obs_spans: 0,
            vm_runs: 0,
            instructions: 0,
            vm_ns: 0,
            dispatch_ns: 0,
            start,
            last: start,
            per_block: Vec::new(),
        }
    }

    /// Drains the span recorder (so a long pass stays small) and reads
    /// the counters; runs between blocks, outside every timed window.
    fn absorb(&mut self, platform: &Platform, block: &Block) {
        let recorded = platform.obs().recorder.spans();
        platform.obs().recorder.clear();
        let (runs, retired, wall) = vm_run_totals(&recorded);
        self.obs_spans += recorded.len() as u64;
        self.vm_runs += runs;
        self.instructions += retired;
        self.vm_ns += wall;
        self.dispatch_ns += recorded
            .iter()
            .filter(|s| s.name == "nmp.dispatch")
            .map(|s| span_attr(s, "wall_nanos"))
            .sum::<u64>();
        let now = Counts::read(platform);
        let ops = block.ops as f64;
        self.per_block.push([
            (now.virtual_ns - self.last.virtual_ns) / ops,
            (now.frames - self.last.frames) / ops,
            (now.bytes - self.last.bytes) / ops,
        ]);
        self.last = now;
    }
}

pub fn per_layer<W: Workload>(seed: u64, seconds: f64, scale: Scale) -> Res<RunResult> {
    let mut totals = (0, 0);
    let (mut w, _) = set_up::<W>(seed, scale, &mut totals)?;
    let platform = w.platform().clone();
    let share = |s: f64| Duration::from_secs_f64(seconds * s);

    // The same blocks twice: untraced, then with the program's own
    // tracing on and every call into a layer wrapped in a bench span.
    let untraced = run_blocks(
        &mut w,
        &mut Spans::new(false),
        share(UNTRACED_SHARE),
        2,
        |_, _| (),
    )?;

    platform.set_tracing(true);
    let mut spans = Spans::new(true);
    let mut harvest = Harvest::new(&platform);
    let cpu_start = thread_cpu_ns();
    let traced = run_blocks(&mut w, &mut spans, share(TRACED_SHARE), 2, |w, block| {
        harvest.absorb(w.platform(), block)
    })?;
    let cpu: Vec<f64> = thread_cpu_ns()
        .iter()
        .zip(cpu_start)
        .map(|(end, start)| end - start)
        .collect();
    platform.set_tracing(false);
    let Harvest {
        obs_spans,
        vm_runs,
        instructions,
        vm_ns,
        dispatch_ns,
        start,
        last: end,
        per_block,
    } = harvest;
    let ops = traced.ops() as f64;
    if vm_runs == 0 || instructions == 0 {
        return Err("the traced pass saw no vm.run span retire instructions: a native kernel is standing in for the VM".into());
    }
    if end.dedup_hits > start.dedup_hits || end.retries > start.retries {
        return Err(
            "the host runtime retried or deduplicated requests on a fault-free fabric".into(),
        );
    }

    let mut out = Layers::default();
    let untraced_p50 = block_fast_end(&untraced.blocks, |b| b.p50_us);
    let traced_p50 = block_fast_end(&traced.blocks, |b| b.p50_us);
    out.put("bench.untraced_op_p50_us", untraced_p50);
    out.put(
        "bench.op_tail_us",
        block_fast_end(&untraced.blocks, |b| b.tail_us),
    );
    out.put("bench.traced_op_p50_us", traced_p50);
    out.put("obs.tracing_overhead_frac", traced_p50 / untraced_p50 - 1.0);
    out.put("obs.spans_per_op", obs_spans as f64 / ops);
    out.put(
        "obs.audit_entries_per_op",
        (end.audits - start.audits) / ops,
    );
    out.put("clc.vm.run_us_per_op", vm_ns as f64 / 1e3 / ops);
    out.put(
        "cluster.nmp.dispatch_wall_us",
        dispatch_ns as f64 / 1e3 / ops,
    );
    // Where the pass's CPU time went, by thread group. Pinned to one
    // core these are also shares of its wall time.
    let cpu_total = cpu.iter().sum::<f64>().max(1.0);
    out.put("core.client_cpu_frac", cpu[0] / cpu_total);
    out.put("cluster.demux_cpu_frac", cpu[1] / cpu_total);
    out.put("cluster.node_cpu_frac", cpu[2] / cpu_total);
    out.put(
        "net.fabric.frames_per_op",
        (end.frames - start.frames) / ops,
    );
    out.put("net.fabric.bytes_per_op", (end.bytes - start.bytes) / ops);
    out.put(
        "bench.virtual_us_per_op",
        (end.virtual_ns - start.virtual_ns) / 1e3 / ops,
    );
    out.put("cluster.retries", end.retries - start.retries);
    out.put("cluster.dedup_hits", end.dedup_hits - start.dedup_hits);
    out.put(
        "core.buffer.peer_bytes_per_op",
        (end.peer_bytes - start.peer_bytes) / ops,
    );
    out.put(
        "core.buffer.host_relay_bytes_per_op",
        (end.relay_bytes - start.relay_bytes) / ops,
    );
    out.put(
        "core.graph.commands_saved_per_op",
        (end.commands_saved - start.commands_saved) / ops,
    );
    let batches = end.batch_count - start.batch_count;
    println!(
        "traced pass: {batches} control-plane frames carried {} requests",
        end.batch_sum - start.batch_sum
    );
    out.put(
        "cluster.batch.mean_coalesced",
        if batches > 0.0 {
            (end.batch_sum - start.batch_sum) / batches
        } else {
            1.0
        },
    );

    let mut nonrepeating = 0;
    for (i, what) in ["virtual ns/op", "fabric frames/op", "fabric bytes/op"]
        .into_iter()
        .enumerate()
    {
        let column: Vec<f64> = per_block.iter().map(|b| b[i]).collect();
        let (lo, hi) = column
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        if lo == hi {
            println!("determinism: {what} = {lo} in all {} blocks", column.len());
        } else {
            nonrepeating += 1;
            println!(
                "determinism: {what} NOT identical across {} blocks: {lo} .. {hi}",
                column.len()
            );
        }
    }
    out.put("bench.nonrepeating_counts", f64::from(nonrepeating));

    println!(
        "{}: traced pass, {} ops; time by bench span (self = span minus its child spans)",
        W::NAME,
        traced.ops()
    );
    println!(
        "  {:<44} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in spans.totals() {
        println!(
            "  {:<44} {:>9} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let out_dir = repo_root().join("benchmark/out");
    std::fs::create_dir_all(&out_dir)?;
    let trace_file = out_dir.join(format!("trace_{}.json", W::NAME));
    std::fs::write(&trace_file, spans.chrome_trace(W::NAME))?;
    println!("  Chrome trace of the pass: {}", trace_file.display());
    drop(w);

    probes::run_all(&mut out, seed, share(PROBE_SHARE), scale)?;
    let metrics = out.finish();
    for m in &metrics {
        println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(RunResult {
        attempted: totals.0 + untraced.ops() + traced.ops(),
        failed: totals.1 + untraced.failed + traced.failed,
        metrics,
    })
}
