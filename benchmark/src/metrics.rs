//! The metric catalogue. `BENCHMARK.json` carries the same names, units,
//! directions and bounds; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, per workload, with the share of the
/// parent's median each may worsen by before it counts as a regression:
/// the contract's ceiling throughout, because that is what the reference
/// box can resolve (benchmark/README.md, "Repeatability"). Tail latency
/// is not among them: it is the per-layer row `bench.op_tail_us`, because
/// one workload's p99 cannot be held to any bound on a shared host
/// (README, "Why tail latency does not gate").
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (lower("setup_s", "s"), 0.25),
    (higher("ops_per_s", "1/s"), 0.25),
    (lower("op_p50_us", "us"), 0.25),
    (lower("peak_rss_mib", "MiB"), 0.25),
];

/// The kernels the `clc::vm` probes run, in catalogue order.
pub const VM_KERNELS: [&str; 6] = ["matmul", "cfd", "knn", "bfs", "spmv", "saxpy64"];

/// One figure per layer boundary (layer = crate or module name). No
/// bounds: they explain a movement of an end-to-end metric, they do not
/// gate. Rows marked *pass* come from the traced pass of the workload
/// being run and differ per workload; the rest are probes of a layer's
/// public functions and read the same whichever workload is running.
pub const PER_LAYER: [MetricDef; 88] = [
    // clc front end
    lower("clc.compile_us", "us"),
    lower("clc.analysis_us", "us"),
    lower("clc.vm.lower_us", "us"),
    // clc::vm
    lower("clc.vm.run_us.matmul", "us"),
    lower("clc.vm.run_us.cfd", "us"),
    lower("clc.vm.run_us.knn", "us"),
    lower("clc.vm.run_us.bfs", "us"),
    lower("clc.vm.run_us.spmv", "us"),
    lower("clc.vm.run_us.saxpy64", "us"),
    lower("clc.vm.instructions.matmul", "count"),
    lower("clc.vm.instructions.cfd", "count"),
    lower("clc.vm.instructions.knn", "count"),
    lower("clc.vm.instructions.bfs", "count"),
    lower("clc.vm.instructions.spmv", "count"),
    lower("clc.vm.instructions.saxpy64", "count"),
    higher("clc.vm.compiled_speedup.matmul", "x"),
    higher("clc.vm.compiled_speedup.cfd", "x"),
    higher("clc.vm.compiled_speedup.knn", "x"),
    higher("clc.vm.compiled_speedup.bfs", "x"),
    higher("clc.vm.compiled_speedup.spmv", "x"),
    higher("clc.vm.parallel_speedup.matmul", "x"),
    higher("clc.vm.parallel_speedup.knn", "x"),
    lower("clc.vm.run_us_per_op", "us"), // pass
    // proto
    lower("proto.launch_req_bytes", "B"),
    lower("proto.launch_resp_bytes", "B"),
    lower("proto.encode_launch_ns", "ns"),
    lower("proto.decode_launch_ns", "ns"),
    lower("proto.encode_write1m_us", "us"),
    lower("proto.decode_write1m_us", "us"),
    // net
    lower("net.frame.small_ns", "ns"),
    lower("net.frame.bulk_us", "us"),
    lower("net.fabric.hop_us", "us"),
    higher("net.fabric.bulk_mib_per_s", "MiB/s"),
    higher("net.pool.reuse_ratio.small", "ratio"),
    higher("net.pool.reuse_ratio.bulk", "ratio"),
    lower("net.fabric.frames_per_op", "count"), // pass
    lower("net.fabric.bytes_per_op", "B"),      // pass
    // cluster
    lower("cluster.ping_rt_us", "us"),
    lower("cluster.launch_rt_us", "us"),
    lower("cluster.write1m_rt_us", "us"),
    lower("cluster.read1m_rt_us", "us"),
    lower("cluster.build_rt_us", "us"),
    lower("cluster.host_nmp_self_us", "us"),
    lower("cluster.nmp.launch_self_us", "us"),
    lower("cluster.nmp.dispatch_wall_us", "us"), // pass
    higher("cluster.batch.mean_coalesced", "count"), // pass
    lower("cluster.node_cpu_frac", "frac"),      // pass
    lower("cluster.demux_cpu_frac", "frac"),     // pass
    lower("cluster.retries", "count"),           // pass
    lower("cluster.dedup_hits", "count"),        // pass
    // sched
    lower("sched.place_audited_ns.2dev", "ns"),
    lower("sched.place_audited_ns.16dev", "ns"),
    lower("sched.tenancy.cycle_ns", "ns"),
    // core
    lower("core.enqueue_rt_us", "us"),
    lower("core.enqueue_self_us", "us"),
    lower("core.auto_self_us", "us"),
    lower("core.serve_self_us", "us"),
    lower("core.buffer.write1m_self_us", "us"),
    lower("core.buffer.read1m_self_us", "us"),
    lower("core.buffer.migrate1m_us", "us"),
    lower("core.buffer.peer_bytes_per_op", "B"), // pass
    lower("core.buffer.host_relay_bytes_per_op", "B"), // pass
    lower("core.program.build_us", "us"),
    lower("core.program.build_self_us", "us"),
    lower("core.program.rebuild_us", "us"),
    lower("core.first_launch_us", "us"),
    higher("core.graph.commands_saved_per_op", "count"), // pass
    lower("core.client_cpu_frac", "frac"),               // pass
    lower("core.overhead_frac", "frac"),
    // obs
    lower("obs.span_record_ns", "ns"),
    lower("obs.counter_inc_ns", "ns"),
    lower("obs.spans_per_op", "count"),         // pass
    lower("obs.audit_entries_per_op", "count"), // pass
    lower("obs.tracing_overhead_frac", "frac"), // pass
    // workloads
    lower("workloads.matmul_wall_ms", "ms"),
    lower("workloads.cfd_wall_ms", "ms"),
    lower("workloads.knn_wall_ms", "ms"),
    lower("workloads.bfs_wall_ms", "ms"),
    lower("workloads.spmv_wall_ms", "ms"),
    // the benchmark itself
    lower("bench.timer_ns", "ns"),
    lower("bench.virtual_us_per_op", "us"),      // pass
    lower("bench.untraced_op_p50_us", "us"),     // pass
    lower("bench.op_tail_us", "us"),             // pass
    lower("bench.traced_op_p50_us", "us"),       // pass
    lower("bench.nonrepeating_counts", "count"), // pass
    // reconciliation
    lower("ledger.residual_frac.small_launch", "frac"),
    lower("ledger.residual_frac.bulk_transfer", "frac"),
    lower("ledger.residual_frac.cold_build", "frac"),
];

/// Collects per-layer values against the catalogue: every name must be
/// in it, none may be reported twice, and [`Layers::finish`] fails if
/// one is missing — so a traced run always prints every per-layer
/// metric.
#[derive(Debug, Default)]
pub struct Layers(Vec<Value>);

impl Layers {
    pub fn put(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"));
        assert!(self.get(name).is_none(), "{name} reported twice");
        self.0.push(Value {
            name: def.name,
            unit: def.unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// Every catalogue metric, in catalogue order.
    pub fn finish(self) -> Vec<Value> {
        PER_LAYER
            .iter()
            .map(|def| {
                self.0
                    .iter()
                    .find(|v| v.name == def.name)
                    .unwrap_or_else(|| panic!("{} was never measured", def.name))
                    .clone()
            })
            .collect()
    }
}

/// One measured value, ready to print.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one `--workload` run, as the contract's last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Value>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float with all its digits; JSON has no NaN or infinity, so a value
/// that could not be measured is a bug and fails loudly.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use haocl_obs::json::{self, Json};

    #[test]
    fn benchmark_json_carries_this_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let entries = |section: &str| {
            doc.get(section)
                .and_then(Json::as_arr)
                .expect("section")
                .to_vec()
        };
        let text = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        };

        let end_to_end = entries("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (def, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit);
            assert_eq!(
                text(entry, "better") == "higher",
                def.better == Better::Higher,
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(bound),
                "{}",
                def.name
            );
            assert!(bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|(def, _)| def.name == "setup_s"
            && def.unit == "s"
            && def.better == Better::Lower));

        let per_layer = entries("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!(per_layer.len() <= 128);
        for (entry, def) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit);
            assert_eq!(
                text(entry, "better") == "higher",
                def.better == Better::Higher,
                "{}",
                def.name
            );
        }

        let workloads = entries("workloads");
        assert_eq!(workloads.len(), crate::workloads::ALL.len());
        for (entry, (name, why)) in workloads.iter().zip(crate::workloads::ALL) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "why"), why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().map(|(d, _)| d).chain(&PER_LAYER) {
            assert!(
                ok_name(def.name) && ok_unit(def.unit),
                "{} [{}]",
                def.name,
                def.unit
            );
            assert!(seen.insert(def.name), "{} is used twice", def.name);
        }
    }

    #[test]
    fn layers_reject_strangers_and_report_in_catalogue_order() {
        let mut layers = Layers::default();
        for def in PER_LAYER.iter().rev() {
            layers.put(def.name, 1.5);
        }
        let values = layers.finish();
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(values
            .iter()
            .zip(&PER_LAYER)
            .all(|(v, d)| v.name == d.name && v.unit == d.unit));
        assert!(std::panic::catch_unwind(|| Layers::default().put("no.such.metric", 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| Layers::default().finish()).is_err());
    }

    #[test]
    fn the_contract_line_is_one_json_object() {
        let result = RunResult {
            attempted: 1_000,
            failed: 0,
            metrics: vec![Value {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
            }],
        };
        let line = result.json_line();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).expect("parses");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed.get("attempted").and_then(Json::as_f64),
            Some(1_000.0)
        );
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
