//! From probe samples to catalogue rows: unit conversion, the
//! subtractions that turn round trips into self times, and the ledgers.
//!
//! All the ledger arithmetic lives here. A layer's self time is its
//! round trip minus the round trip of the layer beneath it, floored at
//! zero; a ledger's residual is `|whole − Σ parts| ÷ whole`, where the
//! whole was timed as one call sequence and every part in a loop of its
//! own. Parts that over-account therefore show up in the residual
//! instead of cancelling.

use super::wire::MIB;
use super::Reduced;
use crate::metrics::{Layers, VM_KERNELS};
use crate::stats::{residual_frac, self_time};

pub fn fill(out: &mut Layers, r: &Reduced) {
    let us = |name: &str| r.get(name) / 1e3;
    out.put("bench.timer_ns", r.get("bench.timer_ns"));

    // clc front end and VM.
    out.put("clc.compile_us", us("clc.compile_ns"));
    out.put(
        "clc.analysis_us",
        self_time(us("clc.compile_ns"), &[us("clc.compile_bare_ns")]),
    );
    out.put(
        "clc.vm.lower_us",
        self_time(us("clc.vm.first_run_ns"), &[us("clc.vm.second_run_ns")]),
    );
    for kernel in VM_KERNELS {
        let compiled = us(&format!("clc.vm.compiled_ns.{kernel}"));
        out.put(&format!("clc.vm.run_us.{kernel}"), compiled);
        out.put(
            &format!("clc.vm.instructions.{kernel}"),
            r.get(&format!("clc.vm.instructions.{kernel}")),
        );
        if kernel != "saxpy64" {
            out.put(
                &format!("clc.vm.compiled_speedup.{kernel}"),
                us(&format!("clc.vm.interp_ns.{kernel}")) / compiled,
            );
        }
        if matches!(kernel, "matmul" | "knn") {
            out.put(
                &format!("clc.vm.parallel_speedup.{kernel}"),
                us(&format!("clc.vm.serial_ns.{kernel}")) / compiled,
            );
        }
    }

    // proto and net.
    let codec_us =
        |message: &str| us(&format!("{message}.encode_ns")) + us(&format!("{message}.decode_ns"));
    out.put("proto.launch_req_bytes", r.get("proto.launch_req_bytes"));
    out.put("proto.launch_resp_bytes", r.get("proto.launch_resp_bytes"));
    out.put(
        "proto.encode_launch_ns",
        r.get("proto.launch_req.encode_ns") + r.get("proto.launch_resp.encode_ns"),
    );
    out.put(
        "proto.decode_launch_ns",
        r.get("proto.launch_req.decode_ns") + r.get("proto.launch_resp.decode_ns"),
    );
    out.put("proto.encode_write1m_us", us("proto.write1m_req.encode_ns"));
    out.put("proto.decode_write1m_us", us("proto.write1m_req.decode_ns"));
    out.put("net.frame.small_ns", r.get("net.frame.small_ns"));
    out.put("net.frame.bulk_us", us("net.frame.bulk_ns"));
    let hop_us = us("net.fabric.small_rt_ns") / 2.0;
    out.put("net.fabric.hop_us", hop_us);
    out.put(
        "net.fabric.bulk_mib_per_s",
        (r.get("proto.write1m_req_bytes") / MIB as f64) / (r.get("net.fabric.bulk_rt_ns") / 1e9),
    );
    out.put(
        "net.pool.reuse_ratio.small",
        1.0 - r.get("net.pool.miss_ratio.small"),
    );
    out.put(
        "net.pool.reuse_ratio.bulk",
        1.0 - r.get("net.pool.miss_ratio.bulk"),
    );

    // cluster: what the host runtime and the NMP add around the wire
    // and the VM.
    let (ping, launch) = (us("cluster.ping_rt_ns"), us("cluster.launch_rt_ns"));
    let (write, read, build) = (
        us("cluster.write1m_rt_ns"),
        us("cluster.read1m_rt_ns"),
        us("cluster.build_rt_ns"),
    );
    let framing_us = 2.0 * us("net.frame.small_ns");
    let ping_codec_us = codec_us("proto.ping_req") + codec_us("proto.ping_resp");
    let host_nmp_self = self_time(ping, &[2.0 * hop_us, framing_us, ping_codec_us]);
    let vm_saxpy = us("clc.vm.compiled_ns.saxpy64");
    let nmp_launch_self = self_time(launch, &[ping, vm_saxpy]);
    out.put("cluster.ping_rt_us", ping);
    out.put("cluster.launch_rt_us", launch);
    out.put("cluster.write1m_rt_us", write);
    out.put("cluster.read1m_rt_us", read);
    out.put("cluster.build_rt_us", build);
    out.put("cluster.host_nmp_self_us", host_nmp_self);
    out.put("cluster.nmp.launch_self_us", nmp_launch_self);

    // sched and obs.
    for name in [
        "sched.place_audited_ns.2dev",
        "sched.place_audited_ns.16dev",
        "sched.tenancy.cycle_ns",
        "obs.span_record_ns",
        "obs.counter_inc_ns",
    ] {
        out.put(name, r.get(name));
    }

    // core: each launch path over the one beneath it, buffers and
    // programs over the cluster call they wrap.
    let (enqueue, auto, serve) = (
        us("core.enqueue_rt_ns"),
        us("core.auto_rt_ns"),
        us("core.serve_rt_ns"),
    );
    let enqueue_self = self_time(enqueue, &[launch]);
    let core_write_self = self_time(us("core.write1m_rt_ns"), &[write]);
    let core_read_self = self_time(us("core.read1m_rt_ns"), &[read]);
    let (core_build, first_launch) = (us("core.program.build_ns"), us("core.first_launch_ns"));
    out.put("core.enqueue_rt_us", enqueue);
    out.put("core.enqueue_self_us", enqueue_self);
    // The figure comparable to EngineCL's <1 % bar and to
    // results/overhead.txt: (round trip - vm.run) / round trip, for the
    // smallest launch, where it is at its worst.
    out.put("core.overhead_frac", (enqueue - vm_saxpy) / enqueue);
    out.put(
        "core.auto_self_us",
        self_time(auto, &[enqueue, us("sched.place_audited_ns.2dev")]),
    );
    out.put(
        "core.serve_self_us",
        self_time(serve, &[auto, us("sched.tenancy.cycle_ns")]),
    );
    out.put("core.buffer.write1m_self_us", core_write_self);
    out.put("core.buffer.read1m_self_us", core_read_self);
    out.put("core.buffer.migrate1m_us", us("core.migrate1m_rt_ns"));
    out.put("core.program.build_us", core_build);
    out.put(
        "core.program.build_self_us",
        self_time(core_build, &[crate::harness::NODES as f64 * build]),
    );
    out.put("core.program.rebuild_us", us("core.program.rebuild_ns"));
    out.put("core.first_launch_us", first_launch);

    // workloads: per-app wall time.
    for app in ["matmul", "cfd", "knn", "bfs", "spmv"] {
        out.put(
            &format!("workloads.{app}_wall_ms"),
            r.get(&format!("workloads.{app}.run.wall_ns")) / 1e6,
        );
    }

    // Ledgers. One small launch, top to bottom:
    let small = [
        ("core self", enqueue_self),
        ("host+nmp self", host_nmp_self),
        ("2 fabric hops", 2.0 * hop_us),
        ("2 framings", framing_us),
        ("ping codec", ping_codec_us),
        ("nmp launch self", nmp_launch_self),
        ("vm.run", vm_saxpy),
    ];
    // One bulk op: write, take ownership on device 0, migrate under a
    // touch launch on device 1, read.
    let bulk = [
        ("write", us("core.write1m_rt_ns")),
        ("own (touch)", us("core.own1m_rt_ns")),
        ("migrate+touch", us("core.migrate1m_rt_ns")),
        ("read", us("core.read1m_rt_ns")),
    ];
    // One cold build: build on both nodes, first launch, drop.
    let cold = [
        ("build", core_build),
        ("first launch", first_launch),
        ("drop", us("core.program.drop_ns")),
    ];
    for (name, whole, parts) in [
        ("small_launch", enqueue, &small[..]),
        ("bulk_transfer", us("core.bulk_op_ns"), &bulk[..]),
        ("cold_build", us("core.cold_op_ns"), &cold[..]),
    ] {
        let values: Vec<f64> = parts.iter().map(|(_, v)| *v).collect();
        let residual = residual_frac(whole, &values);
        println!(
            "ledger {name}: whole {whole:.2} us, parts sum {:.2} us, residual {:.1} %",
            values.iter().sum::<f64>(),
            residual * 100.0
        );
        for (part, value) in parts {
            println!(
                "    {part:<16} {value:>10.2} us  {:>5.1} %",
                value / whole * 100.0
            );
        }
        out.put(&format!("ledger.residual_frac.{name}"), residual);
    }
}
