//! `clc` probes: the front end (compile, analysis, lowering) and the VM
//! on the kernels the workloads launch.

use std::time::Instant;

use haocl_clc::vm::{run_ndrange_with_engine, ArgValue, EngineKind, GlobalBuffer, NdRange};
use haocl_clc::{compile, compile_with_options, AnalysisMode, CompileOptions, CompiledProgram};
use haocl_workloads::{bfs, cfd, knn, matmul, spmv};

use super::{time_ns, time_ns_after, Budget, Samples};
use crate::gen::Rng;
use crate::harness::{Res, Scale};
use crate::kernels::{self, stamp_from, stamp_kernel, STAMP_KERNEL_NAME};
use crate::metrics::VM_KERNELS;
use crate::workloads::cold_build::corpus;
use crate::workloads::SMALL_ITEMS;

/// One prepared launch of a kernel the workloads issue.
struct Launch {
    program: CompiledProgram,
    kernel: &'static str,
    args: Vec<ArgValue>,
    buffers: Vec<GlobalBuffer>,
    range: NdRange,
}

impl Launch {
    fn run(
        &self,
        buffers: &mut [GlobalBuffer],
        engine: EngineKind,
    ) -> Res<haocl_clc::vm::ExecStats> {
        let kernel = self
            .program
            .kernel(self.kernel)
            .ok_or("kernel missing from its program")?;
        Ok(run_ndrange_with_engine(
            kernel,
            &self.args,
            buffers,
            &self.range,
            engine,
        )?)
    }
}

fn i32s(rng: &mut Rng, n: usize, below: usize) -> Vec<i32> {
    (0..n).map(|_| rng.below(below as u64) as i32).collect()
}

/// The launches behind `clc.vm.*`, by [`VM_KERNELS`] name: each paper
/// app's main kernel at a shape that lets all of them be timed under
/// three engines inside one traced run, and the 64-item saxpy exactly as
/// `small_launch` issues it.
fn launch(name: &str, rng: &mut Rng, scale: Scale) -> Res<Launch> {
    let shrink = |full: usize| scale.pick(full, full / 4);
    Ok(match name {
        "matmul" => {
            let n = shrink(32);
            Launch {
                program: compile(matmul::KERNEL_SOURCE)?,
                kernel: matmul::KERNEL_NAME,
                args: vec![
                    ArgValue::global(0),
                    ArgValue::global(1),
                    ArgValue::global(2),
                    ArgValue::from_i32(n as i32),
                    ArgValue::from_i32(n as i32),
                ],
                buffers: vec![
                    GlobalBuffer::from_f32(&rng.f32s(n * n, 0.0, 2.0)),
                    GlobalBuffer::from_f32(&rng.f32s(n * n, 0.0, 2.0)),
                    GlobalBuffer::zeroed(4 * n * n),
                ],
                range: NdRange::d2([n as u64, n as u64], [8, 8]),
            }
        }
        "cfd" => {
            let cells = shrink(1_024);
            let mut vars = rng.f32s(cells, 0.5, 2.0);
            vars.extend(rng.f32s(cells, 2.0, 3.0));
            vars.extend(rng.f32s(3 * cells, -1.0, 1.0));
            Launch {
                program: compile(cfd::KERNEL_SOURCE)?,
                kernel: cfd::KERNEL_NAME,
                args: vec![
                    ArgValue::global(0),
                    ArgValue::global(1),
                    ArgValue::global(2),
                    ArgValue::from_i32(cells as i32),
                    ArgValue::from_i32(0),
                    ArgValue::from_i32(cells as i32),
                ],
                buffers: vec![
                    GlobalBuffer::from_f32(&vars),
                    GlobalBuffer::from_i32(&i32s(rng, 4 * cells, cells)),
                    GlobalBuffer::zeroed(4 * 5 * cells),
                ],
                range: NdRange::linear(cells as u64, 64),
            }
        }
        "knn" => {
            let records = shrink(8_192);
            Launch {
                program: compile(knn::KERNEL_SOURCE)?,
                kernel: knn::DIST_KERNEL_NAME,
                args: vec![
                    ArgValue::global(0),
                    ArgValue::global(1),
                    ArgValue::global(2),
                    ArgValue::from_f32(rng.f32_in(0.0, 90.0)),
                    ArgValue::from_f32(rng.f32_in(0.0, 180.0)),
                    ArgValue::from_i32(records as i32),
                ],
                buffers: vec![
                    GlobalBuffer::from_f32(&rng.f32s(records, 0.0, 90.0)),
                    GlobalBuffer::from_f32(&rng.f32s(records, 0.0, 180.0)),
                    GlobalBuffer::zeroed(4 * records),
                ],
                range: NdRange::linear(records as u64, 64),
            }
        }
        "bfs" => {
            // Even nodes form the frontier, odd nodes are undiscovered;
            // every node has six out-edges.
            let (nodes, degree) = (shrink(4_096), 6);
            let row_off: Vec<i32> = (0..=nodes).map(|r| (r * degree) as i32).collect();
            let depth: Vec<i32> = (0..nodes)
                .map(|u| if u % 2 == 0 { 3 } else { -1 })
                .collect();
            Launch {
                program: compile(bfs::KERNEL_SOURCE)?,
                kernel: bfs::KERNEL_NAME,
                args: vec![
                    ArgValue::global(0),
                    ArgValue::global(1),
                    ArgValue::global(2),
                    ArgValue::global(3),
                    ArgValue::global(4),
                    ArgValue::from_i32(3),
                    ArgValue::from_i32(0),
                    ArgValue::from_i32(nodes as i32),
                ],
                buffers: vec![
                    GlobalBuffer::from_i32(&row_off),
                    GlobalBuffer::from_i32(&i32s(rng, nodes * degree, nodes)),
                    GlobalBuffer::from_i32(&depth),
                    GlobalBuffer::zeroed(4 * nodes * degree),
                    GlobalBuffer::zeroed(4),
                ],
                range: NdRange::linear(nodes as u64, 64),
            }
        }
        "spmv" => {
            let (rows, per_row) = (shrink(2_048), 16);
            let row_ptr: Vec<i32> = (0..=rows).map(|r| (r * per_row) as i32).collect();
            Launch {
                program: compile(spmv::KERNEL_SOURCE)?,
                kernel: spmv::KERNEL_NAME,
                args: vec![
                    ArgValue::global(0),
                    ArgValue::global(1),
                    ArgValue::global(2),
                    ArgValue::global(3),
                    ArgValue::global(4),
                    ArgValue::from_i32(rows as i32),
                ],
                buffers: vec![
                    GlobalBuffer::from_i32(&row_ptr),
                    GlobalBuffer::from_i32(&i32s(rng, rows * per_row, rows)),
                    GlobalBuffer::from_f32(&rng.f32s(rows * per_row, -1.0, 1.0)),
                    GlobalBuffer::from_f32(&rng.f32s(rows, -1.0, 1.0)),
                    GlobalBuffer::zeroed(4 * rows),
                ],
                range: NdRange::linear(rows as u64, 64),
            }
        }
        "saxpy64" => Launch {
            program: compile(kernels::SAXPY)?,
            kernel: "saxpy",
            args: vec![
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::from_f32(rng.f32_in(0.5, 1.5)),
                ArgValue::from_i32(SMALL_ITEMS as i32),
            ],
            buffers: vec![
                GlobalBuffer::from_f32(&rng.f32s(SMALL_ITEMS, 0.0, 1.0)),
                GlobalBuffer::from_f32(&rng.f32s(SMALL_ITEMS, 0.0, 1.0)),
            ],
            range: NdRange::linear(SMALL_ITEMS as u64, SMALL_ITEMS as u64),
        },
        other => return Err(format!("no VM launch named {other}").into()),
    })
}

pub struct Fixture {
    sources: Vec<String>,
    /// `(catalogue name, launch, instructions it retires)`.
    launches: Vec<(&'static str, Launch, u64)>,
    rng: Rng,
}

impl Fixture {
    /// Prepares the launches and checks each against the interpreter:
    /// the reference engine's output is the oracle, and a kernel whose
    /// compiled output or statistics differ from it is an error.
    pub fn new(seed: u64, scale: Scale) -> Res<Fixture> {
        let mut rng = Rng::new(seed, 21);
        let mut launches = Vec::new();
        for name in VM_KERNELS {
            let launch = launch(name, &mut rng, scale)?;
            let (mut oracle, mut compiled) = (launch.buffers.clone(), launch.buffers.clone());
            let reference = launch.run(&mut oracle, EngineKind::Interp)?;
            let stats = launch.run(&mut compiled, EngineKind::Compiled)?;
            let same_bytes = oracle
                .iter()
                .zip(&compiled)
                .all(|(a, b)| a.as_bytes() == b.as_bytes());
            if !same_bytes || stats != reference || stats.instructions == 0 {
                return Err(format!(
                    "{name}: compiled engine diverges from the interpreter oracle"
                )
                .into());
            }
            launches.push((name, launch, stats.instructions));
        }
        Ok(Fixture {
            sources: corpus()?.into_iter().map(|(_, text)| text).collect(),
            launches,
            rng: Rng::new(seed, 20),
        })
    }

    pub fn pass(&mut self, budget: &Budget, samples: &mut Samples) -> Res<()> {
        // Front end: one corpus pass per batch, so the figure is the
        // mean source; with the analyzer and without.
        let sources = &self.sources;
        let mut next = 0;
        let mut compile_next = |options: &CompileOptions| {
            let source = &sources[next % sources.len()];
            next += 1;
            std::hint::black_box(
                compile_with_options(source, options).expect("corpus source compiles"),
            );
        };
        let bare = CompileOptions {
            analysis: AnalysisMode::Off,
        };
        let per_pass = sources.len() as u32;
        samples.add(
            "clc.compile_ns",
            time_ns(budget.units(3), per_pass, || {
                compile_next(&CompileOptions::default())
            }),
        );
        samples.add(
            "clc.compile_bare_ns",
            time_ns(budget.units(3), per_pass, || compile_next(&bare)),
        );

        // Lowering: a never-seen kernel's first run against its second.
        let range = NdRange::linear(SMALL_ITEMS as u64, SMALL_ITEMS as u64);
        let args = [ArgValue::global(0), ArgValue::from_i32(SMALL_ITEMS as i32)];
        let slice = budget.units(2);
        let started = Instant::now();
        let mut fresh = 0;
        while fresh < 3 || started.elapsed() < slice {
            let program = compile(&stamp_kernel(stamp_from(self.rng.next_u64())))?;
            let kernel = program
                .kernel(STAMP_KERNEL_NAME)
                .ok_or("stamp kernel missing")?;
            let mut buffers = [GlobalBuffer::zeroed(4 * SMALL_ITEMS)];
            for name in ["clc.vm.first_run_ns", "clc.vm.second_run_ns"] {
                let t0 = Instant::now();
                run_ndrange_with_engine(kernel, &args, &mut buffers, &range, EngineKind::Compiled)?;
                samples.add(name, t0.elapsed().as_nanos() as f64);
            }
            fresh += 1;
        }

        // The VM, engine by engine. Every timed run starts from the same
        // inputs (bfs_step appends to its output, saxpy accumulates); the
        // reset is not timed.
        for (name, launch, instructions) in &self.launches {
            let mut buffers = launch.buffers.clone();
            let mut time = |what: &str, units, engine| {
                let ns = time_ns_after(
                    budget.units(units),
                    1,
                    |buffers: &mut Vec<GlobalBuffer>| buffers.clone_from(&launch.buffers),
                    |buffers| {
                        launch
                            .run(buffers, engine)
                            .expect("launch ran in Fixture::new");
                    },
                    &mut buffers,
                );
                samples.add(format!("clc.vm.{what}_ns.{name}"), ns);
            };
            time("compiled", 2, EngineKind::Compiled);
            if *name != "saxpy64" {
                time("interp", 3, EngineKind::Interp);
            }
            if matches!(*name, "matmul" | "knn") {
                time("serial", 2, EngineKind::CompiledSerial);
            }
            samples.add(format!("clc.vm.instructions.{name}"), *instructions as f64);
        }
        Ok(())
    }
}
