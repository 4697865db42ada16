//! Differential testing of the compiled execution engine against the
//! checked interpreter oracle.
//!
//! [`run_ndrange_checked`] always interprets, so it never depends on the
//! compiled path it validates — that makes it the ground truth here.
//! The compiled engine must match it exactly: byte-identical output buffers,
//! identical [`ExecStats`], and identical structured errors. The corpus
//! is every good lint-corpus kernel plus the five paper benchmark
//! kernels, swept at their standard shapes and at proptest-randomized
//! shapes, inputs, and scalar arguments.
//!
//! The only tolerated divergence is an oracle verdict the compiled
//! engine cannot produce by design: `LocalRace` and `BudgetExhausted`
//! exist in checked mode only, so cases where the oracle reports them
//! are skipped rather than compared.

use std::path::{Path, PathBuf};
use std::sync::{OnceLock, RwLock};

use haocl_clc::ast::ParamType;
use haocl_clc::vm::{
    lockstep_stats, run_ndrange_checked, run_ndrange_with_engine, ArgValue, CheckConfig,
    EngineKind, ExecErrorKind, ExecStats, GlobalBuffer, LockstepStats, NdRange,
};
use haocl_clc::{compile, AddressSpace, CompiledKernel, CompiledProgram, ScalarType};
use proptest::prelude::*;

/// One compiled source under test.
struct Case {
    origin: String,
    program: CompiledProgram,
}

/// Every good-corpus file plus the five paper kernels, compiled once.
fn corpus() -> &'static Vec<Case> {
    static CORPUS: OnceLock<Vec<Case>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus/good");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "cl"))
            .collect();
        files.sort();
        let mut out = Vec::new();
        for path in files {
            let source = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push(Case {
                origin: path.display().to_string(),
                program: compile(&source).expect("good corpus builds"),
            });
        }
        for (name, source) in [
            ("matmul", haocl_workloads::matmul::KERNEL_SOURCE),
            ("spmv", haocl_workloads::spmv::KERNEL_SOURCE),
            ("bfs", haocl_workloads::bfs::KERNEL_SOURCE),
            ("knn", haocl_workloads::knn::KERNEL_SOURCE),
            ("cfd", haocl_workloads::cfd::KERNEL_SOURCE),
        ] {
            out.push(Case {
                origin: name.to_string(),
                program: compile(source).expect("paper kernel builds"),
            });
        }
        out
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Synthesizes a launchable argument list: pseudo-random buffer bytes
/// derived from `seed` for pointers, `scalar` for every scalar
/// parameter. Out-of-range scalars and small buffers are fine — they
/// drive the error paths, which must also match across engines.
fn synth_args(
    kernel: &CompiledKernel,
    buf_bytes: usize,
    scalar: i64,
    seed: u64,
) -> (Vec<ArgValue>, Vec<GlobalBuffer>) {
    let mut state = seed ^ 0x5eed_cafe_f00d_d00d;
    let mut args = Vec::new();
    let mut buffers = Vec::new();
    for param in &kernel.params {
        match param {
            ParamType::Pointer(AddressSpace::Local, _) => {
                args.push(ArgValue::local_bytes(256));
            }
            ParamType::Pointer(_, _) => {
                args.push(ArgValue::global(buffers.len()));
                let mut bytes = vec![0u8; buf_bytes];
                for chunk in bytes.chunks_mut(8) {
                    let v = splitmix(&mut state).to_le_bytes();
                    chunk.copy_from_slice(&v[..chunk.len()]);
                }
                buffers.push(GlobalBuffer::from_bytes(bytes));
            }
            ParamType::Scalar(st) => args.push(match st {
                ScalarType::F32 => ArgValue::from_f32(scalar as f32),
                ScalarType::F64 => ArgValue::from_f64(scalar as f64),
                ScalarType::I64 => ArgValue::from_i64(scalar),
                ScalarType::U64 => ArgValue::from_u64(scalar as u64),
                ScalarType::U32 => ArgValue::from_u32(scalar as u32),
                _ => ArgValue::from_i32(scalar as i32),
            }),
        }
    }
    (args, buffers)
}

/// The lockstep counters are process-wide: every launch in this file
/// holds this for reading, and [`lockstep_delta`] for writing, so what it
/// reads moved for its own launch alone.
static VM_LAUNCHES: RwLock<()> = RwLock::new(());

/// Runs `kernel` on the checked oracle and on the compiled engine
/// from identical starting buffers, and demands identical outcomes:
/// same `Ok(ExecStats)` or same `(ExecErrorKind, message)`, and on
/// success byte-identical buffer contents.
fn compare_engines(
    origin: &str,
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers: &[GlobalBuffer],
    range: &NdRange,
) -> Result<(), String> {
    let _shared = VM_LAUNCHES.read().unwrap_or_else(|e| e.into_inner());
    let mut oracle_bufs = buffers.to_vec();
    let oracle = run_ndrange_checked(
        kernel,
        args,
        &mut oracle_bufs,
        range,
        &CheckConfig::default(),
    );
    if let Err(e) = &oracle {
        if matches!(
            e.kind(),
            ExecErrorKind::LocalRace | ExecErrorKind::BudgetExhausted
        ) {
            // Checked-mode-only verdicts; the plain engines run the
            // kernel without these oracles, so there is nothing to
            // compare against.
            return Ok(());
        }
    }
    let oracle_out: Result<ExecStats, (ExecErrorKind, String)> =
        oracle.map_err(|e| (e.kind(), e.to_string()));
    let mut engine_bufs = buffers.to_vec();
    let got = run_ndrange_with_engine(kernel, args, &mut engine_bufs, range, EngineKind::Compiled)
        .map_err(|e| (e.kind(), e.to_string()));
    if got != oracle_out {
        return Err(format!(
            "{origin}: kernel `{}` diverged from the oracle:\n  \
             oracle: {oracle_out:?}\n  engine: {got:?}",
            kernel.name
        ));
    }
    if oracle_out.is_ok() {
        for (i, (want, have)) in oracle_bufs.iter().zip(&engine_bufs).enumerate() {
            if want.as_bytes() != have.as_bytes() {
                return Err(format!(
                    "{origin}: kernel `{}`: buffer {i} bytes diverge from the oracle",
                    kernel.name
                ));
            }
        }
    }
    Ok(())
}

/// The shape each corpus kernel was written for (mirrors the
/// lint-corpus cross-check): square 2-D for the tiled kernels, one
/// linear group of 8 otherwise.
fn standard_range(kernel: &CompiledKernel) -> NdRange {
    match kernel.name.as_str() {
        "tiled_transpose" | "matmul" => NdRange::d2([4, 4], [4, 4]),
        _ => NdRange::linear(8, 8),
    }
}

#[test]
fn engines_match_oracle_at_standard_shapes() {
    for case in corpus() {
        for kernel in case.program.kernels() {
            let (args, buffers) = synth_args(kernel, 1 << 16, 4, 7);
            compare_engines(
                &case.origin,
                kernel,
                &args,
                &buffers,
                &standard_range(kernel),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// The five paper kernels with realistic inputs and their benchmark
/// launch geometry (scaled down so the sweep stays fast in debug).
#[test]
fn engines_match_oracle_on_paper_launches() {
    fn f32s(state: &mut u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (splitmix(state) % 1000) as f32 / 100.0 + 0.5)
            .collect()
    }
    let mut state = 42u64;

    // MatrixMul 16x16.
    let n = 16usize;
    let mm = compile(haocl_workloads::matmul::KERNEL_SOURCE).expect("matmul compiles");
    let buffers = vec![
        GlobalBuffer::from_f32(&f32s(&mut state, n * n)),
        GlobalBuffer::from_f32(&f32s(&mut state, n * n)),
        GlobalBuffer::zeroed(4 * n * n),
    ];
    compare_engines(
        "MatrixMul",
        mm.kernel(haocl_workloads::matmul::KERNEL_NAME).unwrap(),
        &[
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::from_i32(n as i32),
            ArgValue::from_i32(n as i32),
        ],
        &buffers,
        &NdRange::d2([n as u64, n as u64], [8, 8]),
    )
    .unwrap_or_else(|e| panic!("{e}"));

    // SpMV: 256 rows, 8 nonzeros per row, CSR.
    let rows = 256usize;
    let nnz = rows * 8;
    let row_ptr: Vec<i32> = (0..=rows).map(|r| (r * 8) as i32).collect();
    let cols: Vec<i32> = (0..nnz)
        .map(|_| (splitmix(&mut state) % rows as u64) as i32)
        .collect();
    let spmv = compile(haocl_workloads::spmv::KERNEL_SOURCE).expect("spmv compiles");
    let buffers = vec![
        GlobalBuffer::from_i32(&row_ptr),
        GlobalBuffer::from_i32(&cols),
        GlobalBuffer::from_f32(&f32s(&mut state, nnz)),
        GlobalBuffer::from_f32(&f32s(&mut state, rows)),
        GlobalBuffer::zeroed(4 * rows),
    ];
    compare_engines(
        "SpMV",
        spmv.kernel(haocl_workloads::spmv::KERNEL_NAME).unwrap(),
        &[
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::global(3),
            ArgValue::global(4),
            ArgValue::from_i32(rows as i32),
        ],
        &buffers,
        &NdRange::linear(rows as u64, 64),
    )
    .unwrap_or_else(|e| panic!("{e}"));

    // BFS apply: 512 scattered depth updates.
    let count = 512usize;
    let mut updates = Vec::with_capacity(2 * count);
    for t in 0..count as i32 {
        updates.push(t);
        updates.push((splitmix(&mut state) % 32) as i32);
    }
    let bfs = compile(haocl_workloads::bfs::KERNEL_SOURCE).expect("bfs compiles");
    let buffers = vec![
        GlobalBuffer::from_i32(&vec![-1; count]),
        GlobalBuffer::from_i32(&updates),
    ];
    compare_engines(
        "BFS",
        bfs.kernel(haocl_workloads::bfs::APPLY_KERNEL_NAME).unwrap(),
        &[
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::from_i32(count as i32),
        ],
        &buffers,
        &NdRange::linear(count as u64, 64),
    )
    .unwrap_or_else(|e| panic!("{e}"));

    // KNN distance pass: 512 records against one query point.
    let records = 512usize;
    let knn = compile(haocl_workloads::knn::KERNEL_SOURCE).expect("knn compiles");
    let buffers = vec![
        GlobalBuffer::from_f32(&f32s(&mut state, records)),
        GlobalBuffer::from_f32(&f32s(&mut state, records)),
        GlobalBuffer::zeroed(4 * records),
    ];
    compare_engines(
        "KNN",
        knn.kernel(haocl_workloads::knn::DIST_KERNEL_NAME).unwrap(),
        &[
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::from_f32(3.25),
            ArgValue::from_f32(7.5),
            ArgValue::from_i32(records as i32),
        ],
        &buffers,
        &NdRange::linear(records as u64, 64),
    )
    .unwrap_or_else(|e| panic!("{e}"));

    // CFD flux: 256 cells, 4 neighbours each, 5 conserved variables.
    let cells = 256usize;
    let neigh: Vec<i32> = (0..4 * cells)
        .map(|_| (splitmix(&mut state) % cells as u64) as i32)
        .collect();
    let cfd = compile(haocl_workloads::cfd::KERNEL_SOURCE).expect("cfd compiles");
    let buffers = vec![
        GlobalBuffer::from_f32(&f32s(&mut state, 5 * cells)),
        GlobalBuffer::from_i32(&neigh),
        GlobalBuffer::zeroed(4 * 5 * cells),
    ];
    compare_engines(
        "CFD",
        cfd.kernel(haocl_workloads::cfd::KERNEL_NAME).unwrap(),
        &[
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::from_i32(cells as i32),
            ArgValue::from_i32(0),
            ArgValue::from_i32(cells as i32),
        ],
        &buffers,
        &NdRange::linear(cells as u64, 64),
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

/// Kernels aimed at the corners of the compiled engine's typing pass:
/// what a slot or a stack temporary holds before, between and across
/// stores, and which failure of a deferred tree surfaces first.
const TYPING_EDGE_KERNELS: &str = r#"
// Declared-but-unassigned locals read back as zero bits of every type.
__kernel void unassigned(__global int* oi, __global float* of,
                         __global long* ol, __global uint* ou,
                         __global double* od) {
    int a; uint b; long c; ulong d; float e; double f; bool g;
    int i = get_global_id(0);
    oi[2 * i] = a + (g ? 1 : 0);
    oi[2 * i + 1] = (int)d;
    of[i] = e;
    ol[i] = c;
    ou[i] = b;
    od[i] = f;
}

// A `ulong` index: in range it addresses, above `i64::MAX` it faults.
__kernel void ulong_index(__global int* out, ulong at) {
    ulong i = at + get_global_id(0);
    out[i] = 7;
}

// A pointer parameter advanced in a loop, per work-item.
__kernel void walk(__global const float* p, __global float* out, int n) {
    float acc = 0.0f;
    p = p + get_global_id(0);
    for (int k = 0; k < n; k++) {
        acc += p[0];
        p = p + 1;
    }
    out[get_global_id(0)] = acc;
}

// A `__local` pointer argument and a static `__local` array together,
// with pointers held across the seams of a conditional expression.
__kernel void two_locals(__global int* out, __local int* scratch, int n) {
    __local int tile[8];
    int l = get_local_id(0);
    tile[l] = l * 3;
    scratch[l] = l + 100;
    barrier(CLK_LOCAL_MEM_FENCE);
    int r = 7 - l;
    int v = (l < n) ? tile[r] : scratch[r];
    barrier(CLK_LOCAL_MEM_FENCE);
    scratch[l] += (l < n) ? 1 : 2;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = v + scratch[r];
}

// bool <-> int <-> float conversion chains.
__kernel void casts(__global const float* x, __global int* oi,
                    __global float* of, int s) {
    int i = get_global_id(0);
    bool nz = (bool)x[i];
    bool pos = x[i] > 0.0f;
    int n = (int)nz + (int)pos * 2 + (int)(uint)x[i];
    float back = (float)nz + (float)(long)x[i] + (float)(ulong)s;
    double wide = (double)x[i] * (double)(uint)s;
    oi[2 * i] = n + (int)wide + -(int)pos;
    oi[2 * i + 1] = (int)(bool)s + (int)(float)(s * 1000003) + ~s;
    of[i] = back + (float)wide + (float)(nz && pos);
}

// float and double arguments to one- and two-argument builtins.
__kernel void mixed_math(__global const float* x, __global float* of,
                         __global double* od, __global int* oi) {
    int i = get_global_id(0);
    double d = sqrt((double)x[i]) + pow(x[i], 2.0) + fmin(x[i], 0.25);
    float f = sqrt(x[i]) + pow(x[i], 2.0f) + fmax(x[i], 0.25f) + fabs(x[i]);
    of[i] = f + floor(x[i]) + clamp(x[i], 0.1f, 0.9f) + mad(x[i], 2.0f, 1.0f);
    od[i] = d + fmod((double)f, 3.0) + ceil(d);
    oi[i] = min(i, 3) + max(i - 5, -2) + abs(i - 4) + (int)min((uint)i, 2u);
}

// Every float operation that hands a NaN's bits through. Which NaN comes
// out (sign, quiet bit, payload) is the interpreter's choice, signalling
// inputs included; `x * y + z` and `z + x * y` are the fused shapes.
__kernel void nan_bits(__global const float* x, __global const float* y,
                       __global const double* xd, __global const double* yd,
                       __global float* of, __global double* od) {
    int i = get_global_id(0);
    float a = x[i];
    float b = y[i];
    of[16 * i] = -a;
    of[16 * i + 1] = fabs(a);
    of[16 * i + 2] = floor(a);
    of[16 * i + 3] = ceil(a);
    of[16 * i + 4] = sqrt(a);
    of[16 * i + 5] = fmin(a, b);
    of[16 * i + 6] = fmax(a, b);
    of[16 * i + 7] = fmod(a, b);
    of[16 * i + 8] = a + b;
    of[16 * i + 9] = a - b;
    of[16 * i + 10] = a * b;
    of[16 * i + 11] = a / b;
    of[16 * i + 12] = a * b + a;
    of[16 * i + 13] = b + a * b;
    of[16 * i + 14] = (float)(double)a;
    of[16 * i + 15] = a;
    double c = xd[i];
    double d = yd[i];
    od[16 * i] = -c;
    od[16 * i + 1] = fabs(c);
    od[16 * i + 2] = floor(c);
    od[16 * i + 3] = ceil(c);
    od[16 * i + 4] = sqrt(c);
    od[16 * i + 5] = fmin(c, d);
    od[16 * i + 6] = fmax(c, d);
    od[16 * i + 7] = fmod(c, d);
    od[16 * i + 8] = c + d;
    od[16 * i + 9] = c - d;
    od[16 * i + 10] = c * d;
    od[16 * i + 11] = c / d;
    od[16 * i + 12] = c * d + c;
    od[16 * i + 13] = d + c * d;
    od[16 * i + 14] = (double)(float)c;
    od[16 * i + 15] = c;
}

// A pointer parameter re-pointed at another parameter's buffer on some
// items only, and `min`/`max` of two bools (computed as doubles).
__kernel void reroot(__global float* a, __global float* b, __global int* out, int n) {
    int i = get_global_id(0);
    if (i & 1) { a = b; }
    a = a + 1;
    a[i] = (float)i;
    bool low = i < n;
    out[i] = (int)min(low, i > 2) + 2 * (int)max(low, i > 5);
}

// Integer division inside a deferred tree: whichever operand fails
// first in source order is the failure reported.
__kernel void div_order(__global const int* a, __global int* out, int far) {
    int i = get_global_id(0);
    out[i] = a[i] + (a[i + 8] / a[i + 16]) + a[far];
    out[i] += a[far] + (a[i + 8] % a[i + 16]);
}
"#;

#[test]
fn typing_edge_cases_match_oracle() {
    let program = compile(TYPING_EDGE_KERNELS).expect("edge kernels compile");
    let kernel = |name: &str| {
        program
            .kernel(name)
            .unwrap_or_else(|| panic!("no `{name}`"))
    };
    let check = |name: &str, args: &[ArgValue], buffers: &[GlobalBuffer], range: NdRange| {
        compare_engines("typing edge", kernel(name), args, buffers, &range)
            .unwrap_or_else(|e| panic!("{e}"));
    };
    let ones = |n: usize| GlobalBuffer::from_bytes(vec![0xff; n]);
    let globals = |n: usize| (0..n).map(ArgValue::global).collect::<Vec<_>>();

    check(
        "unassigned",
        &globals(5),
        &[ones(64), ones(32), ones(64), ones(32), ones(64)],
        NdRange::linear(8, 4),
    );

    for at in [
        0u64,
        4,
        5,
        i64::MAX as u64 - 3,
        i64::MAX as u64,
        u64::MAX - 8,
    ] {
        check(
            "ulong_index",
            &[ArgValue::global(0), ArgValue::from_u64(at)],
            &[ones(32)],
            NdRange::linear(4, 2),
        );
    }
    // The exact text, not just agreement: the index is named in full.
    let mut out = [ones(32)];
    let err = run_ndrange_with_engine(
        kernel("ulong_index"),
        &[ArgValue::global(0), ArgValue::from_u64(u64::MAX - 8)],
        &mut out,
        &NdRange::linear(4, 2),
        EngineKind::Compiled,
    )
    .expect_err("index above i64::MAX");
    assert_eq!(
        err.to_string(),
        format!(
            "kernel execution failed: index {} exceeds i64",
            u64::MAX - 8
        )
    );

    let floats: Vec<f32> = (0..32).map(|i| i as f32 * 0.75 - 3.0).collect();
    for n in [0, 3, 24, 40] {
        check(
            "walk",
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::from_i32(n),
            ],
            &[GlobalBuffer::from_f32(&floats), GlobalBuffer::zeroed(32)],
            NdRange::linear(8, 4),
        );
    }

    for n in [0, 4, 8] {
        check(
            "two_locals",
            &[
                ArgValue::global(0),
                ArgValue::local_bytes(32),
                ArgValue::from_i32(n),
            ],
            &[GlobalBuffer::zeroed(64)],
            NdRange::linear(16, 8),
        );
    }
    // Too small a `__local` allocation: the same out-of-bounds fault.
    check(
        "two_locals",
        &[
            ArgValue::global(0),
            ArgValue::local_bytes(16),
            ArgValue::from_i32(4),
        ],
        &[GlobalBuffer::zeroed(64)],
        NdRange::linear(16, 8),
    );

    let mixed = [
        0.0f32,
        -0.0,
        0.5,
        -0.5,
        1.0,
        2.75,
        -3.25,
        1e10,
        -1e10,
        3e38,
        1e-40,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        4294967296.0,
        16777217.0,
        // Signalling NaNs and a quiet one with a payload.
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0x7fa0_0000),
        f32::from_bits(0xffc1_2345),
        -7.5,
    ];
    for s in [0, 1, -1, 7, i32::MAX, i32::MIN] {
        check(
            "casts",
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::global(2),
                ArgValue::from_i32(s),
            ],
            &[
                GlobalBuffer::from_f32(&mixed),
                GlobalBuffer::zeroed(8 * mixed.len()),
                GlobalBuffer::zeroed(4 * mixed.len()),
            ],
            NdRange::linear(mixed.len() as u64, 4),
        );
    }

    check(
        "mixed_math",
        &globals(4),
        &[
            GlobalBuffer::from_f32(&mixed),
            GlobalBuffer::zeroed(4 * mixed.len()),
            GlobalBuffer::zeroed(8 * mixed.len()),
            GlobalBuffer::zeroed(4 * mixed.len()),
        ],
        NdRange::linear(mixed.len() as u64, 10),
    );

    // Every ordered pair of: two signalling NaNs, two quiet NaNs with
    // payloads (one negative), and ordinary operands.
    let f32_bits = [
        0x7f80_0001u32,
        0x7fa0_0000,
        0xffc1_2345,
        0x7fc0_0000,
        0xff80_0001,
        0x3f80_0000,
        0x7f80_0000,
        0xff80_0000,
        0,
    ];
    let f64_bits = [
        0x7ff0_0000_0000_0001u64,
        0x7ff4_0000_0000_0000,
        0xfff8_1234_5678_9abc,
        0x7ff8_0000_0000_0000,
        0xfff0_0000_0000_0001,
        0x3ff0_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0,
    ];
    let n = f32_bits.len();
    let pairs = |first: bool| (0..n * n).map(move |i| if first { i / n } else { i % n });
    check(
        "nan_bits",
        &globals(6),
        &[
            GlobalBuffer::from_u32(&pairs(true).map(|i| f32_bits[i]).collect::<Vec<_>>()),
            GlobalBuffer::from_u32(&pairs(false).map(|i| f32_bits[i]).collect::<Vec<_>>()),
            GlobalBuffer::from_u64(&pairs(true).map(|i| f64_bits[i]).collect::<Vec<_>>()),
            GlobalBuffer::from_u64(&pairs(false).map(|i| f64_bits[i]).collect::<Vec<_>>()),
            GlobalBuffer::zeroed(4 * 16 * n * n),
            GlobalBuffer::zeroed(8 * 16 * n * n),
        ],
        NdRange::linear((n * n) as u64, 9),
    );

    for n in [0, 4, 8] {
        check(
            "reroot",
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::global(2),
                ArgValue::from_i32(n),
            ],
            &[ones(40), ones(36), GlobalBuffer::zeroed(32)],
            NdRange::linear(8, 4),
        );
    }

    // a[0..8) addends, a[8..16) dividends, a[16..24) divisors.
    let mut ints: Vec<i32> = (0..24).map(|i| i * 7 - 40).collect();
    for (zero_at, far) in [
        (None, 3),
        (Some(18), 3),
        (None, 999),
        (Some(18), 999),
        (Some(16), -1),
    ] {
        ints[16..24].iter_mut().for_each(|d| *d = 5);
        if let Some(z) = zero_at {
            ints[z] = 0;
        }
        check(
            "div_order",
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::from_i32(far),
            ],
            &[GlobalBuffer::from_i32(&ints), GlobalBuffer::zeroed(32)],
            NdRange::linear(8, 4),
        );
    }
}

/// How far one compiled launch, alone in the process, moved the lockstep
/// counters.
fn lockstep_delta(
    kernel: &CompiledKernel,
    args: &[ArgValue],
    buffers: &[GlobalBuffer],
    range: &NdRange,
) -> LockstepStats {
    let _alone = VM_LAUNCHES.write().unwrap_or_else(|e| e.into_inner());
    let before = lockstep_stats();
    let mut scratch = buffers.to_vec();
    let _ = run_ndrange_with_engine(kernel, args, &mut scratch, range, EngineKind::Compiled);
    let mut moved = lockstep_stats();
    moved.chunks -= before.chunks;
    moved.rejoins -= before.rejoins;
    moved.masked -= before.masked;
    for (now, then) in moved.splits.iter_mut().zip(before.splits) {
        now.1 -= then.1;
    }
    for (now, then) in moved.aborts.iter_mut().zip(before.aborts) {
        now.1 -= then.1;
    }
    for (now, then) in moved.refused.iter_mut().zip(before.refused) {
        now.1 -= then.1;
    }
    moved
}

/// Chunks a launch that runs lockstep cuts: from each row where rows are
/// at least a chunk wide, else from each group's items in linear order,
/// else — groups that are a whole fraction of a chunk — from as many
/// groups, consecutive in x, as fill one.
fn chunks_of(range: &NdRange, lanes: u64) -> u64 {
    let [x, y, z] = range.local;
    let items = x * y * z;
    let groups = range.total_items() / items;
    if x >= lanes {
        groups * y * z * (x / lanes)
    } else if items >= lanes || !lanes.is_multiple_of(items) {
        groups * (items / lanes)
    } else {
        let in_x = range.global[0] / x;
        groups / in_x * (in_x / (lanes / items))
    }
}

/// The count filed under `label` in a by-cause or by-reason list.
fn count_of(counts: &[(&'static str, u64)], label: &str) -> u64 {
    let (_, n) = counts.iter().find(|(l, _)| *l == label).expect("label");
    *n
}

/// Kernels for the lockstep executor: the first group runs whole in
/// chunks; the second reaches memory whose lanes must take turns — each
/// would give other bytes if its items took every op together.
const LOCKSTEP_KERNELS: &str = r#"
__kernel void saxpy(__global const float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}

// Only dimension 0 is asked for, so every row of a 2-D or 3-D group
// updates the same elements again, in row order.
__kernel void rows(__global const float* x, __global float* y, float a) {
    int i = get_global_id(0);
    y[i] = y[i] * a + x[i];
}

// `src[at[i]]` faults where `at[i]` is out of range, and the division
// further down where `den[i]` is zero.
__kernel void faults(__global const int* src, __global const int* at,
                     __global const int* den, __global int* out) {
    int i = get_global_id(0);
    int v = src[at[i]];
    out[i] = v / den[i] + v % den[i];
}

// A pointer parameter advanced in a loop every item leaves together.
__kernel void walk(__global const float* p, __global float* out, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int k = 0; k < n; k++) {
        acc += p[i];
        p = p + 1;
    }
    out[i] = acc;
}

// The same, from a start that differs from lane to lane.
__kernel void hop(__global const float* p, __global float* out, int n) {
    int i = get_global_id(0);
    p = p + i;
    float acc = 0.0f;
    for (int k = 0; k < n; k++) {
        acc += p[0];
        p = p + 2;
    }
    out[i] = acc;
}

// One float operation per launch, picked by a branch no lane disagrees
// on, over operands that differ from lane to lane.
__kernel void float_op(__global const float* x, __global const float* y,
                       __global float* o, int op) {
    int i = get_global_id(0);
    float a = x[i];
    float b = y[i];
    float r = a;
    if (op == 0) r = -a;
    else if (op == 1) r = fabs(a);
    else if (op == 2) r = floor(a);
    else if (op == 3) r = ceil(a);
    else if (op == 4) r = sqrt(a);
    else if (op == 5) r = fmin(a, b);
    else if (op == 6) r = fmax(a, b);
    else if (op == 7) r = fmod(a, b);
    else if (op == 8) r = a + b;
    else if (op == 9) r = a - b;
    else if (op == 10) r = a * b;
    else if (op == 11) r = a / b;
    else if (op == 12) r = a * b + a;
    else if (op == 13) r = b + a * b;
    else if (op == 14) r = (float)(double)a;
    else if (op == 15) r = pow(a, b);
    o[i] = r;
}

__kernel void double_op(__global const double* x, __global const double* y,
                        __global double* o, int op) {
    int i = get_global_id(0);
    double a = x[i];
    double b = y[i];
    double r = a;
    if (op == 0) r = -a;
    else if (op == 1) r = fabs(a);
    else if (op == 2) r = floor(a);
    else if (op == 3) r = ceil(a);
    else if (op == 4) r = sqrt(a);
    else if (op == 5) r = fmin(a, b);
    else if (op == 6) r = fmax(a, b);
    else if (op == 7) r = fmod(a, b);
    else if (op == 8) r = a + b;
    else if (op == 9) r = a - b;
    else if (op == 10) r = a * b;
    else if (op == 11) r = a / b;
    else if (op == 12) r = a * b + a;
    else if (op == 13) r = b + a * b;
    else if (op == 14) r = (double)(float)a;
    else if (op == 15) r = pow(a, b);
    o[i] = r;
}

// Item i stores what item i + 1 loads: taking turns, the new value
// cascades; op by op, every lane would load the old one.
__kernel void shift(__global float* y) {
    int i = get_global_id(0);
    y[i] = y[i + 1] + 1.0f;
    y[i + 1] = y[i] * 2.0f;
}

// Two items per element: op by op, the second would lose the first's sum.
__kernel void pair_sum(__global const float* x, __global float* y) {
    int i = get_global_id(0);
    y[i / 2] += x[i];
}

// Harmless on two buffers; bound to one, item i + 1 loads what item i
// stored.
__kernel void carry(__global const float* x, __global float* y) {
    int i = get_global_id(0);
    y[i + 1] = x[i] + 1.0f;
}

// More shapes than a summary keeps; the last writer of an element wins.
__kernel void smear(__global float* y) {
    int i = get_global_id(0);
    float v = (float)i;
    y[i] = v; y[i + 1] = v; y[i + 2] = v; y[i + 3] = v; y[i + 4] = v;
    y[i + 5] = v; y[i + 6] = v; y[i + 7] = v; y[i + 8] = v; y[i + 9] = v;
    y[i + 10] = v; y[i + 11] = v; y[i + 12] = v; y[i + 13] = v;
    y[i + 14] = v; y[i + 15] = v; y[i + 16] = v;
}

// `__local` memory without a barrier, each item in its own slot.
__kernel void scratchpad(__global const float* x, __global float* y) {
    __local float t[64];
    int l = get_local_id(0);
    int i = get_global_id(0);
    t[l] = x[i] * 3.0f;
    y[i] = t[l] + 1.0f;
}

// Dimension 1 asked for: items of different rows are different items.
__kernel void grid(__global float* y, int width) {
    int i = get_global_id(0);
    int j = get_global_id(1);
    y[j * width + i] = y[j * width + i] + 1.0f;
}

// A provable shape, but along dimension 1: every item of a row — every
// lane of a chunk — adds to the same element.
__kernel void column(__global float* y) {
    int j = get_global_id(1);
    y[j + 1] = y[j + 1] + 1.0f;
}

// A scatter through an index buffer that sends two items to each element.
__kernel void scatter(__global const int* idx, __global const float* x, __global float* y) {
    int i = get_global_id(0);
    y[idx[i]] = y[idx[i]] + x[i];
}
"#;

#[test]
fn lockstep_chunks_match_oracle() {
    let program = compile(LOCKSTEP_KERNELS).expect("lockstep kernels compile");
    let kernel = |name: &str| program.kernel(name).expect("kernel");
    let check = |name: &str, args: &[ArgValue], buffers: &[GlobalBuffer], range: NdRange| {
        compare_engines("lockstep", kernel(name), args, buffers, &range)
            .unwrap_or_else(|e| panic!("{e}"));
        lockstep_delta(kernel(name), args, buffers, &range)
    };
    let lanes = lockstep_stats().lanes;
    let ramp =
        |n: u64| GlobalBuffer::from_f32(&(0..n).map(|i| i as f32 * 0.5 - 7.0).collect::<Vec<_>>());

    // Groups narrower than a chunk, exactly one, one and a ragged tail,
    // three and a tail, six groups of each. Then the `i < n` guard
    // falling inside a chunk.
    for local in [lanes - 1, lanes, lanes + 1, 3 * lanes + 5] {
        let items = 6 * local;
        for n in [items, items - lanes / 2, lanes + 3, 0] {
            let moved = check(
                "saxpy",
                &[
                    ArgValue::global(0),
                    ArgValue::global(1),
                    ArgValue::from_f32(1.5),
                    ArgValue::from_i32(n as i32),
                ],
                &[ramp(items), ramp(items)],
                NdRange::linear(items, local),
            );
            assert_eq!(moved.chunks, 6 * (local / lanes), "local = {local}");
            // Only a chunk `n` falls inside of splits, on the guard.
            let (group, at) = (n / local, n % local);
            let chunked = local / lanes * lanes;
            let inside = u64::from(group < 6 && at < chunked && at % lanes != 0);
            assert_eq!(
                count_of(&moved.splits, "branch"),
                inside,
                "local = {local}, n = {n}"
            );
            assert_eq!(count_of(&moved.splits, "fault"), 0);
        }
    }

    // 2-D and 3-D groups more than one row deep.
    for range in [
        NdRange::d2([2 * lanes, 6], [lanes, 3]),
        NdRange::d2([3 * lanes + 6, 4], [lanes + 2, 2]),
        NdRange::d3([2 * lanes, 4, 2], [2 * lanes, 2, 2]),
    ] {
        let moved = check(
            "rows",
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::from_f32(0.75),
            ],
            &[ramp(range.global[0]), ramp(range.global[0])],
            range,
        );
        let rows = range.global[1] * range.global[2];
        let per_row = range.global[0] / range.local[0] * (range.local[0] / lanes);
        assert_eq!(moved.chunks, rows * per_row);
        assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), 0);
    }

    // Rows narrower than a chunk in groups that hold one: chunks are cut
    // across rows, two lanes of one can be the same `get_global_id(0)`,
    // and `y` is nobody's own — the first chunk finds two lanes on one
    // element of it and undoes itself, and every later one splits where
    // it loads `y`. The last shape has rows a chunk wide, and none does.
    for range in [
        NdRange::d2([16, 16], [8, 8]),
        NdRange::d3([8, 4, 8], [4, 4, 4]),
        NdRange::d2([lanes, 6], [lanes / 2, 2]),
        NdRange::d2([lanes / 2, 6], [lanes / 2, 3]),
        NdRange::d2([2 * lanes + 4, 4], [lanes + 2, 2]),
    ] {
        let moved = check(
            "rows",
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::from_f32(0.75),
            ],
            &[ramp(range.global[0]), ramp(range.global[0])],
            range,
        );
        assert!(moved.chunks > 0, "{range:?}");
        assert_eq!(moved.chunks, chunks_of(&range, lanes), "{range:?}");
        let across = range.local[0] < lanes;
        let unproven = if across { moved.chunks - 1 } else { 0 };
        assert_eq!(count_of(&moved.splits, "unproven"), unproven, "{range:?}");
        assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), unproven);
        assert_eq!(count_of(&moved.aborts, "conflict"), u64::from(across));
        assert_eq!(
            moved.aborts.iter().map(|(_, n)| n).sum::<u64>(),
            u64::from(across)
        );
    }

    // MatrixMul in its 8 × 8 groups, `rows` and `n` ragged against them:
    // the product loop runs in chunks (`a` and `b` are only read) and so
    // does the store to `c`, each lane found alone on its element; in the
    // chunks the guard cuts through, the lanes it turns away wait at the
    // kernel's end while the others go on, or re-join there. A buffer
    // short of the launch undoes its chunk and faults in
    // the item the interpreter names: `c` one element short (the last
    // item's store), `c` a row short (the first row-10 item in item order,
    // which is not the first lane to reach it), `a` a row short (a load,
    // inside the loop).
    let matmul = compile(haocl_workloads::matmul::KERNEL_SOURCE).expect("matmul compiles");
    let matmul = matmul.kernel("matmul").expect("kernel");
    let (n, rows) = (13usize, 11usize);
    let grid = NdRange::d2([16, 16], [8, 8]);
    for (a_len, c_len) in [
        (rows * n, rows * n),
        (rows * n, rows * n - 1),
        (rows * n, (rows - 1) * n),
        ((rows - 1) * n, rows * n),
    ] {
        let args = [
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::global(2),
            ArgValue::from_i32(n as i32),
            ArgValue::from_i32(rows as i32),
        ];
        let buffers = [
            ramp(a_len as u64),
            ramp((n * n) as u64),
            GlobalBuffer::zeroed(4 * c_len),
        ];
        compare_engines("matmul 8x8", matmul, &args, &buffers, &grid)
            .unwrap_or_else(|e| panic!("{e}"));
        let moved = lockstep_delta(matmul, &args, &buffers, &grid);
        assert!(moved.chunks > 0);
        let whole = (a_len, c_len) == (rows * n, rows * n);
        if whole {
            // Checking chunks park too: every branch split is masked or
            // re-joined, and nothing else splits.
            assert_eq!(moved.chunks, chunks_of(&grid, lanes));
            let branch = count_of(&moved.splits, "branch");
            assert_eq!(branch, moved.masked + moved.rejoins);
            assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), branch);
        }
        assert_eq!(count_of(&moved.aborts, "fault"), u64::from(!whole));
        assert_eq!(
            moved.aborts.iter().map(|(_, n)| n).sum::<u64>(),
            u64::from(!whole)
        );
    }

    // kNN's fused kernel as the app launches it, in groups of half a
    // chunk: two groups fill a chunk, every lane keeps to its own `k`
    // slots of the two result buffers and is found alone there, and the
    // lanes that insert a record take that way one by one and re-join.
    // Then a third group left over, groups of a quarter and of one item,
    // `nq` ragged against the range, and `out_dist` one element short —
    // the last query's first store, after every other lane's.
    let knn = compile(haocl_workloads::knn::KERNEL_SOURCE).expect("knn compiles");
    let topk = knn
        .kernel(haocl_workloads::knn::KERNEL_NAME)
        .expect("kernel");
    let (records, k) = (192u64, 5u64);
    let spread = |n: u64, by: u64| {
        GlobalBuffer::from_f32(
            &(0..n)
                .map(|i| (i * by % 181) as f32 - 90.0)
                .collect::<Vec<_>>(),
        )
    };
    for (range, nq, short) in [
        (NdRange::linear(16, 8), 16, 0),
        (NdRange::linear(32, 8), 32, 0),
        (NdRange::linear(24, 8), 24, 0),
        (NdRange::linear(16, 4), 16, 0),
        (NdRange::linear(16, 1), 16, 0),
        (NdRange::linear(32, 8), 29, 0),
        (NdRange::linear(16, 8), 16, 1),
    ] {
        let mut args: Vec<ArgValue> = (0..6).map(ArgValue::global).collect();
        args.extend([records, nq, k].map(|v| ArgValue::from_i32(v as i32)));
        let buffers = [
            spread(records, 37),
            spread(records, 101),
            spread(nq, 53),
            spread(nq, 7),
            GlobalBuffer::zeroed(4 * (nq * k - short) as usize),
            GlobalBuffer::zeroed(4 * (nq * k) as usize),
        ];
        compare_engines("nn_topk", topk, &args, &buffers, &range).unwrap_or_else(|e| panic!("{e}"));
        let moved = lockstep_delta(topk, &args, &buffers, &range);
        assert_eq!(moved.chunks, chunks_of(&range, lanes), "{range:?}");
        assert_eq!(count_of(&moved.splits, "unproven"), 0, "{range:?}");
        assert_eq!(count_of(&moved.aborts, "fault"), short, "{range:?}");
        assert_eq!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>(), short);
        if short == 0 {
            // Checking chunks park too: every branch split is masked or
            // re-joined, and nothing else splits.
            assert!(moved.rejoins > 0, "{range:?}");
            let branch = count_of(&moved.splits, "branch");
            assert_eq!(branch, moved.masked + moved.rejoins, "{range:?}");
            assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), branch);
        }
    }

    // BFS's expansion step: the frontier nodes of a chunk append what
    // they find at `count[0]`. None, and nothing splits; one, and it goes
    // its way alone and owns the counter; two, and the second finds it
    // taken — the chunk undoes itself and the launch stops checking.
    let bfs = compile(haocl_workloads::bfs::KERNEL_SOURCE).expect("bfs compiles");
    let step = bfs
        .kernel(haocl_workloads::bfs::KERNEL_NAME)
        .expect("kernel");
    let (nodes, degree) = (4 * lanes as usize, 3usize);
    let row_off: Vec<i32> = (0..=nodes).map(|r| (r * degree) as i32).collect();
    let cols: Vec<i32> = (0..nodes * degree)
        .map(|e| ((e * 7 + 1) % nodes) as i32)
        .collect();
    for frontier in [&[][..], &[3], &[3, 9]] {
        let mut depth = vec![-1i32; nodes];
        for &u in frontier {
            depth[u] = 2;
        }
        let mut args: Vec<ArgValue> = (0..5).map(ArgValue::global).collect();
        args.extend([2, 0, nodes as i32].map(ArgValue::from_i32));
        let buffers = [
            GlobalBuffer::from_i32(&row_off),
            GlobalBuffer::from_i32(&cols),
            GlobalBuffer::from_i32(&depth),
            GlobalBuffer::zeroed(4 * nodes * degree),
            GlobalBuffer::zeroed(4),
        ];
        let range = NdRange::linear(nodes as u64, nodes as u64);
        compare_engines("bfs_step", step, &args, &buffers, &range)
            .unwrap_or_else(|e| panic!("{e}"));
        let moved = lockstep_delta(step, &args, &buffers, &range);
        assert_eq!(moved.chunks, 4);
        let conflict = u64::from(frontier.len() == 2);
        assert_eq!(
            count_of(&moved.aborts, "conflict"),
            conflict,
            "{frontier:?}"
        );
        assert_eq!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>(), conflict);
        assert_eq!(
            (moved.masked, moved.rejoins),
            (0, u64::from(frontier.len() == 1)),
            "{frontier:?}"
        );
        // The second node meets the first on its way to the join, so that
        // branch never re-joins: a re-join counts when the lanes arrive.
        let branch = count_of(&moved.splits, "branch");
        assert_eq!(branch, moved.masked + moved.rejoins + conflict);
        // Every later chunk runs as it did before chunks checked: whole,
        // no frontier node in it.
        assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), branch);
    }

    // Faults: `bad` indexes out of range at the first op that can fail,
    // `zero` divides by zero several ops later. Whichever item comes
    // first in item order is the one reported, whatever the op order.
    let items = 4 * lanes;
    let src: Vec<i32> = (0..items as i32).map(|i| i * 3 + 1).collect();
    for (bad, zero) in [
        (Some(lanes + 9), Some(lanes + 3)),
        (Some(lanes + 3), Some(lanes + 9)),
        (None, Some(2 * lanes + 5)),
        (Some(lanes / 2), None),
        (Some(items - 1), Some(0)),
        (None, None),
    ] {
        let mut at: Vec<i32> = (0..items as i32).rev().collect();
        let mut den = vec![7i32; items as usize];
        if let Some(bad) = bad {
            at[bad as usize] = items as i32 + 40;
        }
        if let Some(zero) = zero {
            den[zero as usize] = 0;
        }
        for local in [items, 2 * lanes] {
            let moved = check(
                "faults",
                &[
                    ArgValue::global(0),
                    ArgValue::global(1),
                    ArgValue::global(2),
                    ArgValue::global(3),
                ],
                &[
                    GlobalBuffer::from_i32(&src),
                    GlobalBuffer::from_i32(&at),
                    GlobalBuffer::from_i32(&den),
                    GlobalBuffer::zeroed(4 * items as usize),
                ],
                NdRange::linear(items, local),
            );
            // The first failing chunk splits on the fault and ends the
            // launch.
            let failing = u64::from(bad.is_some() || zero.is_some());
            assert_eq!(
                count_of(&moved.splits, "fault"),
                failing,
                "{bad:?} {zero:?}"
            );
        }
    }
    // The exact text: the lower lane's later division, not the higher
    // lane's earlier index.
    let shared = VM_LAUNCHES.read().unwrap_or_else(|e| e.into_inner());
    let mut at: Vec<i32> = (0..items as i32).collect();
    at[9] = -4;
    let mut den = vec![7i32; items as usize];
    den[3] = 0;
    let mut buffers = [
        GlobalBuffer::from_i32(&src),
        GlobalBuffer::from_i32(&at),
        GlobalBuffer::from_i32(&den),
        GlobalBuffer::zeroed(4 * items as usize),
    ];
    let args: Vec<ArgValue> = (0..4).map(ArgValue::global).collect();
    let range = NdRange::linear(items, items);
    let err = run_ndrange_with_engine(
        kernel("faults"),
        &args,
        &mut buffers,
        &range,
        EngineKind::Compiled,
    )
    .expect_err("lane 3 divides by zero");
    assert_eq!(
        err.to_string(),
        "kernel execution failed: integer division by zero"
    );
    den[3] = 7;
    buffers[2] = GlobalBuffer::from_i32(&den);
    let err = run_ndrange_with_engine(
        kernel("faults"),
        &args,
        &mut buffers,
        &range,
        EngineKind::Compiled,
    )
    .expect_err("lane 9 indexes below the buffer");
    assert_eq!(
        err.to_string(),
        "kernel execution failed: negative buffer index -4"
    );
    drop(shared);

    // A mutated pointer parameter, restored for every chunk.
    for (name, n) in [("walk", 0), ("walk", 1), ("walk", 5), ("hop", 3)] {
        let items = 2 * lanes + 3;
        let moved = check(
            name,
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::from_i32(n),
            ],
            &[ramp(items + 8), GlobalBuffer::zeroed(4 * items as usize)],
            NdRange::linear(items, items),
        );
        assert_eq!(moved.chunks, 2);
        assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), 0);
    }
    // Walking off the end: a fault inside the loop, in the last lanes first.
    check(
        "walk",
        &[
            ArgValue::global(0),
            ArgValue::global(1),
            ArgValue::from_i32(12),
        ],
        &[
            ramp(2 * lanes + 8),
            GlobalBuffer::zeroed(8 * lanes as usize),
        ],
        NdRange::linear(2 * lanes, 2 * lanes),
    );

    // Every float operation over the nine bit patterns, paired so that
    // the NaNs of a chunk sit in different lanes: signalling, quiet with
    // payloads, negative, next to infinities and ordinary numbers.
    let f32_bits = [
        0x7f80_0001u32,
        0x7fa0_0000,
        0xffc1_2345,
        0x7fc0_0000,
        0xff80_0001,
        0x3f80_0000,
        0x7f80_0000,
        0xff80_0000,
        0,
    ];
    let f64_bits = [
        0x7ff0_0000_0000_0001u64,
        0x7ff4_0000_0000_0000,
        0xfff8_1234_5678_9abc,
        0x7ff8_0000_0000_0000,
        0xfff0_0000_0000_0001,
        0x3ff0_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0,
    ];
    let n = f32_bits.len();
    // 81 ordered pairs, wrapped around to a whole number of chunks.
    let items = (n * n).next_multiple_of(lanes as usize);
    let first = |i: usize| i % (n * n) / n;
    let second = |i: usize| i % n;
    for op in 0..16 {
        let moved = check(
            "float_op",
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::global(2),
                ArgValue::from_i32(op),
            ],
            &[
                GlobalBuffer::from_u32(&(0..items).map(|i| f32_bits[first(i)]).collect::<Vec<_>>()),
                GlobalBuffer::from_u32(
                    &(0..items).map(|i| f32_bits[second(i)]).collect::<Vec<_>>(),
                ),
                GlobalBuffer::zeroed(4 * items),
            ],
            NdRange::linear(items as u64, items as u64),
        );
        assert_eq!(moved.chunks, items as u64 / lanes);
        assert_eq!(
            moved.splits.iter().map(|(_, n)| n).sum::<u64>(),
            0,
            "op {op}"
        );
        check(
            "double_op",
            &[
                ArgValue::global(0),
                ArgValue::global(1),
                ArgValue::global(2),
                ArgValue::from_i32(op),
            ],
            &[
                GlobalBuffer::from_u64(&(0..items).map(|i| f64_bits[first(i)]).collect::<Vec<_>>()),
                GlobalBuffer::from_u64(
                    &(0..items).map(|i| f64_bits[second(i)]).collect::<Vec<_>>(),
                ),
                GlobalBuffer::zeroed(8 * items),
            ],
            NdRange::linear(items as u64, items as u64),
        );
    }
}

/// CSR buffers and arguments for `spmv_csr` over rows of `lens` nonzeros,
/// `cols` and `vals` exactly as long as the rows need: the last row ends
/// at their end.
fn spmv_launch(lens: &[usize], state: &mut u64) -> (Vec<ArgValue>, Vec<GlobalBuffer>) {
    let rows = lens.len();
    let mut row_ptr = vec![0i32];
    for &n in lens {
        row_ptr.push(row_ptr[row_ptr.len() - 1] + n as i32);
    }
    let nnz = row_ptr[rows] as usize;
    let cols: Vec<i32> = (0..nnz)
        .map(|_| (splitmix(state) % rows as u64) as i32)
        .collect();
    let reals = |state: &mut u64, n: usize| -> Vec<f32> {
        (0..n)
            .map(|_| (splitmix(state) % 2_000) as f32 / 1_000.0 - 1.0)
            .collect()
    };
    let buffers = vec![
        GlobalBuffer::from_i32(&row_ptr),
        GlobalBuffer::from_i32(&cols),
        GlobalBuffer::from_f32(&reals(state, nnz)),
        GlobalBuffer::from_f32(&reals(state, rows)),
        GlobalBuffer::zeroed(4 * rows),
    ];
    let mut args: Vec<ArgValue> = (0..5).map(ArgValue::global).collect();
    args.push(ArgValue::from_i32(rows as i32));
    (args, buffers)
}

/// `spmv_csr` where row lengths differ: every chunk's lanes leave the loop
/// at different iterations, and those that leave first wait at its exit
/// while the others go on masked. At local sizes 64 and 16, over random
/// lengths 0–40, rows a third of them empty, equal rows, one long row,
/// and a last row that ends at the end of `cols` and `vals` while its
/// neighbours go on.
#[test]
fn spmv_ragged_rows_match_oracle() {
    let spmv = compile(haocl_workloads::spmv::KERNEL_SOURCE).expect("spmv compiles");
    let kernel = spmv
        .kernel(haocl_workloads::spmv::KERNEL_NAME)
        .expect("kernel");
    let mut state = 25u64;
    let rows = 256usize;
    let mut draw = |below: u64| (splitmix(&mut state) % below) as usize;
    let patterns: [(&str, Vec<usize>); 5] = [
        ("random", (0..rows).map(|_| draw(41)).collect()),
        (
            "empty",
            (0..rows)
                .map(|i| if i % 3 == 0 { 0 } else { 1 + draw(12) })
                .collect(),
        ),
        ("equal", vec![16; rows]),
        (
            "one long",
            (0..rows).map(|i| if i == 77 { 300 } else { 4 }).collect(),
        ),
        (
            "last short",
            (0..rows)
                .map(|i| if i == rows - 1 { 1 } else { 6 + draw(7) })
                .collect(),
        ),
    ];
    let lanes = lockstep_stats().lanes;
    for (name, lens) in &patterns {
        let (args, buffers) = spmv_launch(lens, &mut state);
        for local in [64, 16] {
            let range = NdRange::linear(rows as u64, local);
            compare_engines(name, kernel, &args, &buffers, &range)
                .unwrap_or_else(|e| panic!("{e}"));
            let moved = lockstep_delta(kernel, &args, &buffers, &range);
            assert_eq!(moved.chunks, rows as u64 / lanes, "{name}");
            assert_eq!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>(), 0);
            let branch = count_of(&moved.splits, "branch");
            assert_eq!(branch, moved.masked + moved.rejoins, "{name}");
            assert_eq!(
                moved.splits.iter().map(|(_, n)| n).sum::<u64>(),
                branch,
                "{name}"
            );
            assert_eq!(branch == 0, *name == "equal", "{name}");
        }
    }
}

/// A ragged branch inside a ragged loop: lanes whose rows have ended wait
/// at the loop's exit while the others meet the `if`, whose ways meet
/// before that exit — so those go to the exit one by one and the chunk
/// re-joins there. `nested` binds only shared and private buffers;
/// `nested_checked` keeps each partial sum in `z`, which nobody proved the
/// lanes' own, so its chunks check who touches what.
const NESTED_KERNELS: &str = r#"
__kernel void nested(__global const int* row_ptr, __global const float* v,
                     __global float* y) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) {
        if (v[j] > 0.0f) {
            acc += v[j];
        }
    }
    y[i] = acc;
}

__kernel void nested_checked(__global const int* row_ptr, __global const float* v,
                             __global float* y, __global float* z) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int j = row_ptr[i]; j < row_ptr[i + 1]; j++) {
        if (v[j] > 0.0f) {
            acc += v[j];
        }
        z[2 * i] = acc;
    }
    y[i] = acc;
}
"#;

#[test]
fn nested_branches_match_oracle() {
    let program = compile(NESTED_KERNELS).expect("nested kernels compile");
    let mut state = 26u64;
    let rows = 256usize;
    let mut row_ptr = vec![0i32];
    for _ in 0..rows {
        row_ptr.push(row_ptr[row_ptr.len() - 1] + (splitmix(&mut state) % 13) as i32);
    }
    let v: Vec<f32> = (0..row_ptr[rows])
        .map(|_| (splitmix(&mut state) % 2_000) as f32 / 1_000.0 - 1.0)
        .collect();
    let mut buffers = vec![
        GlobalBuffer::from_i32(&row_ptr),
        GlobalBuffer::from_f32(&v),
        GlobalBuffer::zeroed(4 * rows),
        GlobalBuffer::zeroed(8 * rows),
    ];
    let lanes = lockstep_stats().lanes;
    for name in ["nested_checked", "nested"] {
        let kernel = program.kernel(name).expect("kernel");
        let args: Vec<ArgValue> = (0..kernel.params.len()).map(ArgValue::global).collect();
        for local in [64, 16] {
            let range = NdRange::linear(rows as u64, local);
            compare_engines(name, kernel, &args, &buffers, &range)
                .unwrap_or_else(|e| panic!("{e}"));
            let moved = lockstep_delta(kernel, &args, &buffers, &range);
            assert_eq!(moved.chunks, rows as u64 / lanes, "{name}");
            assert_eq!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>(), 0);
            let branch = count_of(&moved.splits, "branch");
            assert!(moved.masked > 0 && moved.rejoins > 0, "{name}: {moved:?}");
            assert_eq!(branch, moved.masked + moved.rejoins, "{name}: {moved:?}");
            assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), branch);
        }
        buffers.pop();
    }
}

/// Branches where neither way leads straight to where the ways meet:
/// `if`/`else`, `?:` and `&&` each compile to two arms that end at a
/// common op. Every buffer is shared or private, so the lanes that part at
/// such a branch may not wait at the meeting op before running their arm.
const DIAMOND_KERNELS: &str = r#"
__kernel void relu(__global const float* x, __global float* y) {
    int i = get_global_id(0);
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

__kernel void two_arms(__global const float* x, __global float* y) {
    int i = get_global_id(0);
    float v = x[i];
    float r;
    if (v < 0.0f) {
        r = -2.0f * v;
    } else {
        r = v + 1.0f;
    }
    y[i] = r;
}

__kernel void guarded(__global const float* x, __global float* y, int n) {
    int i = get_global_id(0);
    float r = 1.0f;
    if (i < n && x[i] > 0.0f) {
        r = x[i] * 3.0f;
    }
    y[i] = r;
}
"#;

#[test]
fn diamonds_match_oracle() {
    let program = compile(DIAMOND_KERNELS).expect("diamond kernels compile");
    let mut state = 41u64;
    let items = 256u64;
    // Signs that differ from lane to lane, so every chunk parts.
    let x: Vec<f32> = (0..items)
        .map(|_| (splitmix(&mut state) % 2_000) as f32 / 100.0 - 10.0)
        .collect();
    let buffers = [
        GlobalBuffer::from_f32(&x),
        GlobalBuffer::zeroed(4 * items as usize),
    ];
    let pair = [ArgValue::global(0), ArgValue::global(1)];
    let mut guard = pair.to_vec();
    // `i < n` parts the chunk `n` falls inside of too.
    guard.push(ArgValue::from_i32(items as i32 - 21));
    for (name, args) in [
        ("relu", &pair[..]),
        ("two_arms", &pair[..]),
        ("guarded", &guard),
    ] {
        let kernel = program.kernel(name).expect("kernel");
        for local in [64, 16] {
            let range = NdRange::linear(items, local);
            compare_engines(name, kernel, args, &buffers, &range).unwrap_or_else(|e| panic!("{e}"));
            let moved = lockstep_delta(kernel, args, &buffers, &range);
            let branch = count_of(&moved.splits, "branch");
            assert!(branch > 0, "{name}: {moved:?}");
            assert_eq!(branch, moved.masked + moved.rejoins, "{name}: {moved:?}");
        }
    }
}

/// A gate on counts, not on time: at the shapes the benchmark launches
/// them, kNN's fused kernel runs as one chunk across its two groups that
/// never has to undo itself, never stops at a buffer nobody proved
/// private and gets past every branch masked or re-joined, BFS's
/// expansion step pays for its shared counter with one
/// undone chunk a launch and no more, and SpMV's ragged rows never finish
/// lane by lane: each chunk carries on past every loop exit masked, or —
/// fewer than a quarter of its lanes going on — re-joins.
#[test]
fn benchmark_shapes_run_checked_not_serial() {
    let mut state = 9u64;
    let mut f32s = |n: usize, scale: f32| -> Vec<f32> {
        (0..n)
            .map(|_| (splitmix(&mut state) % 36_000) as f32 / 100.0 * scale - 90.0 * scale)
            .collect()
    };
    let (records, nq, k) = (16_384usize, 16usize, 8usize);
    let knn = compile(haocl_workloads::knn::KERNEL_SOURCE).expect("knn compiles");
    let mut args: Vec<ArgValue> = (0..6).map(ArgValue::global).collect();
    args.extend([records, nq, k].map(|v| ArgValue::from_i32(v as i32)));
    let buffers = [
        GlobalBuffer::from_f32(&f32s(records, 0.5)),
        GlobalBuffer::from_f32(&f32s(records, 1.0)),
        GlobalBuffer::from_f32(&f32s(nq, 0.5)),
        GlobalBuffer::from_f32(&f32s(nq, 1.0)),
        GlobalBuffer::zeroed(4 * nq * k),
        GlobalBuffer::zeroed(4 * nq * k),
    ];
    let moved = lockstep_delta(
        knn.kernel(haocl_workloads::knn::KERNEL_NAME)
            .expect("kernel"),
        &args,
        &buffers,
        &NdRange::linear(nq as u64, 8),
    );
    assert_eq!(moved.chunks, 1);
    assert!(moved.masked > 0 && moved.rejoins > 0, "{moved:?}");
    let branch = count_of(&moved.splits, "branch");
    assert_eq!(branch, moved.masked + moved.rejoins, "{moved:?}");
    assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), branch);
    assert_eq!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>(), 0);
    assert_eq!(count_of(&moved.splits, "unproven"), 0);

    // Even nodes form the frontier, odd nodes are undiscovered, six
    // out-edges each: every chunk has eight nodes after one counter.
    let (nodes, degree) = (4_096usize, 6usize);
    let row_off: Vec<i32> = (0..=nodes).map(|r| (r * degree) as i32).collect();
    let cols: Vec<i32> = (0..nodes * degree)
        .map(|_| (splitmix(&mut state) % nodes as u64) as i32)
        .collect();
    let depth: Vec<i32> = (0..nodes)
        .map(|u| if u % 2 == 0 { 3 } else { -1 })
        .collect();
    let bfs = compile(haocl_workloads::bfs::KERNEL_SOURCE).expect("bfs compiles");
    let mut args: Vec<ArgValue> = (0..5).map(ArgValue::global).collect();
    args.extend([3, 0, nodes as i32].map(ArgValue::from_i32));
    let buffers = [
        GlobalBuffer::from_i32(&row_off),
        GlobalBuffer::from_i32(&cols),
        GlobalBuffer::from_i32(&depth),
        GlobalBuffer::zeroed(4 * nodes * degree),
        GlobalBuffer::zeroed(4),
    ];
    let range = NdRange::linear(nodes as u64, 64);
    let moved = lockstep_delta(
        bfs.kernel(haocl_workloads::bfs::KERNEL_NAME)
            .expect("kernel"),
        &args,
        &buffers,
        &range,
    );
    assert_eq!(moved.chunks, chunks_of(&range, lockstep_stats().lanes));
    assert!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>() <= 1);

    // One device's half of `paper_apps`' SpMV: 16 384 rows of 8 to 24
    // nonzeros, in groups of 64.
    let lens: Vec<usize> = (0..16_384)
        .map(|_| 8 + (splitmix(&mut state) % 17) as usize)
        .collect();
    let (args, buffers) = spmv_launch(&lens, &mut state);
    let spmv = compile(haocl_workloads::spmv::KERNEL_SOURCE).expect("spmv compiles");
    let range = NdRange::linear(lens.len() as u64, 64);
    let moved = lockstep_delta(
        spmv.kernel(haocl_workloads::spmv::KERNEL_NAME)
            .expect("kernel"),
        &args,
        &buffers,
        &range,
    );
    assert_eq!(moved.chunks, chunks_of(&range, lockstep_stats().lanes));
    let branch = count_of(&moved.splits, "branch");
    assert!(moved.masked > moved.chunks, "{moved:?}");
    assert_eq!(branch, moved.masked + moved.rejoins, "{moved:?}");
    assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), branch);
    assert_eq!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>(), 0);
}

/// What the gate used to turn away whole now runs in chunks that check
/// who touches what of a buffer nobody proved the lanes' own: each launch
/// matches the oracle and cuts every chunk its shape holds; the first
/// chunk in which two lanes meet on an element undoes itself, and every
/// chunk after it splits at the access as `unproven`. Only a barrier,
/// `__local` memory and a missing effect summary still refuse a launch.
#[test]
fn lockstep_gate_refusals_match_oracle() {
    let program = compile(LOCKSTEP_KERNELS).expect("lockstep kernels compile");
    let lanes = lockstep_stats().lanes;
    let items = 4 * lanes;
    let ramp =
        |n: u64| GlobalBuffer::from_f32(&(0..n).map(|i| i as f32 * 0.25 + 1.0).collect::<Vec<_>>());
    let globals = |n: usize| (0..n).map(ArgValue::global).collect::<Vec<_>>();
    let launch = |name: &str, args: &[ArgValue], buffers: &[GlobalBuffer], range: NdRange| {
        let kernel = program.kernel(name).expect("kernel");
        compare_engines("lockstep gate", kernel, args, buffers, &range)
            .unwrap_or_else(|e| panic!("{e}"));
        lockstep_delta(kernel, args, buffers, &range)
    };
    // Lanes meet in the first chunk, every later chunk reaches the
    // access, and nothing else splits one.
    let takes_turns = |name: &str, args: &[ArgValue], buffers: &[GlobalBuffer], range: NdRange| {
        let moved = launch(name, args, buffers, range);
        assert_eq!(moved.chunks, chunks_of(&range, lanes), "`{name}`");
        assert_eq!(count_of(&moved.aborts, "conflict"), 1, "`{name}`");
        assert_eq!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>(), 1);
        assert_eq!(
            count_of(&moved.splits, "unproven"),
            moved.chunks - 1,
            "`{name}`"
        );
        assert_eq!(
            moved.splits.iter().map(|(_, n)| n).sum::<u64>(),
            moved.chunks - 1
        );
        assert_eq!(moved.refused.iter().map(|(_, n)| n).sum::<u64>(), 0);
    };
    let refused = |name: &str, args: &[ArgValue], buffers: &[GlobalBuffer], why: &str| {
        let moved = launch(name, args, buffers, NdRange::linear(items, 2 * lanes));
        assert_eq!(moved.chunks, 0, "`{name}` ran in lockstep");
        assert_eq!(
            count_of(&moved.refused, why),
            1,
            "`{name}`: {:?}",
            moved.refused
        );
        assert_eq!(moved.refused.iter().map(|(_, n)| n).sum::<u64>(), 1);
    };
    let line = NdRange::linear(items, 2 * lanes);
    takes_turns("shift", &globals(1), &[ramp(items + 1)], line);
    takes_turns("pair_sum", &globals(2), &[ramp(items), ramp(items)], line);
    // Two buffers: `y` is each item's own and no chunk splits. One buffer
    // twice: the load through `x` reads what `y` stores.
    let two = launch(
        "carry",
        &globals(2),
        &[ramp(items + 1), ramp(items + 1)],
        line,
    );
    assert_eq!(two.chunks, items / lanes);
    assert_eq!(two.splits.iter().map(|(_, n)| n).sum::<u64>(), 0);
    takes_turns(
        "carry",
        &[ArgValue::global(0), ArgValue::global(0)],
        &[ramp(items + 1)],
        line,
    );
    takes_turns("smear", &globals(1), &[ramp(items + 16)], line);
    // No summary says so, but every item of `grid` has its own element:
    // checked, the launch runs whole.
    let deep = NdRange::d2([2 * lanes, 4], [2 * lanes, 2]);
    let moved = launch(
        "grid",
        &[ArgValue::global(0), ArgValue::from_i32(2 * lanes as i32)],
        &[ramp(8 * lanes)],
        deep,
    );
    assert_eq!(moved.chunks, chunks_of(&deep, lanes));
    assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), 0);
    assert_eq!(moved.aborts.iter().map(|(_, n)| n).sum::<u64>(), 0);
    takes_turns("column", &globals(1), &[ramp(5)], deep);
    let halves: Vec<i32> = (0..items as i32).map(|i| i / 2).collect();
    takes_turns(
        "scatter",
        &globals(3),
        &[GlobalBuffer::from_i32(&halves), ramp(items), ramp(items)],
        line,
    );
    // What the gate admitted when it judged whole launches still runs
    // whole, chunk for chunk: `saxpy` here, and the benchmark's serving
    // shapes (out of place, in place on `uint`) at its launch sizes.
    let serving = compile(
        "__kernel void vmad(__global const float* x, __global float* out, float a, int n) {
            int i = get_global_id(0);
            if (i < n) { float t = x[i] * x[i]; out[i] = t + a; }
        }
        __kernel void touch(__global uint* b, uint v, int n) {
            int i = get_global_id(0);
            if (i < n) { b[i] = b[i] ^ v; }
        }",
    )
    .expect("compiles");
    for n in [64, 1024] {
        let range = NdRange::linear(n, 64);
        let count = ArgValue::from_i32(n as i32);
        let half = ArgValue::from_f32(0.5);
        for (program, name, args, buffers) in [
            (
                &program,
                "saxpy",
                vec![ArgValue::global(0), ArgValue::global(1), half, count],
                vec![ramp(n), ramp(n)],
            ),
            (
                &serving,
                "vmad",
                vec![ArgValue::global(0), ArgValue::global(1), half, count],
                vec![ramp(n), ramp(n)],
            ),
            (
                &serving,
                "touch",
                vec![ArgValue::global(0), ArgValue::from_u32(0xa5a5), count],
                vec![ramp(n)],
            ),
        ] {
            let kernel = program.kernel(name).expect("kernel");
            compare_engines("lockstep gate", kernel, &args, &buffers, &range)
                .unwrap_or_else(|e| panic!("{e}"));
            let moved = lockstep_delta(kernel, &args, &buffers, &range);
            assert_eq!(moved.chunks, n / lanes, "`{name}`");
            assert_eq!(moved.splits.iter().map(|(_, n)| n).sum::<u64>(), 0);
        }
    }

    // `__local` memory, a barrier, and no effect summary at all
    // (analysis off).
    refused(
        "scratchpad",
        &globals(2),
        &[ramp(items), ramp(items)],
        "local",
    );
    let tiled = compile(
        "__kernel void rev(__global int* out) {
            __local int tmp[64];
            int l = get_local_id(0);
            tmp[l] = l * 10;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[get_global_id(0)] = tmp[get_local_size(0) - 1 - l];
        }",
    )
    .expect("compiles");
    let kernel = tiled.kernel("rev").expect("kernel");
    let buffers = [GlobalBuffer::zeroed(4 * items as usize)];
    compare_engines("lockstep gate", kernel, &globals(1), &buffers, &line)
        .unwrap_or_else(|e| panic!("{e}"));
    let moved = lockstep_delta(kernel, &globals(1), &buffers, &line);
    assert_eq!((moved.chunks, count_of(&moved.refused, "barrier")), (0, 1));
    let opts = haocl_clc::CompileOptions {
        analysis: haocl_clc::AnalysisMode::Off,
    };
    let bare = haocl_clc::compile_with_options(LOCKSTEP_KERNELS, &opts).expect("compiles");
    let kernel = bare.kernel("rows").expect("kernel");
    let args = [
        ArgValue::global(0),
        ArgValue::global(1),
        ArgValue::from_f32(2.0),
    ];
    let buffers = [ramp(items), ramp(items)];
    compare_engines("lockstep gate", kernel, &args, &buffers, &line)
        .unwrap_or_else(|e| panic!("{e}"));
    let moved = lockstep_delta(kernel, &args, &buffers, &line);
    assert_eq!(
        (moved.chunks, count_of(&moved.refused, "no_effects")),
        (0, 1)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 32 } else { 64 }
    ))]

    /// Random shapes, random buffer contents, random (possibly
    /// out-of-range) scalar arguments — every engine must still match
    /// the oracle outcome exactly, success or error.
    #[test]
    fn engines_match_oracle_at_random_shapes(
        pick in 0usize..1_000_000,
        local_exp in 0u32..5,
        // Rows deep: past the linear launches, groups whose rows are
        // narrower than a chunk and which hold one all the same.
        depth in prop_oneof![
            Just([1u64, 1]),
            Just([1, 1]),
            Just([2, 1]),
            Just([8, 1]),
            Just([4, 2]),
        ],
        // A few groups, or enough small ones to fill a chunk together
        // (sixteen of one item, eight of two, four of four, two of
        // eight), with and without a group left over.
        groups in prop_oneof![1u64..5, 1u64..5, 16u64..19, Just(33u64)],
        buf_bytes in prop_oneof![Just(256usize), Just(4096usize), Just(65536usize)],
        scalar in -2i64..48,
        seed in any::<u64>(),
    ) {
        let cases = corpus();
        let case = &cases[pick % cases.len()];
        let local = 1u64 << local_exp;
        let range = match depth {
            [1, 1] => NdRange::linear(local * groups, local),
            [y, z] => NdRange::d3([local * groups, y, 2 * z], [local, y, z]),
        };
        for kernel in case.program.kernels() {
            let (args, buffers) = synth_args(kernel, buf_bytes, scalar, seed);
            if let Err(msg) = compare_engines(&case.origin, kernel, &args, &buffers, &range) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }
}
