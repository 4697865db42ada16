//! Pins the compiler's complete output for every in-tree kernel source.
//!
//! `tests/fixtures/compile_golden.txt` records, for each source, what a
//! `WarnOnly` build produces — per kernel the full `KernelReport`
//! (diagnostics, features, effect summaries) and a digest of the compiled
//! kernel — and what an `Enforce` build says. Sources that fail to build
//! record the build log instead. The lint corpus `.expected` files cover
//! diagnostics and features; this file also covers the effect summaries
//! the fusion prover and the lockstep classifier read, and the bytecode.
//!
//! A speed-up of the front end or the analyzer must leave this file
//! byte-identical. On a mismatch the test writes what it produced to
//! Cargo's temporary directory for integration tests (the path is in the
//! failure message).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use haocl_clc::{compile_with_options, AnalysisMode, CompileOptions, CompiledKernel};

const FIXTURE: &str = "tests/fixtures/compile_golden.txt";

/// The benchmark's stamp kernel (`benchmark/src/kernels.rs`) at one
/// fixed stamp.
const STAMP_KERNEL: &str = "\n__kernel void bench_stamp(__global int* out, int n) {\n    \
     int i = get_global_id(0);\n    \
     if (i < n) { out[i] = 1234567890 + i; }\n}\n";

/// Kernels written for this file: shapes the in-tree sources touch
/// lightly — use-before-init across branch and loop merges and scopes, a
/// control taint that needs several fixpoint rounds to settle, a loop
/// body that is tainted only by the condition after it, and loop-carried
/// `__local` indices whose intervals widen.
const SHAPES: &[(&str, &str)] = &[
    (
        "uninit-merges",
        "__kernel void uninit_merges(__global int* o, int n, int m) {
    int a; int b; int c; int d; int e; int h; int k;
    if (n > 0) { a = 1; b = 2; } else { a = 3; }
    o[0] = a;
    o[1] = b;
    while (n > 2) { c = 1; n--; }
    o[2] = c;
    do { d = 4; } while (n > 5);
    o[3] = d;
    for (int i = 0; i < n; i++) { e = i; }
    o[4] = e;
    if (n) { if (m) { h = 1; } else { h = 2; } } else { h = 3; }
    o[5] = h;
    if (n) { k = 1; }
    o[6] = k;
}",
    ),
    (
        "uninit-scopes",
        "__kernel void uninit_scopes(__global int* o, int n) {
    int g = 1;
    { int g; o[0] = g; }
    o[1] = g;
    int p;
    p += 1;
    int q;
    q++;
    int r;
    o[2] = n > 0 ? r : 0;
    int s;
    for (int i = 0; i < n; i++) { int t; t = i; s = t; o[3] = s; }
    o[4] = s;
    int u;
    if (n > 1) { int u; u = 2; o[5] = u; } else { u = 3; }
    o[6] = u;
    int w;
    for (w = 0; w < n; w++) { o[7] = w; }
    o[8] = w;
}",
    ),
    (
        "taint-chain",
        "__kernel void taint_chain(__global int* o, __local int* s, int n) {
    int l = get_local_id(0);
    int x = 0; int y = 0; int z = 0;
    for (int i = 0; i < n; i++) {
        if (z) { o[i] = 1; }
        if (y) { z = 1; }
        if (x) { y = 1; }
        if (l == 3) { x = 1; }
    }
    s[0] = z;
    if (z) { barrier(CLK_LOCAL_MEM_FENCE); }
    o[l] = s[0];
}",
    ),
    (
        "taint-do-while",
        "__kernel void taint_do_while(__global int* o, __local int* s, int n) {
    int l = get_local_id(0);
    do {
        s[0] = n;
        if (n > 3) { s[1] = n; }
    } while (l < n);
    o[l] = s[0];
}",
    ),
    (
        "loop-intervals",
        "__kernel void loop_intervals(__global float* o, __global const int* idx, int n) {
    __local float t[16][17];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    for (int i = 0; i < 4; i++) {
        t[ly][lx + i] = o[i];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    int j = 0;
    while (j < 16) { j += 2; }
    t[0][j] = 1.0f;
    int k = idx[lx];
    if (k < 0) { k = 0; }
    o[get_global_id(0)] = t[ly][lx] + t[k % 16][3];
    for (int a = 0; a < n; a++) {
        for (int b = a; b < 8; b++) { o[a * 8 + b] = t[b][a]; }
    }
}",
    ),
];

/// Lexer edge cases: inputs it must reject, and one it must accept.
const LEX_ERRORS: &[(&str, &str)] = &[
    ("hex-no-digits", "__kernel void f() { int x = 0x; }"),
    ("hex-no-digits-upper", "__kernel void f() { int x = 0Xg; }"),
    (
        "hex-too-wide",
        "__kernel void f() { ulong x = 0x1FFFFFFFFFFFFFFFF; }",
    ),
    (
        "decimal-too-wide",
        "__kernel void f() { ulong x = 18446744073709551616; }",
    ),
    (
        "unterminated-comment",
        "__kernel void f() { int x = 1; /* never closed",
    ),
    ("unterminated-comment-at-end", "__kernel void f() { } /*"),
    ("stray-backtick", "__kernel void f() { int x = 1; ` }"),
    (
        "stray-at",
        "__kernel void f(__global int* o) { o[0] = 1 @ 2; }",
    ),
    ("stray-backslash", "__kernel void f() { \\ }"),
    ("non-ascii", "__kernel void f() { int x = 1; é }"),
    (
        "non-ascii-in-comment",
        "// café\n__kernel void f() { int x = 1; }",
    ),
];

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every source, `(label, text)`, in a fixed order.
fn corpus() -> Vec<(String, String)> {
    use haocl_workloads::{bfs, cfd, knn, matmul, spmv};
    let mut out: Vec<(String, String)> = [
        ("paper/matmul", matmul::KERNEL_SOURCE),
        ("paper/cfd", cfd::KERNEL_SOURCE),
        ("paper/knn", knn::KERNEL_SOURCE),
        ("paper/bfs", bfs::KERNEL_SOURCE),
        ("paper/spmv", spmv::KERNEL_SOURCE),
        ("bench/stamp", STAMP_KERNEL),
    ]
    .into_iter()
    .map(|(label, text)| (label.to_string(), text.to_string()))
    .collect();
    for dir in [
        "tests/lint_corpus/good",
        "tests/lint_corpus/bad",
        "examples/kernels",
    ] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(repo().join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "cl"))
            .collect();
        files.sort();
        for file in files {
            let name = file.file_name().expect("file name").to_string_lossy();
            let text = std::fs::read_to_string(&file).expect("readable source");
            out.push((format!("{dir}/{name}"), text));
        }
    }
    for (label, text) in SHAPES.iter().chain(LEX_ERRORS) {
        let group = if LEX_ERRORS.iter().any(|(l, _)| l == label) {
            "lex"
        } else {
            "shape"
        };
        out.push((format!("{group}/{label}"), text.to_string()));
    }
    out
}

/// FNV-1a over a kernel's compiled form: everything but the report.
fn digest(k: &CompiledKernel) -> u64 {
    let text = format!(
        "{:?}|{:?}|{}|{}|{}|{:?}|{:?}|{:?}",
        k.params,
        k.code,
        k.n_slots,
        k.static_local_bytes,
        k.uses_barrier,
        k.spans,
        k.barrier_sites,
        k.local_arrays
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn indent(log: &str) -> String {
    log.lines().map(|l| format!("  | {l}\n")).collect()
}

fn render(label: &str, source: &str) -> String {
    let mut out = format!("== {label}\n");
    let warn = CompileOptions {
        analysis: AnalysisMode::WarnOnly,
    };
    match compile_with_options(source, &warn) {
        Ok(program) => {
            for k in program.kernels() {
                let r = &k.report;
                writeln!(
                    out,
                    "kernel {} code={} digest={:016x}",
                    k.name,
                    k.code.len(),
                    digest(k)
                )
                .unwrap();
                writeln!(out, "  features {:?}", r.features).unwrap();
                for d in r.diagnostics.iter() {
                    writeln!(out, "  diag {d:?}").unwrap();
                }
                writeln!(out, "  barriers {}", r.effects.barriers).unwrap();
                for (i, a) in r.effects.args.iter().enumerate() {
                    writeln!(out, "  arg{i} {a:?}").unwrap();
                }
            }
        }
        // Enforce can only fail the same way.
        Err(e) => {
            out.push_str(&format!("build failed\n{}", indent(&e.build_log())));
            return out;
        }
    }
    match compile_with_options(source, &CompileOptions::default()) {
        Ok(_) => out.push_str("enforce ok\n"),
        Err(e) => out.push_str(&format!("enforce failed\n{}", indent(&e.build_log()))),
    }
    out
}

#[test]
fn compiler_output_matches_the_golden_fixture() {
    let actual: String = corpus()
        .iter()
        .map(|(label, text)| render(label, text))
        .collect();
    let expected = std::fs::read_to_string(repo().join(FIXTURE)).unwrap_or_default();
    if actual != expected {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compile_golden.txt");
        std::fs::write(&dump, &actual).expect("write the actual output");
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "compiler output differs from {FIXTURE} at line {}: got {:?}, want {:?} \
             (full output in {})",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first),
            dump.display()
        );
    }
}
