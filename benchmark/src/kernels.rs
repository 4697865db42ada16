//! OpenCL C sources the benchmark owns. They are built from source on an
//! empty kernel registry, so every launch of them retires VM
//! instructions.

/// `examples/kernels/saxpy.cl`, the quickstart kernel.
pub const SAXPY: &str = "\
__kernel void saxpy(__global const float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
";

/// Rewrites the first `n` words of a buffer in place: enough to make the
/// launching device the owner of the newest copy, too little to cost VM
/// time next to a 1 MiB transfer.
pub const TOUCH: &str = "\
__kernel void touch(__global uint* b, uint v, int n) {
    int i = get_global_id(0);
    if (i < n) {
        b[i] = b[i] ^ v;
    }
}
";

/// The four small out-of-place kernels the serving tenants submit.
pub const SERVE: &str = "\
__kernel void vscale(__global const float* x, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a * x[i]; }
}
__kernel void vadd(__global const float* x, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = x[i] + a; }
}
__kernel void vmad(__global const float* x, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { float t = x[i] * x[i]; out[i] = t + a; }
}
__kernel void vsub(__global const float* x, __global float* out, float a, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a - x[i]; }
}
";

/// `(kernel name, work-items)` for [`SERVE`], smallest to largest.
pub const SERVE_KERNELS: [(&str, usize); 4] =
    [("vscale", 64), ("vadd", 256), ("vmad", 512), ("vsub", 1024)];

/// Host reference for one [`SERVE`] kernel.
pub fn serve_reference(kernel: &str, x: &[f32], a: f32) -> Vec<f32> {
    x.iter()
        .map(|&x| match kernel {
            "vscale" => a * x,
            "vadd" => x + a,
            "vmad" => {
                let t = x * x;
                t + a
            }
            "vsub" => a - x,
            other => panic!("no reference for kernel {other}"),
        })
        .collect()
}

/// The kernel `cold_build` appends to every corpus source: it makes the
/// source text unique (so source-hash caches miss) and gives every
/// program, whatever its own kernels take, one launch with a checkable
/// result.
pub fn stamp_kernel(stamp: i32) -> String {
    assert!(
        (STAMP_BASE..2 * STAMP_BASE).contains(&stamp),
        "stamps are ten digits wide"
    );
    format!(
        "\n__kernel void bench_stamp(__global int* out, int n) {{\n    \
         int i = get_global_id(0);\n    \
         if (i < n) {{ out[i] = {stamp} + i; }}\n}}\n"
    )
}

pub const STAMP_KERNEL_NAME: &str = "bench_stamp";

const STAMP_BASE: i32 = 1_000_000_000;

/// A stamp for [`stamp_kernel`] drawn from `random`. Always ten decimal
/// digits, so every stamped source has the same length and the bytes a
/// build puts on the wire repeat exactly.
pub fn stamp_from(random: u64) -> i32 {
    STAMP_BASE + (random % STAMP_BASE as u64) as i32
}
