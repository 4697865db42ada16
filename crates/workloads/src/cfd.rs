//! CFD: an unstructured-grid finite-volume Euler solver (Table I,
//! 800 MB; Rodinia `cfd`/euler3d).
//!
//! Each cell carries five conserved variables (density, energy, momentum
//! x/y/z) and exchanges fluxes with four unstructured neighbours. Like a
//! real mesh (and unlike a random graph), neighbours are *spatially
//! local* — within a reordering window of the cell — which is what makes
//! a distributed run possible at all: each device keeps its block of the
//! state resident across iterations, double-buffered, and only the
//! *halo* (one window of boundary cells per side) crosses the backbone
//! each iteration.
//!
//! This halo machinery is exactly the "significant change" the paper
//! says CFD would need on SnuCL-D (§IV-B); the SnuCL-D baseline rejects
//! the workload accordingly.

use haocl::{
    Buffer, CommandQueue, Context, DeviceType, Error, Kernel, MemFlags, NdRange, Platform, Program,
};
use haocl_kernel::CostModel;
use haocl_sim::rng::labeled_rng;
use rand::Rng;

use crate::report::{KernelMode, RunOptions, RunReport};
use crate::util::{
    bytes_to_f32s, create_buffer, f32s_to_bytes, read_buffer, round_up, write_buffer,
};

/// The flux kernel name.
pub const KERNEL_NAME: &str = "cfd_flux";

/// The halo-stitch kernel name (writes received halos into the state).
pub const STITCH_KERNEL_NAME: &str = "cfd_stitch";

/// The boundary-extract kernel name (exports cells neighbours need).
pub const EXTRACT_KERNEL_NAME: &str = "cfd_extract";

/// OpenCL C source for all three kernels.
///
/// `vars`/`out` hold the five variables SoA-style with stride
/// `slice_len` (the device's block plus halos); the interior block of
/// `n_local` cells starts at `cell_offset`.
pub const KERNEL_SOURCE: &str = r#"
__kernel void cfd_flux(__global const float* vars, __global const int* neigh,
                       __global float* out, int slice_len, int cell_offset, int n_local) {
    int t = get_global_id(0);
    if (t < n_local) {
        int c = cell_offset + t;
        float d  = vars[c];
        float e  = vars[slice_len + c];
        float mx = vars[2 * slice_len + c];
        float my = vars[3 * slice_len + c];
        float mz = vars[4 * slice_len + c];
        float fd = 0.0f;
        float fe = 0.0f;
        float fx = 0.0f;
        float fy = 0.0f;
        float fz = 0.0f;
        for (int k = 0; k < 4; k++) {
            int nb = neigh[4 * t + k];
            float dn  = vars[nb];
            float en  = vars[slice_len + nb];
            float mxn = vars[2 * slice_len + nb];
            float myn = vars[3 * slice_len + nb];
            float mzn = vars[4 * slice_len + nb];
            float p  = 0.4f * (e  - 0.5f * (mx * mx + my * my + mz * mz) / d);
            float pn = 0.4f * (en - 0.5f * (mxn * mxn + myn * myn + mzn * mzn) / dn);
            fd += dn - d;
            fe += en - e + (pn - p);
            fx += mxn - mx;
            fy += myn - my;
            fz += mzn - mz;
        }
        out[c] = d + 0.05f * fd;
        out[slice_len + c] = e + 0.05f * fe;
        out[2 * slice_len + c] = mx + 0.05f * fx;
        out[3 * slice_len + c] = my + 0.05f * fy;
        out[4 * slice_len + c] = mz + 0.05f * fz;
    }
}

__kernel void cfd_stitch(__global float* vars, __global const float* lo,
                         __global const float* hi, int slice_len, int lo_w,
                         int hi_w, int n_local) {
    int t = get_global_id(0);
    for (int v = 0; v < 5; v++) {
        if (t < lo_w) {
            vars[v * slice_len + t] = lo[v * lo_w + t];
        }
        if (t < hi_w) {
            vars[v * slice_len + lo_w + n_local + t] = hi[v * hi_w + t];
        }
    }
}

__kernel void cfd_extract(__global const float* vars, __global float* lo,
                          __global float* hi, int slice_len, int lo_w,
                          int hi_w, int n_local) {
    int t = get_global_id(0);
    for (int v = 0; v < 5; v++) {
        if (t < lo_w) {
            lo[v * lo_w + t] = vars[v * slice_len + lo_w + t];
        }
        if (t < hi_w) {
            hi[v * hi_w + t] = vars[v * slice_len + lo_w + n_local - hi_w + t];
        }
    }
}
"#;

/// Workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfdConfig {
    /// Number of grid cells.
    pub cells: usize,
    /// Solver iterations.
    pub iterations: usize,
    /// Mesh-reordering window: neighbours of cell `c` fall within
    /// `[c - window, c + window]`.
    pub window: usize,
    /// Generator seed.
    pub seed: u64,
}

impl CfdConfig {
    /// Table I scale: ~14 M cells ≈ 800 MB, 500 solver iterations
    /// (Rodinia's euler3d iterates thousands of times; 500 keeps the
    /// harness quick while letting compute dominate staging).
    pub fn paper_scale() -> Self {
        CfdConfig {
            cells: 14_000_000,
            iterations: 500,
            window: 1024,
            seed: 42,
        }
    }

    /// Small size for full-fidelity tests.
    pub fn test_scale() -> Self {
        CfdConfig {
            cells: 1024,
            iterations: 2,
            window: 32,
            seed: 42,
        }
    }

    /// Approximate bytes of the grid state.
    pub fn input_bytes(&self) -> u64 {
        let n = self.cells as u64;
        // 5 vars in + 4 neighbour ids + 5 vars out, all 4-byte.
        4 * (5 * n + 4 * n + 5 * n)
    }
}

/// Generates the initial state: positive densities, random energies and
/// momenta, and four window-local neighbours per cell.
pub fn generate_state(cfg: &CfdConfig) -> (Vec<f32>, Vec<i32>) {
    let n = cfg.cells;
    let mut rng = labeled_rng(cfg.seed, "cfd/state");
    let mut vars = Vec::with_capacity(5 * n);
    // Density strictly positive (divided by in the pressure term).
    for _ in 0..n {
        vars.push(rng.gen_range(0.5..2.0f32));
    }
    for _ in 0..4 * n {
        vars.push(rng.gen_range(-1.0..1.0f32));
    }
    // Energy must dominate kinetic energy; shift it up.
    for v in &mut vars[n..2 * n] {
        *v = *v * 0.1 + 2.0;
    }
    let w = cfg.window.max(1) as i64;
    let neigh: Vec<i32> = (0..n as i64)
        .flat_map(|c| {
            let lo = (c - w).max(0);
            let hi = (c + w).min(n as i64 - 1);
            (0..4)
                .map(|_| rng.gen_range(lo..=hi) as i32)
                .collect::<Vec<_>>()
        })
        .collect();
    (vars, neigh)
}

/// Host reference: one flux iteration over all cells (global indexing).
pub fn reference_step(vars: &[f32], neigh: &[i32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; 5 * n];
    for c in 0..n {
        let d = vars[c];
        let e = vars[n + c];
        let mx = vars[2 * n + c];
        let my = vars[3 * n + c];
        let mz = vars[4 * n + c];
        let mut fd = 0.0f32;
        let mut fe = 0.0f32;
        let mut fx = 0.0f32;
        let mut fy = 0.0f32;
        let mut fz = 0.0f32;
        for k in 0..4 {
            let nb = neigh[4 * c + k] as usize;
            let dn = vars[nb];
            let en = vars[n + nb];
            let mxn = vars[2 * n + nb];
            let myn = vars[3 * n + nb];
            let mzn = vars[4 * n + nb];
            let p = 0.4f32 * (e - 0.5f32 * (mx * mx + my * my + mz * mz) / d);
            let pn = 0.4f32 * (en - 0.5f32 * (mxn * mxn + myn * myn + mzn * mzn) / dn);
            fd += dn - d;
            fe += en - e + (pn - p);
            fx += mxn - mx;
            fy += myn - my;
            fz += mzn - mz;
        }
        out[c] = d + 0.05 * fd;
        out[n + c] = e + 0.05 * fe;
        out[2 * n + c] = mx + 0.05 * fx;
        out[3 * n + c] = my + 0.05 * fy;
        out[4 * n + c] = mz + 0.05 * fz;
    }
    out
}

/// Cost of one flux launch over `cells` interior cells.
pub fn launch_cost(cells: usize) -> CostModel {
    let n = cells as f64;
    CostModel::new()
        // ~30 FLOPs per neighbour × 4 neighbours + update.
        .flops(130.0 * n)
        // Gathers burn 32-byte transactions per variable per neighbour.
        .bytes_read((5.0 * 32.0 * 4.0 + 5.0 * 4.0 + 16.0) * n)
        .bytes_written(4.0 * 5.0 * n)
        .divergent()
}

/// Cost of a stitch/extract copy pass over `w` halo cells.
pub fn halo_cost(w: usize) -> CostModel {
    let bytes = 5.0 * 4.0 * w as f64;
    CostModel::new().bytes_read(bytes).bytes_written(bytes)
}

struct Part {
    vars_a: Buffer,
    vars_b: Buffer,
    neigh_d: Buffer,
    halo_lo: Option<Buffer>,
    halo_hi: Option<Buffer>,
    out_lo: Option<Buffer>,
    out_hi: Option<Buffer>,
    range: std::ops::Range<usize>,
    slice_len: usize,
    lo_w: usize,
    hi_w: usize,
}

/// Runs the distributed CFD solver across every device of `platform`.
///
/// # Errors
///
/// Propagates any API or transport failure from the wrapper library.
#[allow(clippy::too_many_lines)]
pub fn run(platform: &Platform, cfg: &CfdConfig, opts: &RunOptions) -> Result<RunReport, Error> {
    let devices = platform.devices(DeviceType::All);
    let ctx = Context::new(platform, &devices)?;
    let queues: Vec<CommandQueue> = devices
        .iter()
        .map(|d| CommandQueue::new(&ctx, d))
        .collect::<Result<_, _>>()?;
    let kernel_names = [KERNEL_NAME, STITCH_KERNEL_NAME, EXTRACT_KERNEL_NAME];
    let program = match opts.mode {
        KernelMode::Bitstream => Program::with_bitstream_kernels(&ctx, kernel_names),
        KernelMode::Source => Program::from_source(&ctx, KERNEL_SOURCE),
    };
    program.build()?;
    let flux = Kernel::new(&program, KERNEL_NAME)?;
    let stitch = Kernel::new(&program, STITCH_KERNEL_NAME)?;
    let extract = Kernel::new(&program, EXTRACT_KERNEL_NAME)?;
    for k in [&flux, &stitch, &extract] {
        k.set_fidelity(opts.fidelity);
    }

    platform.reset_phases();
    let t0 = platform.now();
    let full = opts.is_full();
    let n = cfg.cells;
    // Halo width; blocks must be at least one window wide.
    let w = cfg.window.min(n / devices.len().max(1)).max(1);

    let (vars, neigh) = if full {
        generate_state(cfg)
    } else {
        (Vec::new(), Vec::new())
    };
    platform.charge_data_creation(4 * 9 * n as u64);
    if opts.replicate_inputs {
        crate::util::charge_replication(&ctx, &queues, cfg.input_bytes())?;
    }

    let weights = crate::util::throughput_weights(&devices, &launch_cost(1000));
    let ranges = crate::partition::weighted_ranges(n, &weights);
    let mut parts: Vec<Part> = Vec::new();
    for (i, (queue, range)) in queues.iter().zip(&ranges).enumerate() {
        let r = range.len();
        let lo_w = if i == 0 { 0 } else { w };
        let hi_w = if i + 1 == ranges.len() { 0 } else { w };
        let slice_start = range.start - lo_w;
        let slice_len = lo_w + r + hi_w;
        let slice_bytes = (4 * 5 * slice_len).max(4) as u64;
        let vars_a = create_buffer(&ctx, MemFlags::READ_WRITE, slice_bytes, full)?;
        let vars_b = create_buffer(&ctx, MemFlags::READ_WRITE, slice_bytes, full)?;
        let neigh_d = create_buffer(&ctx, MemFlags::READ_ONLY, (4 * 4 * r).max(4) as u64, full)?;
        let mk_halo = |width: usize| -> Result<Option<Buffer>, Error> {
            if width == 0 {
                Ok(None)
            } else {
                Ok(Some(create_buffer(
                    &ctx,
                    MemFlags::READ_WRITE,
                    (4 * 5 * width) as u64,
                    full,
                )?))
            }
        };
        let halo_lo = mk_halo(lo_w)?;
        let halo_hi = mk_halo(hi_w)?;
        let out_lo = mk_halo(lo_w)?;
        let out_hi = mk_halo(hi_w)?;
        if r > 0 {
            // Initial state slice (including halos) and rebased neighbours.
            if full {
                let mut slice = Vec::with_capacity(5 * slice_len);
                for v in 0..5 {
                    slice.extend_from_slice(
                        &vars[v * n + slice_start..v * n + slice_start + slice_len],
                    );
                }
                write_buffer(queue, &vars_a, &f32s_to_bytes(&slice), slice_bytes, true)?;
                let mut local_neigh = Vec::with_capacity(4 * r);
                for c in range.start..range.end {
                    for k in 0..4 {
                        local_neigh.push(neigh[4 * c + k] - slice_start as i32);
                    }
                }
                write_buffer(
                    queue,
                    &neigh_d,
                    &crate::util::i32s_to_bytes(&local_neigh),
                    (4 * 4 * r) as u64,
                    true,
                )?;
            } else {
                write_buffer(queue, &vars_a, &[], slice_bytes, false)?;
                write_buffer(queue, &neigh_d, &[], (4 * 4 * r) as u64, false)?;
            }
        }
        parts.push(Part {
            vars_a,
            vars_b,
            neigh_d,
            halo_lo,
            halo_hi,
            out_lo,
            out_hi,
            range: range.clone(),
            slice_len,
            lo_w,
            hi_w,
        });
    }

    // Steady-state measurement starts once the inputs are resident.
    let t0 = if opts.data_resident {
        platform.now()
    } else {
        t0
    };

    // Host-side boundary exports from the previous iteration:
    // (lo_export, hi_export) per device, 5·w floats each.
    let mut exports: Vec<(Vec<f32>, Vec<f32>)> = vec![(Vec::new(), Vec::new()); parts.len()];

    for iter in 0..cfg.iterations {
        // 1. Stitch fresh halos into the source buffer (not needed on the
        //    first iteration: the initial slices already carry them).
        if iter > 0 {
            for (i, (queue, part)) in queues.iter().zip(&parts).enumerate() {
                if part.range.is_empty() || (part.lo_w == 0 && part.hi_w == 0) {
                    continue;
                }
                if let Some(halo_lo) = &part.halo_lo {
                    let data = if full {
                        f32s_to_bytes(&exports[i - 1].1)
                    } else {
                        Vec::new()
                    };
                    write_buffer(queue, halo_lo, &data, (4 * 5 * part.lo_w) as u64, full)?;
                }
                if let Some(halo_hi) = &part.halo_hi {
                    let data = if full {
                        f32s_to_bytes(&exports[i + 1].0)
                    } else {
                        Vec::new()
                    };
                    write_buffer(queue, halo_hi, &data, (4 * 5 * part.hi_w) as u64, full)?;
                }
                stitch.set_arg_buffer(0, &part.vars_a)?;
                stitch.set_arg_buffer(1, part.halo_lo.as_ref().unwrap_or(&part.vars_a))?;
                stitch.set_arg_buffer(2, part.halo_hi.as_ref().unwrap_or(&part.vars_a))?;
                stitch.set_arg_i32(3, part.slice_len as i32)?;
                stitch.set_arg_i32(4, part.lo_w as i32)?;
                stitch.set_arg_i32(5, part.hi_w as i32)?;
                stitch.set_arg_i32(6, part.range.len() as i32)?;
                stitch.set_cost(halo_cost(part.lo_w + part.hi_w));
                queue.enqueue_nd_range_kernel(
                    &stitch,
                    NdRange::linear(round_up(part.lo_w.max(part.hi_w) as u64, 64).max(64), 64),
                )?;
            }
        }
        // 2. Flux: source slice → destination slice interior.
        for (queue, part) in queues.iter().zip(&parts) {
            let r = part.range.len();
            if r == 0 {
                continue;
            }
            flux.set_arg_buffer(0, &part.vars_a)?;
            flux.set_arg_buffer(1, &part.neigh_d)?;
            flux.set_arg_buffer(2, &part.vars_b)?;
            flux.set_arg_i32(3, part.slice_len as i32)?;
            flux.set_arg_i32(4, part.lo_w as i32)?;
            flux.set_arg_i32(5, r as i32)?;
            flux.set_cost(launch_cost(r));
            queue.enqueue_nd_range_kernel(&flux, NdRange::linear(round_up(r as u64, 64), 64))?;
        }
        for queue in &queues {
            queue.finish();
        }
        // 3. Extract the boundary cells neighbours will need.
        for (i, (queue, part)) in queues.iter().zip(&parts).enumerate() {
            if part.range.is_empty() || (part.lo_w == 0 && part.hi_w == 0) {
                continue;
            }
            extract.set_arg_buffer(0, &part.vars_b)?;
            extract.set_arg_buffer(1, part.out_lo.as_ref().unwrap_or(&part.vars_b))?;
            extract.set_arg_buffer(2, part.out_hi.as_ref().unwrap_or(&part.vars_b))?;
            extract.set_arg_i32(3, part.slice_len as i32)?;
            extract.set_arg_i32(4, part.lo_w as i32)?;
            extract.set_arg_i32(5, part.hi_w as i32)?;
            extract.set_arg_i32(6, part.range.len() as i32)?;
            extract.set_cost(halo_cost(part.lo_w + part.hi_w));
            queue.enqueue_nd_range_kernel(
                &extract,
                NdRange::linear(round_up(part.lo_w.max(part.hi_w) as u64, 64).max(64), 64),
            )?;
            if let Some(out_lo) = &part.out_lo {
                let bytes = read_buffer(queue, out_lo, (4 * 5 * part.lo_w) as u64, full)?;
                exports[i].0 = bytes.map(|b| bytes_to_f32s(&b)).unwrap_or_default();
            }
            if let Some(out_hi) = &part.out_hi {
                let bytes = read_buffer(queue, out_hi, (4 * 5 * part.hi_w) as u64, full)?;
                exports[i].1 = bytes.map(|b| bytes_to_f32s(&b)).unwrap_or_default();
            }
        }
        // 4. Swap source and destination.
        for part in &mut parts {
            std::mem::swap(&mut part.vars_a, &mut part.vars_b);
        }
    }

    // Collect the final state (one bulk read per device — result
    // gathering, as any real run would do).
    let mut verified = None;
    if full {
        let mut final_vars = vec![0.0f32; 5 * n];
        for (queue, part) in queues.iter().zip(&parts) {
            let r = part.range.len();
            if r == 0 {
                continue;
            }
            let bytes = read_buffer(queue, &part.vars_a, (4 * 5 * part.slice_len) as u64, true)?
                .expect("full fidelity returns data");
            let slice = bytes_to_f32s(&bytes);
            for v in 0..5 {
                final_vars[v * n + part.range.start..v * n + part.range.end].copy_from_slice(
                    &slice[v * part.slice_len + part.lo_w..v * part.slice_len + part.lo_w + r],
                );
            }
        }
        if opts.verify {
            let (mut expect, _) = generate_state(cfg);
            for _ in 0..cfg.iterations {
                expect = reference_step(&expect, &neigh, n);
            }
            verified = Some(
                final_vars
                    .iter()
                    .zip(&expect)
                    .all(|(a, b)| (a - b).abs() <= 1e-4 * b.abs().max(1.0)),
            );
        }
    } else {
        for (queue, part) in queues.iter().zip(&parts) {
            if part.range.is_empty() {
                continue;
            }
            read_buffer(queue, &part.vars_a, (4 * 5 * part.slice_len) as u64, false)?;
        }
    }

    Ok(RunReport {
        app: "CFD".to_string(),
        devices: devices.len(),
        makespan: platform.now() - t0,
        phases: platform.phase_breakdown(),
        verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use haocl::DeviceKind;

    fn platform(kinds: &[DeviceKind]) -> Platform {
        Platform::local_with_registry(kinds, crate::registry_with_all()).unwrap()
    }

    #[test]
    fn single_device_verifies() {
        let report = run(
            &platform(&[DeviceKind::Gpu]),
            &CfdConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn source_kernels_verify() {
        let cfg = CfdConfig {
            cells: 192,
            iterations: 2,
            window: 16,
            seed: 5,
        };
        let report = run(&platform(&[DeviceKind::Gpu]), &cfg, &RunOptions::source()).unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn multi_device_halo_exchange_verifies() {
        let report = run(
            &platform(&[DeviceKind::Gpu, DeviceKind::Gpu]),
            &CfdConfig::test_scale(),
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn three_device_halo_exchange_verifies() {
        // Middle devices have halos on both sides.
        let report = run(
            &platform(&[DeviceKind::Gpu, DeviceKind::Gpu, DeviceKind::Gpu]),
            &CfdConfig {
                cells: 960,
                iterations: 3,
                window: 24,
                seed: 9,
            },
            &RunOptions::full(),
        )
        .unwrap();
        assert_eq!(report.verified, Some(true), "{report}");
    }

    #[test]
    fn reference_is_stable_on_uniform_state() {
        // A perfectly uniform field has zero fluxes: one step is identity.
        let n = 8;
        let mut vars = vec![0.0f32; 5 * n];
        for c in 0..n {
            vars[c] = 1.0; // density
            vars[n + c] = 2.5; // energy
        }
        let neigh: Vec<i32> = (0..4 * n).map(|i| ((i * 7) % n) as i32).collect();
        let out = reference_step(&vars, &neigh, n);
        for (a, b) in out.iter().zip(&vars) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn neighbours_respect_the_window() {
        let cfg = CfdConfig {
            cells: 256,
            iterations: 1,
            window: 10,
            seed: 2,
        };
        let (_, neigh) = generate_state(&cfg);
        for c in 0..cfg.cells {
            for k in 0..4 {
                let nb = neigh[4 * c + k] as i64;
                assert!((nb - c as i64).abs() <= cfg.window as i64);
                assert!(nb >= 0 && (nb as usize) < cfg.cells);
            }
        }
    }

    #[test]
    fn paper_scale_matches_table1() {
        let bytes = CfdConfig::paper_scale().input_bytes();
        assert!((7.5e8..8.5e8).contains(&(bytes as f64)), "{bytes}");
    }
}
