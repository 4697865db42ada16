//! Effects-vs-oracle cross-check: the static per-argument effect
//! summaries ([`haocl_clc::EffectSummary`]) must **over-approximate**
//! the per-byte global-access sets the VM oracle
//! ([`haocl_clc::vm::run_ndrange_observed`]) observes at runtime —
//! never under-approximate. The fusion prover's soundness rests on
//! exactly this containment, so it is re-checked here over the whole
//! lint corpus plus the five paper workload kernel files, under
//! randomized launch shapes, buffer contents and scalar arguments.
//!
//! Checked invariants, per observed access on a global buffer:
//!
//! * **mode** — a store implies the argument's mode admits writes, a
//!   load implies it admits reads (`none` means no access, ever);
//! * **bounds** — when the summary carries element-offset bounds, the
//!   access's element range lies inside them;
//! * **patterns** — when the summary is `complete`, some recorded
//!   pattern of the same direction covers the access: an `Opaque` base
//!   covers anything (that is its job), while a constant or geometry
//!   base must evaluate — via the item's local id and group geometry —
//!   to exactly the observed element.
//!
//! Launches that fail (barrier divergence, out-of-bounds with hostile
//! scalars, …) are skipped: the oracle observes nothing, so there is
//! nothing to contain. The property asserts at least one kernel ran per
//! case so the corpus can never silently degrade to all-skips.

use haocl_clc::ast::ParamType;
use haocl_clc::vm::{run_ndrange_observed, ArgValue, CheckConfig, GlobalBuffer, NdRange};
use haocl_clc::{
    compile_with_options, AccessPattern, AddressSpace, AnalysisMode, CompileOptions,
    CompiledKernel, PatternBase, ScalarType,
};
use proptest::prelude::*;

/// Every source the summaries are cross-checked over: the lint corpus
/// (good and bad — bad kernels still carry summaries) plus the five
/// paper workloads' kernel files.
fn corpus() -> Vec<(String, String)> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/lint_corpus");
    let mut out = Vec::new();
    for sub in ["good", "bad"] {
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/{sub}"))
            .expect("lint corpus directory")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "cl"))
            .collect();
        paths.sort();
        for p in paths {
            let src = std::fs::read_to_string(&p).expect("corpus file");
            out.push((p.display().to_string(), src));
        }
    }
    for (label, src) in [
        ("paper/bfs", haocl_workloads::bfs::KERNEL_SOURCE),
        ("paper/cfd", haocl_workloads::cfd::KERNEL_SOURCE),
        ("paper/knn", haocl_workloads::knn::KERNEL_SOURCE),
        ("paper/matmul", haocl_workloads::matmul::KERNEL_SOURCE),
        ("paper/spmv", haocl_workloads::spmv::KERNEL_SOURCE),
    ] {
        out.push((label.to_string(), src.to_string()));
    }
    out
}

/// Deterministic fill generator (the proptest seed feeds it, so cases
/// reproduce from the failure persistence file).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Binds plausible arguments for an arbitrary corpus kernel: every
/// global/constant pointer gets its own generously-sized buffer (so
/// index arithmetic like `i*n+j` stays in range), integer buffers are
/// filled with small non-negative values (so loaded-value gathers stay
/// in range too), and integer scalars all receive `n_val` (the "element
/// count" convention every corpus kernel follows). Returns the args,
/// the buffers, and the param-slot each buffer index is bound to.
fn bind_args(
    kernel: &CompiledKernel,
    range: &NdRange,
    seed: u64,
    n_val: i64,
) -> Option<(Vec<ArgValue>, Vec<GlobalBuffer>, Vec<usize>)> {
    let total = range.total_items();
    let local_total: u64 = range.local.iter().product();
    let elems = (total * total + 4 * total + 64) as usize;
    let cap = total.max(1);
    let mut rng = Lcg(seed | 1);
    let mut args = Vec::new();
    let mut buffers = Vec::new();
    let mut slots = Vec::new();
    for (slot, p) in kernel.params.iter().enumerate() {
        match *p {
            ParamType::Pointer(AddressSpace::Global | AddressSpace::Constant, st) => {
                let mut bytes = Vec::with_capacity(elems * st.size_bytes());
                for _ in 0..elems {
                    match st {
                        ScalarType::Bool => bytes.push((rng.next() & 1) as u8),
                        ScalarType::I32 => {
                            bytes.extend(((rng.next() % cap) as i32).to_le_bytes());
                        }
                        ScalarType::U32 => {
                            bytes.extend(((rng.next() % cap) as u32).to_le_bytes());
                        }
                        ScalarType::I64 => {
                            bytes.extend(((rng.next() % cap) as i64).to_le_bytes());
                        }
                        ScalarType::U64 => {
                            bytes.extend((rng.next() % cap).to_le_bytes());
                        }
                        ScalarType::F32 => {
                            bytes.extend(((rng.next() % 1000) as f32 / 250.0).to_le_bytes());
                        }
                        ScalarType::F64 => {
                            bytes.extend(
                                (f64::from((rng.next() % 1000) as u32) / 250.0).to_le_bytes(),
                            );
                        }
                    }
                }
                args.push(ArgValue::global(buffers.len()));
                buffers.push(GlobalBuffer::from_bytes(bytes));
                slots.push(slot);
            }
            ParamType::Pointer(AddressSpace::Local, st) => {
                args.push(ArgValue::local_bytes(
                    st.size_bytes() * (2 * local_total as usize + 8),
                ));
            }
            ParamType::Pointer(..) => return None,
            ParamType::Scalar(st) => args.push(match st {
                ScalarType::F32 => ArgValue::from_f32(0.5),
                ScalarType::F64 => ArgValue::from_f64(0.5),
                ScalarType::U32 => ArgValue::from_u32(n_val as u32),
                ScalarType::I64 => ArgValue::from_i64(n_val),
                ScalarType::U64 => ArgValue::from_u64(n_val as u64),
                _ => ArgValue::from_i32(n_val as i32),
            }),
        }
    }
    Some((args, buffers, slots))
}

/// The geometry an access pattern's symbols evaluate against for one
/// flat work-item id.
struct ItemGeom {
    lid: [u64; 3],
    gbase: [u64; 3],
    grp: [u64; 3],
}

fn item_geom(item: u64, range: &NdRange) -> ItemGeom {
    let g = range.global;
    let gid = [item % g[0], (item / g[0]) % g[1], item / (g[0] * g[1])];
    let mut lid = [0u64; 3];
    let mut gbase = [0u64; 3];
    let mut grp = [0u64; 3];
    for d in 0..3 {
        lid[d] = gid[d] % range.local[d];
        gbase[d] = gid[d] - lid[d];
        grp[d] = gid[d] / range.local[d];
    }
    ItemGeom { lid, gbase, grp }
}

/// Whether `pattern` covers an observed access at element `elem` by
/// work-item `item`. `Opaque` bases cover anything; constant and
/// geometry bases must evaluate to exactly `elem`.
fn pattern_covers(pattern: &AccessPattern, item: u64, elem: i64, range: &NdRange) -> bool {
    let geom = item_geom(item, range);
    let base = match pattern.base {
        PatternBase::Opaque => return true,
        PatternBase::Const(k) => k,
        PatternBase::Geom { id, add } => {
            let d = (id % 100) as usize;
            let val = match id {
                0..=2 => geom.gbase[d] as i64,
                100..=102 => geom.grp[d] as i64,
                200..=202 => range.global[d] as i64,
                300..=302 => range.local[d] as i64,
                400..=402 => (range.global[d] / range.local[d]) as i64,
                500 => i64::from(range.work_dim),
                // A geometry symbol this checker does not model: treat
                // the pattern as covering, like an opaque base.
                _ => return true,
            };
            val + add
        }
    };
    let linear: i64 = (0..3).map(|d| pattern.coeffs[d] * geom.lid[d] as i64).sum();
    base + linear == elem
}

/// Runs one corpus kernel under the oracle and checks containment.
/// Returns `Ok(false)` when the launch could not run (unbindable
/// params, or runtime failure under these random inputs).
fn check_kernel(
    label: &str,
    name: &str,
    kernel: &CompiledKernel,
    range: &NdRange,
    seed: u64,
    n_val: i64,
) -> Result<bool, TestCaseError> {
    let effects = &kernel.report.effects;
    prop_assert!(
        !effects.is_empty(),
        "{label}/{name}: compiled kernel carries no effect summary"
    );
    prop_assert_eq!(
        effects.args.len(),
        kernel.params.len(),
        "{}/{}: summary arity diverges from the signature",
        label,
        name
    );
    let Some((args, mut buffers, slots)) = bind_args(kernel, range, seed, n_val) else {
        return Ok(false);
    };
    let cfg = CheckConfig {
        max_instructions: 5_000_000,
        detect_races: false,
    };
    let Ok((_stats, obs)) = run_ndrange_observed(kernel, &args, &mut buffers, range, &cfg) else {
        return Ok(false);
    };
    for access in &obs.accesses {
        let slot = slots[access.buffer];
        let eff = &effects.args[slot];
        prop_assert!(
            if access.write {
                eff.mode.writes()
            } else {
                eff.mode.reads()
            },
            "{label}/{name}: arg {slot} mode `{}` misses an observed {} \
             (item {}, byte {})",
            eff.mode,
            if access.write { "store" } else { "load" },
            access.item,
            access.byte_off
        );
        prop_assert!(
            eff.elem_bytes > 0,
            "{label}/{name}: arg {slot} accessed but summarized with zero element size"
        );
        let eb = u64::from(eff.elem_bytes);
        let elem_first = (access.byte_off / eb) as i64;
        let elem_last = ((access.byte_off + u64::from(access.len) - 1) / eb) as i64;
        if let Some((lo, hi)) = eff.elem_bounds {
            prop_assert!(
                lo <= elem_first && elem_last <= hi,
                "{label}/{name}: arg {slot} bounds [{lo}..{hi}] miss observed \
                 elements {elem_first}..{elem_last} (item {})",
                access.item
            );
        }
        if eff.complete && u64::from(access.len) == eb {
            prop_assert!(
                eff.patterns
                    .iter()
                    .filter(|p| p.write == access.write)
                    .any(|p| pattern_covers(p, access.item, elem_first, range)),
                "{label}/{name}: arg {slot} complete pattern set {:?} misses an \
                 observed {} of element {} by item {}",
                eff.patterns,
                if access.write { "store" } else { "load" },
                elem_first,
                access.item
            );
        }
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn summaries_over_approximate_the_vm_oracle(
        shape_sel in 0usize..8,
        seed in any::<u64>(),
        n_sel in 0usize..3,
    ) {
        let shapes = [
            NdRange::linear(16, 4),
            NdRange::linear(24, 8),
            NdRange::d2([8, 4], [4, 2]),
            NdRange::linear(8, 8),
            // Rows of eight in groups of sixteen and of thirty-two: the
            // compiled engine cuts a lockstep chunk across them, and
            // loads in step only from what a summary's mode says no item
            // stores to.
            NdRange::d2([16, 4], [8, 2]),
            NdRange::d3([4, 4, 4], [4, 4, 2]),
            // Groups of one and of two items: it cuts a chunk across
            // sixteen or eight of them, on the same say-so.
            NdRange::linear(18, 1),
            NdRange::linear(32, 2),
        ];
        let range = shapes[shape_sel];
        let total = range.total_items() as i64;
        let n_val = [total, total / 2, 1][n_sel];
        let opts = CompileOptions { analysis: AnalysisMode::WarnOnly };
        let mut ran = 0usize;
        for (label, source) in corpus() {
            let program = compile_with_options(&source, &opts)
                .unwrap_or_else(|e| panic!("{label}: corpus must compile: {}", e.build_log()));
            let mut names: Vec<&str> = program.kernel_names().collect();
            names.sort_unstable();
            for name in names {
                let kernel = program.kernel(name).expect("listed kernel exists");
                ran += usize::from(check_kernel(&label, name, kernel, &range, seed, n_val)?);
            }
        }
        prop_assert!(ran > 0, "every corpus launch was skipped — the oracle saw nothing");
    }
}
