//! The HaoCL evaluation workloads (paper §IV, Table I).
//!
//! | App        | Description                                         | Input size |
//! |------------|-----------------------------------------------------|------------|
//! | MatrixMul  | Matrix multiplication                               | 760 MB     |
//! | CFD        | Unstructured-grid finite-volume solver              | 800 MB     |
//! | kNN        | k-nearest neighbours in an unstructured data set    | 100 MB     |
//! | BFS        | Traverses all connected components of a graph       | 240 MB     |
//! | SpMV       | Sparse matrix–vector multiplication (CSR)           | 1.1 GB     |
//!
//! Every workload ships:
//!
//! * a deterministic **generator** (sizes from Table I at
//!   `Config::paper_scale()`, small at `Config::test_scale()`),
//! * its **kernels** as one OpenCL C source, compiled by `haocl-clc`
//!   either online on CPU/GPU nodes or ahead of time into the bitstream
//!   store that FPGA nodes load from (§III-D),
//! * a **partitioner** splitting the data across devices,
//! * a distributed **driver** (`run`) built purely on the public
//!   [`haocl`] API — the same calls an unmodified OpenCL application
//!   would make,
//! * a host **reference implementation** for verification.
//!
//! Drivers run at [`haocl::Fidelity::Full`] (real execution, verified results)
//! or [`haocl::Fidelity::Modeled`] (paper-scale virtual timing with modeled
//! buffers).

#![forbid(unsafe_code)]

pub mod bfs;
pub mod cfd;
pub mod knn;
pub mod matmul;
pub mod partition;
pub mod report;
pub mod spmv;
pub mod table;
pub(crate) mod util;
pub mod workload;

pub use report::{KernelMode, RunOptions, RunReport};
pub use workload::Workload;

use haocl_kernel::KernelRegistry;

/// The cluster-wide bitstream store used by the evaluation: every
/// workload's [`KERNEL_SOURCE`](matmul::KERNEL_SOURCE), compiled ahead of
/// time.
///
/// # Panics
///
/// Panics if a workload's source fails to compile, which the crate's
/// tests rule out.
pub fn registry_with_all() -> KernelRegistry {
    let registry = KernelRegistry::new();
    for source in [
        matmul::KERNEL_SOURCE,
        knn::KERNEL_SOURCE,
        spmv::KERNEL_SOURCE,
        bfs::KERNEL_SOURCE,
        cfd::KERNEL_SOURCE,
    ] {
        registry
            .register_source(source)
            .expect("workload kernels compile");
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_all_workload_kernels() {
        let r = registry_with_all();
        for name in [
            "matmul",
            "nn_dist",
            "nn_topk",
            "spmv_csr",
            "spmv_row_nnz",
            "bfs_step",
            "bfs_apply",
            "cfd_flux",
            "cfd_stitch",
            "cfd_extract",
        ] {
            assert!(r.get(name).is_some(), "missing bitstream kernel {name}");
        }
    }
}
