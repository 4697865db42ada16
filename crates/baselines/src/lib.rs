//! Comparator systems for the HaoCL evaluation (paper §IV-B, Fig. 2).
//!
//! The paper compares HaoCL against a native single-node OpenCL run
//! ("Local-GPU") and against SnuCL-D (Kim et al., PLDI 2016). This crate
//! provides both as runnable systems over the same workloads:
//!
//! * [`local`] — the native baseline: one node, zero-cost interconnect.
//! * [`snucl_d`] — a SnuCL-D-like distributed runtime: CPU/GPU only, no
//!   CFD support, and redundant data placement (every node holds the full
//!   input, the cost of its replicated-host-program design).

#![forbid(unsafe_code)]

pub mod local;
pub mod snucl_d;

pub use local::run_local;
pub use snucl_d::SnuClD;

/// Which system executed a run (for harness labelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// HaoCL on a cluster.
    HaoCl,
    /// Native OpenCL on one node.
    LocalNative,
    /// The SnuCL-D-like comparator.
    SnuClD,
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            System::HaoCl => "HaoCL",
            System::LocalNative => "Local",
            System::SnuClD => "SnuCL-D",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_labels() {
        assert_eq!(System::HaoCl.to_string(), "HaoCL");
        assert_eq!(System::SnuClD.to_string(), "SnuCL-D");
        assert_eq!(System::LocalNative.to_string(), "Local");
    }
}
