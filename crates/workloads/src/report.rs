//! Run options and result reports shared by all workload drivers.

use haocl::Fidelity;
use haocl_sim::{PhaseBreakdown, SimDuration};

/// How the driver deploys its kernels. Either way the same OpenCL C
/// runs; the difference is where it was compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Loaded by name from the bitstream store, where the app's source
    /// was compiled ahead of time (works on every device class; required
    /// for FPGAs).
    #[default]
    Bitstream,
    /// OpenCL C source compiled on the nodes by `haocl-clc` (CPU/GPU
    /// only).
    Source,
}

/// Options common to every workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Execute for real or model timing only.
    pub fidelity: Fidelity,
    /// Kernel deployment form.
    pub mode: KernelMode,
    /// Check results against the host reference (full fidelity only).
    pub verify: bool,
    /// Replicate the full input to every device before running
    /// (SnuCL-D-style redundant data placement; used by the baseline).
    pub replicate_inputs: bool,
    /// Measure from the moment static inputs are resident on the devices
    /// (steady-state serving — the paper's "data size exceeds the
    /// capacity of a single node" regime, where the data must live
    /// distributed anyway). Input generation and the initial distribution
    /// are excluded from the makespan; per-iteration exchanges and result
    /// collection still count.
    pub data_resident: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            fidelity: Fidelity::Full,
            mode: KernelMode::Bitstream,
            verify: true,
            replicate_inputs: false,
            data_resident: false,
        }
    }
}

impl RunOptions {
    /// Full-fidelity, bitstream kernels, verified (the test default).
    pub fn full() -> Self {
        RunOptions::default()
    }

    /// Modeled fidelity for paper-scale benchmarking, bitstream kernels
    /// (no verification).
    pub fn modeled() -> Self {
        RunOptions {
            fidelity: Fidelity::Modeled,
            mode: KernelMode::Bitstream,
            verify: false,
            ..RunOptions::default()
        }
    }

    /// Modeled fidelity measuring from resident data (steady state).
    pub fn modeled_resident() -> Self {
        RunOptions {
            data_resident: true,
            ..RunOptions::modeled()
        }
    }

    /// Full fidelity through the source-compilation path.
    pub fn source() -> Self {
        RunOptions {
            mode: KernelMode::Source,
            ..RunOptions::default()
        }
    }

    /// Whether buffers/launches run in full fidelity.
    pub fn is_full(&self) -> bool {
        self.fidelity == Fidelity::Full
    }
}

/// The outcome of one distributed workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub app: String,
    /// Number of devices used.
    pub devices: usize,
    /// End-to-end virtual time (generation + transfers + compute).
    pub makespan: SimDuration,
    /// Per-phase breakdown (Fig. 3 instrumentation).
    pub phases: PhaseBreakdown,
    /// `Some(true)` if verified against the reference, `Some(false)` if
    /// the check failed, `None` when verification was skipped.
    pub verified: Option<bool>,
}

impl RunReport {
    /// Speedup of this run relative to `baseline` (ratio of makespans).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.makespan.as_secs_f64() / self.makespan.as_secs_f64()
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} device(s): {} [{}]{}",
            self.app,
            self.devices,
            self.makespan,
            self.phases,
            match self.verified {
                Some(true) => " verified",
                Some(false) => " VERIFICATION FAILED",
                None => "",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_presets() {
        assert!(RunOptions::full().is_full());
        assert!(!RunOptions::modeled().is_full());
        assert!(!RunOptions::modeled().verify);
        assert_eq!(RunOptions::source().mode, KernelMode::Source);
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let mk = |secs: u64| RunReport {
            app: "x".into(),
            devices: 1,
            makespan: SimDuration::from_secs(secs),
            phases: PhaseBreakdown::default(),
            verified: None,
        };
        let single = mk(8);
        let four = mk(2);
        assert!((four.speedup_over(&single) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_verification() {
        let r = RunReport {
            app: "mm".into(),
            devices: 2,
            makespan: SimDuration::from_secs(1),
            phases: PhaseBreakdown::default(),
            verified: Some(true),
        };
        assert!(r.to_string().contains("verified"));
    }
}
