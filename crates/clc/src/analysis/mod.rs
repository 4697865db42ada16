//! Static kernel analysis: CFG construction, a small forward-dataflow
//! framework, and compile-time checks for barrier divergence,
//! `__local`-memory data races, out-of-bounds local indexing and
//! use-before-init — everything `clBuildProgram` can reject before a
//! kernel ever runs.
//!
//! Results land in a [`KernelReport`] attached to each
//! [`crate::CompiledKernel`]: the diagnostics feed build logs, the
//! effect summaries feed the fusion prover, and `haocl-lint` prints the
//! [`KernelFeatures`] vector. Placement reads none of it.

pub mod cfg;
mod checks;
pub mod dataflow;
pub mod effects;
pub mod fusion;

use crate::ast::{KernelDecl, Unit};
use crate::bytecode::{CompiledKernel, CompiledProgram};
use crate::diag::Diagnostics;

/// How [`crate::compile_with_options`] treats analysis findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Run the analyzer; error-severity findings fail the build
    /// (`clBuildProgram` semantics). The default.
    #[default]
    Enforce,
    /// Run the analyzer and attach reports, but never fail the build.
    WarnOnly,
    /// Skip the analyzer entirely (reports stay empty).
    Off,
}

/// Options for [`crate::compile_with_options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileOptions {
    /// Static-analysis behaviour.
    pub analysis: AnalysisMode,
}

/// The static feature vector of one kernel, as `haocl-lint` prints it and
/// build replies forward it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelFeatures {
    /// Statically-declared `__local` bytes.
    pub local_bytes: u32,
    /// Number of `barrier(...)` sites.
    pub barrier_count: u32,
    /// Floating-point instructions per byte of memory traffic (static
    /// estimate).
    pub arithmetic_intensity: f64,
    /// Fraction of reachable basic blocks under work-item-dependent
    /// control flow.
    pub divergence_score: f64,
}

/// Static-analysis results for one kernel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelReport {
    /// Findings, in discovery order.
    pub diagnostics: Diagnostics,
    /// Static kernel features.
    pub features: KernelFeatures,
    /// Inter-kernel effect summary (fusion-legality input).
    pub effects: effects::EffectSummary,
}

impl KernelReport {
    /// Whether any finding is error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.has_errors()
    }
}

/// Analyzes one compiled kernel against its AST declaration.
pub fn analyze_kernel(decl: &KernelDecl, kernel: &CompiledKernel, source: &str) -> KernelReport {
    checks::analyze(decl, kernel, source)
}

/// Analyzes every kernel of `program`, attaching a [`KernelReport`] to
/// each; returns all diagnostics combined (for build-failure folding).
pub fn analyze_program(unit: &Unit, program: &mut CompiledProgram, source: &str) -> Diagnostics {
    let mut all = Diagnostics::new();
    for k in program.kernels_mut() {
        let Some(decl) = unit.kernels.iter().find(|d| d.name == k.name) else {
            continue;
        };
        let report = checks::analyze(decl, k, source);
        all.extend(report.diagnostics.iter().cloned());
        k.report = report;
    }
    all
}
