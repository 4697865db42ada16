//! A miniature OpenCL C kernel compiler and virtual machine.
//!
//! HaoCL device nodes receive OpenCL programs as source text and compile
//! them with the vendor toolchain (`clBuildProgram`). This reproduction has
//! no vendor toolchain, so `haocl-clc` implements the pipeline from
//! scratch for a practical subset of OpenCL C:
//!
//! * [`lexer`] — tokenizer with source spans,
//! * [`parser`] — recursive-descent parser producing an [`ast`],
//! * [`sema`] — type checking plus single-pass compilation to a stack
//!   [`bytecode`],
//! * [`vm`] — a work-item virtual machine that executes whole work-groups,
//!   suspending items at `barrier()` so work-group synchronization has real
//!   OpenCL semantics.
//!
//! The supported subset covers the kernels of the paper's five benchmarks:
//! scalar types (`int`, `uint`, `long`, `ulong`, `float`, `double`,
//! `bool`), `__global`/`__local`/`__constant` pointers, local arrays,
//! control flow (`if`/`for`/`while`/`do`/`break`/`continue`/`return`),
//! the work-item geometry builtins, common math builtins and
//! `barrier(...)`.
//!
//! # Examples
//!
//! ```
//! use haocl_clc::{compile, vm};
//!
//! let src = r#"
//!     __kernel void scale(__global float* data, float factor) {
//!         int i = get_global_id(0);
//!         data[i] = data[i] * factor;
//!     }
//! "#;
//! let program = compile(src)?;
//! let kernel = program.kernel("scale").expect("kernel exists");
//!
//! let mut buf = vm::GlobalBuffer::from_f32(&[1.0, 2.0, 3.0, 4.0]);
//! let args = vec![
//!     vm::ArgValue::global(0),
//!     vm::ArgValue::from_f32(10.0),
//! ];
//! vm::run_ndrange(
//!     kernel,
//!     &args,
//!     std::slice::from_mut(&mut buf),
//!     &vm::NdRange::linear(4, 2),
//! )?;
//! assert_eq!(buf.as_f32(), &[10.0, 20.0, 30.0, 40.0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod bytecode;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod sema;
pub mod types;
pub mod vm;

pub use analysis::effects::{AccessMode, AccessPattern, ArgEffect, EffectSummary, PatternBase};
pub use analysis::fusion::{prove_fusable, FusionCandidate, FusionReject, FusionShape};
pub use analysis::{AnalysisMode, CompileOptions, KernelFeatures, KernelReport};
pub use bytecode::{CompiledKernel, CompiledProgram};
pub use diag::ClcError;
pub use types::{AddressSpace, ScalarType, Type};

/// Compiles OpenCL C source into an executable [`CompiledProgram`].
///
/// This is the `clBuildProgram` equivalent: it lexes, parses, type-checks
/// and lowers every `__kernel` function in `source`, then runs the static
/// analyzer ([`analysis`]) in [`AnalysisMode::Enforce`]: error-severity
/// findings (barrier divergence, `__local` data races, provable
/// out-of-bounds local indexing) fail the build just like a type error
/// would. Use [`compile_with_options`] to relax or skip analysis.
///
/// # Errors
///
/// Returns a [`ClcError`] carrying a build log (with line/column
/// positions) if the source fails to lex, parse, type-check or pass the
/// analyzer.
///
/// # Examples
///
/// ```
/// let err = haocl_clc::compile("__kernel void f( { }").unwrap_err();
/// assert!(err.build_log().contains("expected"));
/// ```
pub fn compile(source: &str) -> Result<CompiledProgram, ClcError> {
    compile_with_options(source, &CompileOptions::default())
}

/// [`compile`] with explicit [`CompileOptions`].
///
/// In [`AnalysisMode::WarnOnly`] and [`AnalysisMode::Enforce`], each
/// compiled kernel carries its [`KernelReport`]; in
/// [`AnalysisMode::Off`] reports stay empty.
///
/// # Errors
///
/// Returns a [`ClcError`] on lex/parse/sema failure in every mode, and
/// additionally on error-severity analysis findings in
/// [`AnalysisMode::Enforce`].
pub fn compile_with_options(
    source: &str,
    options: &CompileOptions,
) -> Result<CompiledProgram, ClcError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens, source)?;
    let mut program = sema::lower(&unit, source)?;
    if options.analysis != AnalysisMode::Off {
        let diags = analysis::analyze_program(&unit, &mut program, source);
        if options.analysis == AnalysisMode::Enforce {
            if let Some(err) = diags.into_error() {
                return Err(err);
            }
        }
    }
    Ok(program)
}
