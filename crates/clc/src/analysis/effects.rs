//! Per-argument effect summaries: what a kernel may do to each of its
//! arguments, abstracted to the point where two *different* kernels'
//! summaries can be compared.
//!
//! The intra-kernel checks already compute, for every global-memory
//! access, a linear index form over local ids plus a value interval (see
//! [`super::dataflow`]). This module folds those per-access facts into a
//! per-argument [`ArgEffect`] — read/write mode, element-offset bounds,
//! and a deduplicated set of [`AccessPattern`]s — shipped on every
//! [`crate::KernelReport`] and over the wire so the host runtime can
//! prove launch-fusion legality (see [`super::fusion`]) without
//! re-running the analyzer.
//!
//! Soundness stance: a summary **over-approximates**. Every byte the
//! kernel can touch at runtime is covered by the argument's mode, bounds
//! and patterns; when the analyzer cannot bound an access it degrades
//! the summary (unbounded interval, `Opaque` base, `complete = false`)
//! rather than dropping the access. The fusion prover in turn treats
//! anything degraded as a conflict, so unsound fusions are impossible by
//! construction. The oracle cross-check lives in
//! `tests/effects_proptest.rs`.

use std::fmt;

/// Symbol-id base for launch-geometry values (`get_global_id` group
/// offsets, group ids, sizes …). Shared with the checks pass, which
/// mints the ids.
pub(crate) const GEOM_SYM: u32 = 1_000_000;

/// Symbol-id base for loaded-value symbols (kernel-local identities).
pub(crate) const LOAD_SYM: u32 = 2_000_000;

/// How a kernel uses one argument overall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// Never accessed (scalars, `__local` pointers, and untouched
    /// global pointers).
    #[default]
    None,
    /// Only loaded from.
    Read,
    /// Only stored to.
    Write,
    /// Both loaded and stored.
    ReadWrite,
}

impl AccessMode {
    /// Folds one access into the mode.
    pub fn observe(self, write: bool) -> AccessMode {
        match (self, write) {
            (AccessMode::None, false) => AccessMode::Read,
            (AccessMode::None, true) => AccessMode::Write,
            (AccessMode::Read, true) | (AccessMode::Write, false) => AccessMode::ReadWrite,
            (m, _) => m,
        }
    }

    /// Whether the argument may be stored to.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }

    /// Whether the argument may be loaded from.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessMode::None => "none",
            AccessMode::Read => "read",
            AccessMode::Write => "write",
            AccessMode::ReadWrite => "rw",
        })
    }
}

/// The group-uniform base of an access pattern, in a form comparable
/// *across kernels*.
///
/// Parameter-slot and loaded-value symbols are deliberately collapsed to
/// [`PatternBase::Opaque`]: kernel A's "parameter 2" and kernel B's
/// "parameter 2" are different runtime values, so a cross-kernel
/// comparison of such bases would be unsound. Launch-geometry symbols
/// survive — they denote the same value in any two launches with an
/// identical NDRange shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternBase {
    /// A compile-time constant element offset.
    Const(i64),
    /// A launch-geometry symbol (gid group base, group id, sizes …)
    /// plus a constant addend. Equal across kernels iff `id` and `add`
    /// are equal *and* the launches share an NDRange shape.
    Geom {
        /// Geometry symbol id (offset from `GEOM_SYM`).
        id: u32,
        /// Constant addend in elements.
        add: i64,
    },
    /// Not comparable across kernels (parameter values, loaded values,
    /// or anything the dataflow lost track of).
    Opaque,
}

impl fmt::Display for PatternBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PatternBase::Const(k) => write!(f, "{k}"),
            PatternBase::Geom { id, add } => {
                match id {
                    0..=2 => write!(f, "gbase{id}")?,
                    100..=102 => write!(f, "grp{}", id - 100)?,
                    200..=202 => write!(f, "gsz{}", id - 200)?,
                    300..=302 => write!(f, "lsz{}", id - 300)?,
                    400..=402 => write!(f, "ngrp{}", id - 400)?,
                    500 => f.write_str("wdim")?,
                    _ => write!(f, "geom{id}")?,
                }
                if add != 0 {
                    write!(f, "{add:+}")?;
                }
                Ok(())
            }
            PatternBase::Opaque => f.write_str("?"),
        }
    }
}

/// One deduplicated access shape on a global-pointer argument: the
/// element index is `Σ coeffs[d]·lid(d) + base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPattern {
    /// Store (`true`) or load (`false`).
    pub write: bool,
    /// Per-dimension local-id coefficients (elements).
    pub coeffs: [i64; 3],
    /// The group-uniform part.
    pub base: PatternBase,
    /// Whether the pattern provably maps distinct work-items to
    /// distinct elements *and* has a cross-kernel-comparable base —
    /// the precondition for any fusion argument involving it.
    pub provable: bool,
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.write { "W " } else { "R " })?;
        let mut wrote = false;
        for (d, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if wrote {
                f.write_str("+")?;
            }
            if c == 1 {
                write!(f, "l{d}")?;
            } else {
                write!(f, "{c}*l{d}")?;
            }
            wrote = true;
        }
        if wrote {
            write!(f, "+{}", self.base)?;
        } else {
            write!(f, "{}", self.base)?;
        }
        if !self.provable {
            f.write_str("!")?;
        }
        Ok(())
    }
}

/// The effect summary of one kernel argument.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArgEffect {
    /// Overall read/write classification.
    pub mode: AccessMode,
    /// Element size of the pointee in bytes (`0` for scalar and
    /// `__local` arguments — they carry no global effect).
    pub elem_bytes: u32,
    /// Inclusive element-offset bounds over every access, when the
    /// dataflow bounded them; `None` means "anywhere in the buffer".
    pub elem_bounds: Option<(i64, i64)>,
    /// Deduplicated access shapes (capped; see [`ArgEffect::complete`]).
    pub patterns: Vec<AccessPattern>,
    /// Whether `patterns` covers every access the kernel can make on
    /// this argument. `false` when the shape set overflowed the cap —
    /// the fusion prover then treats the argument as unprovable.
    pub complete: bool,
}

impl ArgEffect {
    /// The summary of an argument that is never accessed (also the
    /// summary of scalar and `__local` arguments).
    pub fn untouched() -> ArgEffect {
        ArgEffect {
            complete: true,
            ..ArgEffect::default()
        }
    }
}

impl fmt::Display for ArgEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mode)?;
        if self.mode == AccessMode::None {
            return Ok(());
        }
        write!(f, " {}B", self.elem_bytes)?;
        match self.elem_bounds {
            Some((lo, hi)) => write!(f, " [{lo}..{hi}]")?,
            None => f.write_str(" [unbounded]")?,
        }
        f.write_str(" {")?;
        for (i, p) in self.patterns.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{p}")?;
        }
        f.write_str("}")?;
        if !self.complete {
            f.write_str(" overflow")?;
        }
        Ok(())
    }
}

/// The inter-kernel effect summary of one kernel: one [`ArgEffect`] per
/// declared parameter, plus the barrier fact the fusion prover needs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EffectSummary {
    /// Per-parameter effects, in declaration order.
    pub args: Vec<ArgEffect>,
    /// Number of `barrier(...)` sites (from the divergence check).
    pub barriers: u32,
}

impl EffectSummary {
    /// Whether the summary carries any information (an empty summary
    /// means the analyzer did not run — e.g. bitstream kernels).
    pub fn is_empty(&self) -> bool {
        self.args.is_empty()
    }
}

/// Maximum distinct access shapes kept per argument before the summary
/// degrades to `complete = false`.
pub(crate) const MAX_PATTERNS: usize = 16;
