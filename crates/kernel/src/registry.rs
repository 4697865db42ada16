//! The pre-built kernel store ("bitstream registry").
//!
//! FPGA nodes in the paper cannot compile arbitrary OpenCL source online;
//! their kernels arrive as pre-built bitstreams (§III-D). The
//! [`KernelRegistry`] models that store: an application's own OpenCL C is
//! compiled once, at deployment time, and its kernels are looked up by
//! name when a node loads a bitstream. A program built from source never
//! consults the store.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{ClcError, CompiledKernel};

/// A thread-safe, shareable store of pre-built kernels keyed by name.
///
/// Cloning is cheap and clones share the same underlying store.
///
/// # Examples
///
/// ```
/// use haocl_kernel::KernelRegistry;
///
/// let registry = KernelRegistry::new();
/// assert!(registry.get("matmul").is_none());
/// registry.register_source("__kernel void matmul(__global float* c) { c[0] = 1.0f; }")?;
/// assert_eq!(registry.names(), vec!["matmul"]);
/// # Ok::<(), haocl_kernel::ClcError>(())
/// ```
#[derive(Clone, Default)]
pub struct KernelRegistry {
    inner: Arc<RwLock<HashMap<String, Arc<CompiledKernel>>>>,
}

impl KernelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        KernelRegistry::default()
    }

    /// Compiles an OpenCL C program and stores every kernel it defines
    /// under its own name, replacing any kernel already stored there.
    ///
    /// # Errors
    ///
    /// Returns the [`ClcError`] of a failed compile; the store is then
    /// left unchanged.
    pub fn register_source(&self, source: &str) -> Result<(), ClcError> {
        let program = haocl_clc::compile(source)?;
        let mut store = self.inner.write();
        for kernel in program.kernels() {
            store.insert(kernel.name.clone(), Arc::new(kernel.clone()));
        }
        Ok(())
    }

    /// Looks up a kernel by name.
    pub fn get(&self, name: &str) -> Option<Arc<CompiledKernel>> {
        self.inner.read().get(name).cloned()
    }

    /// Registered kernel names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().keys().cloned().collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelRegistry")
            .field("kernels", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgValue, GlobalBuffer, NdRange};

    #[test]
    fn registering_compiles_every_kernel_of_the_program() {
        let r = KernelRegistry::new();
        r.register_source(
            "__kernel void a(__global int* x) { x[0] = 1; }
             __kernel void b(__global int* x) { x[0] = 2; }",
        )
        .unwrap();
        assert_eq!(r.names(), vec!["a", "b"]);
        let b = r.get("b").unwrap();
        assert_eq!(b.name, "b");
        let mut bufs = vec![GlobalBuffer::from_i32(&[0])];
        haocl_clc::vm::run_ndrange(
            &b,
            &[ArgValue::global(0)],
            &mut bufs,
            &NdRange::linear(1, 1),
        )
        .unwrap();
        assert_eq!(bufs[0].as_i32(), vec![2]);
    }

    #[test]
    fn a_later_program_replaces_a_kernel_of_the_same_name() {
        let r = KernelRegistry::new();
        r.register_source("__kernel void k(__global int* x) { x[0] = 1; }")
            .unwrap();
        r.register_source("__kernel void k(__global int* x, int v) { x[0] = v; }")
            .unwrap();
        assert_eq!(r.names(), vec!["k"]);
        assert_eq!(r.get("k").unwrap().arity(), 2);
    }

    #[test]
    fn a_failed_compile_leaves_the_store_unchanged() {
        let r = KernelRegistry::new();
        r.register_source("__kernel void k(__global int* x) { x[0] = 1; }")
            .unwrap();
        assert!(r.register_source("__kernel void k( {").is_err());
        assert_eq!(r.get("k").unwrap().arity(), 1);
    }

    #[test]
    fn clones_share_storage() {
        let r = KernelRegistry::new();
        let r2 = r.clone();
        r.register_source("__kernel void shared(__global int* x) { x[0] = 1; }")
            .unwrap();
        assert!(r2.get("shared").is_some());
        assert!(r2.get("missing").is_none());
    }
}
