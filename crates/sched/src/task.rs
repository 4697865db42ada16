//! The task descriptor: one kernel launch as the scheduler sees it.

use std::sync::Arc;

use haocl_kernel::CostModel;
use haocl_obs::default_tenant;
use haocl_proto::ids::{NodeId, UserId};

/// One kernel launch as the scheduler sees it.
///
/// Built with a fluent API; everything except the kernel name has
/// sensible defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Kernel name (profile key), shared with the placement's audit row.
    pub kernel: Arc<str>,
    /// Device-independent launch cost.
    pub cost: CostModel,
    /// The submitting user/session.
    pub user: UserId,
    /// The billing tenant's display name (audit/metric label); untagged
    /// launches bill the `"default"` tenant.
    pub tenant: Arc<str>,
    /// Whether a pre-built bitstream exists, making FPGA placement legal
    /// (§III-D: FPGAs run pre-built kernels only).
    pub fpga_eligible: bool,
    /// Explicit placement from the user (`(node, device_index)`), the
    /// paper's shipped user-directed mode.
    pub pinned: Option<(NodeId, u8)>,
    /// Total bytes of input buffers the launch reads. Compared against
    /// each candidate's [`crate::DeviceView::local_bytes`] so policies
    /// and the cost model charge real migration traffic per placement.
    pub input_bytes: u64,
}

impl TaskSpec {
    /// Creates a task for `kernel` with default cost and no constraints.
    pub fn new(kernel: impl Into<Arc<str>>) -> Self {
        TaskSpec {
            kernel: kernel.into(),
            cost: CostModel::new(),
            user: UserId::new(0),
            tenant: default_tenant(),
            fpga_eligible: false,
            pinned: None,
            input_bytes: 0,
        }
    }

    /// Sets the launch cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the submitting user.
    pub fn user(mut self, user: UserId) -> Self {
        self.user = user;
        self
    }

    /// Tags the billing tenant (audit/metric label).
    pub fn tenant(mut self, tenant: impl Into<Arc<str>>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Marks a pre-built bitstream as available.
    pub fn fpga_eligible(mut self, eligible: bool) -> Self {
        self.fpga_eligible = eligible;
        self
    }

    /// Pins the task to an explicit device (user-directed scheduling).
    pub fn pin(mut self, node: NodeId, device: u8) -> Self {
        self.pinned = Some((node, device));
        self
    }

    /// Declares how many bytes of input the launch reads (for
    /// locality-aware migration charging).
    pub fn input_bytes(mut self, bytes: u64) -> Self {
        self.input_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let t = TaskSpec::new("matmul")
            .cost(CostModel::new().flops(10.0))
            .user(UserId::new(3))
            .tenant("acme")
            .fpga_eligible(true)
            .pin(NodeId::new(1), 0)
            .input_bytes(4096);
        assert_eq!(&*t.kernel, "matmul");
        assert_eq!(t.cost.total_flops(), 10.0);
        assert_eq!(t.user, UserId::new(3));
        assert_eq!(&*t.tenant, "acme");
        assert_eq!(&*TaskSpec::new("k").tenant, "default");
        assert!(t.fpga_eligible);
        assert_eq!(t.pinned, Some((NodeId::new(1), 0)));
        assert_eq!(t.input_bytes, 4096);
    }
}
