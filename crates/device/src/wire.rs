//! Launch geometry and cost cross the wire as plain messages
//! ([`WireNdRange`], [`WireCost`]) and are computed with as model types
//! ([`NdRange`], [`CostModel`]). The host converts one way when it packs
//! a launch, the node the other way when it runs one; both directions
//! are written down here and nowhere else.

use haocl_kernel::{CostModel, NdRange};
use haocl_proto::messages::{WireCost, WireNdRange};

/// The wire form of a launch geometry.
pub fn range_to_wire(range: &NdRange) -> WireNdRange {
    WireNdRange {
        work_dim: range.work_dim,
        global: range.global,
        local: range.local,
    }
}

/// The launch geometry a wire message describes.
pub fn range_from_wire(wire: &WireNdRange) -> NdRange {
    NdRange {
        work_dim: wire.work_dim,
        global: wire.global,
        local: wire.local,
    }
}

/// The wire form of a cost model.
pub fn cost_to_wire(cost: &CostModel) -> WireCost {
    WireCost {
        flops: cost.total_flops(),
        bytes_read: cost.total_bytes_read(),
        bytes_written: cost.total_bytes_written(),
        uniform: cost.is_uniform(),
        streaming: cost.is_streaming(),
    }
}

/// The cost model a wire message describes. Negative totals (which a
/// well-formed sender never produces) are clamped to zero rather than
/// tripping [`CostModel`]'s setters.
pub fn cost_from_wire(wire: &WireCost) -> CostModel {
    let mut cost = CostModel::new()
        .flops(wire.flops.max(0.0))
        .bytes_read(wire.bytes_read.max(0.0))
        .bytes_written(wire.bytes_written.max(0.0));
    if !wire.uniform {
        cost = cost.divergent();
    }
    if wire.streaming {
        cost = cost.streaming();
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_inverse() {
        let range = NdRange {
            work_dim: 2,
            global: [64, 32, 1],
            local: [8, 4, 1],
        };
        assert_eq!(range_from_wire(&range_to_wire(&range)), range);
        let cost = CostModel::new()
            .flops(2e9)
            .bytes_read(1e6)
            .bytes_written(5e5)
            .divergent()
            .streaming();
        assert_eq!(cost_from_wire(&cost_to_wire(&cost)), cost);
        assert_eq!(
            cost_from_wire(&cost_to_wire(&CostModel::new())),
            CostModel::new()
        );
    }

    #[test]
    fn negative_wire_totals_clamp_to_zero() {
        let cost = cost_from_wire(&WireCost {
            flops: -1.0,
            bytes_read: -2.0,
            bytes_written: 3.0,
            uniform: true,
            streaming: false,
        });
        assert_eq!(cost, CostModel::new().bytes_written(3.0));
    }
}
