//! Driver plumbing shared by the workload modules.

use haocl::platform::Device;
use haocl::{Buffer, CommandQueue, Context, Error, MemFlags};
use haocl_kernel::CostModel;
use haocl_sched::policy::estimate_time;
use haocl_sched::{DeviceView, TaskSpec};

/// Per-device throughput weights for `unit_cost` (the work of one data
/// unit): faster devices get proportionally more rows/records/cells.
/// This is the heterogeneity-aware split of §IV-C — the same kernel on
/// every device, portions sized to the device.
pub(crate) fn throughput_weights(devices: &[Device], unit_cost: &CostModel) -> Vec<f64> {
    devices
        .iter()
        .map(|d| {
            let view =
                DeviceView::from_descriptor(d.node_id(), d.node_name().into(), d.descriptor());
            let task = TaskSpec::new("unit").cost(*unit_cost);
            let secs = estimate_time(&task, &view).as_secs_f64();
            if secs > 0.0 {
                1.0 / secs
            } else {
                1.0
            }
        })
        .collect()
}

/// Rounds `n` up to the next multiple of `m`.
pub(crate) fn round_up(n: u64, m: u64) -> u64 {
    n.div_ceil(m) * m
}

/// Creates a real or modeled buffer according to `full`.
pub(crate) fn create_buffer(
    ctx: &Context,
    flags: MemFlags,
    bytes: u64,
    full: bool,
) -> Result<Buffer, Error> {
    if full {
        Buffer::new(ctx, flags, bytes)
    } else {
        Buffer::new_modeled(ctx, flags, bytes)
    }
}

/// Writes `data` (full) or charges a modeled transfer of `len` bytes.
pub(crate) fn write_buffer(
    queue: &CommandQueue,
    buf: &Buffer,
    data: &[u8],
    len: u64,
    full: bool,
) -> Result<(), Error> {
    if full {
        debug_assert_eq!(data.len() as u64, len);
        queue.enqueue_write_buffer(buf, 0, data)?;
    } else {
        queue.enqueue_write_buffer_modeled(buf, 0, len)?;
    }
    Ok(())
}

/// Reads `len` bytes back (full) or charges a modeled pull; returns the
/// data only in full fidelity.
pub(crate) fn read_buffer(
    queue: &CommandQueue,
    buf: &Buffer,
    len: u64,
    full: bool,
) -> Result<Option<Vec<u8>>, Error> {
    if full {
        let mut out = vec![0u8; len as usize];
        queue.enqueue_read_buffer(buf, 0, &mut out)?;
        Ok(Some(out))
    } else {
        queue.enqueue_read_buffer_modeled(buf, 0, len)?;
        Ok(None)
    }
}

/// Charges a broadcast of the full `bytes` input to every device
/// (SnuCL-D-style replicated data placement). The scratch buffers are
/// modeled: only virtual transfer time is charged, in both fidelities.
pub(crate) fn charge_replication(
    ctx: &Context,
    queues: &[CommandQueue],
    bytes: u64,
) -> Result<(), Error> {
    if bytes == 0 {
        return Ok(());
    }
    for q in queues {
        let scratch = Buffer::new_modeled(ctx, MemFlags::READ_ONLY, bytes)?;
        q.enqueue_write_buffer_modeled(&scratch, 0, bytes)?;
    }
    Ok(())
}

/// Little-endian reinterpretations between scalar vectors and bytes.
macro_rules! bytes_conv {
    ($to:ident, $from:ident, $t:ty) => {
        pub(crate) fn $to(values: &[$t]) -> Vec<u8> {
            values.iter().flat_map(|v| v.to_le_bytes()).collect()
        }

        pub(crate) fn $from(bytes: &[u8]) -> Vec<$t> {
            bytes
                .chunks_exact(std::mem::size_of::<$t>())
                .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunk size")))
                .collect()
        }
    };
}

bytes_conv!(f32s_to_bytes, bytes_to_f32s, f32);
bytes_conv!(i32s_to_bytes, bytes_to_i32s, i32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 16), 0);
        assert_eq!(round_up(1, 16), 16);
        assert_eq!(round_up(16, 16), 16);
        assert_eq!(round_up(17, 16), 32);
    }

    #[test]
    fn byte_conversions_roundtrip() {
        let xs = vec![1.5f32, -2.25, 0.0];
        assert_eq!(bytes_to_f32s(&f32s_to_bytes(&xs)), xs);
        let ys = vec![1i32, -7, i32::MAX];
        assert_eq!(bytes_to_i32s(&i32s_to_bytes(&ys)), ys);
    }
}
