//! The simulated device: timeline, execution, profiling.

use std::collections::{HashMap, HashSet};
use std::fmt;

use haocl_kernel::{ArgValue, CompiledKernel, CostModel, ExecError, NdRange};
use haocl_proto::ids::{BufferId, ProgramId};
use haocl_proto::messages::{DeviceDescriptor, Fidelity, ProfileEntry, WireArg};
use haocl_proto::Bytes;
use haocl_sim::{Grant, Resource, SimDuration, SimTime};

use crate::memory::{LaunchBuffers, MemoryError, MemoryManager};
use crate::model::DeviceModel;

/// A failure on the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// A buffer-store failure.
    Memory(MemoryError),
    /// A kernel execution failure.
    Exec(String),
    /// The operation is not supported by this device class (e.g. online
    /// compilation on an FPGA).
    NotSupported(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Memory(e) => write!(f, "device memory error: {e}"),
            DeviceError::Exec(msg) => write!(f, "kernel execution error: {msg}"),
            DeviceError::NotSupported(msg) => write!(f, "unsupported operation: {msg}"),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemoryError> for DeviceError {
    fn from(e: MemoryError) -> Self {
        DeviceError::Memory(e)
    }
}

impl From<ExecError> for DeviceError {
    fn from(e: ExecError) -> Self {
        DeviceError::Exec(e.message().to_string())
    }
}

/// The result of one admitted kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchOutcome {
    /// When the launch ran on the device timeline.
    pub grant: Grant,
    /// Bytecode instructions retired (0 in modeled fidelity).
    pub instructions: u64,
}

/// One kernel of a dispatch (see [`SimDevice::launch`]).
#[derive(Debug, Clone, Copy)]
pub struct LaunchPart<'a> {
    /// The kernel to run.
    pub kernel: &'a CompiledKernel,
    /// Bound arguments, in parameter order.
    pub args: &'a [WireArg],
    /// Launch geometry.
    pub range: NdRange,
    /// Device-independent cost (for virtual timing).
    pub cost: CostModel,
}

#[derive(Debug, Clone, Default)]
struct KernelProfile {
    runs: u64,
    total: SimDuration,
}

/// One simulated device: a performance model, a buffer store, a serialized
/// execution timeline and a per-kernel profile.
///
/// All timing is virtual; kernels still execute for real in
/// [`Fidelity::Full`] so results are verifiable.
#[derive(Debug)]
pub struct SimDevice {
    model: DeviceModel,
    memory: MemoryManager,
    timeline: Resource,
    profile: HashMap<String, KernelProfile>,
    loaded_programs: HashSet<ProgramId>,
    /// Lists a full-fidelity launch fills and empties again, kept for
    /// their storage.
    scratch: LaunchScratch,
}

#[derive(Debug, Default)]
struct LaunchScratch {
    /// The buffer handles among a launch's arguments.
    buffer_ids: Vec<BufferId>,
    /// The arguments as the kernel takes them.
    args: Vec<ArgValue>,
    /// The backing stores checked out for the run.
    taken: LaunchBuffers,
}

impl SimDevice {
    /// Creates an idle device from its model.
    pub fn new(model: DeviceModel) -> Self {
        let capacity = model.mem_bytes;
        let name = model.name.clone();
        SimDevice {
            model,
            memory: MemoryManager::new(capacity),
            timeline: Resource::new(name),
            profile: HashMap::new(),
            loaded_programs: HashSet::new(),
            scratch: LaunchScratch::default(),
        }
    }

    /// The device's performance model.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// Injects (or lifts, with `1.0`) a degradation multiplier on every
    /// subsequent kernel time — the simulator-side lever behind the
    /// `SetThrottle` control call. Clamped to ≥ 1.0; already-queued work
    /// is not retimed.
    pub fn set_throttle(&mut self, factor: f64) {
        self.model.throttle = factor.max(1.0);
    }

    /// The wire descriptor for this device at `index`.
    pub fn descriptor(&self, index: u8) -> DeviceDescriptor {
        self.model.descriptor(index)
    }

    /// The buffer store (for inspection).
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    /// Total busy time on the execution timeline.
    pub fn busy_time(&self) -> SimDuration {
        self.timeline.busy_time()
    }

    /// The instant this device becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.timeline.busy_until()
    }

    /// Allocates buffer `id` of `size` bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryError`] (duplicate handle / out of memory).
    pub fn alloc_buffer(&mut self, id: BufferId, size: u64) -> Result<(), DeviceError> {
        Ok(self.memory.alloc(id, size)?)
    }

    /// Releases buffer `id`.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryError::UnknownBuffer`].
    pub fn free_buffer(&mut self, id: BufferId) -> Result<(), DeviceError> {
        Ok(self.memory.free(id)?)
    }

    /// Writes host data into a device buffer, charging the PCIe transfer
    /// on the device timeline.
    ///
    /// # Errors
    ///
    /// Propagates buffer-store failures.
    pub fn write_buffer(
        &mut self,
        id: BufferId,
        offset: u64,
        data: &[u8],
        at: SimTime,
    ) -> Result<Grant, DeviceError> {
        self.memory.write(id, offset, data)?;
        let dur = self.model.transfer_time(data.len() as u64);
        Ok(self.timeline.acquire(at, dur))
    }

    /// Reads a device buffer back to the host, charging the PCIe transfer.
    /// The bytes are a view of device memory (see
    /// [`MemoryManager::read`]).
    ///
    /// # Errors
    ///
    /// Propagates buffer-store failures.
    pub fn read_buffer(
        &mut self,
        id: BufferId,
        offset: u64,
        len: u64,
        at: SimTime,
    ) -> Result<(Bytes, Grant), DeviceError> {
        let data = self.memory.read(id, offset, len)?;
        let dur = self.model.transfer_time(len);
        let grant = self.timeline.acquire(at, dur);
        Ok((data, grant))
    }

    /// Allocates a *virtual* buffer: capacity accounting only, no backing
    /// bytes (paper-scale modeled runs).
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryError`] (duplicate handle / out of memory).
    pub fn alloc_buffer_modeled(&mut self, id: BufferId, size: u64) -> Result<(), DeviceError> {
        Ok(self.memory.alloc_virtual(id, size)?)
    }

    /// Charges a host↔device transfer of `len` bytes at `[offset,
    /// offset+len)` of buffer `id` without moving data (modeled
    /// transfers; works for both real and virtual buffers).
    ///
    /// # Errors
    ///
    /// Propagates buffer-store failures (unknown buffer, out-of-bounds).
    pub fn transfer_modeled(
        &mut self,
        id: BufferId,
        offset: u64,
        len: u64,
        at: SimTime,
    ) -> Result<Grant, DeviceError> {
        let size = self.memory.size_of(id)?;
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(DeviceError::Memory(MemoryError::OutOfBounds {
                buffer: id,
                offset,
                len,
                size,
            }));
        }
        let dur = self.model.transfer_time(len);
        Ok(self.timeline.acquire(at, dur))
    }

    /// Copies between two device buffers, charging device-memory traffic.
    ///
    /// # Errors
    ///
    /// Propagates buffer-store failures.
    pub fn copy_buffer(
        &mut self,
        src: BufferId,
        dst: BufferId,
        src_offset: u64,
        dst_offset: u64,
        len: u64,
        at: SimTime,
    ) -> Result<Grant, DeviceError> {
        self.memory.copy(src, dst, src_offset, dst_offset, len)?;
        // On-device copy moves 2·len bytes through device memory.
        let secs = if self.model.mem_bandwidth > 0.0 {
            (2 * len) as f64 / self.model.mem_bandwidth
        } else {
            0.0
        };
        Ok(self.timeline.acquire(at, SimDuration::from_secs_f64(secs)))
    }

    /// Records that `program` is resident, charging FPGA reconfiguration
    /// the first time a given program is loaded.
    pub fn note_program_loaded(&mut self, program: ProgramId, at: SimTime) -> Grant {
        let first_load = self.loaded_programs.insert(program);
        let dur = if first_load {
            self.model.reconfig_time
        } else {
            SimDuration::ZERO
        };
        self.timeline.acquire(at, dur)
    }

    /// Runs one dispatch at virtual time `at`: a lone kernel, or a
    /// prover-approved chain executed back-to-back under one device
    /// grant.
    ///
    /// In [`Fidelity::Full`] the kernels execute, in order, against this
    /// device's buffers; in [`Fidelity::Modeled`] only the cost model is
    /// charged. Either way the duration on the timeline comes from the
    /// model — the parts' modeled durations summed into a single grant —
    /// so both fidelities produce identical virtual timing. Every part
    /// gets its own profile row.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] for unknown buffers, argument mismatches or
    /// kernel runtime failures. A failing part aborts the chain before
    /// anything is charged (earlier parts' writes remain, matching a
    /// device fault mid-command).
    pub fn launch(
        &mut self,
        parts: &[LaunchPart<'_>],
        fidelity: Fidelity,
        at: SimTime,
    ) -> Result<LaunchOutcome, DeviceError> {
        let mut instructions = 0;
        if fidelity == Fidelity::Full {
            for p in parts {
                instructions += self.execute_full(p.kernel, p.args, &p.range)?;
            }
        }
        let mut total = SimDuration::ZERO;
        for p in parts {
            let dur = self.model.kernel_time(&p.cost);
            total += dur;
            match self.profile.get_mut(&p.kernel.name) {
                Some(row) => {
                    row.runs += 1;
                    row.total += dur;
                }
                // Only a kernel's first run needs an owned key.
                None => {
                    let first = KernelProfile {
                        runs: 1,
                        total: dur,
                    };
                    self.profile.insert(p.kernel.name.clone(), first);
                }
            }
        }
        let grant = self.timeline.acquire(at, total);
        Ok(LaunchOutcome {
            grant,
            instructions,
        })
    }

    /// Runs one kernel body against this device's buffers, returning the
    /// instructions retired (the full-fidelity core of a launch).
    fn execute_full(
        &mut self,
        kernel: &CompiledKernel,
        args: &[WireArg],
        range: &NdRange,
    ) -> Result<u64, DeviceError> {
        let LaunchScratch {
            buffer_ids,
            args: resolved,
            taken,
        } = &mut self.scratch;
        // Gather the buffer handles referenced by the arguments.
        buffer_ids.clear();
        buffer_ids.extend(args.iter().filter_map(|a| match a {
            WireArg::Buffer(id) => Some(*id),
            _ => None,
        }));
        self.memory.take_for_launch(buffer_ids, taken)?;
        let mut slot_iter = taken.slots.iter();
        resolved.clear();
        resolved.extend(args.iter().map(|a| match a {
            WireArg::F32(v) => ArgValue::from_f32(*v),
            WireArg::F64(v) => ArgValue::from_f64(*v),
            WireArg::I32(v) => ArgValue::from_i32(*v),
            WireArg::U32(v) => ArgValue::from_u32(*v),
            WireArg::I64(v) => ArgValue::from_i64(*v),
            WireArg::U64(v) => ArgValue::from_u64(*v),
            WireArg::Buffer(_) => ArgValue::global(*slot_iter.next().expect("slot per buffer arg")),
            WireArg::LocalBytes(b) => ArgValue::local_bytes(*b as usize),
        }));
        let result = haocl_clc::vm::run_ndrange(kernel, resolved, &mut taken.buffers, range);
        self.memory.restore(taken);
        Ok(result?.instructions)
    }

    /// The per-kernel profile rows this device reports to the runtime
    /// monitor, sorted by kernel name.
    pub fn profile_entries(&self, device_index: u8) -> Vec<ProfileEntry> {
        let mut entries: Vec<ProfileEntry> = self
            .profile
            .iter()
            .map(|(kernel, p)| ProfileEntry {
                device: device_index,
                kernel: kernel.clone(),
                runs: p.runs,
                mean_nanos: p.total.as_nanos().checked_div(p.runs).unwrap_or(0),
                busy_nanos: self.timeline.busy_time().as_nanos(),
            })
            .collect();
        entries.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn compiled(src: &str, name: &str) -> CompiledKernel {
        let p = haocl_clc::compile(src).unwrap();
        p.kernel(name).unwrap().clone()
    }

    fn gpu() -> SimDevice {
        SimDevice::new(presets::tesla_p4())
    }

    /// A one-kernel dispatch.
    fn one<'a>(
        kernel: &'a CompiledKernel,
        args: &'a [WireArg],
        range: NdRange,
        cost: CostModel,
    ) -> [LaunchPart<'a>; 1] {
        [LaunchPart {
            kernel,
            args,
            range,
            cost,
        }]
    }

    #[test]
    fn full_fidelity_launch_mutates_buffers() {
        let mut dev = gpu();
        let buf = BufferId::new(1);
        dev.alloc_buffer(buf, 16).unwrap();
        let data: Vec<u8> = [1.0f32, 2.0, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        dev.write_buffer(buf, 0, &data, SimTime::ZERO).unwrap();
        let k = compiled(
            "__kernel void dbl(__global float* a) { int i = get_global_id(0); a[i] = a[i] * 2.0f; }",
            "dbl",
        );
        let cost = CostModel::new()
            .flops(4.0)
            .bytes_read(16.0)
            .bytes_written(16.0);
        let out = dev
            .launch(
                &one(&k, &[WireArg::Buffer(buf)], NdRange::linear(4, 1), cost),
                Fidelity::Full,
                SimTime::ZERO,
            )
            .unwrap();
        assert!(out.instructions > 0);
        let (bytes, _) = dev.read_buffer(buf, 0, 16, SimTime::ZERO).unwrap();
        let vals: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn modeled_fidelity_charges_time_without_touching_buffers() {
        let mut dev = gpu();
        let buf = BufferId::new(1);
        dev.alloc_buffer(buf, 16).unwrap();
        let k = compiled(
            "__kernel void dbl(__global float* a) { int i = get_global_id(0); a[i] = a[i] * 2.0f; }",
            "dbl",
        );
        let cost = CostModel::new().flops(1e9);
        let out = dev
            .launch(
                &one(&k, &[WireArg::Buffer(buf)], NdRange::linear(4, 1), cost),
                Fidelity::Modeled,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(out.instructions, 0);
        assert!(out.grant.service() > SimDuration::ZERO);
        // Buffer untouched (still zeroed).
        let (bytes, _) = dev.read_buffer(buf, 0, 16, SimTime::ZERO).unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn both_fidelities_charge_identical_virtual_time() {
        let k = compiled(
            "__kernel void nop(__global float* a) { int i = get_global_id(0); a[i] = a[i]; }",
            "nop",
        );
        let cost = CostModel::new().flops(1e8).bytes_read(1e6);
        let time_for = |fid: Fidelity| {
            let mut dev = gpu();
            dev.alloc_buffer(BufferId::new(1), 64).unwrap();
            let out = dev
                .launch(
                    &one(
                        &k,
                        &[WireArg::Buffer(BufferId::new(1))],
                        NdRange::linear(16, 1),
                        cost,
                    ),
                    fid,
                    SimTime::ZERO,
                )
                .unwrap();
            out.grant.service()
        };
        assert_eq!(time_for(Fidelity::Full), time_for(Fidelity::Modeled));
    }

    #[test]
    fn launches_serialize_on_the_timeline() {
        let mut dev = gpu();
        dev.alloc_buffer(BufferId::new(1), 64).unwrap();
        let k = compiled(
            "__kernel void nop(__global float* a) { a[0] = 1.0f; }",
            "nop",
        );
        let cost = CostModel::new().flops(1e9);
        let args = [WireArg::Buffer(BufferId::new(1))];
        let r = NdRange::linear(1, 1);
        let a = dev
            .launch(&one(&k, &args, r, cost), Fidelity::Modeled, SimTime::ZERO)
            .unwrap();
        let b = dev
            .launch(&one(&k, &args, r, cost), Fidelity::Modeled, SimTime::ZERO)
            .unwrap();
        assert_eq!(b.grant.start, a.grant.end);
    }

    #[test]
    fn a_chain_runs_in_order_under_one_grant_with_a_profile_row_per_part() {
        let buf = BufferId::new(1);
        let args = [WireArg::Buffer(buf)];
        let inc = compiled(
            "__kernel void inc(__global int* a) { a[get_global_id(0)] += 1; }",
            "inc",
        );
        let dbl = compiled(
            "__kernel void dbl(__global int* a) { a[get_global_id(0)] *= 2; }",
            "dbl",
        );
        let range = NdRange::linear(2, 1);
        let (inc_cost, dbl_cost) = (CostModel::new().flops(1e9), CostModel::new().flops(3e9));
        let chain = [
            one(&inc, &args, range, inc_cost)[0],
            one(&dbl, &args, range, dbl_cost)[0],
        ];
        let mut dev = gpu();
        dev.alloc_buffer(buf, 8).unwrap();
        let out = dev.launch(&chain, Fidelity::Full, SimTime::ZERO).unwrap();
        // One grant as long as the two launches made one after the other…
        let mut apart = gpu();
        let first = apart
            .launch(&chain[..1], Fidelity::Modeled, SimTime::ZERO)
            .unwrap();
        let second = apart
            .launch(&chain[1..], Fidelity::Modeled, SimTime::ZERO)
            .unwrap();
        assert_eq!(out.grant.start, first.grant.start);
        assert_eq!(out.grant.end, second.grant.end);
        // …and the same profile rows.
        assert_eq!(dev.profile_entries(0), apart.profile_entries(0));
        assert_eq!(dev.profile_entries(0).len(), 2);
        // (0 + 1) * 2, not 0 * 2 + 1: program order.
        let (bytes, _) = dev.read_buffer(buf, 0, 8, SimTime::ZERO).unwrap();
        assert_eq!(bytes, [2, 0, 0, 0, 2, 0, 0, 0]);
    }

    #[test]
    fn a_failing_part_aborts_the_chain_before_anything_is_charged() {
        let args = [WireArg::Buffer(BufferId::new(1))];
        let ok = compiled("__kernel void ok(__global int* a) { a[0] = 7; }", "ok");
        let bad = compiled(
            "__kernel void bad(__global int* a) { a[0] = a[99]; }",
            "bad",
        );
        let range = NdRange::linear(1, 1);
        let cost = CostModel::new().flops(1e9);
        let chain = [
            one(&ok, &args, range, cost)[0],
            one(&bad, &args, range, cost)[0],
        ];
        let mut dev = gpu();
        dev.alloc_buffer(BufferId::new(1), 4).unwrap();
        let err = dev
            .launch(&chain, Fidelity::Full, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, DeviceError::Exec(_)));
        assert_eq!(dev.busy_time(), SimDuration::ZERO);
        assert!(dev.profile_entries(0).is_empty());
        // The part that ran did write, as a device fault mid-command would leave it.
        let (bytes, _) = dev
            .read_buffer(BufferId::new(1), 0, 4, SimTime::ZERO)
            .unwrap();
        assert_eq!(bytes, [7, 0, 0, 0]);
    }

    #[test]
    fn unknown_buffer_argument_fails() {
        let mut dev = gpu();
        let k = compiled("__kernel void f(__global float* a) { a[0] = 1.0f; }", "f");
        let err = dev
            .launch(
                &one(
                    &k,
                    &[WireArg::Buffer(BufferId::new(404))],
                    NdRange::linear(1, 1),
                    CostModel::new(),
                ),
                Fidelity::Full,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            DeviceError::Memory(MemoryError::UnknownBuffer(_))
        ));
    }

    #[test]
    fn failed_launch_restores_buffers() {
        let mut dev = gpu();
        dev.alloc_buffer(BufferId::new(1), 4).unwrap();
        // Kernel reads out of bounds → exec error; buffer must survive.
        let k = compiled("__kernel void f(__global int* a) { a[0] = a[99]; }", "f");
        let err = dev
            .launch(
                &one(
                    &k,
                    &[WireArg::Buffer(BufferId::new(1))],
                    NdRange::linear(1, 1),
                    CostModel::new(),
                ),
                Fidelity::Full,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, DeviceError::Exec(_)));
        assert!(dev.memory().contains(BufferId::new(1)));
    }

    #[test]
    fn same_buffer_twice_resolves_to_one_binding() {
        let mut dev = gpu();
        dev.alloc_buffer(BufferId::new(1), 8).unwrap();
        let k = compiled(
            "__kernel void f(__global int* a, __global int* b) { a[0] = 7; b[1] = a[0]; }",
            "f",
        );
        dev.launch(
            &one(
                &k,
                &[
                    WireArg::Buffer(BufferId::new(1)),
                    WireArg::Buffer(BufferId::new(1)),
                ],
                NdRange::linear(1, 1),
                CostModel::new(),
            ),
            Fidelity::Full,
            SimTime::ZERO,
        )
        .unwrap();
        let (bytes, _) = dev
            .read_buffer(BufferId::new(1), 0, 8, SimTime::ZERO)
            .unwrap();
        let vals: Vec<i32> = bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![7, 7]);
    }

    #[test]
    fn fpga_reconfiguration_charged_once_per_program() {
        let mut dev = SimDevice::new(presets::vu9p());
        let p = ProgramId::new(1);
        let first = dev.note_program_loaded(p, SimTime::ZERO);
        assert_eq!(first.service(), presets::vu9p().reconfig_time);
        let again = dev.note_program_loaded(p, SimTime::ZERO);
        assert_eq!(again.service(), SimDuration::ZERO);
        let other = dev.note_program_loaded(ProgramId::new(2), SimTime::ZERO);
        assert_eq!(other.service(), presets::vu9p().reconfig_time);
    }

    #[test]
    fn profile_records_runs_and_mean() {
        let mut dev = gpu();
        dev.alloc_buffer(BufferId::new(1), 4).unwrap();
        let k = compiled("__kernel void f(__global int* a) { a[0] = 1; }", "f");
        let cost = CostModel::new().flops(1e9);
        for _ in 0..3 {
            dev.launch(
                &one(
                    &k,
                    &[WireArg::Buffer(BufferId::new(1))],
                    NdRange::linear(1, 1),
                    cost,
                ),
                Fidelity::Modeled,
                SimTime::ZERO,
            )
            .unwrap();
        }
        let entries = dev.profile_entries(0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].runs, 3);
        assert!(entries[0].mean_nanos > 0);
    }

    #[test]
    fn transfers_charge_pcie_time() {
        let mut dev = gpu();
        dev.alloc_buffer(BufferId::new(1), 1 << 20).unwrap();
        let data = vec![0u8; 1 << 20];
        let g = dev
            .write_buffer(BufferId::new(1), 0, &data, SimTime::ZERO)
            .unwrap();
        let expect = presets::tesla_p4().transfer_time(1 << 20);
        assert_eq!(g.service(), expect);
    }
}
