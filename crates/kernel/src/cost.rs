//! Launch cost models.
//!
//! A [`CostModel`] describes a whole kernel launch in device-independent
//! terms — floating-point work, memory traffic, and the structural traits
//! (uniformity, streamability) that decide how well each device class
//! digests it. `haocl-device` converts a cost model into virtual seconds
//! using its per-device rates; `haocl-sched`'s heterogeneity-aware policy
//! compares the conversions across device classes to place work.

/// Device-independent cost of one kernel launch.
///
/// # Examples
///
/// ```
/// use haocl_kernel::CostModel;
///
/// // 1024×1024 single-precision matrix multiply.
/// let n = 1024_f64;
/// let cost = CostModel::new()
///     .flops(2.0 * n * n * n)
///     .bytes_read(3.0 * 4.0 * n * n)
///     .bytes_written(4.0 * n * n);
/// assert!(cost.arithmetic_intensity() > 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    flops: f64,
    bytes_read: f64,
    bytes_written: f64,
    uniform: bool,
    streaming: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            flops: 0.0,
            bytes_read: 0.0,
            bytes_written: 0.0,
            uniform: true,
            streaming: false,
        }
    }
}

impl CostModel {
    /// An empty cost model (zero work, uniform, non-streaming).
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Sets total floating-point operations for the launch.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is negative or not finite.
    pub fn flops(mut self, flops: f64) -> Self {
        assert!(flops.is_finite() && flops >= 0.0, "flops must be >= 0");
        self.flops = flops;
        self
    }

    /// Sets total bytes read from global memory.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    pub fn bytes_read(mut self, bytes: f64) -> Self {
        assert!(bytes.is_finite() && bytes >= 0.0, "bytes must be >= 0");
        self.bytes_read = bytes;
        self
    }

    /// Sets total bytes written to global memory.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    pub fn bytes_written(mut self, bytes: f64) -> Self {
        assert!(bytes.is_finite() && bytes >= 0.0, "bytes must be >= 0");
        self.bytes_written = bytes;
        self
    }

    /// Marks the launch as control/data-divergent (GPU-unfriendly), e.g.
    /// irregular graph traversal.
    pub fn divergent(mut self) -> Self {
        self.uniform = false;
        self
    }

    /// Marks the launch as a sequential streaming pass (FPGA-friendly).
    pub fn streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Total floating-point operations.
    pub fn total_flops(&self) -> f64 {
        self.flops
    }

    /// Total bytes read.
    pub fn total_bytes_read(&self) -> f64 {
        self.bytes_read
    }

    /// Total bytes written.
    pub fn total_bytes_written(&self) -> f64 {
        self.bytes_written
    }

    /// Total memory traffic (read + written).
    pub fn total_bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Whether control flow and memory access are regular across items.
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// Whether the access pattern is a sequential stream.
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// FLOPs per byte of memory traffic (∞-safe: returns `f64::INFINITY`
    /// for pure-compute launches, `0.0` for empty ones).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes == 0.0 {
            if self.flops == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.flops / bytes
        }
    }

    /// Splits the launch into `parts` equal shares (for data-parallel
    /// partitioning across devices).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn split(&self, parts: u32) -> CostModel {
        assert!(parts > 0, "cannot split into zero parts");
        CostModel {
            flops: self.flops / f64::from(parts),
            bytes_read: self.bytes_read / f64::from(parts),
            bytes_written: self.bytes_written / f64::from(parts),
            uniform: self.uniform,
            streaming: self.streaming,
        }
    }

    /// The cost of running this launch and then `next` as one dispatch:
    /// work and traffic add up, and the pair keeps a structural trait
    /// only if both halves have it.
    pub fn then(&self, next: &CostModel) -> CostModel {
        CostModel {
            flops: self.flops + next.flops,
            bytes_read: self.bytes_read + next.bytes_read,
            bytes_written: self.bytes_written + next.bytes_written,
            uniform: self.uniform && next.uniform,
            streaming: self.streaming && next.streaming,
        }
    }

    /// Scales the model by a factor (for partial ranges).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(&self, factor: f64) -> CostModel {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be >= 0"
        );
        CostModel {
            flops: self.flops * factor,
            bytes_read: self.bytes_read * factor,
            bytes_written: self.bytes_written * factor,
            uniform: self.uniform,
            streaming: self.streaming,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let c = CostModel::new()
            .flops(100.0)
            .bytes_read(40.0)
            .bytes_written(10.0)
            .divergent()
            .streaming();
        assert_eq!(c.total_flops(), 100.0);
        assert_eq!(c.total_bytes(), 50.0);
        assert!(!c.is_uniform());
        assert!(c.is_streaming());
        assert!((c.arithmetic_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn intensity_edge_cases() {
        assert_eq!(CostModel::new().arithmetic_intensity(), 0.0);
        assert_eq!(
            CostModel::new().flops(5.0).arithmetic_intensity(),
            f64::INFINITY
        );
    }

    #[test]
    fn split_divides_work() {
        let c = CostModel::new().flops(100.0).bytes_read(60.0).split(4);
        assert_eq!(c.total_flops(), 25.0);
        assert_eq!(c.total_bytes_read(), 15.0);
    }

    #[test]
    fn then_adds_work_and_keeps_shared_traits() {
        let stream = CostModel::new().flops(8.0).bytes_read(4.0).streaming();
        let branchy = CostModel::new()
            .flops(2.0)
            .bytes_written(6.0)
            .streaming()
            .divergent();
        let both = stream.then(&branchy);
        assert_eq!(both.total_flops(), 10.0);
        assert_eq!(both.total_bytes_read(), 4.0);
        assert_eq!(both.total_bytes_written(), 6.0);
        assert!(both.is_streaming());
        assert!(!both.is_uniform());
        assert!(!stream.then(&CostModel::new()).is_streaming());
    }

    #[test]
    fn scale_multiplies() {
        let c = CostModel::new().flops(8.0).scale(0.5);
        assert_eq!(c.total_flops(), 4.0);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn split_zero_panics() {
        let _ = CostModel::new().split(0);
    }

    #[test]
    #[should_panic(expected = "flops must be")]
    fn negative_flops_panics() {
        let _ = CostModel::new().flops(-1.0);
    }
}
