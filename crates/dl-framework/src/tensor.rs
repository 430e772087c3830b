//! Metadata tensors.
//!
//! The profiler never needs tensor *values* — only shapes, dtypes, layouts
//! and device placement, which determine kernel work and the layout
//! conversions the §6.2 case study hinges on. [`TensorMeta`] carries
//! exactly that.

use std::fmt;

use sim_gpu::DeviceId;

/// Element data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit float.
    F32,
    /// 16-bit float.
    F16,
    /// 8-bit float (fp8 inference).
    F8,
    /// 64-bit int (indices).
    I64,
    /// 32-bit int.
    I32,
    /// Bool / mask.
    Bool,
}

impl DType {
    /// Bytes per element.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F16 => 2,
            DType::F8 | DType::Bool => 1,
            DType::I64 => 8,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::F8 => "f8",
            DType::I64 => "i64",
            DType::I32 => "i32",
            DType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// Memory layout of a 4-D activation tensor.
///
/// PyTorch defaults to `ChannelsFirst` (NCHW) while cuDNN prefers
/// `ChannelsLast` (NHWC); mismatches insert `nchwToNhwcKernel` conversions
/// (paper §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// NCHW, the PyTorch default.
    #[default]
    ChannelsFirst,
    /// NHWC, preferred by cuDNN/MIOpen convolution kernels.
    ChannelsLast,
    /// Plain contiguous layout for non-4D tensors.
    RowMajor,
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layout::ChannelsFirst => "channels_first",
            Layout::ChannelsLast => "channels_last",
            Layout::RowMajor => "row_major",
        };
        f.write_str(s)
    }
}

/// Shape/dtype/layout/placement description of a tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorMeta {
    /// Dimension sizes.
    pub shape: Vec<usize>,
    /// Element type.
    pub dtype: DType,
    /// Memory layout.
    pub layout: Layout,
    /// Device placement.
    pub device: DeviceId,
}

impl TensorMeta {
    /// Creates an f32, row-major tensor on device 0.
    pub fn new(shape: impl Into<Vec<usize>>) -> Self {
        TensorMeta {
            shape: shape.into(),
            dtype: DType::F32,
            layout: Layout::RowMajor,
            device: DeviceId(0),
        }
    }

    /// Sets the dtype.
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Sets the layout.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Total bytes.
    pub fn bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }
}

impl fmt::Display for TensorMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tensor{:?}:{}@{}({})",
            self.shape, self.dtype, self.device.0, self.layout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_bytes() {
        let t = TensorMeta::new([2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.bytes(), 96);
        let h = t.clone().with_dtype(DType::F16);
        assert_eq!(h.bytes(), 48);
    }

    #[test]
    fn empty_shape_is_scalar() {
        let t = TensorMeta::new(Vec::new());
        assert_eq!(t.numel(), 1);
        assert!(t.shape.is_empty());
    }

    #[test]
    fn builders_set_fields() {
        let t = TensorMeta::new([1, 3, 224, 224])
            .with_dtype(DType::F16)
            .with_layout(Layout::ChannelsLast);
        assert_eq!(t.dtype, DType::F16);
        assert_eq!(t.layout, Layout::ChannelsLast);
    }

    #[test]
    fn display_is_informative() {
        let t = TensorMeta::new([4, 8]);
        let s = t.to_string();
        assert!(s.contains("4, 8"));
        assert!(s.contains("f32"));
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::F8.size_bytes(), 1);
        assert_eq!(DType::I64.size_bytes(), 8);
    }
}
