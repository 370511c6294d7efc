//! Tensor shapes and element counting.
//!
//! The cost models in this crate work in *elements*; byte counts materialize
//! only once a [`Precision`](mlperf_hw::Precision) is chosen, so the same
//! operator graph prices both FP32 and mixed-precision executions.

use std::fmt;

/// The shape of a dense tensor (row-major, arbitrary rank).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorShape(Vec<usize>);

impl TensorShape {
    /// Construct from dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (degenerate tensors have no place in
    /// a cost model) or the shape is empty.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        let dims = dims.into();
        assert!(
            !dims.is_empty(),
            "tensor shape must have at least one dimension"
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "tensor dimensions must be positive"
        );
        TensorShape(dims)
    }

    /// A rank-1 shape.
    pub fn vector(len: usize) -> Self {
        TensorShape::new([len])
    }

    /// A rank-2 shape.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        TensorShape::new([rows, cols])
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (product of dimensions).
    pub fn elements(&self) -> u64 {
        self.0.iter().map(|&d| d as u64).product()
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for TensorShape {
    fn from(dims: &[usize]) -> Self {
        TensorShape::new(dims.to_vec())
    }
}

/// Output spatial size of a convolution/pooling along one axis.
///
/// # Panics
///
/// Panics if the kernel (after padding) does not fit in the input.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * padding;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    (padded - kernel) / stride + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_counts() {
        assert_eq!(TensorShape::vector(10).elements(), 10);
        assert_eq!(TensorShape::matrix(3, 4).elements(), 12);
        assert_eq!(TensorShape::new([2, 3, 4, 5]).rank(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = TensorShape::new([3, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_shape_rejected() {
        let _ = TensorShape::new(Vec::new());
    }

    #[test]
    fn conv_output_arithmetic() {
        // 224x224, 7x7 kernel, stride 2, pad 3 -> 112 (ResNet stem).
        assert_eq!(conv_out_dim(224, 7, 2, 3), 112);
        // 56x56, 3x3, stride 1, pad 1 -> 56 (same-padding).
        assert_eq!(conv_out_dim(56, 3, 1, 1), 56);
        // 112x112, 3x3 maxpool stride 2 pad 1 -> 56.
        assert_eq!(conv_out_dim(112, 3, 2, 1), 56);
    }

    #[test]
    #[should_panic(expected = "larger than padded")]
    fn oversized_kernel_rejected() {
        let _ = conv_out_dim(2, 5, 1, 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(TensorShape::new([3, 224, 224]).to_string(), "[3x224x224]");
    }
}
