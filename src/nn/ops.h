#pragma once
// ops.h — tensor kernels (matmuls, activations, softmax).
//
// The matmul wrappers call the blocked/tiled kernels in nn/gemm.h, serially
// on the calling thread; set ASCEND_GEMM=reference (or gemm::set_backend) to
// have those kernels run the seed's naive scalar loops instead, for bit-exact
// reproduction of pre-kernel results.

#include "nn/tensor.h"

namespace ascend::nn {

/// C[M,N] = A[M,K] * B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[M,N] = A^T[K,M]^T... i.e. C = A_t^T * B with A_t stored [K,M]: C[M,N], used for dW.
Tensor matmul_tn(const Tensor& a_kxm, const Tensor& b_kxn);
/// C[M,K] = A[M,N] * B^T with B stored [K,N], used for dX.
Tensor matmul_nt(const Tensor& a_mxn, const Tensor& b_kxn);

/// Elementwise helpers.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
void add_inplace(Tensor& a, const Tensor& b);

/// y = GELU(x) (exact erf form) and its input gradient.
Tensor gelu_forward(const Tensor& x);
Tensor gelu_backward(const Tensor& x, const Tensor& grad_y);

/// Row-wise exact softmax over the last dimension of a rank-2 tensor, and
/// its backward pass given the cached output.
Tensor softmax_rows(const Tensor& x);
Tensor softmax_rows_backward(const Tensor& y, const Tensor& grad_y);

}  // namespace ascend::nn
