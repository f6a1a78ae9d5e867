// Reference (CPU, non-systolic) GEMM used as the golden model for fault
// injection and as the correctness oracle for the cycle-accurate simulator.
#pragma once

#include "tensor/tensor.h"

namespace saffire {

// Every kernel below runs in i-p-j order: row p of B, scaled by A(i, p), is
// added into row i of C, so the inner loop walks contiguous rows. Each
// element C(i, j) still sums its products in ascending k (= p) order,
// starting from its prior value, exactly as an i-j-p dot product would. That
// per-element order is a contract: float results (the training path) must
// not depend on the loop nest, and it matches the row-by-row accumulation
// of the weight-stationary array (the intermediate psum after row r equals
// the prefix sum over k ≤ r), so golden and simulated intermediate values
// are comparable bit-for-bit. Shapes are checked once per call; mismatches
// throw std::invalid_argument.

// C[M×N] = A[M×K] · B[K×N] with INT8 operands and INT32 accumulation —
// exactly the arithmetic the simulated array performs, including overflow:
// sums wrap mod 2^32 like the array's 32-bit accumulator (the kernel adds in
// uint32_t, so a long K never hits signed-overflow undefined behaviour).
Int32Tensor GemmRef(const Int8Tensor& a, const Int8Tensor& b);

// C += A · B for INT32 accumulators; used when summing tile contributions
// along the K dimension (Sec. II-C, Eq. 4).
void GemmAccumulateRef(const Int8Tensor& a, const Int8Tensor& b,
                       Int32Tensor& c);

// golden_c + (a − golden_a) · b mod 2^32: A·B recomputed only where `a`
// differs from `golden_a`, one scaled row of B per differing element. int32
// sums live in the ring of integers mod 2^32, where every reordering and
// regrouping of the terms gives the same value, so whenever
// golden_c == GemmRef(golden_a, b) the result equals GemmRef(a, b) bit for
// bit. That holds for `b` by content, not by origin: a caller that
// recorded golden_c from some weights may pass any tensor equal to them.
// a and golden_a must both be M×K, b K×N and golden_c M×N; mismatches throw
// std::invalid_argument.
Int32Tensor GemmDeltaRef(const Int8Tensor& a, const Int8Tensor& golden_a,
                         const Int8Tensor& b, const Int32Tensor& golden_c);

// Float GEMM for the DNN training path (not accelerated).
FloatTensor GemmRef(const FloatTensor& a, const FloatTensor& b);

}  // namespace saffire
