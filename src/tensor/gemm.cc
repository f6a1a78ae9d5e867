#include "tensor/gemm.h"

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace saffire {
namespace {

// C += A·B in i-p-j order. The j loop only touches independent elements;
// each C(i, j) still adds its products in ascending p (see gemm.h).
template <typename In, typename Acc>
void GemmInto(const Tensor<In>& a, const Tensor<In>& b, Tensor<Acc>& c) {
  // int32 sums run in uint32_t so they wrap mod 2^32 like the array's
  // 32-bit accumulator; a signed overflow would be undefined behaviour.
  using Sum = std::conditional_t<std::is_same_v<Acc, std::int32_t>,
                                 std::uint32_t, Acc>;
  SAFFIRE_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
                    "GEMM requires rank-2 tensors");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  SAFFIRE_CHECK_MSG(b.dim(0) == k, "A is " << a.ShapeString() << " but B is "
                                           << b.ShapeString());
  SAFFIRE_CHECK_MSG(c.dim(0) == m && c.dim(1) == n,
                    "C is " << c.ShapeString());
  const In* a_row = a.data().data();
  Acc* c_row = c.data().data();
  for (std::int64_t i = 0; i < m; ++i, a_row += k, c_row += n) {
    const In* b_row = b.data().data();
    for (std::int64_t p = 0; p < k; ++p, b_row += n) {
      const auto a_ip = static_cast<Acc>(a_row[p]);
      for (std::int64_t j = 0; j < n; ++j) {
        c_row[j] = static_cast<Acc>(
            static_cast<Sum>(c_row[j]) +
            static_cast<Sum>(a_ip * static_cast<Acc>(b_row[j])));
      }
    }
  }
}

}  // namespace

Int32Tensor GemmRef(const Int8Tensor& a, const Int8Tensor& b) {
  Int32Tensor c({a.dim(0), b.dim(1)});
  GemmInto(a, b, c);
  return c;
}

void GemmAccumulateRef(const Int8Tensor& a, const Int8Tensor& b,
                       Int32Tensor& c) {
  GemmInto(a, b, c);
}

Int32Tensor GemmDeltaRef(const Int8Tensor& a, const Int8Tensor& golden_a,
                         const Int8Tensor& b, const Int32Tensor& golden_c) {
  SAFFIRE_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && golden_c.rank() == 2 &&
                        golden_a.shape() == a.shape() &&
                        b.dim(0) == a.dim(1) && golden_c.dim(0) == a.dim(0) &&
                        golden_c.dim(1) == b.dim(1),
                    "A " << a.ShapeString() << " golden A "
                         << golden_a.ShapeString() << " B " << b.ShapeString()
                         << " golden C " << golden_c.ShapeString());
  Int32Tensor c = golden_c;
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  const std::int8_t* a_row = a.data().data();
  const std::int8_t* g_row = golden_a.data().data();
  if (std::memcmp(a_row, g_row, a.data().size()) == 0) return c;
  std::int32_t* c_row = c.data().data();
  for (std::int64_t i = 0; i < a.dim(0);
       ++i, a_row += k, g_row += k, c_row += n) {
    for (std::int64_t p = 0; p < k; ++p) {
      // |Δ| ≤ 255 and |B| ≤ 128, so each term fits int32; the sum wraps.
      const std::int32_t delta = a_row[p] - g_row[p];
      if (delta == 0) continue;
      const std::int8_t* b_row = b.data().data() + p * n;
      for (std::int64_t j = 0; j < n; ++j) {
        c_row[j] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(c_row[j]) +
            static_cast<std::uint32_t>(delta * b_row[j]));
      }
    }
  }
  return c;
}

FloatTensor GemmRef(const FloatTensor& a, const FloatTensor& b) {
  FloatTensor c({a.dim(0), b.dim(1)});
  GemmInto(a, b, c);
  return c;
}

}  // namespace saffire
