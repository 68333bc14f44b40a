#include "ookami/npb/randdp.hpp"

namespace ookami::npb {

namespace {

constexpr double kR46 = 0x1.0p-46;
constexpr std::uint64_t kMask46 = (std::uint64_t{1} << 46) - 1;

}  // namespace

double randlc(double& x, double a) {
  // a and x are integers below 2^46.  Their product wraps mod 2^64, and
  // 2^46 divides 2^64, so masking the low 46 bits gives a * x mod 2^46
  // exactly: the value NPB's split into 23-bit halves computes.
  const std::uint64_t next =
      (static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(x)) & kMask46;
  x = static_cast<double>(next);
  return kR46 * x;
}

double ipow46(double a, std::uint64_t exponent) {
  if (exponent == 0) return 1.0;
  double q = a;
  double r = 1.0;
  std::uint64_t n = exponent;
  while (n > 1) {
    if (n % 2 == 1) {
      double dummy = r;
      randlc(dummy, q);  // r = r*q mod 2^46, randlc computes the product
      r = dummy;
    }
    double dummy = q;
    randlc(dummy, q);  // q = q*q mod 2^46
    q = dummy;
    n /= 2;
  }
  double dummy = r;
  randlc(dummy, q);
  return dummy;
}

void vranlc(int n, double& x, double a, double* y) {
  for (int i = 0; i < n; ++i) y[i] = randlc(x, a);
}

}  // namespace ookami::npb
