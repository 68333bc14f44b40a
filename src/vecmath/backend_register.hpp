#pragma once
// Bulk variant registration for one native vecmath backend.  Included
// only from the per-arch TUs (backend_avx2.cpp, backend_avx512.cpp), each
// compiled with the matching instruction set; the instantiation
// registers every vecmath array kernel under its "vecmath.<fn>" name.
//
// The function-type aliases here must match the ones declared at the
// call sites (exp.cpp, trig.cpp, ...): the registry checks signatures
// structurally via typeid, so identical local aliases are sufficient.

#include "kernels_impl.hpp"
#include "ookami/dispatch/registry.hpp"

namespace ookami::vecmath::detail {

template <class SV>
void register_vecmath_variants(simd::Backend b) {
  using ExpArrayFn = void(std::span<const double>, std::span<double>, LoopShape, PolyScheme,
                          Rounding);
  using UnaryArrayFn = void(std::span<const double>, std::span<double>);
  using PowArrayFn = void(std::span<const double>, std::span<const double>, std::span<double>);
  using StrategyArrayFn = void(std::span<const double>, std::span<double>, DivSqrtStrategy);

  dispatch::variant_registrar<ExpArrayFn>("vecmath.exp", b, &exp_array_impl<SV>);
  dispatch::variant_registrar<UnaryArrayFn>("vecmath.log", b, &log_array_impl<SV>);
  dispatch::variant_registrar<PowArrayFn>("vecmath.pow", b, &pow_array_impl<SV>);
  dispatch::variant_registrar<UnaryArrayFn>("vecmath.sin", b, &sin_array_impl<SV>);
  dispatch::variant_registrar<UnaryArrayFn>("vecmath.cos", b, &cos_array_impl<SV>);
  dispatch::variant_registrar<UnaryArrayFn>("vecmath.exp2", b, &exp2_array_impl<SV>);
  dispatch::variant_registrar<UnaryArrayFn>("vecmath.expm1", b, &expm1_array_impl<SV>);
  dispatch::variant_registrar<UnaryArrayFn>("vecmath.log1p", b, &log1p_array_impl<SV>);
  dispatch::variant_registrar<UnaryArrayFn>("vecmath.tanh", b, &tanh_array_impl<SV>);
  dispatch::variant_registrar<StrategyArrayFn>("vecmath.recip", b, &recip_array_impl<SV>);
  dispatch::variant_registrar<StrategyArrayFn>("vecmath.sqrt", b, &sqrt_array_impl<SV>);
}

}  // namespace ookami::vecmath::detail
