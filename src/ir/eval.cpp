#include "ir/eval.hpp"

#include <cmath>

#include "ir/type.hpp"

namespace raw {

bool
eval_op(Op op, uint32_t a, uint32_t b, uint32_t &out)
{
    const int32_t ia = bits_int(a), ib = bits_int(b);
    const float fa = bits_float(a), fb = bits_float(b);
    auto i = [&](int64_t v) {
        out = int_bits(static_cast<int32_t>(v));
        return true;
    };
    auto f = [&](float v) {
        out = float_bits(v);
        return true;
    };
    switch (op) {
      case Op::kMove:   out = a; return true;
      case Op::kAdd:    return i(static_cast<int64_t>(ia) + ib);
      case Op::kSub:    return i(static_cast<int64_t>(ia) - ib);
      case Op::kMul:    return i(static_cast<int64_t>(ia) * ib);
      // Divided in 64 bits so INT32_MIN / -1 wraps instead of trapping.
      case Op::kDiv:    return i(ib == 0 ? 0 : static_cast<int64_t>(ia) / ib);
      case Op::kRem:    return i(ib == 0 ? 0 : static_cast<int64_t>(ia) % ib);
      case Op::kAnd:    return i(ia & ib);
      case Op::kOr:     return i(ia | ib);
      case Op::kXor:    return i(ia ^ ib);
      case Op::kShl:    return i(static_cast<int64_t>(ia)
                                 << (ib & 31));
      case Op::kShr:    return i(ia >> (ib & 31));
      case Op::kNeg:    return i(-static_cast<int64_t>(ia));
      case Op::kNot:    return i(~ia);
      case Op::kFAdd:   return f(fa + fb);
      case Op::kFSub:   return f(fa - fb);
      case Op::kFMul:   return f(fa * fb);
      case Op::kFDiv:   return f(fa / fb);
      case Op::kFNeg:   return f(-fa);
      case Op::kFSqrt:  return f(std::sqrt(fa));
      case Op::kCmpEq:  return i(ia == ib);
      case Op::kCmpNe:  return i(ia != ib);
      case Op::kCmpLt:  return i(ia < ib);
      case Op::kCmpLe:  return i(ia <= ib);
      case Op::kCmpGt:  return i(ia > ib);
      case Op::kCmpGe:  return i(ia >= ib);
      case Op::kFCmpEq: return i(fa == fb);
      case Op::kFCmpNe: return i(fa != fb);
      case Op::kFCmpLt: return i(fa < fb);
      case Op::kFCmpLe: return i(fa <= fb);
      case Op::kFCmpGt: return i(fa > fb);
      case Op::kFCmpGe: return i(fa >= fb);
      case Op::kItoF:   return f(static_cast<float>(ia));
      case Op::kFtoI: {
        // Saturating, NaN-safe conversion (plain casts of
        // out-of-range floats are undefined behavior in C++).
        if (std::isnan(fa))
            return i(0);
        if (fa >= 2147483648.0f)
            return i(INT32_MAX);
        if (fa < -2147483648.0f)
            return i(INT32_MIN);
        return i(static_cast<int32_t>(fa));
      }
      default:
        return false;
    }
}

} // namespace raw
