#pragma once
// Lane values for the width-generic tick kernel (namespace magus::sim::kern).
//
// kern::node_tick and its step functions are templated on the value type of
// one simulated quantity: `double` for one lane, or `Pack2`, two lanes in the
// two slots of a GCC vector (one SSE2 register on baseline x86-64; no
// intrinsics, no target flags). The helpers below are the only operations
// whose spelling differs between the two widths, and each is exact: slot k
// of a Pack2 result is the bits the double form gives on slot k's operands.
//
//   sel(m, a, b)       m ? a : b, slot by slot (the GCC vector conditional)
//   vmin / vmax        std::min / std::max, operand order included:
//                      min(a, b) = b < a ? b : a, max(a, b) = a < b ? b : a
//                      (on Pack2 they lower to minpd / maxpd, which order
//                      their operands, NaN and signed zero alike, that way)
//   vclamp(v, lo, hi)  std::clamp as libstdc++ writes it: min(max(v, lo), hi)
//   mand / mor / mnot  mask logic (&&, ||, ! on the comparison result)
//   any(m)             true when any slot's mask is set
//   slot / set_slot    read / write one slot (a Pack2 element is not
//                      addressable, so there is no reference form)
//   bits_xor(a, b)     the slots' IEEE-754 bit patterns XORed: nonzero in
//                      a slot exactly where a and b differ bit for bit
//   any_bits(b)        true when any slot of a bits_xor result is nonzero
//
// Arithmetic (+ - * /) and comparisons are the built-in operators on both
// widths; a double operand next to a Pack2 is broadcast to both slots.

#include <bit>
#include <cstdint>
#include <type_traits>

namespace magus::sim::kern {

/// Two lanes' values of one quantity.
using Pack2 = double __attribute__((vector_size(16)));

/// What comparing two V gives: bool for double, a 64-bit integer mask for Pack2.
template <class V>
using MaskOf = decltype(V{} < V{});

/// Lanes carried by one V.
template <class V>
inline constexpr int kSlots = static_cast<int>(sizeof(V) / sizeof(double));

/// V's IEEE-754 bit patterns, one 64-bit integer per slot.
template <class V>
using BitsOf = std::conditional_t<std::is_same_v<V, double>, std::uint64_t, MaskOf<V>>;

// magus:hot-path-begin
/// `x` in every slot.
template <class V>
[[nodiscard]] inline V splat(double x) noexcept {
  if constexpr (std::is_same_v<V, double>) {
    return x;
  } else {
    return V{x, x};
  }
}

template <class V>
[[nodiscard]] inline double slot(const V& v, int k) noexcept {
  if constexpr (std::is_same_v<V, double>) {
    (void)k;
    return v;
  } else {
    return v[k];
  }
}

template <class V>
inline void set_slot(V& v, int k, double x) noexcept {
  if constexpr (std::is_same_v<V, double>) {
    (void)k;
    v = x;
  } else {
    v[k] = x;
  }
}

template <class V>
[[nodiscard]] inline V sel(MaskOf<V> m, V a, V b) noexcept {
  return m ? a : b;  // on Pack2, the GCC vector conditional: slot by slot
}

template <class M>
[[nodiscard]] inline M mand(M a, M b) noexcept {
  if constexpr (std::is_same_v<M, bool>) {
    return a && b;
  } else {
    return a & b;
  }
}

template <class M>
[[nodiscard]] inline M mor(M a, M b) noexcept {
  if constexpr (std::is_same_v<M, bool>) {
    return a || b;
  } else {
    return a | b;
  }
}

template <class M>
[[nodiscard]] inline M mnot(M a) noexcept {
  if constexpr (std::is_same_v<M, bool>) {
    return !a;
  } else {
    return ~a;
  }
}

template <class M>
[[nodiscard]] inline bool any(M m) noexcept {
  if constexpr (std::is_same_v<M, bool>) {
    return m;
  } else {
    return (m[0] | m[1]) != 0;
  }
}

template <class V>
[[nodiscard]] inline V vmin(V a, V b) noexcept {
  return sel<V>(b < a, b, a);
}

template <class V>
[[nodiscard]] inline V vmax(V a, V b) noexcept {
  return sel<V>(a < b, b, a);
}

template <class V>
[[nodiscard]] inline V vclamp(V v, V lo, V hi) noexcept {
  return vmin(vmax(v, lo), hi);
}

template <class V>
[[nodiscard]] inline BitsOf<V> bits_xor(V a, V b) noexcept {
  return std::bit_cast<BitsOf<V>>(a) ^ std::bit_cast<BitsOf<V>>(b);
}

template <class B>
[[nodiscard]] inline bool any_bits(B b) noexcept {
  if constexpr (std::is_same_v<B, std::uint64_t>) {
    return b != 0;
  } else {
    return (b[0] | b[1]) != 0;
  }
}
// magus:hot-path-end

}  // namespace magus::sim::kern
