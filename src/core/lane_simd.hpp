// rumor/core (internal to trial_lanes.cpp and its tests): the vector
// primitives of the trial-lanes engine — eight xoshiro256++ engines in four
// zmm registers, and the draws rng.hpp makes from them, lane by lane.
//
// Dispatch: every function here that touches a zmm register carries
// RUMOR_LANES, a function-level target attribute. No translation unit is
// compiled with -mavx512*, so inline header functions instantiated next to
// these (rng::uniform_below, Graph::neighbors) keep the baseline ISA in any
// out-of-line copy the linker may share with scalar callers. Callers must
// check trial_lanes_supported() before entering RUMOR_LANES code.
//
// Only x86-64 GCC or Clang builds define RUMOR_TRIAL_LANES and the vector
// section; elsewhere the engine reports itself unsupported.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/trial_lanes.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RUMOR_TRIAL_LANES 1
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's AVX-512 headers build their "undefined" pass-through operands by
// self-initialization, which -W(maybe-)uninitialized flags wherever the
// intrinsics inline (GCC bug 105593); the warnings point into the header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#endif

namespace rumor::core::lanes {

/// The rest of uniform_below for the lanes in `mask`, whose first draw's
/// low word `lo` fell below the bound: the scalar's threshold test, and for
/// the lanes it rejects, the scalar's redraw loop on that lane's engine
/// alone. state[i][l] is xoshiro word i of lane l; hi[l] receives the draw.
void finish_rejected(std::uint64_t (&state)[4][kLaneWidth], std::uint64_t* hi,
                     const std::uint64_t* lo, const std::uint64_t* bound, unsigned mask);

#ifdef RUMOR_TRIAL_LANES

#define RUMOR_LANES __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
#define RUMOR_LANES_INLINE RUMOR_LANES __attribute__((always_inline)) inline

/// Eight xoshiro256++ states: register s0 holds word 0 of every lane, and
/// so on through s3.
struct Xoshiro8 {
  __m512i s0, s1, s2, s3;
};

RUMOR_LANES_INLINE Xoshiro8 load_states(const std::uint64_t (&st)[4][kLaneWidth]) {
  return {_mm512_load_si512(st[0]), _mm512_load_si512(st[1]), _mm512_load_si512(st[2]),
          _mm512_load_si512(st[3])};
}

RUMOR_LANES_INLINE void store_states(const Xoshiro8& x, std::uint64_t (&st)[4][kLaneWidth]) {
  _mm512_store_si512(st[0], x.s0);
  _mm512_store_si512(st[1], x.s1);
  _mm512_store_si512(st[2], x.s2);
  _mm512_store_si512(st[3], x.s3);
}

/// Xoshiro256pp::next on every lane.
RUMOR_LANES_INLINE __m512i next(Xoshiro8& x) {
  const __m512i result =
      _mm512_add_epi64(_mm512_rol_epi64(_mm512_add_epi64(x.s0, x.s3), 23), x.s0);
  const __m512i t = _mm512_slli_epi64(x.s1, 17);
  x.s2 = _mm512_xor_si512(x.s2, x.s0);
  x.s3 = _mm512_xor_si512(x.s3, x.s1);
  x.s1 = _mm512_xor_si512(x.s1, x.s2);
  x.s0 = _mm512_xor_si512(x.s0, x.s3);
  x.s2 = _mm512_xor_si512(x.s2, t);
  x.s3 = _mm512_rol_epi64(x.s3, 45);
  return result;
}

/// next() that advances only the lanes in `mask`.
RUMOR_LANES_INLINE __m512i next_masked(Xoshiro8& x, __mmask8 mask) {
  Xoshiro8 stepped = x;
  const __m512i result = next(stepped);
  x.s0 = _mm512_mask_mov_epi64(x.s0, mask, stepped.s0);
  x.s1 = _mm512_mask_mov_epi64(x.s1, mask, stepped.s1);
  x.s2 = _mm512_mask_mov_epi64(x.s2, mask, stepped.s2);
  x.s3 = _mm512_mask_mov_epi64(x.s3, mask, stepped.s3);
  return result;
}

/// rng::uniform01_open_low of each lane's draw: (x >> 11) is below 2^53,
/// so the conversion, the + 1 and the scaling are all exact, as in scalar.
RUMOR_LANES_INLINE __m512d open_low_uniform(__m512i x) {
  const __m512d d = _mm512_cvtepu64_pd(_mm512_srli_epi64(x, 11));
  return _mm512_mul_pd(_mm512_add_pd(d, _mm512_set1_pd(1.0)), _mm512_set1_pd(0x1.0p-53));
}

/// rng::uniform_below(eng, b) per lane, given the lane's first draw x, for
/// bounds below 2^32. Lemire's 128-bit product x * b splits into 32-bit
/// halves: with a = x_hi * b and c = x_lo * b (neither overflows), the
/// high word is (a + (c >> 32)) >> 32 and the low word is c + (a << 32).
/// Lanes of `live` whose low word is below b finish on the scalar path.
RUMOR_LANES_INLINE __m512i bounded(Xoshiro8& x8, __m512i x, __m512i b, __mmask8 live) {
  const __m512i a = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), b);
  const __m512i c = _mm512_mul_epu32(x, b);
  __m512i hi = _mm512_srli_epi64(_mm512_add_epi64(a, _mm512_srli_epi64(c, 32)), 32);
  const __m512i lo = _mm512_add_epi64(c, _mm512_slli_epi64(a, 32));
  const __mmask8 low = _mm512_mask_cmplt_epu64_mask(live, lo, b);
  if (__builtin_expect(low != 0, 0)) {
    alignas(64) std::uint64_t st[4][kLaneWidth];
    alignas(64) std::uint64_t h[kLaneWidth];
    alignas(64) std::uint64_t l[kLaneWidth];
    alignas(64) std::uint64_t bb[kLaneWidth];
    store_states(x8, st);
    _mm512_store_si512(h, hi);
    _mm512_store_si512(l, lo);
    _mm512_store_si512(bb, b);
    finish_rejected(st, h, l, bb, low);
    x8 = load_states(st);
    hi = _mm512_load_si512(h);
  }
  return hi;
}

#endif  // RUMOR_TRIAL_LANES

}  // namespace rumor::core::lanes
