#pragma once
// Plane-block geometry of the bit-parallel engine.
//
// The lane-parallel simulator stores one *block* of kPlaneWords
// 64-bit words per net bit, so one pass over the netlist advances
// 64 * kPlaneWords stimulus lanes at once. The block width is a
// compile-time choice ("compile-time dispatch"): 8 words (512 lanes,
// one AVX-512 zmm per plane) when the translation units are compiled
// with AVX-512 codegen enabled, 4 words (256 lanes, one AVX2 ymm — or
// two SSE xmm, or four scalar words on any ISA) otherwise. Every plane
// kernel is written as a fixed-trip loop over kPlaneWords, which the
// compiler unrolls and, when -march permits, vectorizes; there are no
// intrinsics, so the portable std::uint64_t[4] build is the same code
// compiled without vector ISA flags and produces bit-identical
// statistics — the block width only changes how many lanes one pass
// carries, never what any lane computes. A run of at most 64 lanes
// uses one-word blocks instead (the same kernels instantiated for one
// word), so a one-lane or 64-lane run does not pay for idle words.
//
// -DOPISO_FORCE_SCALAR_PLANES=ON (CMake) pins the portable 4-word
// layout and refuses vector -march flags for these kernels, so CI can
// prove the fallback path stays green and bit-identical.

#include <array>
#include <cstdint>

namespace opiso {

#if defined(OPISO_FORCE_SCALAR_PLANES)
inline constexpr unsigned kPlaneWords = 4;
#elif defined(__AVX512F__)
inline constexpr unsigned kPlaneWords = 8;
#else
inline constexpr unsigned kPlaneWords = 4;
#endif

static_assert(kPlaneWords == 4 || kPlaneWords == 8, "plane block must be 4 or 8 words");

/// One block: bit b of kPlaneWords*64 lanes. Word k holds lanes
/// [64k, 64k+64); lane l lives in word l/64, bit l%64.
using PlaneBlock = std::array<std::uint64_t, kPlaneWords>;

/// All-zero block plane accessors return for bits past a net's width.
/// Sized for the widest block so a pointer to it is valid for any
/// kPlaneWords.
inline constexpr std::array<std::uint64_t, 8> kZeroPlaneBlock{};

}  // namespace opiso
