// CRC-32 (IEEE 802.3 polynomial).
//
// The Amoeba protocol "automatically recovers from lost, garbled, and
// duplicate messages" (§2.1). Garble detection in this reproduction is a
// frame checksum: the simulator's fault injector flips payload bits and the
// receiving stack discards frames whose CRC fails, exactly like the real
// Ethernet FCS path.
//
// Every FLIP packet is checksummed once on encode and once on decode, and
// the durable log checks each record and checkpoint. On x86-64 hosts with
// PCLMULQDQ the bulk of the input is folded 64 bytes at a time by
// carry-less multiplication (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009); the
// choice is made once at run time from cpuid, so a plain build gets it.
// Elsewhere, and for short inputs and the tail, a bytewise table loop
// computes the same values.
#pragma once

#include <cstdint>
#include <span>

namespace amoeba {

/// CRC-32/IEEE over `data` (init 0xFFFFFFFF, reflected, final xor).
std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

namespace detail {
/// The bytewise table loop alone: the fallback path, and the reference
/// the tests compare the folded path with.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) noexcept;
}  // namespace detail

}  // namespace amoeba
