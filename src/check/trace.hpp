// Structured protocol event tracing.
//
// The group protocol's externally meaningful transitions — a send admitted,
// a request stamped by the sequencer, a message turning tentative/accepted,
// a delivery, a NACK, a retransmission, a view installed, a recovery — are
// recorded as compact POD `TraceEvent`s in a per-member lock-free ring.
// A `TraceCollector` (collector.hpp) drains the rings and renders the
// interleaved history of a run; the `ConformanceOracle` (oracle.hpp)
// machine-checks the paper's guarantees over the same events.
//
// Cost discipline:
//   - compiled out entirely with -DAMOEBA_TRACE_ENABLED=0 (CMake option
//     AMOEBA_TRACE=OFF): the AMOEBA_TRACE macro discards its arguments
//     unevaluated, so call sites add zero instructions;
//   - compiled in but unattached (no ring): one null-pointer branch;
//   - attached: one SpscRing push (a fullness check plus a ~48-byte
//     store), no locks.
//
// Threading: TraceRing is an `SpscRing<TraceEvent>` (common/spsc_ring.hpp)
// plus a drop counter. The producer is the member's executor context (the
// simulation loop or the UDP runtime's loop thread); the consumer is
// whoever drains (the harness or a test thread), so live draining from
// another thread is race-free. When full the ring drops the newest event
// and counts it, never blocking the protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/seqnum.hpp"
#include "common/spsc_ring.hpp"
#include "common/types.hpp"
#include "group/types.hpp"

namespace amoeba::check {

enum class EventKind : std::uint8_t {
  send = 0,    // sender admitted a SendToGroup (msg_id assigned)
  send_done,   // the send completed (a = Status, flags = 1 iff ok)
  stamp,       // sequencer assigned seq to (peer, msg_id); a = fingerprint
  tentative,   // receiver buffered seq awaiting the final accept
  accept,      // seq became deliverable at this member (non-tentative)
  deliver,     // seq handed to the application; a = payload fingerprint
  nack,        // receiver asked for [seq, seq + a)
  retransmit,  // sequencer served seq to member `peer`
  view,        // view installed: peer = sequencer, msg_id = |members|,
               // a = membership hash, seq = next_deliver at install
  reset_start, // entered recovery under incarnation `inc`
  reset_done,  // recovery concluded; seq = rebuilt stream target
  fail,        // the group failed locally (a = Status)
  log_sync,    // durable log fsync barrier: seq = durable hi, a = log lo
  log_recover, // one message recovered from disk at restart: seq, inc,
               // peer = sender, msg_id, a = payload fingerprint
  restart,     // member reattached a recovered log: seq = hi, a = lo
  // --- Cross-shard atomic multicast (EXTENSION: sharded Node layer) ------
  xsend,       // node admitted a multi-shard send: a = xid, msg_id = mask
  xpropose,    // shard sequencer proposed a timestamp: a = xid, seq = ts
  xcommit,     // final timestamp fixed: a = xid, seq = final ts
  xdeliver,    // cross-shard message delivered in `group`: a = xid,
               // seq = local position, msg_id = shard mask
};

const char* to_string(EventKind k);

/// One protocol event. Field meanings vary slightly per kind (see the
/// EventKind comments); unused fields stay zero. Kept POD and small so a
/// ring slot is one cache line at most.
struct TraceEvent {
  Time at{};
  EventKind kind{EventKind::send};
  group::MemberId member{group::kInvalidMember};  // who recorded it
  group::Incarnation inc{0};
  /// Which group (shard) the event belongs to. 0 for the classic
  /// single-group runs; a sharded Node tags each member's events with its
  /// shard id so a shared collector never conflates shards.
  std::uint32_t group{0};
  group::MessageKind mkind{group::MessageKind::app};
  std::uint8_t flags{0};  // kind-specific (via_bb, from_recovery, ...)
  group::MemberId peer{group::kInvalidMember};
  SeqNum seq{0};
  std::uint32_t msg_id{0};
  std::uint64_t a{0};  // kind-specific scalar (fingerprint, status, count)
};

/// Human-readable one-liner (trace dumps, oracle violation reports).
std::string describe(const TraceEvent& e);

/// FNV-1a over a payload: a cheap content fingerprint so the oracle can
/// compare *what* was delivered, not just which sequence number.
inline std::uint64_t fingerprint(const BufView& b) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  const std::uint8_t* p = b.data();
  for (std::size_t i = 0; i < b.size(); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Single-producer / single-consumer lock-free event ring (drop-newest).
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (default 16Ki events).
  explicit TraceRing(std::size_t capacity = 1u << 14) : ring_(capacity) {}

  /// Producer side. Drops (and counts) the event when the consumer lags a
  /// full ring behind.
  void emit(TraceEvent e) noexcept {
    if (!ring_.try_push(std::move(e))) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Consumer side: append every pending event to `out`, return the count.
  /// Plain push_back keeps `out`'s growth geometric across many small
  /// drains (the harnesses drain after every engine step).
  std::size_t drain(std::vector<TraceEvent>& out) {
    std::size_t n = 0;
    while (auto e = ring_.try_pop()) {
      out.push_back(*e);
      ++n;
    }
    return n;
  }

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  SpscRing<TraceEvent> ring_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace amoeba::check

// The emission macro. Arguments are NOT evaluated when tracing is compiled
// out, and only when a ring is attached otherwise — fingerprints and other
// per-event work cost nothing on an untraced hot path.
#ifndef AMOEBA_TRACE_ENABLED
#define AMOEBA_TRACE_ENABLED 1
#endif
#if AMOEBA_TRACE_ENABLED
#define AMOEBA_TRACE(ring, ...)                      \
  do {                                               \
    if ((ring) != nullptr) (ring)->emit(__VA_ARGS__); \
  } while (0)
#else
#define AMOEBA_TRACE(ring, ...) \
  do {                          \
  } while (0)
#endif
