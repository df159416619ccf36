// ConformanceOracle unit tests: hand-built synthetic histories, one per
// invariant — a clean history passes, and each seeded defect is flagged as
// exactly the right violation. A final smoke test runs the oracle over a
// real simulated group so the emission sites and checker agree on the
// event vocabulary.
#include <gtest/gtest.h>

#include "check/oracle.hpp"
#include "group/sim_harness.hpp"

namespace amoeba::check {
namespace {

using group::MemberId;
using group::MessageKind;

/// Builder for one member's synthetic history.
class Hist {
 public:
  explicit Hist(MemberId m) : member_(m) {}

  Hist& stamp(SeqNum seq, MemberId sender, std::uint32_t msg_id,
              std::uint64_t fp = 7) {
    push({.kind = EventKind::stamp, .peer = sender, .seq = seq,
          .msg_id = msg_id, .a = fp});
    return *this;
  }
  Hist& accept(SeqNum seq, MemberId sender, std::uint32_t msg_id) {
    push({.kind = EventKind::accept, .peer = sender, .seq = seq,
          .msg_id = msg_id});
    return *this;
  }
  Hist& deliver(SeqNum seq, MemberId sender, std::uint32_t msg_id,
                std::uint64_t fp = 7) {
    push({.kind = EventKind::deliver, .peer = sender, .seq = seq,
          .msg_id = msg_id, .a = fp});
    return *this;
  }
  Hist& view(SeqNum at_seq, std::uint32_t n_members, std::uint64_t hash,
             MemberId sequencer = 0, std::uint8_t from_recovery = 0) {
    push({.kind = EventKind::view, .flags = from_recovery, .peer = sequencer,
          .seq = at_seq, .msg_id = n_members, .a = hash});
    return *this;
  }
  Hist& send_done_ok(std::uint32_t msg_id) {
    push({.kind = EventKind::send_done, .flags = 1, .msg_id = msg_id});
    return *this;
  }
  /// Tag subsequent events with a shard (group) id.
  Hist& in_group(std::uint32_t g) {
    group_ = g;
    return *this;
  }
  /// Origin-node record of a cross-shard send: flags 0 = admitted,
  /// 1 = completed ok, 2 = failed; msg_id carries the destination mask.
  Hist& xsend(std::uint64_t xid, std::uint32_t mask, std::uint8_t flags) {
    push({.kind = EventKind::xsend, .flags = flags, .msg_id = mask, .a = xid});
    return *this;
  }
  Hist& xcommit(std::uint64_t xid, SeqNum final_ts) {
    push({.kind = EventKind::xcommit, .seq = final_ts, .a = xid});
    return *this;
  }
  Hist& xdeliver(std::uint64_t xid, std::uint32_t mask, SeqNum seq) {
    push({.kind = EventKind::xdeliver, .seq = seq, .msg_id = mask, .a = xid});
    return *this;
  }
  RingTrace take() {
    return RingTrace{'m' + std::to_string(member_), nullptr,
                     std::move(events_)};
  }

 private:
  struct Partial {
    EventKind kind;
    std::uint8_t flags{0};
    MemberId peer{group::kInvalidMember};
    SeqNum seq{0};
    std::uint32_t msg_id{0};
    std::uint64_t a{0};
  };
  void push(const Partial& p) {
    events_.push_back(TraceEvent{.at = Time{t_ns_ += 1000},
                                 .kind = p.kind,
                                 .member = member_,
                                 .inc = 0,
                                 .group = group_,
                                 .mkind = MessageKind::app,
                                 .flags = p.flags,
                                 .peer = p.peer,
                                 .seq = p.seq,
                                 .msg_id = p.msg_id,
                                 .a = p.a});
  }
  MemberId member_;
  std::uint32_t group_{0};
  std::int64_t t_ns_{0};
  std::vector<TraceEvent> events_;
};

/// Two members, one sender (m0) broadcasting msgs 1..n — the clean base
/// history every defect test perturbs.
std::vector<RingTrace> clean_history(std::uint32_t n = 3) {
  Hist m0(0), m1(1);
  for (std::uint32_t i = 1; i <= n; ++i) {
    const SeqNum s = i - 1;
    m0.stamp(s, 0, i).accept(s, 0, i).deliver(s, 0, i).send_done_ok(i);
    m1.accept(s, 0, i).deliver(s, 0, i);
  }
  std::vector<RingTrace> rings;
  rings.push_back(m0.take());
  rings.push_back(m1.take());
  return rings;
}

bool has(const Verdict& v, const std::string& invariant) {
  for (const Violation& x : v.violations) {
    if (x.invariant == invariant) return true;
  }
  return false;
}

TEST(Oracle, CleanHistoryPasses) {
  const auto v = ConformanceOracle::check(clean_history());
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Oracle, DurabilityCleanPasses) {
  OracleOptions opts;
  opts.durable_rings = {"m0", "m1"};
  const auto v = ConformanceOracle::check(clean_history(), opts);
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Oracle, AgreementConflictFlagged) {
  auto rings = clean_history();
  // m1 delivered a different sender's message at seq 1 (its event list is
  // acc0 del0 acc1 del1 ...; index 3 is the deliver of seq 1).
  rings[1].events[3].peer = 1;
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "agreement")) << v.to_string();
}

TEST(Oracle, PayloadMismatchFlagged) {
  auto rings = clean_history();
  rings[1].events[3].a = 0xBAD;  // deliver of seq 1 with foreign content
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "agreement")) << v.to_string();
  EXPECT_TRUE(has(v, "stamps")) << v.to_string();
}

TEST(Oracle, GapFlagged) {
  Hist m0(0);
  m0.stamp(0, 0, 1).stamp(1, 0, 2).stamp(2, 0, 3);
  m0.accept(0, 0, 1).deliver(0, 0, 1);
  m0.accept(2, 0, 3).deliver(2, 0, 3);  // skipped seq 1, no view at 2
  std::vector<RingTrace> rings;
  rings.push_back(m0.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "gap-free")) << v.to_string();
}

TEST(Oracle, JoinJumpAtViewPositionAllowed) {
  // A joiner starts at seq 5 — legal because a view marks that position.
  Hist m0(0), m1(1);
  for (std::uint32_t i = 1; i <= 7; ++i) {
    m0.stamp(i - 1, 0, i).accept(i - 1, 0, i).deliver(i - 1, 0, i);
  }
  m1.view(5, 2, 0x42);
  for (std::uint32_t i = 6; i <= 7; ++i) {
    m1.accept(i - 1, 0, i).deliver(i - 1, 0, i);
  }
  std::vector<RingTrace> rings;
  rings.push_back(m0.take());
  rings.push_back(m1.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Oracle, FirstDeliveryOffOriginFlagged) {
  Hist m0(0);
  m0.stamp(4, 0, 1).accept(4, 0, 1).deliver(4, 0, 1);  // no view at 4
  std::vector<RingTrace> rings;
  rings.push_back(m0.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "gap-free")) << v.to_string();
}

TEST(Oracle, DeliverWithoutAcceptFlagged) {
  auto rings = clean_history();
  // Strip m1's accept for seq 1 (events: acc0 del0 acc1 del1 acc2 del2).
  rings[1].events.erase(rings[1].events.begin() + 2);
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "accept-before-deliver")) << v.to_string();
}

TEST(Oracle, UnstampedDeliveryFlagged) {
  auto rings = clean_history();
  // Drop m0's stamp of seq 2 (its events: st acc del done, per message).
  rings[0].events.erase(rings[0].events.begin() + 8);
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "stamps")) << v.to_string();
}

TEST(Oracle, DoubleStampFlagged) {
  auto rings = clean_history();
  Hist rogue(7);
  rogue.stamp(1, 5, 9, 0xF00);  // a second authority stamped seq 1
  rings.push_back(rogue.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "stamps")) << v.to_string();
}

TEST(Oracle, FifoInversionFlagged) {
  Hist m0(0);
  m0.stamp(0, 0, 2).stamp(1, 0, 1);  // sequencer swapped the sender's order
  m0.accept(0, 0, 2).deliver(0, 0, 2);
  m0.accept(1, 0, 1).deliver(1, 0, 1);
  std::vector<RingTrace> rings;
  rings.push_back(m0.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "fifo")) << v.to_string();
}

TEST(Oracle, ValidityWithoutSelfDeliveryFlagged) {
  Hist m0(0);
  m0.send_done_ok(1);  // ok completion, nothing ever delivered here
  std::vector<RingTrace> rings;
  rings.push_back(m0.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "validity")) << v.to_string();
}

TEST(Oracle, DurabilityMissFlagged) {
  auto rings = clean_history();
  rings[1].events.pop_back();  // m1 never delivered the last message
  rings[1].events.pop_back();
  OracleOptions opts;
  opts.durable_rings = {"m1"};
  const auto v = ConformanceOracle::check(rings, opts);
  EXPECT_TRUE(has(v, "durability")) << v.to_string();
  // The same history is fine if m1 is not claimed durable.
  OracleOptions lax;
  lax.durable_rings = {"m0"};
  EXPECT_TRUE(ConformanceOracle::check(rings, lax).ok());
}

TEST(Oracle, ViewDisagreementFlagged) {
  auto rings = clean_history();
  Hist a(0), b(1);
  a.view(3, 2, 0x1111);
  b.view(3, 2, 0x2222);  // same position, different membership
  rings.push_back(a.take());
  rings.push_back(b.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "view-sync")) << v.to_string();
}

TEST(Oracle, ViolationLimitTruncates) {
  Hist m0(0);
  for (std::uint32_t i = 1; i <= 40; ++i) {
    m0.deliver(i * 2, 0, i);  // every delivery gaps and lacks accept/stamp
  }
  std::vector<RingTrace> rings;
  rings.push_back(m0.take());
  OracleOptions opts;
  opts.max_violations = 5;
  const auto v = ConformanceOracle::check(rings, opts);
  EXPECT_EQ(v.violations.size(), 5u);
  EXPECT_TRUE(v.truncated);
}

// ---------------------------------------------------------------------------
// Group scoping: one collector holding rings of several shards must not
// alias their (inc, seq) / (sender, msg_id) coordinates.
// ---------------------------------------------------------------------------

TEST(Oracle, GroupTagScopesKeys) {
  // Same (inc=0, seq=0) slot, different content — but different shards, so
  // neither agreement nor stamps may fire.
  Hist a(0), b(1);
  a.in_group(0).stamp(0, 0, 1, 0xA).accept(0, 0, 1).deliver(0, 0, 1, 0xA);
  b.in_group(1).stamp(0, 0, 1, 0xB).accept(0, 0, 1).deliver(0, 0, 1, 0xB);
  std::vector<RingTrace> rings;
  rings.push_back(a.take());
  rings.push_back(b.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Oracle, DurabilityScopedToRingGroups) {
  // m0 (shard 0) completed a send ok; m1 participates only in shard 1, so
  // listing it durable must not obligate it to hold shard 0's messages.
  Hist a(0), b(1);
  a.in_group(0).stamp(0, 0, 1).accept(0, 0, 1).deliver(0, 0, 1)
      .send_done_ok(1);
  b.in_group(1).stamp(0, 1, 1).accept(0, 1, 1).deliver(0, 1, 1);
  std::vector<RingTrace> rings;
  rings.push_back(a.take());
  rings.push_back(b.take());
  OracleOptions opts;
  opts.durable_rings = {"m0", "m1"};
  const auto v = ConformanceOracle::check(rings, opts);
  EXPECT_TRUE(v.ok()) << v.to_string();
}

// ---------------------------------------------------------------------------
// Cross-shard obligations: a clean synthetic history passes, and each
// seeded defect is flagged as exactly the right violation (the mutation
// smoke test for the xshard checks).
// ---------------------------------------------------------------------------

/// Origin node ring (m9) plus one member ring per shard (m0 = shard 0,
/// m1 = shard 1). Two cross-shard messages addressed to both shards,
/// delivered in the same order everywhere.
std::vector<RingTrace> xshard_history() {
  const std::uint32_t mask = 0b11;
  Hist n(9), s0(0), s1(1);
  s0.in_group(0);
  s1.in_group(1);
  for (std::uint64_t x = 1; x <= 2; ++x) {
    n.xsend(x, mask, 0);  // admitted
    s0.xcommit(x, static_cast<SeqNum>(10 + x));
    s1.xcommit(x, static_cast<SeqNum>(10 + x));
    s0.xdeliver(x, mask, static_cast<SeqNum>(x));
    s1.xdeliver(x, mask, static_cast<SeqNum>(x));
    n.xsend(x, mask, 1);  // completed ok
  }
  std::vector<RingTrace> rings;
  rings.push_back(n.take());
  rings.push_back(s0.take());
  rings.push_back(s1.take());
  return rings;
}

TEST(Oracle, XShardCleanPasses) {
  const auto v = ConformanceOracle::check(xshard_history());
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Oracle, XShardDuplicateDeliveryFlagged) {
  auto rings = xshard_history();
  // s0's events: xc1 xc2 xd1 xd2 (interleaved per message: xc1 xd1 xc2
  // xd2); duplicate its last xdeliver.
  rings[1].events.push_back(rings[1].events.back());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "xshard-dup")) << v.to_string();
}

TEST(Oracle, XShardNonAddressedDeliveryFlagged) {
  auto rings = xshard_history();
  // A third shard delivers xid 1 even though its bit is not in the mask.
  Hist s2(2);
  s2.in_group(2).xdeliver(1, 0b11, 0);
  rings.push_back(s2.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "xshard-genuine")) << v.to_string();
}

TEST(Oracle, XShardForgedMaskFlagged) {
  // The delivery's own mask claims shard 2 is addressed, but the origin
  // never did — the admitted-mask cross-check catches the forgery.
  auto rings = xshard_history();
  Hist s2(2);
  s2.in_group(2).xdeliver(1, 0b111, 0);
  rings.push_back(s2.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "xshard-genuine")) << v.to_string();
}

TEST(Oracle, XShardMissingDeliveryFlagged) {
  auto rings = xshard_history();
  // Shard 1 never delivers xid 2 although the origin reported ok.
  auto& ev = rings[2].events;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind == EventKind::xdeliver && ev[i].a == 2) {
      ev.erase(ev.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "xshard-atomic")) << v.to_string();
}

TEST(Oracle, XShardNoOkMeansNoAtomicObligation) {
  // Without an ok completion the outcome is legally unknown: a partial
  // delivery (origin crashed mid-round) is not an atomicity violation.
  const std::uint32_t mask = 0b11;
  Hist n(9), s0(0), s1(1);
  n.xsend(7, mask, 0);  // admitted, never completed
  s0.in_group(0).xcommit(7, 11).xdeliver(7, mask, 0);
  std::vector<RingTrace> rings;
  rings.push_back(n.take());
  rings.push_back(s0.take());
  rings.push_back(s1.take());
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(v.ok()) << v.to_string();
}

TEST(Oracle, XShardCommitMismatchFlagged) {
  auto rings = xshard_history();
  // Shard 1 fixed a different final timestamp for xid 1.
  for (TraceEvent& e : rings[2].events) {
    if (e.kind == EventKind::xcommit && e.a == 1) e.seq = 99;
  }
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "xshard-commit")) << v.to_string();
}

TEST(Oracle, XShardOrderInversionFlagged) {
  auto rings = xshard_history();
  // Shard 1 delivers xid 2 before xid 1 while shard 0 kept 1 before 2.
  std::vector<TraceEvent>& ev = rings[2].events;
  TraceEvent* d1 = nullptr;
  TraceEvent* d2 = nullptr;
  for (TraceEvent& e : ev) {
    if (e.kind != EventKind::xdeliver) continue;
    (e.a == 1 ? d1 : d2) = &e;
  }
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(d2, nullptr);
  std::swap(d1->a, d2->a);
  const auto v = ConformanceOracle::check(rings);
  EXPECT_TRUE(has(v, "xshard-order")) << v.to_string();
}

// ---------------------------------------------------------------------------
// End to end: a real simulated run produces traces the oracle accepts, and
// the collector renders them.
// ---------------------------------------------------------------------------

TEST(Oracle, RealRunPassesAndDumps) {
  group::GroupConfig cfg;
  cfg.resilience = 1;
  group::SimGroupHarness h(3, cfg);
  ASSERT_TRUE(h.form_group());

  int done = 0;
  for (int k = 0; k < 5; ++k) {
    for (std::size_t i = 0; i < 3; ++i) {
      Buffer b(32);
      b[0] = static_cast<std::uint8_t>(i);
      b[1] = static_cast<std::uint8_t>(k);
      h.process(i).user_send(std::move(b), [&](Status s) {
        ASSERT_EQ(s, Status::ok);
        ++done;
      });
    }
  }
  ASSERT_TRUE(h.run_until([&] { return done == 15; }, Duration::seconds(30)));
  ASSERT_TRUE(h.run_until([&] { return false; }, Duration::millis(500)) ==
              false);  // quiesce

  OracleOptions opts;
  opts.durable_rings = {"m0", "m1", "m2"};
  const auto v = h.check_conformance(opts);
  EXPECT_TRUE(v.ok()) << v.to_string() << h.traces().dump_text(200);

  EXPECT_GT(h.traces().total_events(), 45u);  // 15 sends × ≥3 events each
  EXPECT_EQ(h.traces().total_dropped(), 0u);
  const std::string text = h.traces().dump_text(50);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_NE(text.find("stamp"), std::string::npos);
  const std::string json = h.traces().dump_json();
  EXPECT_NE(json.find("\"kind\":\"accept\""), std::string::npos);
}

}  // namespace
}  // namespace amoeba::check
