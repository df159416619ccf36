// Internal helper for member.cpp / sequencer.cpp / recovery.cpp: emit a
// structured TraceEvent stamped with this member's identity. Expands inside
// GroupMember methods only (uses trace_ring_, exec_, my_id_, inc_).
// Arguments are unevaluated when tracing is compiled out or no ring is
// attached — see AMOEBA_TRACE in check/trace.hpp.
#pragma once

#include "check/trace.hpp"

#define GTRACE(kind_, ...)                                        \
  AMOEBA_TRACE(trace_ring_,                                       \
               ::amoeba::check::TraceEvent{                       \
                   .at = exec_.now(),                             \
                   .kind = ::amoeba::check::EventKind::kind_,     \
                   .member = my_id_,                              \
                   .inc = inc_,                                   \
                   .group = group_tag_ __VA_OPT__(, ) __VA_ARGS__})

// Same, under an explicit incarnation (recovery paths where inc_ is not
// yet, or no longer, the incarnation the event belongs to).
#define GTRACE_AT_INC(kind_, inc_v, ...)                          \
  AMOEBA_TRACE(trace_ring_,                                       \
               ::amoeba::check::TraceEvent{                       \
                   .at = exec_.now(),                             \
                   .kind = ::amoeba::check::EventKind::kind_,     \
                   .member = my_id_,                              \
                   .inc = (inc_v),                                \
                   .group = group_tag_ __VA_OPT__(, ) __VA_ARGS__})
