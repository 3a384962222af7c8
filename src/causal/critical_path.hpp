// Per-request causal tree reconstruction and latency decomposition.
//
// Input: the raw telemetry::TraceBuffer events of a run. Every event that
// carries a nonzero trace_id belongs to some request's causal tree: 'B'/'E'
// pairs (matched by span_id, so interleaving across workers is harmless)
// become SpanNodes, 'S'/'F' flow marks become schedule/adopt edges. The
// output is one RequestTree per trace_id with:
//  - parent links resolved through both span nesting and cross-thread fork
//    hops (a span whose parent is a forked task context still chains to the
//    span that forked it);
//  - orphan accounting: a span whose parent chain does not reach the root
//    context is counted, never silently attached;
//  - a timestamp-free structure() serialization — because ids are derived
//    deterministically (telemetry/context.hpp), the serialization is
//    byte-identical across thread counts, which is how tests assert that
//    work stolen across workers still parents correctly.
//
// decompose() splits a request's wall time into queue-wait / compute /
// cache-hit / degraded / other segments that sum to the wall time by
// construction.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "telemetry/trace.hpp"

namespace antarex::causal {

/// One reconstructed span occurrence inside a request tree.
struct SpanNode {
  const char* name = "";
  u64 span_id = 0;
  u64 parent_id = 0;
  u64 begin_ns = 0;
  u64 end_ns = 0;
  bool closed = false;               ///< saw the matching 'E'
  bool orphan = false;               ///< parent chain does not reach the root
  std::size_t parent = SIZE_MAX;     ///< parent SpanNode index (SIZE_MAX = top)
  std::vector<std::size_t> children;  ///< indices, sorted by span_id
};

/// All spans of one trace_id, linked into a tree.
struct RequestTree {
  u64 trace_id = 0;
  std::vector<SpanNode> spans;  ///< sorted by span_id
  /// The unique top-level span (parent chain reaches the root context
  /// without passing another span); SIZE_MAX when absent or ambiguous.
  std::size_t root = SIZE_MAX;
  u64 sched_ns = 0;  ///< root context 'S' mark (0 = none recorded)
  u64 adopt_ns = 0;  ///< root context 'F' mark (0 = none recorded)
  std::size_t orphans = 0;  ///< spans whose parent chain is broken

  bool complete() const;  ///< no orphans and every span closed
};

/// Where one slice of a request's wall time went. queue_wait is the
/// admission('S') -> first span gap plus, transitively, nothing else; the
/// category buckets hold per-span *self* time (child intervals subtracted),
/// classified by span name: *.compute -> compute, *.stale/cache -> cache_hit,
/// *.shed/degraded -> degraded, interior/unclassified -> other.
struct Decomposition {
  double queue_wait_s = 0.0;
  double compute_s = 0.0;
  double cache_hit_s = 0.0;
  double degraded_s = 0.0;
  double other_s = 0.0;
  double total_s = 0.0;  ///< sched (or root begin) to root end

  double sum() const {
    return queue_wait_s + compute_s + cache_hit_s + degraded_s + other_s;
  }
};

/// Every request tree reconstructable from a trace snapshot.
class TraceForest {
 public:
  /// Build from raw events (any order; id-less events are ignored).
  static TraceForest from_events(
      const std::vector<telemetry::TraceEvent>& events);
  /// Build from a snapshot of the global trace buffer.
  static TraceForest from_registry();

  const std::vector<RequestTree>& trees() const { return trees_; }
  std::size_t total_spans() const;
  std::size_t total_orphans() const;
  /// Causally complete: at least one tree, no orphans, all spans closed.
  bool complete() const;

  /// Timestamp-free serialization of every tree (names, derived ids, parent
  /// structure). Byte-identical across runs and thread counts when the
  /// traced program is deterministic.
  std::string structure() const;

 private:
  std::vector<RequestTree> trees_;  ///< sorted by trace_id
};

/// Latency decomposition of one request; requires tree.root != SIZE_MAX.
Decomposition decompose(const RequestTree& tree);

}  // namespace antarex::causal
