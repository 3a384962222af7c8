#include "causal/critical_path.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "support/strings.hpp"
#include "telemetry/registry.hpp"

namespace antarex::causal {

namespace {

/// Category of one span's self time, by name convention.
enum class Category { kCompute, kCacheHit, kDegraded, kOther };

Category classify(const char* name, bool leaf) {
  if (std::strstr(name, "stale") || std::strstr(name, "cache"))
    return Category::kCacheHit;
  if (std::strstr(name, "shed") || std::strstr(name, "degraded"))
    return Category::kDegraded;
  if (std::strstr(name, "compute")) return Category::kCompute;
  return leaf ? Category::kCompute : Category::kOther;
}

/// A context mark ('S' or 'F'): links an id to its parent without a span.
struct Mark {
  u64 parent_id = 0;
  u64 ts_ns = 0;
  bool present = false;
};

struct TraceAccum {
  std::map<u64, SpanNode> spans;        // span_id -> node (B/E matched here)
  std::map<u64, Mark> sched;            // 'S' marks by span_id
  std::map<u64, Mark> adopt;            // 'F' marks by span_id
};

RequestTree link_tree(u64 trace_id, TraceAccum& acc) {
  RequestTree tree;
  tree.trace_id = trace_id;
  tree.spans.reserve(acc.spans.size());
  std::map<u64, std::size_t> index;  // span_id -> tree.spans index
  for (auto& [id, node] : acc.spans) {
    index.emplace(id, tree.spans.size());
    tree.spans.push_back(node);
  }

  // Root context marks: the id whose parent is 0 and which is not itself a
  // span (it was created by TraceContext::root and only ever adopted).
  for (const auto& [id, mark] : acc.sched)
    if (mark.parent_id == 0 && index.find(id) == index.end() &&
        (tree.sched_ns == 0 || mark.ts_ns < tree.sched_ns))
      tree.sched_ns = mark.ts_ns;
  for (const auto& [id, mark] : acc.adopt)
    if (mark.parent_id == 0 && index.find(id) == index.end() &&
        (tree.adopt_ns == 0 || mark.ts_ns < tree.adopt_ns))
      tree.adopt_ns = mark.ts_ns;

  // Resolve each span's parent: chase the id chain through fork marks until
  // it lands on another span (nesting parent), reaches 0 (top level), or
  // breaks (orphan). Chains are short — one hop per pool boundary.
  for (std::size_t i = 0; i < tree.spans.size(); ++i) {
    SpanNode& node = tree.spans[i];
    u64 pid = node.parent_id;
    for (int hops = 0; hops < 64; ++hops) {
      if (pid == 0) break;  // reached the tree root: top-level span
      const auto parent_it = index.find(pid);
      if (parent_it != index.end()) {
        node.parent = parent_it->second;
        break;
      }
      const auto s_it = acc.sched.find(pid);
      const auto f_it = acc.adopt.find(pid);
      if (s_it != acc.sched.end()) {
        pid = s_it->second.parent_id;
      } else if (f_it != acc.adopt.end()) {
        pid = f_it->second.parent_id;
      } else {
        node.orphan = true;  // parent id never recorded anywhere
        break;
      }
    }
    if (node.orphan) ++tree.orphans;
  }

  // Children lists come out sorted by span_id because spans are iterated in
  // span_id order.
  std::size_t top_spans = 0;
  for (std::size_t i = 0; i < tree.spans.size(); ++i) {
    const SpanNode& node = tree.spans[i];
    if (node.orphan) continue;
    if (node.parent == SIZE_MAX) {
      ++top_spans;
      tree.root = i;
    } else {
      tree.spans[node.parent].children.push_back(i);
    }
  }
  if (top_spans != 1) tree.root = SIZE_MAX;
  return tree;
}

}  // namespace

bool RequestTree::complete() const {
  if (orphans != 0 || spans.empty()) return false;
  for (const SpanNode& s : spans)
    if (!s.closed) return false;
  return true;
}

TraceForest TraceForest::from_events(
    const std::vector<telemetry::TraceEvent>& events) {
  std::map<u64, TraceAccum> by_trace;
  for (const telemetry::TraceEvent& e : events) {
    if (e.trace_id == 0) continue;  // span outside any causal context
    TraceAccum& acc = by_trace[e.trace_id];
    if (e.phase == 'B') {
      SpanNode& node = acc.spans[e.span_id];
      node.name = e.name;
      node.span_id = e.span_id;
      node.parent_id = e.parent_id;
      node.begin_ns = e.ts_ns;
    } else if (e.phase == 'E') {
      const auto it = acc.spans.find(e.span_id);
      if (it == acc.spans.end()) continue;  // its 'B' was dropped
      it->second.end_ns = e.ts_ns;
      it->second.closed = true;
    } else if (e.phase == 'S') {
      Mark& m = acc.sched[e.span_id];
      if (!m.present) m = Mark{e.parent_id, e.ts_ns, true};
    } else if (e.phase == 'F') {
      Mark& m = acc.adopt[e.span_id];
      if (!m.present) m = Mark{e.parent_id, e.ts_ns, true};
    }
  }

  TraceForest forest;
  forest.trees_.reserve(by_trace.size());
  for (auto& [trace_id, acc] : by_trace)
    forest.trees_.push_back(link_tree(trace_id, acc));
  return forest;
}

TraceForest TraceForest::from_registry() {
  return from_events(telemetry::Registry::global().trace().snapshot());
}

std::size_t TraceForest::total_spans() const {
  std::size_t n = 0;
  for (const RequestTree& t : trees_) n += t.spans.size();
  return n;
}

std::size_t TraceForest::total_orphans() const {
  std::size_t n = 0;
  for (const RequestTree& t : trees_) n += t.orphans;
  return n;
}

bool TraceForest::complete() const {
  if (trees_.empty()) return false;
  for (const RequestTree& t : trees_)
    if (!t.complete()) return false;
  return true;
}

std::string TraceForest::structure() const {
  std::string out;
  for (const RequestTree& tree : trees_) {
    out += format("trace %llu\n",
                  static_cast<unsigned long long>(tree.trace_id));
    // Depth-first from the top-level spans, children already in span_id
    // order — no timestamps, so the bytes depend only on program structure.
    struct Item {
      std::size_t index;
      int depth;
    };
    std::vector<Item> stack;
    for (std::size_t i = tree.spans.size(); i-- > 0;) {
      const SpanNode& s = tree.spans[i];
      if (!s.orphan && s.parent == SIZE_MAX) stack.push_back({i, 1});
    }
    while (!stack.empty()) {
      const Item item = stack.back();
      stack.pop_back();
      const SpanNode& s = tree.spans[item.index];
      out.append(static_cast<std::size_t>(2 * item.depth), ' ');
      out += format("%s#%llx%s\n", s.name,
                    static_cast<unsigned long long>(s.span_id),
                    s.closed ? "" : "!");
      for (std::size_t c = s.children.size(); c-- > 0;)
        stack.push_back({s.children[c], item.depth + 1});
    }
    for (const SpanNode& s : tree.spans)
      if (s.orphan)
        out += format("  orphan %s#%llx parent=%llx\n", s.name,
                      static_cast<unsigned long long>(s.span_id),
                      static_cast<unsigned long long>(s.parent_id));
  }
  return out;
}

Decomposition decompose(const RequestTree& tree) {
  ANTAREX_REQUIRE(tree.root != SIZE_MAX,
                  "decompose: tree has no unique root span");
  const SpanNode& root = tree.spans[tree.root];
  const u64 start = tree.sched_ns != 0 ? std::min(tree.sched_ns, root.begin_ns)
                                       : root.begin_ns;
  const u64 root_end = std::max(root.end_ns, root.begin_ns);  // unclosed: 0
  Decomposition d;
  d.total_s = static_cast<double>(root_end - start) * 1e-9;
  d.queue_wait_s = static_cast<double>(root.begin_ns - start) * 1e-9;

  // Per-span self time: the span's interval minus the merged union of its
  // children's intervals (clipped to the span). For well-nested trees the
  // self times plus the queue wait reconstruct the wall time exactly.
  std::vector<std::size_t> order{tree.root};
  for (std::size_t i = 0; i < order.size(); ++i)
    for (std::size_t c : tree.spans[order[i]].children) order.push_back(c);

  for (std::size_t i : order) {
    const SpanNode& s = tree.spans[i];
    std::vector<std::pair<u64, u64>> ivals;
    ivals.reserve(s.children.size());
    for (std::size_t c : s.children) {
      const SpanNode& child = tree.spans[c];
      const u64 b = std::max(child.begin_ns, s.begin_ns);
      const u64 e = std::min(child.end_ns, s.end_ns);
      if (e > b) ivals.emplace_back(b, e);
    }
    std::sort(ivals.begin(), ivals.end());
    u64 covered = 0, cursor = s.begin_ns;
    for (const auto& [b, e] : ivals) {
      const u64 from = std::max(b, cursor);
      if (e > from) covered += e - from;
      cursor = std::max(cursor, e);
    }
    const u64 dur = s.end_ns > s.begin_ns ? s.end_ns - s.begin_ns : 0;
    const double self_s =
        covered < dur ? static_cast<double>(dur - covered) * 1e-9 : 0.0;
    switch (classify(s.name, s.children.empty())) {
      case Category::kCompute: d.compute_s += self_s; break;
      case Category::kCacheHit: d.cache_hit_s += self_s; break;
      case Category::kDegraded: d.degraded_s += self_s; break;
      case Category::kOther: d.other_s += self_s; break;
    }
  }
  return d;
}

}  // namespace antarex::causal
