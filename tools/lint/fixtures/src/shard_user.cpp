// hcep-lint selftest fixture: the parallel_for TU for the cross-file
// shared-mutable-static rule. Mentioning parallel_for makes this file a
// BFS root in the include-graph pass; the quoted include below pulls
// hcep/shared/bad_counters.hpp into the parallel-reachable set (resolved
// against the tree's src/include/ root). unreachable.hpp is deliberately
// NOT included. Scanned only by `hcep-lint --selftest`; not part of the
// build.
#include "hcep/shared/bad_counters.hpp"

namespace hcep::cluster {

void fixture_run_shards(int shards) {
  parallel_for(0, shards, [](int) { ++hcep::shared::g_event_count; });
}

}  // namespace hcep::cluster
