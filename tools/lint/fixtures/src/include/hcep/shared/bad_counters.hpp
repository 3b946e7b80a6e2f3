// hcep-lint selftest fixture: the shared-mutable-static cross-file rule.
// This header is included (transitively) from a TU that uses
// parallel_for, so the include-graph pass marks it parallel-reachable: a
// mutable static here is state every task races on. One live violation,
// one suppressed twin, and const/constexpr/atomic/thread_local/function
// controls that must stay silent. Scanned only by `hcep-lint
// --selftest`; not part of the build.
#pragma once

#include <atomic>
#include <cstdint>

namespace hcep::shared {

// LIVE shared-mutable-static: plain mutable static in a
// parallel-reachable header.
static std::uint64_t g_event_count = 0;

// Suppressed twin: must stay silent.
static std::uint64_t g_debug_ticks = 0;  // hcep-lint: allow(shared-mutable-static)

// Controls: immutable, atomic, per-thread, and function statics are all
// fine.
static const double kScale = 2.0;
static constexpr int kMaxShards = 64;
static std::atomic<std::uint64_t> g_live_count{0};
static thread_local int t_scratch = 0;
static int clamp_shards(int n);

}  // namespace hcep::shared
