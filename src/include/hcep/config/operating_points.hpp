// Memoized operating-point evaluation engine.
//
// A configuration space over T node types with P_t per-type operating
// points (active cores x frequency) contains O(prod_t n_t * P_t)
// configurations but only O(sum_t P_t) *distinct* per-node behaviours:
// for the footnote-4 A9/K10 space that is 36,380 configurations built
// from 20 + 18 = 38 tuples. Everything the time-energy model derives per
// node — unit-time phase components, unit throughput, busy power and the
// Table 2 energy rates — depends only on (type, cores, frequency), never
// on the node count, so it can be computed once per tuple and reused
// across the whole sweep.
//
// OperatingPointTable precomputes exactly those quantities (via the same
// workload::unit_time / workload::busy_power primitives the naive
// TimeEnergyModel path uses, so results agree to machine precision) and
// fuses a configuration in O(#types) arithmetic with no ClusterSpec,
// NodeSpec, Workload or heap allocation on the hot path.
//
// evaluate_range fuses a whole run of consecutive configurations: type
// 0's (count, point) digit varies fastest in the space's index order, so
// the other types' groups are looked up once per run of type-0 digits
// and each row costs only the fused arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "hcep/config/evaluation_set.hpp"
#include "hcep/config/space.hpp"
#include "hcep/util/units.hpp"
#include "hcep/workload/demand.hpp"

namespace hcep::config {

/// Cached per-(type, operating point) quantities. Times are seconds per
/// unit of work on one node; powers are watts per node. The typed fields
/// have raw-double layout (sizeof(Quantity) == sizeof(double)), so the
/// table stays a flat array of 10 doubles per tuple.
struct OperatingPointEntry {
  Seconds t_core{};  ///< per-unit core execution time
  Seconds t_mem{};   ///< per-unit memory-stall time
  Seconds t_cpu{};   ///< max(t_core, t_mem)
  Seconds t_io{};    ///< per-unit NIC transfer time
  double throughput = 0.0;  ///< units/s per continuously busy node
  Watts busy_power{};       ///< per continuously busy node
  // Table 2 energy rates with (cores * dvfs * kappa) folded in, so the
  // fused evaluator multiplies each by a phase time and the node count.
  Watts p_core_active{};  ///< while cores execute work cycles
  Watts p_core_stall{};   ///< while cores stall on memory
  Watts p_mem{};          ///< while the memory system streams
  Watts p_net{};          ///< while the NIC moves data
};

/// The four quantities a sweep needs per configuration.
struct PointMetrics {
  Seconds time{};      ///< job execution time T_P
  Joules energy{};     ///< job energy E_P
  Watts idle_power{};  ///< cluster idle floor
  Watts busy_power{};  ///< cluster busy power
};

class OperatingPointTable {
 public:
  /// Precomputes every (type, operating point) tuple of `space` for
  /// `workload`. Throws when the workload lacks demand for a type.
  /// Holds no reference to either argument after construction.
  OperatingPointTable(const ConfigSpace& space,
                      const workload::Workload& workload);

  [[nodiscard]] std::size_t num_types() const { return types_.size(); }
  [[nodiscard]] std::size_t points_for(std::size_t type) const {
    return types_[type].points.size();
  }
  [[nodiscard]] const OperatingPointEntry& entry(std::size_t type,
                                                 std::size_t point) const {
    return types_[type].points[point];
  }
  /// Idle floor of one node of `type`.
  [[nodiscard]] Watts idle_power(std::size_t type) const {
    return types_[type].idle_power;
  }
  [[nodiscard]] double units_per_job() const { return units_per_job_; }

  /// Fuses one configuration: rate-matched work split, Table 2 time and
  /// energy rows, idle/busy cluster power — pure arithmetic over the
  /// cached tuples, no allocation. `groups` holds `n` present groups
  /// (e.g. from ConfigSpace::decode_at).
  [[nodiscard]] PointMetrics evaluate(const DecodedGroup* groups,
                                      std::size_t n, double units) const;

  /// Convenience overload for one job of the bound workload.
  [[nodiscard]] PointMetrics evaluate_job(const DecodedGroup* groups,
                                          std::size_t n) const {
    return evaluate(groups, n, units_per_job_);
  }

  /// Evaluates one job for every configuration index in [begin, end) of
  /// the space this table was built from and writes row i of `out` with
  /// exactly the bits evaluate_job(decode_at(i)) returns. Distinct
  /// ranges may be filled concurrently.
  void evaluate_range(std::uint64_t begin, std::uint64_t end,
                      EvaluationSet& out) const;

 private:
  struct TypeTable {
    Watts idle_power{};  ///< per node, operating-point independent
    std::uint64_t radix = 0;  ///< the space's digit radix: tuples() + 1
    std::vector<OperatingPointEntry> points;
  };
  std::vector<TypeTable> types_;
  std::uint64_t configs_ = 0;  ///< size() of the space
  double units_per_job_ = 1.0;
  Seconds io_request_interval_{};  ///< 1/lambda_I/O
};

}  // namespace hcep::config
