// Configuration space, power budgets, Pareto frontier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>

#include "hcep/config/budget.hpp"
#include "hcep/config/pareto.hpp"
#include "hcep/config/space.hpp"
#include "hcep/hw/catalog.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::config;
using namespace hcep::literals;

const workload::Workload& ep() {
  static const workload::Workload kEp = workload::make_workload("EP");
  return kEp;
}

TEST(ConfigSpace, Footnote4CountIs36380) {
  // 10 ARM x 5 freq x 4 cores and 10 AMD x 3 freq x 6 cores:
  // 36,000 mixed + 200 ARM-only + 180 AMD-only = 36,380.
  const ConfigSpace space = make_a9_k10_space(10, 10);
  EXPECT_EQ(space.size(), 36380u);
}

TEST(ConfigSpace, SingleTypeCounts) {
  EXPECT_EQ(make_a9_k10_space(10, 0).size(), 200u);  // 10 x 4 x 5
  EXPECT_EQ(make_a9_k10_space(0, 10).size(), 180u);  // 10 x 6 x 3
  EXPECT_EQ(make_a9_k10_space(1, 1).size(),
            20u + 18u + 20u * 18u);
}

TEST(ConfigSpace, EveryDecodedConfigIsValid) {
  const ConfigSpace space = make_a9_k10_space(2, 2);
  std::set<std::string> signatures;
  space.for_each([&](const model::ClusterSpec& cfg, std::uint64_t) {
    cfg.validate();
    std::string sig;
    for (const auto& g : cfg.groups) {
      sig += g.spec.name + ":" + std::to_string(g.count) + ":" +
             std::to_string(g.cores()) + ":" +
             std::to_string(g.freq().value()) + ";";
    }
    const bool inserted = signatures.insert(sig).second;
    EXPECT_TRUE(inserted) << "duplicate configuration " << sig;
  });
  EXPECT_EQ(signatures.size(), space.size());
}

TEST(ConfigSpace, IndexDecodeIsStable) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  for (std::uint64_t i : std::vector<std::uint64_t>{0, 7, space.size() - 1}) {
    const model::ClusterSpec a = space.config_at(i);
    const model::ClusterSpec b = space.config_at(i);
    EXPECT_EQ(a.label(), b.label());
  }
  EXPECT_THROW((void)space.config_at(space.size()), PreconditionError);
}

TEST(ConfigSpace, CustomCoreAndFrequencyChoices) {
  TypeOptions t{hw::cortex_a9(), 2, {2, 4}, {0.8_GHz, 1.4_GHz}, {}};
  EXPECT_EQ(t.tuples(), 2u * 2u * 2u);
  const ConfigSpace space({t});
  EXPECT_EQ(space.size(), 8u);
  space.for_each([&](const model::ClusterSpec& cfg, std::uint64_t) {
    ASSERT_EQ(cfg.groups.size(), 1u);
    EXPECT_TRUE(cfg.groups[0].cores() == 2 || cfg.groups[0].cores() == 4);
  });
}

TEST(ConfigSpace, RejectsInvalidOptions) {
  EXPECT_THROW(ConfigSpace({}), PreconditionError);
  TypeOptions bad_core{hw::cortex_a9(), 2, {9}, {}, {}};
  EXPECT_THROW(ConfigSpace({bad_core}), PreconditionError);
  TypeOptions bad_freq{hw::cortex_a9(), 2, {}, {9_GHz}, {}};
  EXPECT_THROW(ConfigSpace({bad_freq}), PreconditionError);
}

TEST(Budget, SubstitutionRatioIsEight) {
  EXPECT_EQ(substitution_ratio(), 8u);
}

TEST(Budget, MixNameplateAccounting) {
  EXPECT_DOUBLE_EQ(mix_nameplate_power(0, 16).value(), 960.0);
  EXPECT_DOUBLE_EQ(mix_nameplate_power(32, 12).value(),
                   160.0 + 80.0 + 720.0);
  EXPECT_DOUBLE_EQ(mix_nameplate_power(128, 0).value(), 640.0 + 320.0);
}

TEST(Budget, PaperMixesAreTheFiveFromFigure7) {
  const auto mixes = paper_budget_mixes();
  ASSERT_EQ(mixes.size(), 5u);
  EXPECT_EQ(mixes[0].label(), "16K10");
  EXPECT_EQ(mixes[1].label(), "32A9:12K10");
  EXPECT_EQ(mixes[2].label(), "64A9:8K10");
  EXPECT_EQ(mixes[3].label(), "96A9:4K10");
  EXPECT_EQ(mixes[4].label(), "128A9");
  for (const auto& m : mixes) {
    EXPECT_LE(m.nameplate_power().value(), 1000.0) << m.label();
  }
}

TEST(Budget, GeneralBudgetsRespectTheCap) {
  for (double budget : {300.0, 500.0, 2000.0}) {
    const auto mixes = budget_mixes(Watts{budget}, 2);
    EXPECT_FALSE(mixes.empty());
    for (const auto& m : mixes)
      EXPECT_LE(m.nameplate_power().value(), budget) << m.label();
  }
  EXPECT_THROW((void)budget_mixes(10_W), PreconditionError);  // < one K10
  EXPECT_THROW((void)budget_mixes(1_kW, 0), PreconditionError);
}

TEST(Budget, GeneralizedMixesForOtherNodePairs) {
  // The footnote-3 derivation generalizes: A15 (12 W + 2.5 W switch
  // share) vs XeonE5 (130 W) gives ratio floor(130/14.5) = 8.
  const auto wimpy = hw::cortex_a15();
  const auto brawny = hw::xeon_e5();
  EXPECT_EQ(substitution_ratio_for(wimpy, brawny), 8u);
  // And the paper pair reproduces its own ratio through the generic path.
  EXPECT_EQ(substitution_ratio_for(hw::cortex_a9(), hw::opteron_k10()), 8u);

  const auto mixes = budget_mixes_for(wimpy, brawny, Watts{1000.0}, 2);
  ASSERT_GE(mixes.size(), 3u);
  for (const auto& mix : mixes) {
    mix.validate();
    EXPECT_LE(mix.nameplate_power().value(), 1000.0) << mix.label();
  }
  // Endpoints: all-brawny first, all-wimpy last.
  EXPECT_EQ(mixes.front().groups.back().spec.name, "XeonE5");
  EXPECT_EQ(mixes.back().groups.front().spec.name, "A15");

  EXPECT_THROW(
      (void)substitution_ratio_for(hw::opteron_k10(), hw::cortex_a9()),
      PreconditionError);
  EXPECT_THROW((void)budget_mixes_for(wimpy, brawny, Watts{10.0}),
               PreconditionError);
}

TEST(EvaluateSpace, EvaluatesEveryConfiguration) {
  const ConfigSpace space = make_a9_k10_space(2, 1);
  const auto evals = evaluate_space(space, ep());
  ASSERT_EQ(evals.size(), space.size());
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_GT(evals.time(i).value(), 0.0);
    EXPECT_GT(evals.energy(i).value(), 0.0);
    EXPECT_GT(evals.busy_power(i), evals.idle_power(i));
  }
}

TEST(EvaluateSpace, FastPathMatchesNaiveOracle) {
  // The memoized table is built from the same workload primitives the
  // per-config TimeEnergyModel uses and the fused evaluator repeats its
  // floating-point grouping, so the two paths agree to ~machine epsilon.
  // Sampled across the full footnote-4 space (36,380 configurations).
  const ConfigSpace space = make_a9_k10_space(10, 10);
  ASSERT_EQ(space.size(), 36380u);
  const auto fast = evaluate_space(space, ep());

  std::uint64_t checked = 0;
  for (std::uint64_t i = 0; i < space.size(); i += 29) {  // 1255 samples
    model::ClusterSpec cfg = space.config_at(i);
    model::TimeEnergyModel m(cfg, ep());
    const double t = m.execution_time(ep().units_per_job).t_p.value();
    const double e = m.job_energy(ep().units_per_job).e_p.value();
    EXPECT_NEAR(fast.times()[i] / t, 1.0, 1e-9) << "config " << i;
    EXPECT_NEAR(fast.energies()[i] / e, 1.0, 1e-9) << "config " << i;
    EXPECT_NEAR(fast.idle_powers()[i] / m.idle_power().value(), 1.0, 1e-9);
    EXPECT_NEAR(fast.busy_powers()[i] / m.busy_power().value(), 1.0, 1e-9);
    ++checked;
  }
  EXPECT_GE(checked, 1000u);
}

TEST(EvaluateSpace, NaivePathAgreesExactlyOnSmallSpace) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  const auto fast = evaluate_space(space, ep());
  const auto naive = evaluate_space_naive(space, ep());
  ASSERT_EQ(fast.size(), naive.size());
  for (std::size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive[i].index, i);
    EXPECT_NEAR(fast.times()[i] / naive[i].time.value(), 1.0, 1e-9);
    EXPECT_NEAR(fast.energies()[i] / naive[i].energy.value(), 1.0, 1e-9);
    EXPECT_NEAR(fast.idle_powers()[i] / naive[i].idle_power.value(), 1.0,
                1e-9);
    EXPECT_NEAR(fast.busy_powers()[i] / naive[i].busy_power.value(), 1.0,
                1e-9);
  }
}

TEST(EvaluateSpace, FusedColumnsMatchThePerConfigEvaluatorBitForBit) {
  // evaluate_space walks each run of type-0 digits with the other types'
  // groups looked up once; every row must carry exactly the bits of the
  // per-configuration evaluator on decode_at(i).
  workload::CatalogOptions three_types;
  three_types.nodes = {hw::cortex_a9(), hw::opteron_k10(), hw::xeon_e5()};
  const std::vector<workload::Workload> paper = workload::paper_workloads();
  const std::vector<workload::Workload> paper3 =
      workload::paper_workloads(three_types);

  TypeOptions explicit_a9{hw::cortex_a9(), 4, {}, {}, {}};
  explicit_a9.operating_points = {{1, hw::cortex_a9().dvfs.min()},
                                  {4, hw::cortex_a9().dvfs.max()},
                                  {2, hw::cortex_a9().dvfs.step(2)}};
  const TypeOptions subset_k10{hw::opteron_k10(), 5, {2, 6},
                               {hw::opteron_k10().dvfs.min(),
                                hw::opteron_k10().dvfs.max()},
                               {}};
  struct Case {
    ConfigSpace space;
    const std::vector<workload::Workload>* workloads;
  };
  const std::vector<Case> cases = {
      {make_a9_k10_space(10, 10), &paper},
      {ConfigSpace({{hw::cortex_a9(), 3, {}, {}, {}},
                    {hw::opteron_k10(), 2, {}, {}, {}},
                    {hw::xeon_e5(), 3, {}, {}, {}}}),
       &paper3},
      {ConfigSpace({explicit_a9, subset_k10}), &paper},
      {ConfigSpace({{hw::opteron_k10(), 7, {}, {}, {}}}), &paper},
  };

  ThreadPool one(1);
  ThreadPool four(4);
  for (const Case& c : cases) {
    for (const workload::Workload& w : *c.workloads) {
      const OperatingPointTable table(c.space, w);
      for (ThreadPool* pool : {&one, &four}) {
        const EvaluationSet evals = evaluate_space(c.space, w, pool);
        ASSERT_EQ(evals.size(), c.space.size());
        std::uint64_t mismatches = 0;
        for (std::uint64_t i = 0; i < c.space.size(); ++i) {
          DecodedGroup groups[kMaxTypes];
          const std::size_t n = c.space.decode_at(i, groups);
          const PointMetrics m = table.evaluate_job(groups, n);
          const double want[4] = {m.time.value(), m.energy.value(),
                                  m.idle_power.value(),
                                  m.busy_power.value()};
          const double got[4] = {evals.times()[i], evals.energies()[i],
                                 evals.idle_powers()[i],
                                 evals.busy_powers()[i]};
          if (std::memcmp(want, got, sizeof want) != 0) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u) << w.name << " over " << c.space.size()
                                  << " configurations, " << pool->size()
                                  << " threads";
      }
    }
  }
}

TEST(EvaluateSpace, MaterializeMatchesConfigAt) {
  const ConfigSpace space = make_a9_k10_space(2, 2);
  const auto evals = evaluate_space(space, ep());
  for (std::uint64_t i : std::vector<std::uint64_t>{0, 17, space.size() - 1}) {
    const Evaluation e = evals.materialize(i);
    EXPECT_EQ(e.index, i);
    EXPECT_EQ(e.config.label(), space.config_at(i).label());
    EXPECT_DOUBLE_EQ(e.time.value(), evals.times()[i]);
    EXPECT_DOUBLE_EQ(e.energy.value(), evals.energies()[i]);
  }
  EXPECT_THROW((void)evals.materialize(evals.size()), PreconditionError);
}

TEST(ConfigSpace, DecodeAtRoundTripsThroughConfigAt) {
  // decode_at + point_at must agree with the materialized ClusterSpec for
  // every configuration: same group order, counts, cores and frequencies.
  const ConfigSpace space = make_a9_k10_space(3, 2);
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    DecodedGroup groups[kMaxTypes];
    const std::size_t n = space.decode_at(i, groups);
    const model::ClusterSpec cfg = space.config_at(i);
    ASSERT_EQ(n, cfg.groups.size()) << "config " << i;
    for (std::size_t g = 0; g < n; ++g) {
      const OperatingPoint op = space.point_at(groups[g].type, groups[g].point);
      EXPECT_EQ(space.types()[groups[g].type].spec.name,
                cfg.groups[g].spec.name);
      EXPECT_EQ(groups[g].count, cfg.groups[g].count);
      EXPECT_EQ(op.cores, cfg.groups[g].cores());
      EXPECT_EQ(op.frequency.value(), cfg.groups[g].freq().value());
    }
  }
  DecodedGroup scratch[kMaxTypes];
  EXPECT_THROW((void)space.decode_at(space.size(), scratch),
               PreconditionError);
}

TEST(ConfigSpace, ForEachDecodedMatchesDecodeAt) {
  const ConfigSpace space = make_a9_k10_space(2, 3);
  std::uint64_t expected = 0;
  space.for_each_decoded([&](const DecodedGroup* groups, std::size_t n,
                             std::uint64_t index) {
    ASSERT_EQ(index, expected++);
    DecodedGroup reference[kMaxTypes];
    ASSERT_EQ(space.decode_at(index, reference), n);
    for (std::size_t g = 0; g < n; ++g) {
      EXPECT_EQ(groups[g].type, reference[g].type);
      EXPECT_EQ(groups[g].count, reference[g].count);
      EXPECT_EQ(groups[g].point, reference[g].point);
    }
  });
  EXPECT_EQ(expected, space.size());
}

TEST(ConfigSpace, RejectsMoreThanMaxTypes) {
  std::vector<TypeOptions> types;
  for (std::size_t i = 0; i < kMaxTypes + 1; ++i) {
    TypeOptions t;
    t.spec = hw::cortex_a9();
    t.spec.name += "_" + std::to_string(i);
    types.push_back(std::move(t));
  }
  EXPECT_THROW(ConfigSpace(std::move(types)), PreconditionError);
}

TEST(OperatingPointTable, CachesEveryTupleOnce) {
  // Footnote-4 space: 4 cores x 5 freqs (A9) + 6 cores x 3 freqs (K10)
  // = 38 distinct operating points for 36,380 configurations.
  const ConfigSpace space = make_a9_k10_space(10, 10);
  const OperatingPointTable table(space, ep());
  ASSERT_EQ(table.num_types(), 2u);
  EXPECT_EQ(table.points_for(0), 20u);
  EXPECT_EQ(table.points_for(1), 18u);
  EXPECT_DOUBLE_EQ(table.units_per_job(), ep().units_per_job);
  for (std::size_t t = 0; t < table.num_types(); ++t) {
    EXPECT_GT(table.idle_power(t).value(), 0.0);
    for (std::size_t p = 0; p < table.points_for(t); ++p) {
      const OperatingPointEntry& e = table.entry(t, p);
      EXPECT_GT(e.t_cpu.value(), 0.0);
      EXPECT_GT(e.throughput, 0.0);
      EXPECT_GT(e.busy_power.value(), 0.0);
    }
  }
}

TEST(EvaluateSpace, RejectsUncoveredNodeTypes) {
  workload::CatalogOptions opts;
  opts.nodes = {hw::cortex_a9()};
  const workload::Workload a9_only = workload::make_workload("EP", opts);
  const ConfigSpace space = make_a9_k10_space(1, 1);
  EXPECT_THROW((void)evaluate_space(space, a9_only), PreconditionError);
}

TEST(ParetoFront, NoMemberIsDominated) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  const auto evals = evaluate_space(space, ep());
  const auto front = pareto_front(evals);
  ASSERT_FALSE(front.empty());
  // Sorted by time, strictly decreasing energy.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].time, front[i - 1].time);
    EXPECT_LT(front[i].energy, front[i - 1].energy);
  }
  // Property: nothing in the full set dominates a frontier member.
  for (const auto& f : front) {
    for (std::size_t i = 0; i < evals.size(); ++i) {
      const double t = evals.times()[i];
      const double e = evals.energies()[i];
      const bool dominates =
          t <= f.time.value() && e <= f.energy.value() &&
          (t < f.time.value() || e < f.energy.value());
      EXPECT_FALSE(dominates)
          << "config " << i << " dominates " << f.config.label();
    }
  }
}

TEST(ParetoFront, SetAndVectorOverloadsAgree) {
  const ConfigSpace space = make_a9_k10_space(2, 2);
  const auto set_front = pareto_front(evaluate_space(space, ep()));
  const auto vec_front = pareto_front(evaluate_space_naive(space, ep()));
  ASSERT_EQ(set_front.size(), vec_front.size());
  for (std::size_t i = 0; i < set_front.size(); ++i) {
    EXPECT_NEAR(set_front[i].time.value() / vec_front[i].time.value(), 1.0,
                1e-9);
    EXPECT_NEAR(set_front[i].energy.value() / vec_front[i].energy.value(),
                1.0, 1e-9);
  }
}

/// The frontier by definition: sort every row by (time, energy, index)
/// and keep each row whose energy beats every row before it.
std::vector<std::uint64_t> sort_scan_front(const std::vector<double>& time,
                                           const std::vector<double>& energy) {
  std::vector<std::uint64_t> order(time.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (time[a] != time[b]) return time[a] < time[b];
              if (energy[a] != energy[b]) return energy[a] < energy[b];
              return a < b;
            });
  std::vector<std::uint64_t> front;
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t i : order) {
    if (energy[i] < best) {
      best = energy[i];
      front.push_back(i);
    }
  }
  return front;
}

TEST(ParetoFront, SetOverloadMatchesSortScanOracle) {
  const ConfigSpace space = make_a9_k10_space(10, 10);  // rows to materialize
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  struct Case {
    const char* name;
    std::vector<double> time;
    std::vector<double> energy;
  };
  std::vector<Case> cases = {
      {"equal times", {2, 1, 2, 1, 3, 2}, {5, 7, 4, 6, 1, 4}},
      {"duplicate pair, lowest index wins", {3, 1, 2, 1, 2}, {1, 4, 2, 4, 2}},
      {"all times equal", {4, 4, 4, 4}, {3, 1, 2, 1}},
      {"single row", {7}, {9}},
      {"zero, negative and infinite times",
       {0.0, -0.0, -3.0, inf, -inf, 2.0, -inf, 0.0},
       {5, 5, 6, 0.5, 9, 1, 8, 4}},
      {"signed zeros tie", {0.0, -0.0}, {1, 1}},
      {"infinite energies", {1, 2, 3}, {inf, inf, 2}},
      {"subnormal times",
       {tiny, 3 * tiny, 2 * tiny, 0.0, tiny, 1e-300},
       {4, 1, 2, 6, 3, 0.5}},
  };
  // Times spanning 1e-12 .. 1e12 with random energies, and a wide set in
  // which many rows share few times, so the prefilter drops most rows.
  std::mt19937_64 rng(20160901);
  std::uniform_real_distribution<double> decades(-12.0, 12.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Case wide{"times 1e-12 .. 1e12", {}, {}};
  Case ties{"many ties", {}, {}};
  for (int i = 0; i < 20000; ++i) {
    const double t = std::pow(10.0, decades(rng));
    wide.time.push_back(t);
    wide.energy.push_back(1.0 / t + unit(rng) * 1e3);
    ties.time.push_back(std::floor(unit(rng) * 50.0));
    ties.energy.push_back(std::floor(unit(rng) * 40.0));
  }
  cases.push_back(std::move(wide));
  cases.push_back(std::move(ties));

  for (const Case& c : cases) {
    ASSERT_EQ(c.time.size(), c.energy.size());
    EvaluationSet set(&space, c.time.size());
    for (std::size_t i = 0; i < c.time.size(); ++i)
      set.set(i, Seconds{c.time[i]}, Joules{c.energy[i]}, Watts{}, Watts{});
    std::vector<std::uint64_t> got;
    for (const Evaluation& e : pareto_front(set)) got.push_back(e.index);
    EXPECT_EQ(got, sort_scan_front(c.time, c.energy)) << c.name;
  }
}

TEST(ParetoFront, RejectsNaNTimesAndEnergies) {
  const ConfigSpace space = make_a9_k10_space(1, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int column = 0; column < 2; ++column) {
    EvaluationSet set(&space, 3);
    for (std::size_t i = 0; i < 3; ++i)
      set.set(i, Seconds{1.0 + static_cast<double>(i)}, Joules{3.0}, Watts{},
              Watts{});
    set.set(1, Seconds{column == 0 ? nan : 2.0},
            Joules{column == 1 ? nan : 3.0}, Watts{}, Watts{});
    EXPECT_THROW((void)pareto_front(set), PreconditionError) << column;

    std::vector<Evaluation> rows(3);
    for (std::size_t i = 0; i < 3; ++i) rows[i] = set.materialize(i);
    EXPECT_THROW((void)pareto_front(rows), PreconditionError) << column;
  }
}

TEST(ParetoFront, FrontierEndpoints) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  auto evals = evaluate_space(space, ep());
  const auto front = pareto_front(evals);
  const auto fastest_eval = fastest(evals);
  ASSERT_TRUE(fastest_eval.has_value());
  EXPECT_DOUBLE_EQ(front.front().time.value(),
                   fastest_eval->time.value());
  // The last frontier member carries the global minimum energy.
  double min_energy = 1e300;
  for (double e : evals.energies()) min_energy = std::min(min_energy, e);
  EXPECT_DOUBLE_EQ(front.back().energy.value(), min_energy);
}

TEST(ParetoFront, EmptyInputYieldsEmptyFront) {
  EXPECT_TRUE(pareto_front(std::vector<Evaluation>{}).empty());
  EXPECT_FALSE(fastest(std::vector<Evaluation>{}).has_value());
  EXPECT_FALSE(min_energy_within_deadline(std::vector<Evaluation>{},
                                          Seconds{1.0})
                   .has_value());
  const EvaluationSet empty_set;
  EXPECT_TRUE(pareto_front(empty_set).empty());
  EXPECT_FALSE(fastest(empty_set).has_value());
  EXPECT_FALSE(
      min_energy_within_deadline(empty_set, Seconds{1.0}).has_value());
  EXPECT_FALSE(min_edp(empty_set).has_value());
}

TEST(EnergyDelay, ProductsAndMinimum) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  const auto evals = evaluate_space(space, ep());

  // EDP/ED2P formulas.
  const Evaluation e0 = evals.materialize(0);
  EXPECT_DOUBLE_EQ(energy_delay_product(e0).value(),
                   e0.energy.value() * e0.time.value());
  EXPECT_DOUBLE_EQ(energy_delay2_product(e0).value(),
                   e0.energy.value() * e0.time.value() * e0.time.value());

  // The EDP optimum is never dominated: it must sit on the frontier.
  const auto best = min_edp(evals);
  ASSERT_TRUE(best.has_value());
  for (std::size_t i = 0; i < evals.size(); ++i)
    EXPECT_GE(evals.energies()[i] * evals.times()[i],
              energy_delay_product(*best).value() - 1e-12);
  const auto front = pareto_front(evals);
  bool on_front = false;
  for (const auto& f : front) {
    if (f.time == best->time && f.energy == best->energy) on_front = true;
  }
  EXPECT_TRUE(on_front);

  // ED2P weights latency harder: its pick is at least as fast.
  const auto best2 = min_edp(evals, /*squared=*/true);
  ASSERT_TRUE(best2.has_value());
  EXPECT_LE(best2->time, best->time);

  EXPECT_FALSE(min_edp(std::vector<Evaluation>{}).has_value());
}

TEST(MinEnergyWithinDeadline, PicksCheapestFeasible) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  const auto evals = evaluate_space(space, ep());
  const auto fastest_eval = fastest(evals);
  ASSERT_TRUE(fastest_eval.has_value());

  // Generous deadline: must return the global energy minimum.
  const auto loose =
      min_energy_within_deadline(evals, Seconds{1e9});
  ASSERT_TRUE(loose.has_value());
  for (double e : evals.energies()) EXPECT_GE(e, loose->energy.value());

  // Impossible deadline: nothing qualifies.
  const auto none = min_energy_within_deadline(
      evals, fastest_eval->time * 0.5);
  EXPECT_FALSE(none.has_value());

  // Tight-but-feasible deadline: result respects it.
  const auto tight =
      min_energy_within_deadline(evals, fastest_eval->time * 1.2);
  ASSERT_TRUE(tight.has_value());
  EXPECT_LE(tight->time, fastest_eval->time * 1.2);
}

}  // namespace
