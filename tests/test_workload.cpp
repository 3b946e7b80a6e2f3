// Characterization and calibration: the measurement-driven pipeline that
// pins workload profiles to the paper's published Table 6/7 seeds.
#include <gtest/gtest.h>

#include <cctype>
#include <map>

#include "hcep/hw/catalog.hpp"
#include "hcep/kernels/registry.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/calibrate.hpp"
#include "hcep/workload/catalog.hpp"
#include "hcep/workload/characterize.hpp"
#include "hcep/workload/node_ops.hpp"

namespace {

using namespace hcep;
using namespace hcep::workload;

const std::vector<Workload>& catalog() {
  static const std::vector<Workload> kCatalog = paper_workloads();
  return kCatalog;
}

TEST(Demand, ScaledMultipliesEveryField) {
  NodeDemand d{.cycles_core = 10.0, .cycles_mem = 4.0, .io_bytes = Bytes{2.0}};
  const NodeDemand s = d.scaled(3.0);
  EXPECT_DOUBLE_EQ(s.cycles_core, 30.0);
  EXPECT_DOUBLE_EQ(s.cycles_mem, 12.0);
  EXPECT_DOUBLE_EQ(s.io_bytes.value(), 6.0);
}

TEST(Workload, DemandLookupValidates) {
  Workload w;
  w.name = "test";
  w.demand["A9"] = NodeDemand{1.0, 1.0, Bytes{0.0}};
  EXPECT_TRUE(w.has_node("A9"));
  EXPECT_FALSE(w.has_node("K10"));
  EXPECT_NO_THROW((void)w.demand_for("A9"));
  EXPECT_THROW((void)w.demand_for("K10"), PreconditionError);
  EXPECT_DOUBLE_EQ(w.power_scale_for("K10"), 1.0);  // uncalibrated default
}

TEST(Characterize, ProducesPositiveDemand) {
  auto kernel = kernels::make_kernel("blackscholes");
  const NodeDemand d = characterize(*kernel, hw::cortex_a9(), 2000);
  EXPECT_GT(d.cycles_core, 0.0);
  EXPECT_GT(d.cycles_mem, 0.0);
}

TEST(Characterize, FasterCostModelYieldsFewerCycles) {
  auto kernel = kernels::make_kernel("blackscholes");
  const NodeDemand a9 = characterize(*kernel, hw::cortex_a9(), 2000);
  const NodeDemand k10 = characterize(*kernel, hw::opteron_k10(), 2000);
  // The K10's CPI and bandwidth are better across the board.
  EXPECT_LT(k10.cycles_core, a9.cycles_core);
}

TEST(Characterize, CryptoAccelerationCutsRsaCycles) {
  auto kernel = kernels::make_kernel("RSA-2048");
  const NodeDemand a9 = characterize(*kernel, hw::cortex_a9(), 2);
  const NodeDemand k10 = characterize(*kernel, hw::opteron_k10(), 2);
  // Crypto ops dominate RSA; the K10's 9x acceleration must show on
  // top of its generally lower CPI.
  EXPECT_LT(k10.cycles_core, a9.cycles_core / 2.5);
}

TEST(Characterize, DeterministicForFixedSeed) {
  auto k1 = kernels::make_kernel("EP");
  auto k2 = kernels::make_kernel("EP");
  const NodeDemand a = characterize(*k1, hw::cortex_a9(), 10000, 7);
  const NodeDemand b = characterize(*k2, hw::cortex_a9(), 10000, 7);
  EXPECT_DOUBLE_EQ(a.cycles_core, b.cycles_core);
  EXPECT_DOUBLE_EQ(a.cycles_mem, b.cycles_mem);
}

TEST(PaperTargets, CoverAllSixProgramsOnBothNodes) {
  for (const auto& program : program_names()) {
    for (const auto* node : {"A9", "K10"}) {
      const auto t = paper_target(program, node);
      ASSERT_TRUE(t.has_value()) << program << "/" << node;
      EXPECT_GT(t->ppr, 0.0);
      EXPECT_GT(t->ipr, 0.0);
      EXPECT_LT(t->ipr, 1.0);
    }
  }
  EXPECT_FALSE(paper_target("EP", "XeonE5").has_value());
  EXPECT_FALSE(paper_target("doom", "A9").has_value());
}

TEST(PaperTargets, Table6And7SpotChecks) {
  EXPECT_DOUBLE_EQ(paper_target("EP", "A9")->ppr, 6048057.0);
  EXPECT_DOUBLE_EQ(paper_target("EP", "K10")->ipr, 0.65);
  EXPECT_DOUBLE_EQ(paper_target("RSA-2048", "K10")->ppr, 1091.0);
  EXPECT_DOUBLE_EQ(paper_target("memcached", "A9")->ipr, 0.83);
}

struct CalCase {
  const char* program;
  const char* node;
};

class Calibration : public ::testing::TestWithParam<CalCase> {};

TEST_P(Calibration, PinsThroughputAndPeakPower) {
  const auto& [program, node_name] = GetParam();
  const hw::NodeSpec node = hw::by_name(node_name);
  const Workload* w = nullptr;
  for (const auto& cand : catalog())
    if (cand.name == program) w = &cand;
  ASSERT_NE(w, nullptr);

  const auto target = paper_target(program, node_name);
  ASSERT_TRUE(target.has_value());

  const double thr =
      unit_throughput(w->demand_for(node_name), node, node.cores,
                      node.dvfs.max());
  EXPECT_NEAR(thr / target_peak_throughput(node, *target), 1.0, 1e-9);

  const Watts busy =
      busy_power(w->demand_for(node_name), node, node.cores, node.dvfs.max(),
                 w->power_scale_for(node_name));
  EXPECT_NEAR(busy.value(), target_peak_power(node, *target).value(), 1e-6);

  // IPR of the calibrated node equals the Table 7 target.
  EXPECT_NEAR(node.power.idle / busy, target->ipr, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, Calibration,
    ::testing::Values(CalCase{"EP", "A9"}, CalCase{"EP", "K10"},
                      CalCase{"memcached", "A9"}, CalCase{"memcached", "K10"},
                      CalCase{"x264", "A9"}, CalCase{"x264", "K10"},
                      CalCase{"blackscholes", "A9"},
                      CalCase{"blackscholes", "K10"},
                      CalCase{"Julius", "A9"}, CalCase{"Julius", "K10"},
                      CalCase{"RSA-2048", "A9"}, CalCase{"RSA-2048", "K10"}),
    [](const auto& inst) {
      std::string n = std::string(inst.param.program) + "_" + inst.param.node;
      for (auto& ch : n)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      return n;
    });

TEST(Calibrate, RejectsBadTargets) {
  Workload w;
  w.name = "test";
  w.demand["A9"] = NodeDemand{1e6, 1e5, Bytes{10.0}};
  const hw::NodeSpec a9 = hw::cortex_a9();
  EXPECT_THROW(calibrate_node(w, a9, {.ppr = 100.0, .ipr = 1.5}),
               PreconditionError);
  EXPECT_THROW(calibrate_node(w, a9, {.ppr = -1.0, .ipr = 0.5}),
               PreconditionError);
  Workload empty;
  empty.name = "none";
  EXPECT_THROW(calibrate_node(empty, a9, {.ppr = 1.0, .ipr = 0.5}),
               PreconditionError);
}

TEST(Catalog, BuildsAllSixWithBothNodes) {
  ASSERT_EQ(catalog().size(), 6u);
  for (const auto& w : catalog()) {
    EXPECT_TRUE(w.has_node("A9")) << w.name;
    EXPECT_TRUE(w.has_node("K10")) << w.name;
    EXPECT_GT(w.units_per_job, 0.0);
    EXPECT_FALSE(w.work_unit.empty());
    EXPECT_EQ(w.power_cal.size(), 2u);
  }
}

TEST(Catalog, OneKernelRunMatchesPerNodeCharacterization) {
  // make_workload runs each kernel once and maps the counts onto every
  // node; that must equal a fresh characterize() per node, bit for bit.
  CatalogOptions opts;
  opts.calibrate = false;
  opts.nodes = {hw::cortex_a9(), hw::opteron_k10(), hw::xeon_e5()};
  for (const std::string& program : program_names()) {
    const Workload w = make_workload(program, opts);
    for (const hw::NodeSpec& node : opts.nodes) {
      const auto kernel = kernels::make_kernel(program);
      const NodeDemand want = characterize(
          *kernel, node, default_characterization_units(program), opts.seed);
      const NodeDemand& got = w.demand.at(node.name);
      EXPECT_EQ(got.cycles_core, want.cycles_core) << program << node.name;
      EXPECT_EQ(got.cycles_mem, want.cycles_mem) << program << node.name;
      EXPECT_EQ(got.io_bytes.value(), want.io_bytes.value())
          << program << node.name;
    }
  }
}

TEST(Catalog, WorkUnitsMatchTable6) {
  const std::map<std::string, std::string> expected = {
      {"EP", "random no."},   {"memcached", "bytes"},
      {"x264", "frames"},     {"blackscholes", "options"},
      {"Julius", "samples"},  {"RSA-2048", "verify"}};
  for (const auto& w : catalog()) {
    EXPECT_EQ(w.work_unit, expected.at(w.name)) << w.name;
  }
}

TEST(Catalog, OnlyMemcachedIsRequestPaced) {
  for (const auto& w : catalog()) {
    if (w.name == "memcached") {
      EXPECT_GT(w.io_request_interval.value(), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(w.io_request_interval.value(), 0.0);
    }
  }
}

TEST(Catalog, UncalibratedExtensionNodesWork) {
  CatalogOptions opts;
  opts.nodes = {hw::cortex_a15(), hw::xeon_e5()};
  const Workload w = make_workload("blackscholes", opts);
  EXPECT_TRUE(w.has_node("A15"));
  EXPECT_TRUE(w.has_node("XeonE5"));
  EXPECT_TRUE(w.power_cal.empty());  // no paper seeds for these
}

TEST(InputScale, ScalesJobSizeOnly) {
  const Workload base = make_workload("EP");
  const Workload small = with_input_scale(base, 0.25);
  EXPECT_DOUBLE_EQ(small.units_per_job, base.units_per_job * 0.25);
  // Per-unit demand untouched.
  EXPECT_DOUBLE_EQ(small.demand_for("A9").cycles_core,
                   base.demand_for("A9").cycles_core);
  EXPECT_DOUBLE_EQ(small.power_scale_for("K10"),
                   base.power_scale_for("K10"));
  EXPECT_THROW((void)with_input_scale(base, 0.0), PreconditionError);
  EXPECT_THROW((void)with_input_scale(base, -1.0), PreconditionError);
}

TEST(Catalog, UnknownProgramThrows) {
  EXPECT_THROW((void)make_workload("doom"), PreconditionError);
  EXPECT_THROW((void)default_units_per_job("doom"), PreconditionError);
  EXPECT_THROW((void)default_characterization_units("doom"),
               PreconditionError);
}

}  // namespace
