// hcep — heterogeneous-cluster energy proportionality.
//
// Umbrella header for the public API. Reproduces "On Energy
// Proportionality and Time-Energy Performance of Heterogeneous Clusters"
// (IEEE CLUSTER 2016):
//
//   hcep::hw        node models (Cortex-A9, Opteron K10, extensions)
//   hcep::kernels   instrumented workload kernels (EP, memcached, x264,
//                   blackscholes, Julius, RSA-2048)
//   hcep::workload  characterization + calibration -> service demands
//   hcep::model     the Table 2 time-energy model over cluster configs
//   hcep::power     power curves + Yokogawa-style meter emulation
//   hcep::metrics   DPR / IPR / EPM / LDR / PG / PPR (Table 3)
//   hcep::queueing  M/D/1 analytics (utilization, 95th percentiles)
//   hcep::des       discrete-event kernel
//   hcep::cluster   simulated testbed (dispatcher + nodes + meter)
//   hcep::traffic   request-level load generation, SLO + admission
//   hcep::obs       tracing/metrics plus the telemetry analysis layer
//   hcep::config    configuration space, power budgets, Pareto frontier
//   hcep::analysis  per-table/figure studies
//   hcep::core      PaperStudy one-stop facade
#pragma once

#include "hcep/analysis/cluster_study.hpp"
#include "hcep/analysis/export.hpp"
#include "hcep/analysis/governor.hpp"
#include "hcep/analysis/knightshift.hpp"
#include "hcep/analysis/pareto_study.hpp"
#include "hcep/analysis/power_cap.hpp"
#include "hcep/analysis/report.hpp"
#include "hcep/analysis/response_study.hpp"
#include "hcep/analysis/sensitivity.hpp"
#include "hcep/analysis/single_node.hpp"
#include "hcep/analysis/validation.hpp"
#include "hcep/cluster/campaign.hpp"
#include "hcep/cluster/failures.hpp"
#include "hcep/cluster/phase_trace.hpp"
#include "hcep/cluster/replication.hpp"
#include "hcep/cluster/scaleout_sim.hpp"
#include "hcep/cluster/simulator.hpp"
#include "hcep/config/budget.hpp"
#include "hcep/config/evaluation_set.hpp"
#include "hcep/config/operating_points.hpp"
#include "hcep/config/pareto.hpp"
#include "hcep/config/prune.hpp"
#include "hcep/config/space.hpp"
#include "hcep/control/controller.hpp"
#include "hcep/control/controllers.hpp"
#include "hcep/core/paper_study.hpp"
#include "hcep/des/simulator.hpp"
#include "hcep/hw/catalog.hpp"
#include "hcep/hw/node.hpp"
#include "hcep/kernels/registry.hpp"
#include "hcep/metrics/proportionality.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/model/time_energy.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/power_probe.hpp"
#include "hcep/obs/profile.hpp"
#include "hcep/obs/run_report.hpp"
#include "hcep/power/curve.hpp"
#include "hcep/power/meter.hpp"
#include "hcep/queueing/md1.hpp"
#include "hcep/queueing/mdc.hpp"
#include "hcep/queueing/mg1.hpp"
#include "hcep/traffic/admission.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/traffic/slo.hpp"
#include "hcep/util/json.hpp"
#include "hcep/util/table.hpp"
#include "hcep/util/units.hpp"
#include "hcep/workload/calibrate.hpp"
#include "hcep/workload/catalog.hpp"
#include "hcep/workload/characterize.hpp"
#include "hcep/workload/node_ops.hpp"
