// hcep-lint selftest fixture: control-unit-double violations — raw
// doubles carrying power/energy under the control-plane vocabulary (cap,
// budget, draw, savings, penalty) rather than physical-unit names, which
// the base unit-double rule would miss. Scanned only by
// `hcep-lint --selftest`; not part of the build.
#pragma once

namespace hcep::control {

struct BadControlOptions {
  // LIVE control-unit-double: the rack cap is watts, not a double.
  double cap = 1000.0;

  // LIVE control-unit-double: suffix form (also missed by unit-double).
  double power_budget = 1000.0;

  // Suppressed twin: must stay silent.
  double draw = 0.0;  // hcep-lint: allow(control-unit-double)

  // Controls: ratios and counts are legitimately dimensionless.
  double headroom = 0.25;
  double fleet_share = 1.0;
};

}  // namespace hcep::control
