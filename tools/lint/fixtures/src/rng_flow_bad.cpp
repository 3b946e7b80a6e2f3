// hcep-lint selftest fixture: the rng-seed-flow rule. Every hcep::Rng
// must be constructed with a seed threaded from a parameter or config —
// a default-constructed or literal-seeded generator silently pins every
// run to one stream and breaks the per-seed determinism sweep.
// Three live violations (default local, literal seed, never-seeded
// member), one suppressed twin, and seeded controls that must stay
// silent. Also exercises the tokenizer: violations hidden inside a raw
// string and behind a line-continuation comment must NOT fire. Scanned
// only by `hcep-lint --selftest`; not part of the build.
#include <cstdint>
#include <string>

namespace hcep::cluster {

void fixture_locals(std::uint64_t seed) {
  // LIVE rng-seed-flow: default-constructed local.
  Rng local;

  // LIVE rng-seed-flow: hard-coded literal seed.
  Rng fixed(12345);

  // Suppressed twin: must stay silent.
  Rng quiet;  // hcep-lint: allow(rng-seed-flow)

  // Control: seed threaded from the parameter.
  Rng seeded(seed);

  // Control: tokenizer must not see into strings — this raw string
  // mentions rand() and a default-constructed Rng.
  const std::string doc = R"doc(call rand() or `Rng r;` here)doc";

  // Control: a line-continuation comment swallows the next line, \
  std::srand(7);
  (void)local; (void)fixed; (void)quiet; (void)seeded; (void)doc;
}

struct FixtureEngine {
  // LIVE rng-seed-flow: member generator never seeded anywhere in this
  // file (no mem-initializer, no assignment).
  Rng orphan_rng_;
};

struct FixtureSeeded {
  explicit FixtureSeeded(std::uint64_t seed) : rng_(seed) {}

  // Control: seeded via the constructor's mem-initializer above.
  Rng rng_;
};

}  // namespace hcep::cluster
