// ks_smoke: the batch-engine distributional gate as a CI step.
//
// Runs the batch_sync acceptance sweep — graph families x protocol modes x
// loss on/off — and KS-gates each cell's batch spreading times against
// run_sync samples of the same law (dist::ks_two_sample_test, exact
// p-values at these sample sizes). Prints a Markdown table so CI can tee
// the output straight into $GITHUB_STEP_SUMMARY, and exits 1 when any cell
// fails the gate. The same sweep runs wider in tests/test_batch_sync.cpp;
// this binary exists so the contract is visible per CI run, not only when
// a test fails.
//
// Usage: ks_smoke [trials-per-side] [alpha]
//   defaults: 192 trials per side, alpha 1e-3. Each argument is read whole;
//   trials must be in 1..100000 and alpha in (0, 1), else exit 2.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/rumor.hpp"
#include "dist/distributions.hpp"
#include "rng/rng.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace rumor;

std::vector<double> batch_samples(const graph::Graph& g, core::Mode mode, double loss,
                                  std::uint64_t seed, std::uint64_t trials) {
  std::vector<double> out;
  out.reserve(trials);
  core::BatchSyncOptions options;
  options.mode = mode;
  options.message_loss = loss;
  for (std::uint64_t b = 0; b < trials; b += core::kMaxBatchLanes) {
    options.lanes =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(core::kMaxBatchLanes, trials - b));
    rng::Engine eng = rng::derive_stream(seed, b);
    const auto result = core::run_batch_sync(g, 0, eng, options);
    for (const std::uint64_t rounds : result.rounds) out.push_back(static_cast<double>(rounds));
  }
  return out;
}

std::vector<double> sync_samples(const graph::Graph& g, core::Mode mode, double loss,
                                 std::uint64_t seed, std::uint64_t trials) {
  std::vector<double> out;
  out.reserve(trials);
  core::SyncOptions options;
  options.mode = mode;
  options.message_loss = loss;
  for (std::uint64_t t = 0; t < trials; ++t) {
    rng::Engine eng = rng::derive_stream(seed, t);
    out.push_back(static_cast<double>(core::run_sync(g, 0, eng, options).rounds));
  }
  return out;
}

int bad_argument(const char* name, const char* text, const char* expected) {
  std::fprintf(stderr, "ks_smoke: bad value for %s: %s (expected %s)\n", name, text, expected);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) {
    std::fprintf(stderr, "usage: ks_smoke [trials-per-side] [alpha]\n");
    return 2;
  }
  std::uint64_t trials = 192;
  double alpha = 1e-3;
  if (argc > 1) {
    const auto v = sim::parse_unsigned_arg(argv[1], 100'000);
    if (!v || *v == 0) return bad_argument("trials-per-side", argv[1], "an integer in 1..100000");
    trials = *v;
  }
  if (argc > 2) {
    const auto v = sim::parse_double_arg(argv[2]);
    if (!v || !(*v > 0.0 && *v < 1.0)) return bad_argument("alpha", argv[2], "a number in (0, 1)");
    alpha = *v;
  }

  const graph::Graph families[] = {graph::hypercube(7), graph::complete(64), graph::star(129),
                                   graph::torus(8)};

  std::printf("### batch_sync KS gate (n=%llu per side, alpha=%g)\n\n",
              static_cast<unsigned long long>(trials), alpha);
  std::printf("| graph | mode | loss | D | p | gate |\n");
  std::printf("|---|---|---|---|---|---|\n");

  int failures = 0;
  std::uint64_t cell = 0;
  for (const auto& g : families) {
    for (const core::Mode mode : {core::Mode::kPush, core::Mode::kPull, core::Mode::kPushPull}) {
      for (const double loss : {0.0, 0.3}) {
        const auto batch = batch_samples(g, mode, loss, 820'000 + cell, trials);
        const auto sync = sync_samples(g, mode, loss, 840'000 + cell, trials);
        const auto test = dist::ks_two_sample_test(batch, sync);
        const bool pass = test.p_value >= alpha;
        if (!pass) ++failures;
        std::printf("| %s | %s | %.1f | %.4f | %.4g | %s |\n", g.name().c_str(),
                    core::mode_name(mode), loss, test.statistic, test.p_value,
                    pass ? "pass" : "**FAIL**");
        ++cell;
      }
    }
  }

  std::printf("\n%llu cells, %d failure(s)\n", static_cast<unsigned long long>(cell), failures);
  if (failures != 0) {
    std::fprintf(stderr, "ks_smoke: %d cell(s) failed the KS gate at alpha=%g\n", failures,
                 alpha);
    return 1;
  }
  return 0;
}
