#include "probes.h"

#include <cstdio>
#include <stdexcept>
#include <span>

#include "bloc/engine.h"

namespace perfbench {

using namespace bloc;

namespace {

std::string Row(const std::string& name, double us, double locate_us) {
  char line[128];
  std::snprintf(line, sizeof(line), "  %-28s %10.1f us  %6.1f%%",
                name.c_str(), us, 100.0 * us / locate_us);
  return line;
}

}  // namespace

MetricTable ProbeBlocStages(const core::Deployment& deployment,
                            const core::LocalizerConfig& config,
                            const std::vector<net::MeasurementRound>& rounds,
                            double seconds, std::vector<std::string>& budget) {
  const core::Localizer loc(deployment, config);
  core::LocalizerWorkspace ws;
  loc.Locate(rounds[0], ws);  // steering plans are set-up, not stage time
  ws.anchor_maps.resize(std::max<std::size_t>(ws.anchor_maps.size(), 1));
  ws.spectra.resize(std::max<std::size_t>(ws.spectra.size(), 1));

  Samples filter_us, correct_us, anchor_map_us, fused_us, score_us, locate_us;
  double terms = 0.0, map_seconds = 0.0;
  std::size_t anchors = 0;
  const auto deadline = Clock::now() + Secs(seconds);
  for (std::size_t i = 0; Clock::now() < deadline || i < rounds.size(); ++i) {
    const net::MeasurementRound& round = rounds[i % rounds.size()];
    const auto t0 = Clock::now();
    if (!loc.FilterInto(round, ws.view)) continue;
    const auto t1 = Clock::now();
    loc.CorrectInto(ws.view, ws.corrected);
    loc.FuseOrder(ws.corrected, ws.fuse_order);
    const auto t2 = Clock::now();
    for (std::size_t idx : ws.fuse_order) {
      const auto a0 = Clock::now();
      loc.AnchorMapInto(ws.corrected, idx, ws.anchor_maps[0], ws.spectra[0]);
      const auto a1 = Clock::now();
      anchor_map_us.Add(UsBetween(a0, a1));
      map_seconds += SecondsBetween(a0, a1);
      terms += static_cast<double>(ws.anchor_maps[0].data().size()) *
               static_cast<double>(ws.corrected.anchors[idx].alpha.size()) *
               static_cast<double>(ws.corrected.num_bands());
    }
    anchors = ws.fuse_order.size();
    const auto t3 = Clock::now();
    loc.FusedMapInto(ws);
    const auto t4 = Clock::now();
    const core::LocationResult scored = loc.ScoreFused(ws.fused, ws.corrected);
    const auto t5 = Clock::now();
    const core::LocationResult located = loc.Locate(round, ws);
    const auto t6 = Clock::now();
    if (!SamePosition(scored.position, located.position)) {
      throw std::runtime_error("bloc stage probe: staged result != Locate");
    }
    filter_us.Add(UsBetween(t0, t1));
    correct_us.Add(UsBetween(t1, t2));
    fused_us.Add(UsBetween(t3, t4));
    score_us.Add(UsBetween(t4, t5));
    locate_us.Add(UsBetween(t5, t6));
  }

  const double locate = locate_us.Median();
  const double filter = filter_us.Median(), correct = correct_us.Median();
  const double fused = fused_us.Median(), score = score_us.Median();
  const double anchor_map = anchor_map_us.Median();
  const double maps = anchor_map * static_cast<double>(anchors);
  const double unaccounted = locate - (filter + correct + fused + score);

  budget.push_back("bloc layer budget (one Locate, serial, medians):");
  budget.push_back(Row("filter", filter, locate));
  budget.push_back(Row("correct", correct, locate));
  budget.push_back(Row("fused map (maps + fuse)", fused, locate));
  // The anchor maps alone, timed one AnchorMapInto at a time. Under the
  // coarse-to-fine search the fused map evaluates fewer cells than these.
  budget.push_back(Row("  of which anchor maps x" + std::to_string(anchors),
                       maps, locate));
  budget.push_back(Row("score", score, locate));
  budget.push_back(Row("unaccounted", unaccounted, locate));
  budget.push_back(Row("Locate", locate, locate));

  MetricTable m;
  m["bloc.filter_us"] = {filter, "us"};
  m["bloc.correct_us"] = {correct, "us"};
  m["bloc.anchor_map_us"] = {anchor_map, "us"};
  m["bloc.fused_map_us"] = {fused, "us"};
  m["bloc.score_us"] = {score, "us"};
  m["bloc.locate_us"] = {locate, "us"};
  m["bloc.unaccounted_frac"] = {unaccounted / locate, "ratio"};
  m["dsp.map_gterms_per_s"] = {terms / map_seconds / 1e9, "Gterm/s"};
  return m;
}

EngineScaling ProbeEngineScaling(const StaticInputs& in, double seconds) {
  const std::span<const net::MeasurementRound> rounds(in.dataset.rounds);
  const auto rate = [&](core::EngineOptions options, std::size_t& threads) {
    core::LocalizationEngine engine(in.dataset.deployment, in.config, options);
    threads = engine.threads();
    engine.LocateBatch(rounds);  // plans and workspaces
    const auto start = Clock::now();
    const auto until = start + Secs(seconds);
    std::size_t done = 0;
    do {
      done += engine.LocateBatch(rounds).size();
    } while (Clock::now() < until);
    return static_cast<double>(done) / SecondsBetween(start, Clock::now());
  };
  EngineScaling s;
  std::size_t one = 0;
  s.one_thread_rounds_per_s = rate({.threads = 1}, one);
  s.nproc_rounds_per_s = rate({}, s.threads);
  return s;
}

}  // namespace perfbench
