// Test support: fixtures the campaign-level suites share (header only; the
// suites that include it link gtest).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "json/json.hpp"
#include "sim/campaign.hpp"

/// An immutable graph to hand several configurations as `prebuilt`.
inline std::shared_ptr<const rumor::graph::Graph> shared(rumor::graph::Graph g) {
  return std::make_shared<const rumor::graph::Graph>(std::move(g));
}

/// Parses campaign spec text; the text itself must be valid JSON.
inline rumor::sim::CampaignSpec parse(const std::string& text) {
  const auto doc = rumor::json::Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return rumor::sim::parse_campaign_spec(*doc);
}

/// All reported statistics of one result, its trial values and its
/// reservoir, for exact cross-run comparison.
inline std::vector<double> fingerprint(const rumor::sim::CampaignResult& r) {
  const auto& s = r.summary;
  std::vector<double> out = {s.mean(),   s.stddev(),        s.min(),
                             s.max(),    s.median(),        s.quantile(0.95),
                             s.hp_time(r.hp_q)};
  out.insert(out.end(), s.values().begin(), s.values().end());
  for (const auto& [tag, value] : s.reservoir().entries()) {
    out.push_back(static_cast<double>(tag));
    out.push_back(value);
  }
  return out;
}

namespace rumor::sim {

/// render_campaign_reports collected in input order.
inline std::vector<Json> campaign_reports(const std::vector<CampaignResult>& results,
                                          const std::string& campaign_name, unsigned threads) {
  std::vector<Json> reports(results.size());
  render_campaign_reports(results, campaign_name, threads,
                          [&](std::size_t i, Json& report) { reports[i] = std::move(report); });
  return reports;
}

}  // namespace rumor::sim
