// Differential property tests of the sharded filter engine: for any
// shard count N and worker count W, a publish (and a late subscription
// seeded through EvaluateNewRules) must produce exactly the matches of
// the unsharded engine. Rule ids are NOT comparable across shard
// configurations (sharding duplicates atoms that the monolithic store
// deduplicates), so runs are compared through the registered rule texts:
// every text maps to its end rule in each configuration, and the uri
// sets accumulated per text must be byte-identical.
//
// Run statistics are deliberately not compared — the per-shard atom
// duplication legitimately changes triggering_matches across configs;
// only the match/notification sets are invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/workload.h"
#include "filter/engine.h"
#include "filter/tables.h"
#include "rules/compiler.h"

namespace mdv::filter {
namespace {

using bench_support::BenchRuleType;
using bench_support::FilterFixture;
using bench_support::WorkloadGenerator;

constexpr size_t kDocs = 48;
constexpr size_t kRules = 40;

/// Pseudo-random rule base mixing the four §4 families over a small
/// parameter range, so trees overlap: JOIN and PATH rules with the same
/// index share their memory atom, COMP rules share the class atom —
/// exactly the sharing the monolithic store deduplicates and the
/// sharded store duplicates per shard.
std::vector<std::string> MakeRuleTexts(uint32_t seed) {
  std::vector<WorkloadGenerator> gens;
  for (BenchRuleType type : {BenchRuleType::kOid, BenchRuleType::kComp,
                             BenchRuleType::kPath, BenchRuleType::kJoin}) {
    WorkloadGenerator::Options options;
    options.rule_type = type;
    options.rule_base_size = kDocs;
    gens.emplace_back(options);
  }
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> type_dist(0, gens.size() - 1);
  std::uniform_int_distribution<size_t> index_dist(0, kDocs - 1);
  std::vector<std::string> texts;
  texts.reserve(kRules);
  for (size_t i = 0; i < kRules; ++i) {
    texts.push_back(gens[type_dist(rng)].RuleText(index_dist(rng)));
  }
  return texts;
}

/// Everything one configuration produced: per rule text, the union of
/// uris it matched across seeding and publishing.
using TextMatches = std::map<std::string, std::set<std::string>>;

class Harness {
 public:
  Harness(int num_shards, int num_workers) {
    RuleStoreOptions rule_options;
    rule_options.num_shards = num_shards;
    EngineOptions engine_options;
    engine_options.num_workers = num_workers;
    fixture_ = std::make_unique<FilterFixture>(
        rule_options, TableOptions{}, engine_options);
  }

  /// Registers `text` the way MetadataProvider::Subscribe does: merge
  /// the tree, then evaluate the created rules (plus the end rule)
  /// against the existing data. Seeded matches count toward the text.
  void Register(const std::string& text) {
    auto compiled = rules::CompileRule(text, fixture_->schema());
    ASSERT_TRUE(compiled.ok()) << compiled.status().message();
    std::vector<int64_t> created;
    auto end = fixture_->store().RegisterTree(compiled->decomposed, &created);
    ASSERT_TRUE(end.ok()) << end.status().message();
    end_of_[*end].insert(text);
    std::vector<int64_t> to_evaluate = created;
    if (std::find(to_evaluate.begin(), to_evaluate.end(), *end) ==
        to_evaluate.end()) {
      to_evaluate.push_back(*end);
    }
    auto seeded = fixture_->engine().EvaluateNewRules(to_evaluate);
    ASSERT_TRUE(seeded.ok()) << seeded.status().message();
    Accumulate(*seeded);
  }

  void Publish(size_t first, size_t count) {
    WorkloadGenerator::Options options;
    options.rule_base_size = kDocs;
    WorkloadGenerator gen(options);
    auto result =
        fixture_->RegisterDocumentBatch(gen.MakeDocumentBatch(first, count));
    ASSERT_TRUE(result.ok()) << result.status().message();
    Accumulate(*result);
  }

  const TextMatches& matches() const { return matches_; }

  void VerifyInvariants() const {
    Status db_ok = fixture_->db().CheckInvariants();
    EXPECT_TRUE(db_ok.ok()) << db_ok.message();
    Status store_ok = fixture_->store().CheckConsistency();
    EXPECT_TRUE(store_ok.ok()) << store_ok.message();
  }

 private:
  void Accumulate(const FilterRunResult& result) {
    for (const auto& [rule_id, uris] : result.matches) {
      auto it = end_of_.find(rule_id);
      if (it == end_of_.end()) continue;  // Internal atomic rule.
      for (const std::string& text : it->second) {
        matches_[text].insert(uris.begin(), uris.end());
      }
    }
  }

  std::unique_ptr<FilterFixture> fixture_;
  /// end rule id → texts registered to it (duplicate texts and texts
  /// whose end rule is shared via dedup collapse onto one id).
  std::map<int64_t, std::set<std::string>> end_of_;
  TextMatches matches_;
};

/// Drives one configuration through the scenario: half the rule base,
/// one publish, the remaining rules (seeded against live data — the
/// sharded EvaluateNewRules path), a second publish.
TextMatches RunScenario(int num_shards, int num_workers, uint32_t seed) {
  Harness harness(num_shards, num_workers);
  std::vector<std::string> texts = MakeRuleTexts(seed);
  for (size_t i = 0; i < texts.size() / 2; ++i) harness.Register(texts[i]);
  harness.Publish(0, kDocs / 2);
  for (size_t i = texts.size() / 2; i < texts.size(); ++i) {
    harness.Register(texts[i]);
  }
  harness.Publish(kDocs / 2, kDocs - kDocs / 2);
  harness.VerifyInvariants();
  return harness.matches();
}

class ShardedDiffTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardedDiffTest, ShardConfigurationsMatchUnshardedEngine) {
  const uint32_t seed = GetParam();
  TextMatches baseline = RunScenario(1, 1, seed);
  ASSERT_FALSE(baseline.empty());
  // At least one text must have matched something, else the comparison
  // is vacuous.
  size_t matched = 0;
  for (const auto& [text, uris] : baseline) matched += uris.size();
  ASSERT_GT(matched, 0u);

  struct Config {
    int shards;
    int workers;
  };
  for (const Config& config :
       {Config{2, 1}, Config{2, 2}, Config{4, 4}, Config{7, 3}}) {
    TextMatches sharded = RunScenario(config.shards, config.workers, seed);
    EXPECT_EQ(sharded, baseline)
        << "divergence with " << config.shards << " shards, "
        << config.workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedRuleBases, ShardedDiffTest,
                         ::testing::Values(7u, 23u, 1973u));

}  // namespace
}  // namespace mdv::filter
