#include "rules/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>

#include "rules/normalizer.h"
#include "rules/parser.h"

namespace mdv::rules {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : schema_(rdf::MakeObjectGlobeSchema()) {
    AddProvider("a.rdf", "pirates.uni-passau.de", 92, 600);
    AddProvider("b.rdf", "tum.de", 32, 2000);
    AddProvider("c.rdf", "big.uni-passau.de", 512, 1200);
  }

  void AddProvider(const std::string& uri, const std::string& host,
                   int memory, int cpu) {
    rdf::Resource info("info", "ServerInformation");
    info.AddProperty("memory",
                     rdf::PropertyValue::Literal(std::to_string(memory)));
    info.AddProperty("cpu", rdf::PropertyValue::Literal(std::to_string(cpu)));
    rdf::Resource provider("host", "CycleProvider");
    provider.AddProperty("serverHost", rdf::PropertyValue::Literal(host));
    provider.AddProperty("serverInformation",
                         rdf::PropertyValue::ResourceRef(uri + "#info"));
    owned_.push_back(std::make_unique<rdf::Resource>(std::move(info)));
    resources_[uri + "#info"] = owned_.back().get();
    owned_.push_back(std::make_unique<rdf::Resource>(std::move(provider)));
    resources_[uri + "#host"] = owned_.back().get();
  }

  std::vector<std::string> Eval(const std::string& text) {
    Result<std::vector<std::string>> result =
        EvaluateRuleText(text, schema_, resources_);
    EXPECT_TRUE(result.ok()) << text << " -> " << result.status();
    return result.ok() ? *result : std::vector<std::string>{};
  }

  rdf::RdfSchema schema_;
  std::vector<std::unique_ptr<rdf::Resource>> owned_;
  ResourceMap resources_;
};

TEST_F(EvaluatorTest, ClassOnlyRule) {
  EXPECT_EQ(Eval("search CycleProvider c register c").size(), 3u);
  EXPECT_EQ(Eval("search ServerInformation s register s").size(), 3u);
}

TEST_F(EvaluatorTest, TriggeringStylePredicates) {
  EXPECT_EQ(Eval("search CycleProvider c register c "
                 "where c.serverHost contains 'uni-passau.de'"),
            (std::vector<std::string>{"a.rdf#host", "c.rdf#host"}));
  EXPECT_EQ(Eval("search ServerInformation s register s where s.memory > 64"),
            (std::vector<std::string>{"a.rdf#info", "c.rdf#info"}));
  EXPECT_EQ(Eval("search CycleProvider c register c "
                 "where c = 'b.rdf#host'"),
            (std::vector<std::string>{"b.rdf#host"}));
}

TEST_F(EvaluatorTest, PathPredicateJoinsThroughReference) {
  EXPECT_EQ(Eval("search CycleProvider c register c "
                 "where c.serverInformation.memory > 64"),
            (std::vector<std::string>{"a.rdf#host", "c.rdf#host"}));
  EXPECT_EQ(Eval("search CycleProvider c register c "
                 "where c.serverInformation.memory > 64 "
                 "and c.serverInformation.cpu > 1000"),
            (std::vector<std::string>{"c.rdf#host"}));
}

TEST_F(EvaluatorTest, ExplicitJoinVariables) {
  EXPECT_EQ(Eval("search CycleProvider c, ServerInformation s register s "
                 "where c.serverInformation = s "
                 "and c.serverHost contains 'tum'"),
            (std::vector<std::string>{"b.rdf#info"}));
}

TEST_F(EvaluatorTest, EmptyResultIsEmpty) {
  EXPECT_TRUE(Eval("search CycleProvider c register c "
                   "where c.serverInformation.memory > 100000")
                  .empty());
}

TEST_F(EvaluatorTest, DuplicateBindingsDeduplicate) {
  // Two different s bindings can register the same c; dedup must apply.
  EXPECT_EQ(Eval("search CycleProvider c, ServerInformation s register c "
                 "where s.memory > 0")
                .size(),
            3u);
}

TEST_F(EvaluatorTest, RuleExtensionsRejected) {
  AnalyzedRule fake;
  fake.ast.search.push_back(SearchEntry{"X", "x"});
  fake.ast.register_variable = "x";
  fake.variable_class["x"] = "CycleProvider";
  fake.variable_is_rule_extension["x"] = true;
  EXPECT_EQ(EvaluateRule(fake, resources_).status().code(),
            StatusCode::kUnsupported);
}

TEST(CompareValueTextsTest, NumericReconversion) {
  EXPECT_TRUE(CompareValueTexts("92", rdbms::CompareOp::kGt, "64"));
  EXPECT_FALSE(CompareValueTexts("100", rdbms::CompareOp::kLt, "64"));
  // Both non-numeric: lexicographic.
  EXPECT_TRUE(CompareValueTexts("abc", rdbms::CompareOp::kLt, "abd"));
  // Mixed: falls back to the engine's canonical ordering.
  EXPECT_TRUE(CompareValueTexts("x", rdbms::CompareOp::kNe, "92"));
  EXPECT_TRUE(
      CompareValueTexts("a.uni.de", rdbms::CompareOp::kContains, "uni"));
}

// ---- Differential test against a brute-force nested loop. ------------

/// Reference semantics: binds every variable to every resource of its
/// class, in search-clause order, and checks each predicate as soon as
/// all of its variables are bound.
std::vector<std::string> BruteForce(const AnalyzedRule& rule,
                                    const ResourceMap& resources) {
  const std::vector<SearchEntry>& vars = rule.ast.search;
  std::map<std::string, size_t> var_index;
  for (size_t i = 0; i < vars.size(); ++i) var_index[vars[i].variable] = i;
  std::vector<ResourceMap::const_iterator> binding(vars.size(),
                                                   resources.end());
  auto values = [&](const Operand& op) -> std::vector<std::string> {
    if (!op.is_path()) return {op.text};
    auto bound = binding[var_index.at(op.path.variable)];
    if (op.path.IsBareVariable()) return {bound->first};
    std::vector<std::string> out;
    for (const rdf::PropertyValue& value :
         bound->second->FindProperties(op.path.steps[0].property)) {
      out.push_back(value.text());
    }
    return out;
  };
  auto last_var = [&](const PredicateExpr& pred) -> std::optional<size_t> {
    std::optional<size_t> last;
    for (const Operand* op : {&pred.lhs, &pred.rhs}) {
      if (op->is_path()) {
        last = std::max(last.value_or(0), var_index.at(op->path.variable));
      }
    }
    return last;
  };
  std::vector<std::string> results;
  std::function<void(size_t)> recurse = [&](size_t depth) {
    if (depth == vars.size()) {
      results.push_back(
          binding[var_index.at(rule.ast.register_variable)]->first);
      return;
    }
    const std::string& cls = rule.variable_class.at(vars[depth].variable);
    for (auto it = resources.begin(); it != resources.end(); ++it) {
      if (it->second->class_name() != cls) continue;
      binding[depth] = it;
      bool ok = true;
      for (const PredicateExpr& pred : rule.ast.where) {
        if (last_var(pred) != depth) continue;
        bool holds = false;
        for (const std::string& lhs : values(pred.lhs)) {
          for (const std::string& rhs : values(pred.rhs)) {
            holds = holds || CompareValueTexts(lhs, pred.op, rhs);
          }
        }
        ok = ok && holds;
      }
      if (ok) recurse(depth + 1);
    }
    binding[depth] = resources.end();
  };
  recurse(0);
  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  return results;
}

/// The ObjectGlobe schema plus a class with set-valued properties, so
/// rules can use `any` steps: Cluster {label, ports (set),
/// members (set) → CycleProvider}.
rdf::RdfSchema DifferentialSchema() {
  rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
  EXPECT_TRUE(schema
                  .AddClass(rdf::ClassBuilder("Cluster")
                                .Literal("label")
                                .Literal("ports", /*set_valued=*/true)
                                .StrongRef("members", "CycleProvider",
                                           /*set_valued=*/true)
                                .Build())
                  .ok());
  return schema;
}

/// A seeded random resource set over DifferentialSchema(). References
/// may dangle, point at a resource of the wrong class, repeat within a
/// set-valued property, or differ from their target's URI only in
/// numeric spelling ("7.0" for "7"). Some seeds use numeric-looking
/// URIs, so both the lookup path and its scan fallback are exercised.
class RandomResources {
 public:
  explicit RandomResources(uint32_t seed) : rng_(seed) {
    const bool numeric_uris = Pick(3) == 0;
    const int infos = 3 + Pick(10);
    const int providers = 3 + Pick(12);
    const int clusters = 1 + Pick(4);
    for (int i = 0; i < infos; ++i) {
      std::string uri = numeric_uris && Pick(2) == 0
                            ? std::to_string(i)
                            : "d" + std::to_string(i) + ".rdf#info";
      rdf::Resource& info = Add(uri, "ServerInformation", &info_uris_);
      info.AddProperty("memory", Number());
      info.AddProperty("cpu", Number());
    }
    for (int i = 0; i < providers; ++i) {
      std::string uri = numeric_uris && Pick(3) == 0
                            ? std::to_string(100 + i) + ".0"
                            : "d" + std::to_string(i) + ".rdf#host";
      rdf::Resource& provider = Add(uri, "CycleProvider", &provider_uris_);
      provider.AddProperty("serverHost",
                           rdf::PropertyValue::Literal(
                               Pick(2) == 0 ? "a.uni-passau.de" : "tum.de"));
      provider.AddProperty("serverPort", Number());
      for (int r = Pick(3); r > 0; --r) {
        provider.AddProperty("serverInformation",
                             Reference(info_uris_, provider_uris_));
      }
    }
    for (int i = 0; i < clusters; ++i) {
      rdf::Resource& cluster =
          Add("k" + std::to_string(i) + ".rdf#cluster", "Cluster", nullptr);
      cluster.AddProperty("label", rdf::PropertyValue::Literal(
                                       "cluster" + std::to_string(i)));
      for (int r = Pick(4); r > 0; --r) {
        cluster.AddProperty("ports", Number());
        cluster.AddProperty("members", Reference(provider_uris_, info_uris_));
      }
    }
  }

  const ResourceMap& resources() const { return resources_; }

 private:
  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  rdf::Resource& Add(const std::string& uri, const std::string& cls,
                     std::vector<std::string>* uris) {
    owned_.push_back(std::make_unique<rdf::Resource>("r", cls));
    resources_[uri] = owned_.back().get();
    if (uris != nullptr) uris->push_back(uri);
    return *owned_.back();
  }

  /// A small number, sometimes spelled with a trailing ".0".
  rdf::PropertyValue Number() {
    std::string text = std::to_string(Pick(8));
    if (Pick(4) == 0) text += ".0";
    return rdf::PropertyValue::Literal(text);
  }

  /// A reference into `targets`; or one repeating the previous
  /// reference, dangling, or at a resource of the wrong class (from
  /// `others`). Numeric-looking URIs are sometimes respelled ("7.00").
  rdf::PropertyValue Reference(const std::vector<std::string>& targets,
                               const std::vector<std::string>& others) {
    std::string uri;
    switch (Pick(8)) {
      case 0:
        uri = "missing.rdf#x";
        break;
      case 1:
        uri = others.empty() ? "missing.rdf#x"
                             : others[Pick(static_cast<int>(others.size()))];
        break;
      case 2:
        uri = last_reference_;
        break;
      default:
        uri = targets[Pick(static_cast<int>(targets.size()))];
    }
    if (rdbms::Value{uri}.TryNumeric() && Pick(2) == 0) {
      uri += uri.find('.') == std::string::npos ? ".0" : "0";
    }
    last_reference_ = uri;
    return rdf::PropertyValue::ResourceRef(uri);
  }

  std::mt19937 rng_;
  std::vector<std::unique_ptr<rdf::Resource>> owned_;
  ResourceMap resources_;
  std::vector<std::string> info_uris_;
  std::vector<std::string> provider_uris_;
  std::string last_reference_ = "missing.rdf#x";
};

AnalyzedRule Normalize(const std::string& text,
                       const rdf::RdfSchema& schema) {
  Result<RuleAst> ast = ParseRule(text);
  EXPECT_TRUE(ast.ok()) << text << " -> " << ast.status();
  Result<AnalyzedRule> analyzed = AnalyzeRule(*ast, schema);
  EXPECT_TRUE(analyzed.ok()) << text << " -> " << analyzed.status();
  Result<AnalyzedRule> normalized = NormalizeRule(*analyzed, schema);
  EXPECT_TRUE(normalized.ok()) << text << " -> " << normalized.status();
  return *normalized;
}

TEST(EvaluatorDifferentialTest, AgreesWithNestedLoopOnRandomResources) {
  const rdf::RdfSchema schema = DifferentialSchema();
  const std::vector<std::string> rules = {
      // PATH rules: a reference join plus a pushed-down filter.
      "search CycleProvider c register c where c.serverInformation.memory > 3",
      "search CycleProvider c register c where c.serverInformation.memory > 3 "
      "and c.serverInformation.cpu <= 4 and c.serverHost contains 'passau'",
      // Explicit join variables, both orientations, both declaration
      // orders, registering either side.
      "search CycleProvider c, ServerInformation s register s "
      "where c.serverInformation = s and s.cpu >= 2",
      "search CycleProvider c, ServerInformation s register c "
      "where s = c.serverInformation",
      "search ServerInformation s, CycleProvider c register c "
      "where c.serverInformation = s and c.serverPort != 3",
      "search ServerInformation s, CycleProvider c register s "
      "where s = c.serverInformation",
      // Literal values and bare variables as lookup keys.
      "search CycleProvider c, ServerInformation s register s "
      "where c.serverPort = s",
      "search CycleProvider c, CycleProvider d register c "
      "where c = d and d.serverPort > 2",
      // Non-equality joins and joins through steps on both sides.
      "search CycleProvider c, ServerInformation s register c "
      "where c.serverInformation != s",
      "search CycleProvider c, ServerInformation s register s "
      "where c.serverPort < s.memory",
      "search CycleProvider c, CycleProvider d register d "
      "where c.serverInformation = d.serverInformation",
      // A wrong-class join target.
      "search CycleProvider c, CycleProvider d register c "
      "where c.serverInformation = d",
      // Predicates between two properties of one variable.
      "search ServerInformation s register s where s.memory < s.cpu",
      // `any` steps and multi-hop paths (3+ variables).
      "search Cluster k register k "
      "where k.members?.serverInformation.memory >= 4",
      "search Cluster k, ServerInformation s register s "
      "where k.members?.serverInformation = s and k.ports? > 5",
      "search Cluster k, CycleProvider c register c "
      "where k.members? = c and c.serverInformation.cpu > 1",
      "search CycleProvider c, Cluster k register k "
      "where c = k.members? and c.serverHost = 'tum.de'",
  };
  std::vector<AnalyzedRule> normalized;
  for (const std::string& text : rules) {
    normalized.push_back(Normalize(text, schema));
  }
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    RandomResources data(seed);
    for (size_t r = 0; r < rules.size(); ++r) {
      Result<std::vector<std::string>> got =
          EvaluateRule(normalized[r], data.resources());
      ASSERT_TRUE(got.ok()) << rules[r] << " -> " << got.status();
      ASSERT_EQ(*got, BruteForce(normalized[r], data.resources()))
          << "seed " << seed << ": " << rules[r];
    }
  }
}

TEST(EvaluatorDifferentialTest, NumericSpellingsOfUrisStillJoin) {
  // "7" and "7.0" are equal under numeric reconversion, so a reference
  // spelled "7.0" reaches the resource at "7" and the lookup must not
  // miss it.
  const rdf::RdfSchema schema = DifferentialSchema();
  rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory", rdf::PropertyValue::Literal("92"));
  rdf::Resource provider("host", "CycleProvider");
  provider.AddProperty("serverInformation",
                       rdf::PropertyValue::ResourceRef("7.0"));
  const ResourceMap resources = {{"7", &info}, {"h.rdf#host", &provider}};
  const AnalyzedRule rule = Normalize(
      "search CycleProvider c register c where c.serverInformation.memory > 64",
      schema);
  Result<std::vector<std::string>> got = EvaluateRule(rule, resources);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, std::vector<std::string>{"h.rdf#host"});
  EXPECT_EQ(*got, BruteForce(rule, resources));
}

TEST(EvaluatorStatsTest, PathQueryTriesLinearlyManyBindings) {
  constexpr uint64_t kProviders = 2000;
  const rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
  std::vector<std::unique_ptr<rdf::Resource>> owned;
  ResourceMap resources;
  for (uint64_t i = 0; i < kProviders; ++i) {
    const std::string doc = "d" + std::to_string(i) + ".rdf";
    auto info = std::make_unique<rdf::Resource>("info", "ServerInformation");
    info->AddProperty("memory",
                      rdf::PropertyValue::Literal(std::to_string(i % 100)));
    auto provider = std::make_unique<rdf::Resource>("host", "CycleProvider");
    provider->AddProperty("serverInformation",
                          rdf::PropertyValue::ResourceRef(doc + "#info"));
    resources[doc + "#info"] = info.get();
    resources[doc + "#host"] = provider.get();
    owned.push_back(std::move(info));
    owned.push_back(std::move(provider));
  }
  EvalStats stats;
  Result<std::vector<std::string>> got = EvaluateRuleText(
      "search CycleProvider c register c where c.serverInformation.memory > 89",
      schema, resources, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->size(), kProviders / 10);
  // The nested loop tried N + N^2 bindings here.
  EXPECT_LE(stats.bindings_tried, 4 * kProviders);
}

}  // namespace
}  // namespace mdv::rules
