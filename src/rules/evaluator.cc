#include "rules/evaluator.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "rdbms/predicate.h"
#include "rules/normalizer.h"
#include "rules/parser.h"

namespace mdv::rules {

bool CompareValueTexts(const std::string& lhs, rdbms::CompareOp op,
                       const std::string& rhs) {
  if (op == rdbms::CompareOp::kContains) return Contains(lhs, rhs);
  rdbms::Value a{lhs};
  rdbms::Value b{rhs};
  auto an = a.TryNumeric();
  auto bn = b.TryNumeric();
  if (an && bn) {
    return rdbms::EvaluateCompare(rdbms::Value(*an), op, rdbms::Value(*bn));
  }
  return rdbms::EvaluateCompare(a, op, b);
}

Result<std::vector<std::string>> EvaluateRule(const AnalyzedRule& normalized,
                                              const ResourceMap& resources,
                                              EvalStats* stats) {
  const std::vector<SearchEntry>& vars = normalized.ast.search;
  if (vars.empty()) {
    return Status::InvalidArgument("rule without search clause");
  }
  for (const auto& [var, is_rule] : normalized.variable_is_rule_extension) {
    if (is_rule) {
      return Status::Unsupported(
          "EvaluateRule does not resolve rule-valued extensions (variable " +
          var + ")");
    }
  }

  // Candidates per variable: resources of the variable's class, in URI
  // order (the order of `resources`).
  std::vector<std::vector<ResourceMap::const_iterator>> candidates(
      vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    const std::string& cls = normalized.variable_class.at(vars[i].variable);
    for (auto it = resources.begin(); it != resources.end(); ++it) {
      if (it->second->class_name() == cls) candidates[i].push_back(it);
    }
  }

  std::map<std::string, size_t> var_index;
  for (size_t i = 0; i < vars.size(); ++i) {
    var_index[vars[i].variable] = i;
  }
  std::vector<ResourceMap::const_iterator> binding(vars.size(),
                                                   resources.end());

  // Whether `fn` holds for some value text of `op` under the current
  // binding: the constant, the bound URI, or each value of the property.
  auto any_value = [&](const Operand& op, auto&& fn) {
    if (op.kind != Operand::Kind::kPath) return fn(op.text);
    auto bound = binding[var_index.at(op.path.variable)];
    if (op.path.IsBareVariable()) return fn(bound->first);
    for (const rdf::Property& property : bound->second->properties()) {
      if (property.name == op.path.steps[0].property &&
          fn(property.value.text())) {
        return true;
      }
    }
    return false;
  };
  auto pred_holds = [&](const PredicateExpr* pred) {
    return any_value(pred->lhs, [&](const std::string& lhs) {
      return any_value(pred->rhs, [&](const std::string& rhs) {
        return CompareValueTexts(lhs, pred->op, rhs);
      });
    });
  };
  auto depth_of = [&](const Operand& op) -> std::optional<size_t> {
    if (op.kind != Operand::Kind::kPath) return std::nullopt;
    return var_index.at(op.path.variable);
  };

  // Plan. A predicate over one variable filters that variable's
  // candidates before the join; any other predicate is checked at the
  // depth that binds the last of its variables. Constant-only predicates
  // are never checked.
  std::vector<std::vector<const PredicateExpr*>> filters(vars.size());
  std::vector<std::vector<const PredicateExpr*>> checks(vars.size());
  for (const PredicateExpr& pred : normalized.ast.where) {
    std::optional<size_t> lhs = depth_of(pred.lhs);
    std::optional<size_t> rhs = depth_of(pred.rhs);
    if (!lhs && !rhs) continue;
    if (!lhs || !rhs || *lhs == *rhs) {
      filters[lhs ? *lhs : *rhs].push_back(&pred);
    } else {
      checks[std::max(*lhs, *rhs)].push_back(&pred);
    }
  }

  uint64_t tried = 0;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (filters[i].empty()) continue;
    std::erase_if(candidates[i], [&](ResourceMap::const_iterator candidate) {
      binding[i] = candidate;
      ++tried;
      return !std::all_of(filters[i].begin(), filters[i].end(), pred_holds);
    });
    binding[i] = resources.end();
  }

  // Lookup access path: a check `x.p = y` (either orientation) where `y`
  // is the bare variable bound at this depth and `x` is bound earlier.
  // `y` is then bound by binary search for each distinct value of `x.p`
  // in its candidates, which are in URI order. CompareValueTexts equates
  // texts numerically only when both parse as numbers ("7" equals "7.0"),
  // so a depth with a numeric-looking candidate URI keeps the scan; with
  // none, equality with a candidate URI is exact string equality for any
  // key.
  auto lookup_key_of = [&](const PredicateExpr* pred,
                           size_t d) -> const Operand* {
    if (pred->op != rdbms::CompareOp::kEq) return nullptr;
    for (auto [key, target] : {std::pair{&pred->lhs, &pred->rhs},
                               std::pair{&pred->rhs, &pred->lhs}}) {
      if (target->is_path() && target->path.IsBareVariable() &&
          depth_of(*target) == d && key->is_path() &&
          key->path.steps.size() <= 1 && *depth_of(*key) < d) {
        return key;
      }
    }
    return nullptr;
  };
  std::vector<const Operand*> lookup_key(vars.size(), nullptr);
  for (size_t d = 0; d < vars.size(); ++d) {
    auto join = std::find_if(
        checks[d].begin(), checks[d].end(),
        [&](const PredicateExpr* pred) { return lookup_key_of(pred, d); });
    if (join == checks[d].end() ||
        std::any_of(candidates[d].begin(), candidates[d].end(),
                    [](auto it) {
                      return rdbms::Value{it->first}.TryNumeric().has_value();
                    })) {
      continue;
    }
    // A candidate found by the lookup satisfies the join by construction.
    lookup_key[d] = lookup_key_of(*join, d);
    checks[d].erase(join);
  }

  size_t register_idx = var_index.at(normalized.ast.register_variable);
  std::vector<std::string> results;

  std::function<void(size_t)> recurse = [&](size_t depth) {
    if (depth == vars.size()) {
      results.push_back(binding[register_idx]->first);
      return;
    }
    auto bind = [&](ResourceMap::const_iterator candidate) {
      binding[depth] = candidate;
      ++tried;
      if (std::all_of(checks[depth].begin(), checks[depth].end(),
                      pred_holds)) {
        recurse(depth + 1);
      }
      binding[depth] = resources.end();
    };
    const std::vector<ResourceMap::const_iterator>& pool = candidates[depth];
    if (lookup_key[depth] == nullptr) {
      for (auto candidate : pool) bind(candidate);
      return;
    }
    // Distinct keys, so a repeated value does not bind the same `y` twice.
    std::vector<std::string_view> keys;
    any_value(*lookup_key[depth], [&](const std::string& key) {
      keys.push_back(key);
      return false;
    });
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (std::string_view key : keys) {
      auto it = std::lower_bound(
          pool.begin(), pool.end(), key,
          [](auto candidate, std::string_view k) {
            return candidate->first < k;
          });
      if (it != pool.end() && (*it)->first == key) bind(*it);
    }
  };
  recurse(0);
  if (stats != nullptr) stats->bindings_tried = tried;

  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  return results;
}

Result<std::vector<std::string>> EvaluateRuleText(
    std::string_view rule_text, const rdf::RdfSchema& schema,
    const ResourceMap& resources, EvalStats* stats) {
  MDV_ASSIGN_OR_RETURN(RuleAst ast, ParseRule(rule_text));
  MDV_ASSIGN_OR_RETURN(AnalyzedRule analyzed, AnalyzeRule(ast, schema));
  MDV_ASSIGN_OR_RETURN(AnalyzedRule normalized,
                       NormalizeRule(analyzed, schema));
  return EvaluateRule(normalized, resources, stats);
}

}  // namespace mdv::rules
