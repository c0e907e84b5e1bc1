#ifndef MDV_RULES_EVALUATOR_H_
#define MDV_RULES_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/document.h"
#include "rules/analyzer.h"

namespace mdv::rules {

/// A resource collection the evaluator ranges over: URI reference →
/// resource. Both keys and resources must stay valid during evaluation.
using ResourceMap = std::map<std::string, const rdf::Resource*>;

/// Work counters of one EvaluateRule call.
struct EvalStats {
  /// Candidate bindings tried: every candidate tested by the up-front
  /// single-variable filter plus every binding made during the join.
  uint64_t bindings_tried = 0;
};

/// Directly evaluates a *normalized* rule against an in-memory resource
/// collection by backtracking over the variables in search-clause order.
/// Two access paths keep this close to linear for the rules the
/// normalizer produces:
///  - a predicate over a single variable filters that variable's
///    candidates once, before the join;
///  - an equality join `x.p = y` (either orientation), where `y` is a bare
///    variable bound after `x`, binds `y` by looking up the distinct
///    values of `x.p` among `y`'s candidate URIs instead of scanning them.
/// Every other predicate is checked as soon as its variables are bound.
///
/// This is the semantics baseline of the rule language: the LMR query
/// processor uses it over the cache, and the filter tests use it as an
/// oracle the incremental filter algorithm must agree with. Text
/// comparisons reconvert numeric-looking values, mirroring the filter
/// (§3.3.4). Rule-valued extensions are not supported here (the caller
/// must resolve them to classes first).
///
/// Returns the URI references of the registered resources, sorted. If
/// `stats` is non-null it receives the call's work counters.
Result<std::vector<std::string>> EvaluateRule(const AnalyzedRule& normalized,
                                              const ResourceMap& resources,
                                              EvalStats* stats = nullptr);

/// Convenience: compiles (parse → analyze → normalize) and evaluates
/// `rule_text` over `resources`.
Result<std::vector<std::string>> EvaluateRuleText(
    std::string_view rule_text, const rdf::RdfSchema& schema,
    const ResourceMap& resources, EvalStats* stats = nullptr);

/// Text comparison with numeric reconversion (§3.3.4): numeric when both
/// sides parse as numbers, string otherwise; `contains` is substring.
bool CompareValueTexts(const std::string& lhs, rdbms::CompareOp op,
                       const std::string& rhs);

}  // namespace mdv::rules

#endif  // MDV_RULES_EVALUATOR_H_
