#include "rdbms/predicate.h"

#include "common/string_util.h"

namespace mdv::rdbms {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContains:
      return "contains";
  }
  return "?";
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // =, != and contains are symmetric or unflippable.
  }
}

bool EvaluateCompare(const Value& lhs, CompareOp op, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return false;
  if (op == CompareOp::kContains) {
    if (!lhs.is_string() || !rhs.is_string()) return false;
    return Contains(lhs.as_string(), rhs.as_string());
  }
  // For ordered comparisons where one side is numeric, coerce numeric-looking
  // strings so that "64" stored in a string column compares as 64.
  int cmp;
  if (lhs.is_numeric() != rhs.is_numeric() &&
      op != CompareOp::kEq && op != CompareOp::kNe) {
    auto ln = lhs.TryNumeric();
    auto rn = rhs.TryNumeric();
    if (!ln || !rn) return false;
    cmp = *ln < *rn ? -1 : (*ln > *rn ? 1 : 0);
  } else if (lhs.is_numeric() != rhs.is_numeric()) {
    // Equality across type classes: try numeric coercion, else unequal.
    auto ln = lhs.TryNumeric();
    auto rn = rhs.TryNumeric();
    if (ln && rn) {
      cmp = *ln < *rn ? -1 : (*ln > *rn ? 1 : 0);
    } else {
      return op == CompareOp::kNe;
    }
  } else {
    cmp = lhs.Compare(rhs);
  }
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    case CompareOp::kContains:
      return false;  // Handled above.
  }
  return false;
}

}  // namespace mdv::rdbms
