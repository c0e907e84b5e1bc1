#ifndef MDV_RDBMS_PREDICATE_H_
#define MDV_RDBMS_PREDICATE_H_

#include "rdbms/value.h"

namespace mdv::rdbms {

/// Comparison operators of the engine. kContains is substring match on
/// strings (the rule language's `contains`, paper §2.3).
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

const char* CompareOpToString(CompareOp op);

/// The operator with operand sides swapped (a < b  <=>  b > a).
CompareOp FlipCompareOp(CompareOp op);

/// Evaluates `lhs op rhs` with SQL-ish semantics: comparisons involving
/// NULL are false; numeric comparisons coerce numeric-looking strings
/// (paper §3.3.4 stores numeric constants as strings and reconverts).
bool EvaluateCompare(const Value& lhs, CompareOp op, const Value& rhs);

}  // namespace mdv::rdbms

#endif  // MDV_RDBMS_PREDICATE_H_
