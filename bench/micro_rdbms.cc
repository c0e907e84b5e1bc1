// Microbenchmarks of the embedded relational substrate, on
// google-benchmark: insert throughput and indexed vs. scanned
// selection. These calibrate the building blocks the filter
// algorithm's costs are made of.

#include <benchmark/benchmark.h>

#include "rdbms/database.h"
#include "rdbms/table.h"

namespace {

using mdv::rdbms::ColumnDef;
using mdv::rdbms::ColumnType;
using mdv::rdbms::CompareOp;
using mdv::rdbms::IndexKind;
using mdv::rdbms::Row;
using mdv::rdbms::ScanCondition;
using mdv::rdbms::Table;
using mdv::rdbms::TableSchema;
using mdv::rdbms::Value;

TableSchema AtomsSchema() {
  return TableSchema("atoms", {ColumnDef{"uri", ColumnType::kString},
                               ColumnDef{"property", ColumnType::kString},
                               ColumnDef{"value", ColumnType::kString}});
}

Row MakeAtom(int64_t i) {
  return Row{Value("doc" + std::to_string(i) + "#host"),
             Value(i % 2 == 0 ? "memory" : "cpu"),
             Value(std::to_string(i % 1000))};
}

void BM_TableInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Table table(AtomsSchema());
    if (state.range(0) != 0) {
      mdv::Status st = table.CreateIndex("value", IndexKind::kHash);
      benchmark::DoNotOptimize(&st);
    }
    state.ResumeTiming();
    for (int64_t i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(table.Insert(MakeAtom(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TableInsert)->Arg(0)->Arg(1);

void BM_PointLookup(benchmark::State& state) {
  Table table(AtomsSchema());
  const bool indexed = state.range(0) != 0;
  if (indexed) {
    mdv::Status st = table.CreateIndex("value", IndexKind::kHash);
    benchmark::DoNotOptimize(&st);
  }
  for (int64_t i = 0; i < 10000; ++i) {
    benchmark::DoNotOptimize(table.Insert(MakeAtom(i)));
  }
  int64_t probe = 0;
  for (auto _ : state) {
    std::vector<mdv::rdbms::RowId> hits = table.SelectRowIds(
        {ScanCondition{2, CompareOp::kEq,
                       Value(std::to_string(probe++ % 1000))}});
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_PointLookup)->Arg(0)->Arg(1);

void BM_BTreeRange(benchmark::State& state) {
  Table table(TableSchema(
      "t", {ColumnDef{"v", ColumnType::kInt64}}));
  mdv::Status st = table.CreateIndex("v", IndexKind::kBTree);
  benchmark::DoNotOptimize(&st);
  for (int64_t i = 0; i < 10000; ++i) {
    benchmark::DoNotOptimize(table.Insert(Row{Value(i)}));
  }
  for (auto _ : state) {
    std::vector<mdv::rdbms::RowId> hits = table.SelectRowIds(
        {ScanCondition{0, CompareOp::kGt, Value(int64_t{9900})}});
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_BTreeRange);

}  // namespace

BENCHMARK_MAIN();
