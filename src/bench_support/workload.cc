#include "bench_support/workload.h"

#include <cmath>

#include "filter/data_store.h"
#include "rules/compiler.h"

namespace mdv::bench_support {

namespace {
// Memory values start high so they never collide with cpu values or
// ports within the synthetic corpus.
constexpr int64_t kMemoryBase = 1000000;
}  // namespace

const char* BenchRuleTypeToString(BenchRuleType type) {
  switch (type) {
    case BenchRuleType::kOid:
      return "OID";
    case BenchRuleType::kComp:
      return "COMP";
    case BenchRuleType::kPath:
      return "PATH";
    case BenchRuleType::kJoin:
      return "JOIN";
  }
  return "?";
}

std::string WorkloadGenerator::DocumentUri(size_t j) {
  return "doc" + std::to_string(j) + ".rdf";
}

std::string WorkloadGenerator::RuleText(size_t i) const {
  switch (options_.rule_type) {
    case BenchRuleType::kOid:
      return "search CycleProvider c register c where c = '" +
             DocumentUri(i) + "#host'";
    case BenchRuleType::kComp:
      return "search CycleProvider c register c where c.synthValue > " +
             std::to_string(i);
    case BenchRuleType::kPath:
      return "search CycleProvider c register c "
             "where c.serverInformation.memory = " +
             std::to_string(kMemoryBase + static_cast<int64_t>(i));
    case BenchRuleType::kJoin:
      return "search CycleProvider c register c "
             "where c.serverHost contains 'uni-passau.de' "
             "and c.serverInformation.cpu = 600 "
             "and c.serverInformation.memory = " +
             std::to_string(kMemoryBase + static_cast<int64_t>(i));
  }
  return "";
}

rdf::RdfDocument WorkloadGenerator::MakeDocument(size_t j) const {
  rdf::RdfDocument doc(DocumentUri(j));

  rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory",
                   rdf::PropertyValue::Literal(std::to_string(
                       kMemoryBase + static_cast<int64_t>(j))));
  info.AddProperty("cpu", rdf::PropertyValue::Literal("600"));

  rdf::Resource host("host", "CycleProvider");
  host.AddProperty("serverHost",
                   rdf::PropertyValue::Literal(
                       "pirates" + std::to_string(j) + ".uni-passau.de"));
  host.AddProperty("serverPort", rdf::PropertyValue::Literal(
                                     std::to_string(5000 + j % 1000)));
  // COMP: synthValue chosen so that `synthValue > INT_i` holds for the
  // configured fraction of the rule base (rules use INT_i = i).
  int64_t synth = static_cast<int64_t>(
      std::llround(options_.comp_match_fraction *
                   static_cast<double>(options_.rule_base_size)));
  host.AddProperty("synthValue",
                   rdf::PropertyValue::Literal(std::to_string(synth)));
  host.AddProperty("serverInformation",
                   rdf::PropertyValue::ResourceRef(doc.uri() + "#info"));

  Status st = doc.AddResource(std::move(info));
  st = doc.AddResource(std::move(host));
  (void)st;  // Fresh ids; cannot collide.
  return doc;
}

std::vector<rdf::RdfDocument> WorkloadGenerator::MakeDocumentBatch(
    size_t first, size_t count) const {
  std::vector<rdf::RdfDocument> out;
  out.reserve(count);
  for (size_t j = first; j < first + count; ++j) {
    out.push_back(MakeDocument(j));
  }
  return out;
}

FilterFixture::FilterFixture(filter::RuleStoreOptions rule_options,
                             filter::TableOptions table_options,
                             filter::EngineOptions engine_options)
    : schema_(rdf::MakeObjectGlobeSchema()) {
  // The physical layout must match the store's routing.
  Status st = filter::CreateFilterTables(&db_, table_options,
                                         rule_options.num_shards);
  (void)st;  // Fresh database; cannot fail.
  store_ = std::make_unique<filter::RuleStore>(&db_, rule_options);
  engine_ = std::make_unique<filter::FilterEngine>(&db_, store_.get(),
                                                   engine_options);
}

Result<int64_t> FilterFixture::RegisterRule(const std::string& rule_text) {
  MDV_ASSIGN_OR_RETURN(rules::CompiledRule compiled,
                       rules::CompileRule(rule_text, schema_));
  return store_->RegisterTree(compiled.decomposed);
}

Result<filter::FilterRunResult> FilterFixture::RegisterDocumentBatch(
    const std::vector<rdf::RdfDocument>& documents,
    const filter::FilterOptions& options) {
  rdf::Statements delta;
  for (const rdf::RdfDocument& doc : documents) {
    rdf::Statements atoms = doc.ToStatements();
    delta.insert(delta.end(), atoms.begin(), atoms.end());
  }
  MDV_RETURN_IF_ERROR(filter::InsertAtoms(&db_, delta));
  return engine_->Run(delta, options);
}

}  // namespace mdv::bench_support
