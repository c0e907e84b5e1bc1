// Robustness: arbitrary byte soup fed to every parser in the system must
// produce error statuses, never crashes, hangs, or accepted garbage that
// later breaks invariants.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "rdf/parser.h"
#include "rdf/xml_import.h"
#include "rules/compiler.h"
#include "rules/parser.h"

namespace mdv {
namespace {

std::string RandomText(std::mt19937* rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcdefgXYZ0123456789 <>/=\"'.#?!_-,()*&;\n\t\\";
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<size_t> char_dist(0, sizeof(kAlphabet) - 2);
  std::string out;
  size_t len = len_dist(*rng);
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[char_dist(*rng)];
  }
  return out;
}

/// Mutates a valid input by splicing random bytes into it, which reaches
/// deeper parser states than pure noise.
std::string Mutate(const std::string& valid, std::mt19937* rng) {
  std::string out = valid;
  std::uniform_int_distribution<int> op_dist(0, 2);
  for (int i = 0; i < 4; ++i) {
    std::uniform_int_distribution<size_t> pos_dist(0, out.size());
    size_t pos = pos_dist(*rng);
    switch (op_dist(*rng)) {
      case 0:
        out.insert(pos, RandomText(rng, 5));
        break;
      case 1:
        if (pos < out.size()) out.erase(pos, 1);
        break;
      default:
        if (pos < out.size()) out[pos] = '<';
        break;
    }
  }
  return out;
}

class RobustnessTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RobustnessTest, RuleParserNeverCrashes) {
  std::mt19937 rng(GetParam());
  const std::string valid =
      "search CycleProvider c register c "
      "where c.serverHost contains 'uni-passau.de' "
      "and c.serverInformation.memory > 64";
  rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
  for (int i = 0; i < 200; ++i) {
    std::string input = i % 2 == 0 ? RandomText(&rng, 120)
                                   : Mutate(valid, &rng);
    Result<rules::CompiledRule> result = rules::CompileRule(input, schema);
    if (result.ok()) {
      // If garbage happens to compile, it must be a well-formed rule.
      EXPECT_FALSE(result->decomposed.atoms.empty());
    }
  }
}

TEST_P(RobustnessTest, RdfXmlParserNeverCrashes) {
  std::mt19937 rng(GetParam() ^ 0x1111u);
  const std::string valid =
      "<rdf:RDF><og:CycleProvider rdf:ID=\"host\">"
      "<og:serverHost>pirates.uni-passau.de</og:serverHost>"
      "</og:CycleProvider></rdf:RDF>";
  for (int i = 0; i < 200; ++i) {
    std::string input =
        i % 2 == 0 ? RandomText(&rng, 160) : Mutate(valid, &rng);
    Result<rdf::RdfDocument> result = rdf::ParseRdfXml(input, "fuzz.rdf");
    if (result.ok()) {
      // Accepted inputs must produce structurally sound documents.
      for (const rdf::Resource* res : result->resources()) {
        EXPECT_FALSE(res->local_id().empty());
      }
    }
  }
}

TEST_P(RobustnessTest, GenericXmlImporterNeverCrashes) {
  std::mt19937 rng(GetParam() ^ 0x2222u);
  const std::string valid =
      "<service id=\"s\" category=\"payment\"><price>5</price>"
      "<endpoint id=\"e\"><url>https://x</url></endpoint></service>";
  for (int i = 0; i < 200; ++i) {
    std::string input =
        i % 2 == 0 ? RandomText(&rng, 160) : Mutate(valid, &rng);
    Result<rdf::RdfDocument> result =
        rdf::ImportGenericXml(input, "fuzz.xml");
    if (result.ok()) {
      rdf::RdfSchema schema;
      // Whatever imported must be schema-inferable and then valid.
      Status st = rdf::ExtendSchemaForDocument(*result, &schema);
      if (st.ok()) {
        EXPECT_TRUE(schema.ValidateDocument(*result).ok());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessTest,
                         ::testing::Values(17u, 29u, 31u, 47u));

}  // namespace
}  // namespace mdv
