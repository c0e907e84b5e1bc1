#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace mdv {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status err = Status::NotFound("table foo");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NotFound: table foo");
  EXPECT_EQ(Status(StatusCode::kParseError, "").ToString(), "ParseError");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kSchemaViolation, StatusCode::kInternal,
        StatusCode::kUnsupported}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    MDV_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(0), 42);

  Result<int> err = Status::NotFound("x");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> moved = std::move(result).value();
  EXPECT_EQ(*moved, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool fail) -> Result<std::string> {
    if (fail) return Status::InvalidArgument("nope");
    return std::string("value");
  };
  auto wrapper = [&](bool fail) -> Result<size_t> {
    MDV_ASSIGN_OR_RETURN(std::string s, make(fail));
    return s.size();
  };
  Result<size_t> ok = wrapper(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5u);
  EXPECT_EQ(wrapper(true).status().code(), StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  a b  "), "a b");
  EXPECT_EQ(TrimWhitespace("\t\n"), "");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("a,,c", ','),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("doc.rdf#host", "doc.rdf"));
  EXPECT_FALSE(StartsWith("doc", "doc.rdf"));
  EXPECT_TRUE(EndsWith("doc.rdf", ".rdf"));
  EXPECT_FALSE(EndsWith("rdf", ".rdf"));
  EXPECT_TRUE(Contains("pirates.uni-passau.de", "uni-passau"));
  EXPECT_FALSE(Contains("tum.de", "uni-passau"));
  EXPECT_TRUE(Contains("abc", ""));
}

TEST(StringUtilTest, LowerAndJoin) {
  EXPECT_EQ(ToLowerAscii("SeArCh"), "search");
}

TEST(LoggingTest, LevelGate) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  // Streams below the threshold must not be evaluated.
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return "msg";
  };
  MDV_LOG(Debug) << count();
  MDV_LOG(Info) << count();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(LogLevel::kDebug);
  MDV_LOG(Debug) << count();
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(old_level);
}

TEST(LoggingTest, SinkReceivesFormattedLines) {
  std::vector<std::pair<LogLevel, std::string>> lines;
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  SetLogSink([&](LogLevel level, const std::string& message) {
    lines.emplace_back(level, message);
  });
  MDV_LOG(Warning) << "routed " << 42;
  SetLogSink({});  // Restore stderr.
  SetLogLevel(old_level);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].first, LogLevel::kWarning);
  EXPECT_NE(lines[0].second.find("routed 42"), std::string::npos);
  EXPECT_NE(lines[0].second.find("[WARN "), std::string::npos);
  // No trailing newline: the sink owns framing.
  EXPECT_EQ(lines[0].second.find('\n'), std::string::npos);
}

TEST(LoggingTest, ScopedLogCaptureCollectsAndRestores) {
  LogLevel old_level = GetLogLevel();
  {
    ScopedLogCapture capture(LogLevel::kDebug);
    MDV_LOG(Debug) << "inner detail";
    MDV_LOG(Error) << "boom";
    EXPECT_EQ(capture.messages().size(), 2u);
    EXPECT_TRUE(capture.Contains("inner detail"));
    EXPECT_TRUE(capture.Contains("boom"));
    EXPECT_FALSE(capture.Contains("absent"));
  }
  EXPECT_EQ(GetLogLevel(), old_level);
}

TEST(LoggingTest, ScopedLogCapturesNest) {
  ScopedLogCapture outer;
  {
    ScopedLogCapture inner;
    MDV_LOG(Error) << "to inner";
    EXPECT_TRUE(inner.Contains("to inner"));
  }
  // The inner capture restored the outer sink, not stderr.
  MDV_LOG(Error) << "to outer";
  EXPECT_TRUE(outer.Contains("to outer"));
  EXPECT_FALSE(outer.Contains("to inner"));
}

// Reference digests from the published FNV-1a 64 test vectors
// (Fowler/Noll/Vo, http://www.isthe.com/chongo/tech/comp/fnv/).
TEST(ChecksumTest, Fnv1aKnownVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(ChecksumTest, Fnv1aExtendChainsChunks) {
  const std::string data = "the quick brown fox";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint64_t chained = Fnv1aExtend(Fnv1a(data.substr(0, split)),
                                   data.substr(split));
    EXPECT_EQ(chained, Fnv1a(data)) << "split at " << split;
  }
}

TEST(ChecksumTest, Fnv1aSingleByteFlipChangesDigest) {
  std::string data = "payload bytes under test";
  const uint64_t clean = Fnv1a(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x40);
    EXPECT_NE(Fnv1a(flipped), clean) << "flip at " << i;
  }
}

TEST(ChecksumTest, Fnv1aEmbeddedNulBytesCount) {
  EXPECT_NE(Fnv1a(std::string_view("\0\0", 2)),
            Fnv1a(std::string_view("\0", 1)));
}

}  // namespace
}  // namespace mdv
