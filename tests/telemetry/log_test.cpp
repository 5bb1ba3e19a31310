#include "telemetry/log.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace whisper::telemetry {
namespace {

/// An in-memory stream the logger writes to without owning it. The logger
/// flushes every line, so `contents()` is always current.
struct Capture {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* file = open_memstream(&buf, &len);
  ~Capture() {
    std::fclose(file);
    std::free(buf);
  }
  std::string contents() const { return std::string(buf, len); }
};

/// A logger on `cap` with a fixed clock, so lines compare as exact strings.
void attach(Logger& log, const Capture& cap) {
  log.set_stream(cap.file);
  log.set_clock([] { return std::uint64_t{7}; });
}

TEST(Logger, LevelGating) {
  Capture cap;
  Logger log;
  attach(log, cap);
  log.debug("d");  // below the default info level
  log.info("i");
  log.warn("w");
  log.error("e");
  log.set_level(LogLevel::kError);
  log.warn("w2");
  log.error("e2");
  log.set_level(LogLevel::kDebug);
  log.debug("d2");
  EXPECT_EQ(cap.contents(),
            "{\"ts_us\":7,\"level\":\"info\",\"event\":\"i\"}\n"
            "{\"ts_us\":7,\"level\":\"warn\",\"event\":\"w\"}\n"
            "{\"ts_us\":7,\"level\":\"error\",\"event\":\"e\"}\n"
            "{\"ts_us\":7,\"level\":\"error\",\"event\":\"e2\"}\n"
            "{\"ts_us\":7,\"level\":\"debug\",\"event\":\"d2\"}\n");
}

TEST(Logger, NodeFieldOnlyAfterSetNode) {
  Capture cap;
  Logger log;
  attach(log, cap);
  log.info("before");
  log.set_node(3);
  log.info("after");
  EXPECT_EQ(cap.contents(),
            "{\"ts_us\":7,\"level\":\"info\",\"event\":\"before\"}\n"
            "{\"ts_us\":7,\"level\":\"info\",\"node\":3,\"event\":\"after\"}\n");
}

TEST(Logger, EscapesEventAndStringFields) {
  Capture cap;
  Logger log;
  attach(log, cap);
  const std::string hostile("q\"n\nc\x01z", 7);
  log.info(hostile, {{"msg", hostile}});
  const std::string out = cap.contents();
  EXPECT_EQ(out,
            "{\"ts_us\":7,\"level\":\"info\",\"event\":\"q\\\"n\\nc\\u0001z\","
            "\"msg\":\"q\\\"n\\nc\\u0001z\"}\n");
  // One physical line: no raw control byte before the terminating newline.
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(out[i]), 0x20u) << "raw byte at " << i;
  }
}

TEST(Logger, NonFiniteDoublesBecomeNull) {
  Capture cap;
  Logger log;
  attach(log, cap);
  log.info("x", {{"nan", std::nan("")},
                 {"inf", std::numeric_limits<double>::infinity()},
                 {"ninf", -std::numeric_limits<double>::infinity()},
                 {"ok", 1.5}});
  EXPECT_EQ(cap.contents(),
            "{\"ts_us\":7,\"level\":\"info\",\"event\":\"x\","
            "\"nan\":null,\"inf\":null,\"ninf\":null,\"ok\":1.5}\n");
}

TEST(Logger, OpenFileAppends) {
  const std::string path = ::testing::TempDir() + "whisper_log_test.jsonl";
  {
    std::ofstream prior(path, std::ios::trunc);
    prior << "prior\n";
  }
  for (int round = 0; round < 2; ++round) {
    Logger log;
    log.set_clock([] { return std::uint64_t{7}; });
    ASSERT_TRUE(log.open_file(path));
    log.info("boot", {{"round", round}});
  }
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(),
            "prior\n"
            "{\"ts_us\":7,\"level\":\"info\",\"event\":\"boot\",\"round\":0}\n"
            "{\"ts_us\":7,\"level\":\"info\",\"event\":\"boot\",\"round\":1}\n");
  std::remove(path.c_str());
  Logger log;
  EXPECT_FALSE(log.open_file(::testing::TempDir() + "no-such-dir/x.jsonl"));
}

TEST(Logger, InjectedClockSetsTimestamp) {
  Capture cap;
  Logger log;
  log.set_stream(cap.file);
  std::uint64_t now = 41;
  log.set_clock([&now] { return ++now; });
  log.info("a");
  log.info("b");
  EXPECT_EQ(cap.contents(),
            "{\"ts_us\":42,\"level\":\"info\",\"event\":\"a\"}\n"
            "{\"ts_us\":43,\"level\":\"info\",\"event\":\"b\"}\n");
}

}  // namespace
}  // namespace whisper::telemetry
