#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <vector>

#include "griddb/util/journal.h"
#include "griddb/util/logging.h"
#include "griddb/util/md5.h"
#include "griddb/util/rng.h"
#include "griddb/util/status.h"
#include "griddb/util/stopwatch.h"
#include "griddb/util/strings.h"
#include "griddb/util/thread_pool.h"

namespace griddb {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("table 'x'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table 'x'");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: table 'x'");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFound("a"), NotFound("a"));
  EXPECT_FALSE(NotFound("a") == NotFound("b"));
  EXPECT_FALSE(NotFound("a") == InvalidArgument("a"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kTypeError, StatusCode::kPermissionDenied,
        StatusCode::kUnavailable, StatusCode::kInternal,
        StatusCode::kUnsupported, StatusCode::kTimeout}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  GRIDDB_ASSIGN_OR_RETURN(int half, Half(v));
  GRIDDB_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());
  EXPECT_FALSE(Quarter(5).ok());
}

// ---------- strings ----------

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("HeLLo_123"), "hello_123");
  EXPECT_EQ(ToUpper("HeLLo_123"), "HELLO_123");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "hello!"));
  EXPECT_TRUE(EndsWith("hello", "llo"));
  EXPECT_FALSE(EndsWith("hello", "hel"));
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  std::vector<std::string> parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitTrimmedDropsEmpties) {
  std::vector<std::string> parts = SplitTrimmed(" a , , b ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a'b'c", "'", "''"), "a''b''c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringsTest, ParseInt64RejectsPartial) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("  7 ", &v));
  EXPECT_FALSE(ParseInt64("7x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25e2", &v));
  EXPECT_DOUBLE_EQ(v, 325.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringsTest, ParseInt64BoundsAndSigns) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));
  EXPECT_TRUE(ParseInt64("+12", &v));
  EXPECT_EQ(v, 12);
  EXPECT_FALSE(ParseInt64("+-12", &v));
  EXPECT_FALSE(ParseInt64("++12", &v));
  EXPECT_FALSE(ParseInt64("+", &v));
  EXPECT_FALSE(ParseInt64("1 2", &v));
  EXPECT_FALSE(ParseInt64("1.0", &v));
  EXPECT_EQ(v, 12);  // a rejected parse leaves the output untouched
}

TEST(StringsTest, ParseDoubleSubnormalsOverflowAndJunk) {
  double v = 0;
  // Subnormals are ordinary finite values, not range errors.
  EXPECT_TRUE(ParseDouble("4.9406564584124654e-324", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(ParseDouble("1e-310", &v));
  EXPECT_GT(v, 0);
  EXPECT_LT(v, std::numeric_limits<double>::min());
  EXPECT_TRUE(ParseDouble("2.2250738585072014e-308", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::min());
  EXPECT_TRUE(ParseDouble("1.7976931348623157e+308", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::max());
  // Overflow and underflow all the way to zero stay errors.
  EXPECT_FALSE(ParseDouble("1e999", &v));
  EXPECT_FALSE(ParseDouble("-1e999", &v));
  EXPECT_FALSE(ParseDouble("1e-400", &v));
  // Trailing junk, empty input and doubled signs are rejected.
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("1.5 2", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("   ", &v));
  EXPECT_FALSE(ParseDouble("+-1", &v));
  // Signs, whitespace and the printf spellings of the special values.
  EXPECT_TRUE(ParseDouble(" +2.5 ", &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("-0", &v));
  EXPECT_TRUE(std::signbit(v));
  EXPECT_TRUE(ParseDouble("-inf", &v));
  EXPECT_TRUE(std::isinf(v) && v < 0);
  EXPECT_TRUE(ParseDouble("nan", &v));
  EXPECT_TRUE(std::isnan(v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
}

// ---------- MD5 (RFC 1321 test vectors) ----------

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5Hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5Hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5Hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5Hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5Hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      Md5Hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5Hex("1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  Md5 hasher;
  hasher.Update("mess");
  hasher.Update("age ");
  hasher.Update("digest");
  EXPECT_EQ(hasher.HexDigest(), Md5Hex("message digest"));
}

TEST(Md5Test, BlockBoundaries) {
  // Lengths around the 64-byte block / 56-byte padding boundary.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    std::string data(len, 'x');
    Md5 incremental;
    for (char c : data) incremental.Update(&c, 1);
    EXPECT_EQ(incremental.HexDigest(), Md5Hex(data)) << "len=" << len;
  }
}

// ---------- RNG ----------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  auto f = pool.Submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

// ---------- Logger ----------

TEST(LoggerTest, ThresholdFilters) {
  Logger& logger = Logger::Instance();
  logger.set_to_stderr(false);
  logger.set_threshold(LogLevel::kWarn);
  logger.ClearTail();
  GRIDDB_LOG(Debug) << "dropped";
  GRIDDB_LOG(Error) << "kept " << 42;
  auto tail = logger.Tail();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], "[ERROR] kept 42");
}

// ---------- Stopwatch ----------

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  double t0 = sw.ElapsedMs();
  EXPECT_GE(t0, 0.0);
  // Monotonic.
  EXPECT_GE(sw.ElapsedMs(), t0);
}

// ---------- journal (crash-consistent append log) ----------

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("griddb_journal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "test.journal").string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string ReadRaw() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void WriteRaw(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(JournalTest, MissingFileIsEmptyJournal) {
  auto replay = util::ReadJournal(path_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->records.empty());
  EXPECT_FALSE(replay->truncated);
}

TEST_F(JournalTest, RoundTripsRecordsInOrderIncludingNewlines) {
  util::JournalWriter writer(path_);
  std::vector<std::string> payloads = {
      "submit\nid 1\nsql SELECT 1",  // embedded newlines
      "",                            // empty payload is a valid record
      std::string("\0binary\xff", 8),
      "plain"};
  for (const std::string& p : payloads) {
    ASSERT_TRUE(writer.Append(p).ok());
  }
  auto replay = util::ReadJournal(path_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->truncated);
  ASSERT_EQ(replay->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(replay->records[i], payloads[i]) << "record " << i;
  }
}

TEST_F(JournalTest, BadMagicIsCorruption) {
  WriteRaw("not a journal\nrec 5 md5 x\nhello\n");
  auto replay = util::ReadJournal(path_);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
}

// The core crash property: truncating the file at ANY byte boundary
// (what a crash mid-append leaves behind) yields the longest intact
// record prefix, flagged truncated — never an error, never a mangled
// record, never a record from past the cut.
TEST_F(JournalTest, EveryTruncationPointYieldsIntactPrefix) {
  util::JournalWriter writer(path_);
  std::vector<std::string> payloads;
  Rng rng(20260809);
  for (int i = 0; i < 6; ++i) {
    std::string p = "record " + std::to_string(i) + "\n";
    const int64_t extra = rng.UniformInt(0, 39);
    for (int64_t j = 0; j < extra; ++j) {
      p += static_cast<char>(rng.UniformInt(0, 255));
    }
    payloads.push_back(p);
    ASSERT_TRUE(writer.Append(p).ok());
  }
  writer.Close();
  const std::string full = ReadRaw();

  // Frame boundaries: the byte offsets at which exactly k records are
  // complete (magic + k frames).
  std::vector<size_t> boundaries;
  {
    size_t off = std::string("griddb-journal v1\n").size();
    boundaries.push_back(off);
    for (const std::string& p : payloads) {
      off += std::string("rec ").size() + std::to_string(p.size()).size() +
             std::string(" md5 ").size() + 32 + 1 + p.size() + 1;
      boundaries.push_back(off);
    }
    ASSERT_EQ(off, full.size());
  }

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteRaw(full.substr(0, cut));
    auto replay = util::ReadJournal(path_);
    if (cut < boundaries.front()) {
      // Inside the magic header: the very first append was torn by a
      // crash. An empty journal with a torn tail, never an error —
      // recovery must be able to repair and continue from it.
      ASSERT_TRUE(replay.ok()) << "cut at " << cut;
      EXPECT_TRUE(replay->records.empty());
      EXPECT_EQ(replay->truncated, cut != 0) << "cut at " << cut;
      EXPECT_EQ(replay->intact_bytes, 0u) << "cut at " << cut;
      continue;
    }
    ASSERT_TRUE(replay.ok()) << "cut at " << cut << ": "
                             << replay.status().ToString();
    // Number of fully intact records at this cut.
    size_t intact = 0;
    while (intact + 1 < boundaries.size() && boundaries[intact + 1] <= cut) {
      ++intact;
    }
    EXPECT_EQ(replay->records.size(), intact) << "cut at " << cut;
    EXPECT_EQ(replay->truncated, cut != boundaries[intact])
        << "cut at " << cut;
    // The reported intact prefix is exactly the last frame boundary:
    // truncating there and appending must yield a journal whose replay
    // is prefix + the new record (the torn-tail repair contract).
    EXPECT_EQ(replay->intact_bytes, boundaries[intact]) << "cut at " << cut;
    for (size_t i = 0; i < replay->records.size(); ++i) {
      EXPECT_EQ(replay->records[i], payloads[i]);
    }
  }
}

// The repair half of the torn-tail story: truncate to the reported
// intact prefix, append, and the replay sees prefix + new record — at
// EVERY cut point, including cuts inside the magic header. Without the
// repair, an O_APPEND write after the torn bytes is unreachable by
// replay (it stops at the tear), silently losing the new record.
TEST_F(JournalTest, TruncateToIntactPrefixMakesAppendsReplayableAgain) {
  util::JournalWriter writer(path_);
  ASSERT_TRUE(writer.Append("first").ok());
  ASSERT_TRUE(writer.Append("second").ok());
  writer.Close();
  const std::string full = ReadRaw();

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteRaw(full.substr(0, cut));
    auto torn = util::ReadJournal(path_);
    ASSERT_TRUE(torn.ok()) << "cut at " << cut;
    const std::vector<std::string> prefix = torn->records;

    util::JournalWriter repair(path_);
    ASSERT_TRUE(repair.TruncateTo(torn->intact_bytes).ok())
        << "cut at " << cut;
    ASSERT_TRUE(repair.Append("appended after repair").ok());
    repair.Close();

    auto replay = util::ReadJournal(path_);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    EXPECT_FALSE(replay->truncated) << "cut at " << cut;
    ASSERT_EQ(replay->records.size(), prefix.size() + 1) << "cut at " << cut;
    for (size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(replay->records[i], prefix[i]);
    }
    EXPECT_EQ(replay->records.back(), "appended after repair");
  }
}

// Flipping any single byte of the LAST record's frame must not produce a
// wrong record: the tail is dropped (digest or header mismatch) and the
// prefix survives. Damage confined to the tail is exactly what a torn
// append can leave.
TEST_F(JournalTest, CorruptTailByteDropsOnlyTheTail) {
  util::JournalWriter writer(path_);
  ASSERT_TRUE(writer.Append("first record").ok());
  ASSERT_TRUE(writer.Append("second record").ok());
  writer.Close();
  const std::string full = ReadRaw();
  // Locate the start of the second frame.
  const std::string needle = "rec 13 md5 ";
  const size_t second = full.rfind(needle);
  ASSERT_NE(second, std::string::npos);

  for (size_t i = second; i < full.size(); ++i) {
    std::string damaged = full;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x5a);
    WriteRaw(damaged);
    auto replay = util::ReadJournal(path_);
    ASSERT_TRUE(replay.ok()) << "flip at " << i;
    ASSERT_GE(replay->records.size(), 1u) << "flip at " << i;
    EXPECT_EQ(replay->records[0], "first record");
    if (replay->records.size() == 2) {
      // A flip that decodes to a valid record must be byte-identical
      // (can only happen if the flip landed in trailing framing bytes
      // that still parse — the digest guarantees payload integrity).
      EXPECT_EQ(replay->records[1], "second record");
    } else {
      EXPECT_TRUE(replay->truncated) << "flip at " << i;
    }
  }
}

TEST_F(JournalTest, AtomicWriteFileReplacesWholeContent) {
  const std::string target = (dir_ / "manifest.txt").string();
  ASSERT_TRUE(util::AtomicWriteFile(target, "version 1\n").ok());
  ASSERT_TRUE(util::AtomicWriteFile(target, "version 2, longer\n").ok());
  std::ifstream in(target, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "version 2, longer\n");
  // No temp file litter.
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
}

TEST_F(JournalTest, AppendAfterReopenContinuesTheLog) {
  {
    util::JournalWriter writer(path_);
    ASSERT_TRUE(writer.Append("before restart").ok());
  }  // destroyed = process exit
  {
    util::JournalWriter writer(path_);
    ASSERT_TRUE(writer.Append("after restart").ok());
  }
  auto replay = util::ReadJournal(path_);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0], "before restart");
  EXPECT_EQ(replay->records[1], "after restart");
}

}  // namespace
}  // namespace griddb
