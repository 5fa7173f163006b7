// On-disk format fuzzing (the storage counterpart of net_protocol_test's
// decoder sweeps): every storage decoder — segment file, WAL, manifest —
// must be total over arbitrary input. Systematic truncation at every byte
// boundary, exhaustive single-byte corruption, and seeded random multi-byte
// corruption; run under ASan/UBSan in CI, where any over-read or
// uninitialized interpretation turns into a hard failure.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/file_io.h"
#include "storage/manifest.h"
#include "storage/segment_file.h"
#include "storage/wal.h"
#include "tests/test_util.h"
#include "vdms/segment.h"

namespace vdt {
namespace {

using testing_util::RandomMatrix;

std::vector<uint8_t> EncodeTestSegment(IndexType type, size_t rows,
                                       size_t dim, bool with_tombstones,
                                       bool with_ids) {
  Segment segment(100, dim);
  const FloatMatrix data = RandomMatrix(rows, dim, 42);
  for (size_t r = 0; r < rows; ++r) {
    if (with_ids) {
      segment.AppendWithId(data.Row(r), dim, 100 + static_cast<int64_t>(r) * 3);
    } else {
      segment.Append(data.Row(r), dim);
    }
  }
  IndexParams params;
  params.nlist = 4;
  params.nprobe = 4;
  params.m = 4;
  params.hnsw_m = 8;
  params.ef_construction = 32;
  params.ef = 16;
  EXPECT_TRUE(
      segment.Seal(type, Metric::kAngular, params, /*build_threshold=*/16, 7)
          .ok());
  std::vector<uint8_t> tombstones(rows, 0);
  for (size_t r = 0; r < rows; r += 5) tombstones[r] = 1;
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(EncodeSegmentFile(segment, Metric::kAngular,
                                with_tombstones ? &tombstones : nullptr,
                                &bytes)
                  .ok());
  return bytes;
}

// ------------------------------------------------------------ segment file

class SegmentFormatFuzzTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(SegmentFormatFuzzTest, RoundTripsAndSurvivesTruncation) {
  const std::vector<uint8_t> bytes =
      EncodeTestSegment(GetParam(), 48, 8, true, true);

  // The intact image decodes.
  auto full = DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kAngular,
                                nullptr);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->segment->rows(), 48u);
  EXPECT_EQ(full->segment->IdAt(1), 103);
  EXPECT_GT(full->deleted, 0u);

  // Every proper prefix must yield a typed error (a section is missing or
  // cut short), and must never crash or over-read.
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = DecodeSegmentFile(bytes.data(), len, Metric::kAngular, nullptr);
    EXPECT_FALSE(r.ok()) << "truncated to " << len << " decoded";
  }
}

TEST_P(SegmentFormatFuzzTest, SurvivesSingleByteCorruption) {
  std::vector<uint8_t> bytes = EncodeTestSegment(GetParam(), 32, 8, true,
                                                 false);
  // Exhaustive single-byte flips. CRC or structural validation rejects
  // almost all of them; the assertion here is totality (no crash), plus
  // basic sanity when a flip happens to decode (e.g. inside a length field
  // that still frames validly).
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    const uint8_t original = bytes[pos];
    bytes[pos] ^= 0x5A;
    auto r =
        DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kAngular,
                          nullptr);
    if (r.ok()) {
      EXPECT_EQ(r->segment->rows(), 32u);
    }
    bytes[pos] = original;
  }
}

INSTANTIATE_TEST_SUITE_P(IndexFamilies, SegmentFormatFuzzTest,
                         ::testing::Values(IndexType::kFlat,
                                           IndexType::kIvfFlat,
                                           IndexType::kIvfSq8,
                                           IndexType::kIvfPq, IndexType::kHnsw,
                                           IndexType::kScann,
                                           IndexType::kAutoIndex));

TEST(SegmentFormatTest, RandomCorruptionNeverCrashes) {
  const std::vector<uint8_t> pristine =
      EncodeTestSegment(IndexType::kHnsw, 64, 8, true, true);
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.UniformInt(8));
    for (int f = 0; f < flips; ++f) {
      bytes[static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(bytes.size())))] =
          static_cast<uint8_t>(rng.UniformInt(256));
    }
    auto r = DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kAngular,
                               nullptr);
    if (r.ok()) {
      EXPECT_EQ(r->segment->rows(), 64u);
    }
  }
}

TEST(SegmentFormatTest, WrongMetricIsRejected) {
  const std::vector<uint8_t> bytes =
      EncodeTestSegment(IndexType::kFlat, 32, 6, false, false);
  auto r = DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kL2, nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("metric"), std::string::npos);
}

// A sealed IVF_FLAT segment drops its own matrix (its index holds the rows,
// list-major); Rows() must still return every row in local order, bit for
// bit, before and after a round trip through the segment file. HNSW (the
// segment keeps its matrix) takes the view path of the same accessor.
TEST(SegmentFormatTest, RowsComeBackInLocalOrder) {
  const size_t rows = 300, dim = 7;
  const FloatMatrix data = RandomMatrix(rows, dim, 42);
  const auto expect_rows = [&](const Segment& segment) {
    const FloatMatrix got = segment.Rows();
    ASSERT_EQ(got.rows(), rows);
    ASSERT_EQ(got.dim(), dim);
    EXPECT_EQ(std::memcmp(got.RawData(), data.RawData(), data.MemoryBytes()),
              0);
  };
  for (IndexType type : {IndexType::kIvfFlat, IndexType::kHnsw}) {
    Segment segment(100, dim);
    for (size_t r = 0; r < rows; ++r) segment.Append(data.Row(r), dim);
    IndexParams params;
    params.nlist = 8;
    ASSERT_TRUE(segment.Seal(type, Metric::kL2, params, 16, 7).ok());
    ASSERT_TRUE(segment.indexed());
    EXPECT_EQ(segment.index()->HoldsRows(), type == IndexType::kIvfFlat);
    expect_rows(segment);

    std::vector<uint8_t> bytes;
    ASSERT_TRUE(EncodeSegmentFile(segment, Metric::kL2, nullptr, &bytes).ok());
    auto decoded =
        DecodeSegmentFile(bytes.data(), bytes.size(), Metric::kL2, nullptr);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    expect_rows(*decoded->segment);
  }
}

// --------------------------------------------------------------------- WAL

std::vector<uint8_t> EncodeTestWal() {
  char tmpl[] = "/tmp/vdt_wal_fuzz_XXXXXX";
  const int fd = mkstemp(tmpl);
  EXPECT_GE(fd, 0);
  close(fd);
  const std::string path = tmpl;
  (void)RemoveFileIfExists(path);
  {
    auto writer = WalWriter::Open(path, WalSyncPolicy::kNone, nullptr);
    EXPECT_TRUE(writer.ok());
    const FloatMatrix rows = RandomMatrix(10, 4, 9);
    EXPECT_TRUE((*writer)->AppendInsert(rows).ok());
    EXPECT_TRUE((*writer)->AppendDelete({1, 5, 9}).ok());
    SystemConfig sys;
    sys.cache_ratio = 0.5;
    EXPECT_TRUE((*writer)->AppendSystemOverride(sys).ok());
    IndexParams params;
    params.nprobe = 3;
    EXPECT_TRUE((*writer)->AppendSearchParams(params).ok());
    EXPECT_TRUE((*writer)->AppendCompact().ok());
  }
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  (void)RemoveFileIfExists(path);
  return *bytes;
}

TEST(WalFormatTest, TruncationYieldsExactValidPrefix) {
  const std::vector<uint8_t> bytes = EncodeTestWal();
  auto full = DecodeWal(bytes.data(), bytes.size());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->records.size(), 5u);
  EXPECT_FALSE(full->torn_tail);
  EXPECT_EQ(full->valid_bytes, bytes.size());

  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = DecodeWal(bytes.data(), len);
    if (len < 8) {
      // Shorter than the header: not a WAL at all.
      EXPECT_FALSE(r.ok()) << "len " << len;
      continue;
    }
    ASSERT_TRUE(r.ok()) << "len " << len;
    // A truncated log is a torn tail: fewer (never garbled) records, and
    // valid_bytes marks exactly where appending may resume.
    EXPECT_LE(r->records.size(), full->records.size());
    EXPECT_LE(r->valid_bytes, len);
    if (len < bytes.size()) {
      EXPECT_TRUE(r->torn_tail || r->valid_bytes == len) << "len " << len;
    }
    for (const WalRecord& rec : r->records) {
      EXPECT_GE(rec.type, WalRecord::kInsert);
      EXPECT_LE(rec.type, WalRecord::kCompact);
    }
  }
}

TEST(WalFormatTest, SingleByteCorruptionNeverCrashes) {
  std::vector<uint8_t> bytes = EncodeTestWal();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    const uint8_t original = bytes[pos];
    bytes[pos] ^= 0xA5;
    auto r = DecodeWal(bytes.data(), bytes.size());
    if (r.ok()) {
      // Corruption inside a record body trips its CRC -> torn tail before
      // that record; corruption in the header is a typed error instead.
      EXPECT_LE(r->records.size(), 5u);
    }
    bytes[pos] = original;
  }
}

TEST(WalFormatTest, RandomCorruptionNeverCrashes) {
  const std::vector<uint8_t> pristine = EncodeTestWal();
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.UniformInt(6));
    for (int f = 0; f < flips; ++f) {
      bytes[static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(bytes.size())))] =
          static_cast<uint8_t>(rng.UniformInt(256));
    }
    (void)DecodeWal(bytes.data(), bytes.size());
  }
}

// ---------------------------------------------------------------- manifest

ManifestData MakeTestManifest() {
  ManifestData m;
  m.options.name = "fuzz";
  m.options.metric = Metric::kAngular;
  m.options.system.num_shards = 2;
  m.dim = 8;
  m.next_id = 500;
  m.compactions = 3;
  m.next_segment_uid = 9;
  m.wal_epoch = 2;
  m.shards.resize(2);
  ManifestSegment seg;
  seg.uid = 4;
  seg.rows = 10;
  seg.deleted = 2;
  seg.tombstones.assign(10, 0);
  seg.tombstones[0] = seg.tombstones[7] = 1;
  m.shards[0].push_back(seg);
  seg.uid = 6;
  seg.deleted = 0;
  seg.tombstones.assign(10, 0);
  m.shards[1].push_back(seg);
  return m;
}

TEST(ManifestFormatTest, RoundTrip) {
  const ManifestData m = MakeTestManifest();
  std::vector<uint8_t> bytes;
  EncodeManifest(m, &bytes);
  auto r = DecodeManifest(bytes.data(), bytes.size());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->options.name, "fuzz");
  EXPECT_EQ(r->next_id, 500);
  EXPECT_EQ(r->next_segment_uid, 9u);
  EXPECT_EQ(r->wal_epoch, 2u);
  ASSERT_EQ(r->shards.size(), 2u);
  ASSERT_EQ(r->shards[0].size(), 1u);
  EXPECT_EQ(r->shards[0][0].uid, 4u);
  EXPECT_EQ(r->shards[0][0].deleted, 2u);
  EXPECT_EQ(r->shards[0][0].tombstones[7], 1);
}

TEST(ManifestFormatTest, EveryTruncationAndFlipIsRejected) {
  std::vector<uint8_t> bytes;
  EncodeManifest(MakeTestManifest(), &bytes);
  // The whole payload sits under one CRC, so every proper prefix and every
  // single-byte flip must be rejected outright — a manifest is either
  // bit-exact or refused (this is the commit point of the durability
  // protocol; "mostly right" is not a state it can have).
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeManifest(bytes.data(), len).ok()) << "len " << len;
  }
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    const uint8_t original = bytes[pos];
    bytes[pos] ^= 0x3C;
    EXPECT_FALSE(DecodeManifest(bytes.data(), bytes.size()).ok())
        << "flip at " << pos;
    bytes[pos] = original;
  }
}

TEST(ManifestFormatTest, RandomCorruptionNeverCrashes) {
  std::vector<uint8_t> pristine;
  EncodeManifest(MakeTestManifest(), &pristine);
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.UniformInt(6));
    for (int f = 0; f < flips; ++f) {
      bytes[static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(bytes.size())))] =
          static_cast<uint8_t>(rng.UniformInt(256));
    }
    (void)DecodeManifest(bytes.data(), bytes.size());
  }
}

}  // namespace
}  // namespace vdt
