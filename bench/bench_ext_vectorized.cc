// Extension: vectorized columnar executor vs the row-at-a-time reference.
//
// Measures real CPU time (not the simulation's virtual clock — the
// executor never touches the network) for the Fig 4-6 query shapes:
// the chunk scan, a filtered scan, the Table 1 4-way equi join, a grouped
// aggregate, and the Fig 6-style wide-ntuple scan. The vectorized path is
// swept across batch sizes 1..4096 to show where batching pays; the
// row-at-a-time executor it replaced, kept as the parity oracle in
// bench/row_executor_oracle.h, is the baseline.
//
// Acceptance (wired into scripts/check.sh, see EXPERIMENTS.md):
//   - cold 4-way join >= 3x faster vectorized (default 1024-row batches);
//   - ntuple-style scan >= 3x faster;
//   - byte-identical outputs on every shape/batch size (verified here on
//     top of the dedicated parity suite).
// Emits BENCH_vectorized.json (path = argv[1]).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/row_executor_oracle.h"
#include "griddb/engine/select_executor.h"
#include "griddb/sql/parser.h"
#include "griddb/util/rng.h"
#include "griddb/util/stopwatch.h"

using namespace griddb;

namespace {

using engine::ExecOptions;
using engine::MapTableSource;
using storage::ResultSet;
using storage::Row;
using storage::Value;

constexpr size_t kChunkRows = 20000;
constexpr size_t kNtupleRows = 4000;
constexpr size_t kNtupleCols = 120;

// (id, value) chunk tables in the testbed's shape, one per mart, with ids
// shuffled out of phase so the joins do real hash probing.
ResultSet ChunkTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  ResultSet rs;
  rs.columns = {"id", "value"};
  rs.rows.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    rs.rows.push_back({Value(static_cast<int64_t>(i)),
                       Value(rng.Uniform(0.0, 1000.0))});
  }
  // Shuffle so probe order != build order.
  for (size_t i = rows; i > 1; --i) {
    size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(rs.rows[i - 1], rs.rows[j]);
  }
  return rs;
}

// Fig 6-style wide ntuple: many double attributes per event.
ResultSet NtupleTable(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  ResultSet rs;
  rs.columns.reserve(cols);
  rs.columns.push_back("event_id");
  for (size_t c = 1; c < cols; ++c) {
    rs.columns.push_back("attr" + std::to_string(c));
  }
  rs.rows.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(cols);
    row.push_back(Value(static_cast<int64_t>(r)));
    for (size_t c = 1; c < cols; ++c) {
      row.push_back(Value(rng.Uniform(-1.0, 1.0)));
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

struct Shape {
  const char* name;
  const char* sql;
};

const Shape kShapes[] = {
    {"scan", "SELECT id, value FROM chunk_a"},
    {"filter", "SELECT id, value FROM chunk_a WHERE value > 500.0"},
    {"join_4way",
     "SELECT a.id, a.value, b.value, c.value, d.value FROM chunk_a a "
     "JOIN chunk_b b ON a.id = b.id JOIN chunk_c c ON a.id = c.id "
     "JOIN chunk_d d ON a.id = d.id"},
    {"aggregate",
     "SELECT COUNT(*), SUM(a.value), AVG(b.value) FROM chunk_a a "
     "JOIN chunk_b b ON a.id = b.id WHERE a.value > 250.0"},
    {"ntuple_scan", "SELECT * FROM ntuple"},
};
constexpr size_t kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

const size_t kBatchSizes[] = {1, 4, 16, 64, 256, 1024, 4096};
constexpr size_t kNumBatchSizes = sizeof(kBatchSizes) / sizeof(kBatchSizes[0]);
constexpr size_t kDefaultBatchIndex = 5;  // 1024

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

bool SameResult(const ResultSet& a, const ResultSet& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const Value& x = a.rows[r][c];
      const Value& y = b.rows[r][c];
      if (x.type() != y.type()) return false;
      if (!x.is_null() && x.Compare(y) != 0) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_vectorized.json";
  constexpr int kIterations = 5;

  std::printf("=== Extension: vectorized executor vs row-at-a-time "
              "reference ===\n");
  std::printf("building tables (%zu-row chunks, %zux%zu ntuple)...\n",
              kChunkRows, kNtupleRows, kNtupleCols);

  MapTableSource source;
  source.Add("chunk_a", ChunkTable(kChunkRows, 1));
  source.Add("chunk_b", ChunkTable(kChunkRows, 2));
  source.Add("chunk_c", ChunkTable(kChunkRows, 3));
  source.Add("chunk_d", ChunkTable(kChunkRows, 4));
  source.Add("ntuple", NtupleTable(kNtupleRows, kNtupleCols, 5));

  auto dialect = sql::Dialect::For(sql::Vendor::kMySql);
  double ref_ms[kNumShapes] = {};
  double vec_ms[kNumShapes][kNumBatchSizes] = {};
  bool identical = true;

  for (size_t s = 0; s < kNumShapes; ++s) {
    auto stmt = sql::ParseSelect(kShapes[s].sql, dialect);
    if (!stmt.ok()) {
      std::fprintf(stderr, "parse failed for %s: %s\n", kShapes[s].name,
                   stmt.status().ToString().c_str());
      return 1;
    }

    // Reference baseline: median of cold runs.
    ResultSet ref_out;
    {
      std::vector<double> times;
      for (int it = 0; it < kIterations; ++it) {
        Stopwatch sw;
        auto rs = bench::row_executor::ExecuteSelectReferenceRows(**stmt,
                                                                  source);
        if (!rs.ok()) {
          std::fprintf(stderr, "reference %s failed: %s\n", kShapes[s].name,
                       rs.status().ToString().c_str());
          return 1;
        }
        times.push_back(sw.ElapsedMs());
        ref_out = std::move(*rs);
      }
      ref_ms[s] = Median(std::move(times));
    }

    for (size_t b = 0; b < kNumBatchSizes; ++b) {
      ExecOptions opts;
      opts.batch_rows = kBatchSizes[b];
      std::vector<double> times;
      for (int it = 0; it < kIterations; ++it) {
        Stopwatch sw;
        auto rs = engine::ExecuteSelect(**stmt, source, opts);
        if (!rs.ok()) {
          std::fprintf(stderr, "vectorized %s (batch %zu) failed: %s\n",
                       kShapes[s].name, kBatchSizes[b],
                       rs.status().ToString().c_str());
          return 1;
        }
        times.push_back(sw.ElapsedMs());
        if (it == 0 && !SameResult(ref_out, *rs)) {
          std::fprintf(stderr, "OUTPUT MISMATCH: %s at batch %zu\n",
                       kShapes[s].name, kBatchSizes[b]);
          identical = false;
        }
      }
      vec_ms[s][b] = Median(std::move(times));
    }

    std::printf("%-12s reference %9.3f ms | vectorized(1024) %9.3f ms | "
                "speedup %.2fx\n",
                kShapes[s].name, ref_ms[s], vec_ms[s][kDefaultBatchIndex],
                ref_ms[s] / vec_ms[s][kDefaultBatchIndex]);
  }

  double join_speedup =
      ref_ms[2] / vec_ms[2][kDefaultBatchIndex];  // join_4way
  double scan_speedup =
      ref_ms[4] / vec_ms[4][kDefaultBatchIndex];  // ntuple_scan
  bool pass = identical && join_speedup >= 3.0 && scan_speedup >= 3.0;

  std::printf("\njoin_4way speedup %.2fx (need >= 3x), ntuple_scan speedup "
              "%.2fx (need >= 3x), outputs %s => %s\n",
              join_speedup, scan_speedup,
              identical ? "identical" : "DIVERGED", pass ? "PASS" : "FAIL");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"vectorized\",\n");
  std::fprintf(f, "  \"chunk_rows\": %zu,\n  \"ntuple_rows\": %zu,\n"
              "  \"ntuple_cols\": %zu,\n", kChunkRows, kNtupleRows,
              kNtupleCols);
  std::fprintf(f, "  \"batch_sizes\": [1, 4, 16, 64, 256, 1024, 4096],\n");
  std::fprintf(f, "  \"shapes\": [\n");
  for (size_t s = 0; s < kNumShapes; ++s) {
    std::fprintf(f, "    {\"name\": \"%s\", \"reference_ms\": %.3f, "
                "\"vectorized_ms\": [", kShapes[s].name, ref_ms[s]);
    for (size_t b = 0; b < kNumBatchSizes; ++b) {
      std::fprintf(f, "%s%.3f", b ? ", " : "", vec_ms[s][b]);
    }
    std::fprintf(f, "], \"speedup_1024\": %.3f}%s\n",
                 ref_ms[s] / vec_ms[s][kDefaultBatchIndex],
                 s + 1 < kNumShapes ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"join_4way_speedup\": %.3f,\n", join_speedup);
  std::fprintf(f, "  \"ntuple_scan_speedup\": %.3f,\n", scan_speedup);
  std::fprintf(f, "  \"outputs_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  return pass ? 0 : 1;
}
