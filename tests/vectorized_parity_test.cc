// Byte-identical parity between the vectorized executor and the
// row-at-a-time oracle in bench/row_executor_oracle.h (DESIGN.md §15).
//
// The contract under test: for every fault-free input, ExecuteSelect and
// the oracle return ResultSets whose columns and cells match exactly —
// same types, same bit patterns for doubles, same row order. When the
// oracle errors, ExecuteSelect must also error (messages may differ: the
// vectorized path evaluates subexpressions column-major, so with two
// independently failing subexpressions it can surface the other one).
//
// ExecuteSelect also runs over copies of the tables that crossed the
// XML-RPC and the binary codec (ResultSetToRpc, encode, decode,
// RpcToResultSet) and must still match the oracle on the originals: the
// width check where rows enter from a peer must accept every valid set,
// empty, all-null and mixed-type ones included.
//
// The same corpus runs a second time against the tables stored in an
// engine::Database, whose chunks the executor reads in place; the oracle
// then reads the stored (type-coerced) rows. Fixed cases cover BETWEEN
// with NULL and mixed int/double operands, ORDER BY ... LIMIT ties across
// stored chunk boundaries, UPDATE/DELETE followed by SELECT, and a golden
// ContentDigest.
//
// Coverage comes from a seeded random query generator over tables with
// NULLs, mixed-type columns and duplicate join keys, plus deterministic
// edge cases around batch boundaries, empty inputs and HAVING-dropped
// groups, and a threaded leg for the TSan build.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>

#include "bench/row_executor_oracle.h"
#include "griddb/engine/database.h"
#include "griddb/engine/select_executor.h"
#include "griddb/rpc/wire.h"
#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/sql/parser.h"
#include "griddb/util/rng.h"

namespace griddb::engine {
namespace {

using storage::ResultSet;
using storage::Row;
using storage::Value;

bool ValueExactEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_null()) return true;
  switch (a.type()) {
    case storage::DataType::kInt64:
      return a.AsInt64Strict() == b.AsInt64Strict();
    case storage::DataType::kDouble: {
      // Bit-pattern equality: NaN == NaN, but 0.0 != -0.0. This is what
      // "byte-identical on the wire" means for doubles.
      uint64_t ba, bb;
      double da = a.AsDoubleStrict(), db = b.AsDoubleStrict();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case storage::DataType::kBool:
      return a.AsBoolStrict() == b.AsBoolStrict();
    case storage::DataType::kString:
      return a.AsStringStrict() == b.AsStringStrict();
    default:
      return true;
  }
}

::testing::AssertionResult ResultsIdentical(const ResultSet& ref,
                                            const ResultSet& vec) {
  if (ref.columns != vec.columns) {
    return ::testing::AssertionFailure() << "column names differ";
  }
  if (ref.rows.size() != vec.rows.size()) {
    return ::testing::AssertionFailure()
           << "row count " << ref.rows.size() << " vs " << vec.rows.size();
  }
  for (size_t r = 0; r < ref.rows.size(); ++r) {
    if (ref.rows[r].size() != vec.rows[r].size()) {
      return ::testing::AssertionFailure() << "row " << r << " width differs";
    }
    for (size_t c = 0; c < ref.rows[r].size(); ++c) {
      if (!ValueExactEq(ref.rows[r][c], vec.rows[r][c])) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << "): "
               << ref.rows[r][c].ToString() << " vs "
               << vec.rows[r][c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

using Tables = std::vector<std::pair<std::string, ResultSet>>;

/// `rs` after crossing the XML-RPC codec, or the binary TLV codec.
ResultSet CrossWire(const ResultSet& rs, bool binary) {
  const rpc::XmlRpcValue value = rpc::ResultSetToRpc(rs);
  std::string bytes;
  if (binary) rpc::wire::EncodeValue(value, &bytes);
  size_t offset = 0;
  auto decoded = binary ? rpc::wire::DecodeValue(bytes, &offset)
                        : rpc::DecodeResponse(rpc::EncodeResponse(value));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return {};
  auto back = rpc::RpcToResultSet(*decoded);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.ok() ? std::move(*back) : ResultSet{};
}

/// The same tables three ways: as built, and after each codec.
struct ParitySources {
  explicit ParitySources(const Tables& tables) {
    for (const auto& [name, rs] : tables) {
      original.Add(name, rs);
      via_xml.Add(name, CrossWire(rs, /*binary=*/false));
      via_binary.Add(name, CrossWire(rs, /*binary=*/true));
    }
  }
  MapTableSource original;
  MapTableSource via_xml;
  MapTableSource via_binary;
};

/// The same tables stored in an engine::Database (each cell coerced to its
/// column's declared type), plus the coerced rows as a MapTableSource for
/// the oracle.
struct StoredSources {
  StoredSources(const Tables& tables,
                const std::vector<storage::TableSchema>& schemas)
      : db("stored", sql::Vendor::kMySql) {
    for (size_t t = 0; t < tables.size(); ++t) {
      std::vector<Row> rows = tables[t].second.rows;
      for (Row& row : rows) EXPECT_TRUE(schemas[t].CoerceRow(row).ok());
      EXPECT_TRUE(db.CreateTable(schemas[t]).ok());
      EXPECT_TRUE(db.InsertRows(schemas[t].name(), rows).ok());
      Reload(schemas[t].name(), tables[t].second.columns, std::move(rows));
    }
  }

  /// Replaces the oracle's copy of one table.
  void Reload(const std::string& name, std::vector<std::string> columns,
              std::vector<Row> rows) {
    ResultSet rs;
    rs.columns = std::move(columns);
    rs.rows = std::move(rows);
    contents[name] = std::move(rs);
    oracle = MapTableSource();
    for (const auto& [table, table_rs] : contents) oracle.Add(table, table_rs);
  }

  Database db;
  std::map<std::string, ResultSet> contents;
  MapTableSource oracle;
};

/// Runs `sql_text` through the oracle over the stored rows and through
/// the Database over its stored chunks, and checks the contract.
bool CheckStoredParity(const std::string& sql_text,
                       const StoredSources& stored) {
  auto stmt =
      sql::ParseSelect(sql_text, sql::Dialect::For(sql::Vendor::kMySql));
  if (!stmt.ok()) return false;
  Result<ResultSet> ref =
      bench::row_executor::ExecuteSelectReferenceRows(**stmt, stored.oracle);
  Result<ResultSet> vec = stored.db.ExecuteSelect(**stmt);
  if (ref.ok() != vec.ok()) {
    ADD_FAILURE() << "divergence on: " << sql_text << " (stored)\n  oracle: "
                  << (ref.ok() ? "ok" : ref.status().ToString())
                  << "\n  vectorized: "
                  << (vec.ok() ? "ok" : vec.status().ToString());
    return false;
  }
  if (!ref.ok()) return false;
  EXPECT_TRUE(ResultsIdentical(*ref, *vec)) << "query: " << sql_text
                                            << " (stored)";
  return true;
}

/// Runs one SQL text through the oracle over the original tables and
/// through ExecuteSelect over all three sources, and checks the contract.
/// Returns true when the oracle succeeded (useful for counting coverage).
bool CheckParity(const std::string& sql_text, const ParitySources& sources,
                 size_t batch_rows = 1024) {
  auto dialect = sql::Dialect::For(sql::Vendor::kMySql);
  auto stmt = sql::ParseSelect(sql_text, dialect);
  if (!stmt.ok()) return false;  // generator produced unparseable SQL

  Result<ResultSet> ref = bench::row_executor::ExecuteSelectReferenceRows(
      **stmt, sources.original);
  ExecOptions opts;
  opts.batch_rows = batch_rows;
  for (const auto& [label, source] :
       {std::pair<const char*, const MapTableSource*>{"original",
                                                      &sources.original},
        {"via_xml", &sources.via_xml},
        {"via_binary", &sources.via_binary}}) {
    Result<ResultSet> vec = ExecuteSelect(**stmt, *source, opts);
    if (ref.ok() != vec.ok()) {
      ADD_FAILURE() << "divergence on: " << sql_text << " (" << label
                    << ")\n  oracle: "
                    << (ref.ok() ? "ok" : ref.status().ToString())
                    << "\n  vectorized: "
                    << (vec.ok() ? "ok" : vec.status().ToString());
      continue;
    }
    if (!ref.ok()) continue;  // both erroring is allowed
    EXPECT_TRUE(ResultsIdentical(*ref, *vec))
        << "query: " << sql_text << " (" << label
        << ") batch_rows=" << batch_rows;
  }
  return ref.ok();
}

// ---------------------------------------------------------------------------
// Fixture data

ResultSet EventsTable(size_t n, Rng& rng) {
  ResultSet rs;
  rs.columns = {"id", "run", "energy", "tag", "flag"};
  rs.rows.reserve(n);
  const char* tags[] = {"muon", "electron", "photon", "tau"};
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value(static_cast<int64_t>(i)));
    row.push_back(rng.NextDouble() < 0.1
                      ? Value::Null()
                      : Value(rng.UniformInt(0, 9)));
    row.push_back(rng.NextDouble() < 0.1 ? Value::Null()
                                         : Value(rng.Uniform(0.0, 100.0)));
    row.push_back(rng.NextDouble() < 0.15
                      ? Value::Null()
                      : Value(std::string(tags[rng.UniformInt(0, 3)])));
    row.push_back(rng.NextDouble() < 0.2 ? Value::Null()
                                         : Value(rng.NextDouble() < 0.5));
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

ResultSet RunsTable(size_t n, Rng& rng) {
  ResultSet rs;
  rs.columns = {"run", "detector", "weight"};
  rs.rows.reserve(n);
  const char* dets[] = {"ECAL", "HCAL", "TRACKER"};
  for (size_t i = 0; i < n; ++i) {
    Row row;
    // Duplicate keys on purpose: several rows share a run id, so joins
    // exercise the multi-match emit order.
    row.push_back(rng.NextDouble() < 0.1 ? Value::Null()
                                         : Value(rng.UniformInt(0, 9)));
    row.push_back(Value(std::string(dets[rng.UniformInt(0, 2)])));
    // Mixed-type column: int64 and double cells interleave, forcing the
    // boxed (Rep::kValue) representation.
    if (rng.NextDouble() < 0.5) {
      row.push_back(Value(rng.UniformInt(-5, 5)));
    } else {
      row.push_back(Value(rng.Uniform(-5.0, 5.0)));
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

/// Declared types for the generated tables. runs.weight mixes int64 and
/// double cells in the generated rows; stored, they all become doubles.
std::vector<storage::TableSchema> StoredSchemas() {
  using storage::DataType;
  return {storage::TableSchema("events", {{"id", DataType::kInt64},
                                          {"run", DataType::kInt64},
                                          {"energy", DataType::kDouble},
                                          {"tag", DataType::kString},
                                          {"flag", DataType::kBool}}),
          storage::TableSchema("runs", {{"run", DataType::kInt64},
                                        {"detector", DataType::kString},
                                        {"weight", DataType::kDouble}})};
}

Tables MakeTables(size_t events, size_t runs, uint64_t seed) {
  Rng rng(seed);
  Tables tables;
  tables.emplace_back("events", EventsTable(events, rng));
  tables.emplace_back("runs", RunsTable(runs, rng));
  return tables;
}

ParitySources MakeSources(size_t events, size_t runs, uint64_t seed) {
  return ParitySources(MakeTables(events, runs, seed));
}

// ---------------------------------------------------------------------------
// Random query generator

class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    joined_ = rng_.NextDouble() < 0.5;
    grouped_ = rng_.NextDouble() < 0.4;
    std::string sql = "SELECT ";
    if (!grouped_ && rng_.NextDouble() < 0.2) sql += "DISTINCT ";
    size_t items = 1 + rng_.UniformInt(0, 2);
    for (size_t i = 0; i < items; ++i) {
      if (i) sql += ", ";
      if (grouped_) {
        sql += Aggregate();
      } else if (rng_.NextDouble() < 0.1) {
        sql += "*";
      } else {
        sql += Expr(2);
        if (rng_.NextDouble() < 0.3) {
          sql += " AS a" + std::to_string(i);
        }
      }
    }
    sql += " FROM events";
    if (joined_) {
      double kind = rng_.NextDouble();
      if (kind < 0.45) {
        sql += " JOIN runs ON events.run = runs.run";
      } else if (kind < 0.8) {
        sql += " LEFT JOIN runs ON events.run = runs.run";
      } else {
        // Non-equi ON: exercises the vectorized nested-loop join.
        sql += " JOIN runs ON events.run > runs.run";
      }
    }
    if (rng_.NextDouble() < 0.6) sql += " WHERE " + Expr(2);
    if (grouped_ && rng_.NextDouble() < 0.8) {
      sql += " GROUP BY " + Expr(1);
      if (rng_.NextDouble() < 0.4) sql += " HAVING " + Aggregate() + " > 1";
    }
    if (rng_.NextDouble() < 0.5) {
      sql += " ORDER BY ";
      if (!grouped_ && rng_.NextDouble() < 0.3) {
        sql += std::to_string(1 + rng_.UniformInt(0, items - 1));
      } else if (grouped_) {
        sql += Aggregate();
      } else {
        sql += Expr(1);
      }
      if (rng_.NextDouble() < 0.5) sql += " DESC";
    }
    if (rng_.NextDouble() < 0.4) {
      sql += " LIMIT " + std::to_string(rng_.UniformInt(0, 40));
      if (rng_.NextDouble() < 0.5) {
        sql += " OFFSET " + std::to_string(rng_.UniformInt(0, 30));
      }
    }
    return sql;
  }

 private:
  std::string Column() {
    static const char* events_cols[] = {"id", "energy", "tag", "flag",
                                        "events.run"};
    static const char* runs_cols[] = {"runs.run", "detector", "weight"};
    if (joined_ && rng_.NextDouble() < 0.4) {
      return runs_cols[rng_.UniformInt(0, 2)];
    }
    return events_cols[rng_.UniformInt(0, 4)];
  }

  std::string Literal() {
    double pick = rng_.NextDouble();
    if (pick < 0.4) return std::to_string(rng_.UniformInt(-5, 20));
    if (pick < 0.6) return std::to_string(rng_.UniformInt(1, 50)) + ".5";
    if (pick < 0.8) return "'muon'";
    return "NULL";
  }

  std::string Aggregate() {
    static const char* fns[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};
    const char* fn = fns[rng_.UniformInt(0, 4)];
    if (std::string(fn) == "COUNT" && rng_.NextDouble() < 0.4) {
      return "COUNT(*)";
    }
    std::string arg = rng_.NextDouble() < 0.7 ? Column() : Expr(1);
    std::string distinct = rng_.NextDouble() < 0.2 ? "DISTINCT " : "";
    return std::string(fn) + "(" + distinct + arg + ")";
  }

  std::string Expr(int depth) {
    if (depth <= 0 || rng_.NextDouble() < 0.3) {
      return rng_.NextDouble() < 0.7 ? Column() : Literal();
    }
    double pick = rng_.NextDouble();
    if (pick < 0.35) {
      static const char* ops[] = {"+", "-", "*", "/", "%"};
      return "(" + Expr(depth - 1) + " " + ops[rng_.UniformInt(0, 4)] + " " +
             Expr(depth - 1) + ")";
    }
    if (pick < 0.6) {
      static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
      return "(" + Expr(depth - 1) + " " + ops[rng_.UniformInt(0, 5)] + " " +
             Expr(depth - 1) + ")";
    }
    if (pick < 0.72) {
      const char* op = rng_.NextDouble() < 0.5 ? " AND " : " OR ";
      return "(" + Expr(depth - 1) + op + Expr(depth - 1) + ")";
    }
    if (pick < 0.8) {
      return "(" + Column() + (rng_.NextDouble() < 0.5 ? " IS NULL"
                                                       : " IS NOT NULL") +
             ")";
    }
    if (pick < 0.86) {
      return "(" + Column() + " IN (" + Literal() + ", " + Literal() + "))";
    }
    if (pick < 0.92) {
      return "(" + Column() + " BETWEEN " + Literal() + " AND " + Literal() +
             ")";
    }
    if (pick < 0.96) {
      return "(CASE WHEN " + Expr(depth - 1) + " THEN " + Literal() +
             " ELSE " + Expr(depth - 1) + " END)";
    }
    static const char* fns[] = {"ABS", "LENGTH", "UPPER"};
    return fns[rng_.UniformInt(0, 2)] + ("(" + Expr(depth - 1) + ")");
  }

  Rng rng_;
  bool joined_ = false;
  bool grouped_ = false;
};

// ---------------------------------------------------------------------------
// Randomized sweep

TEST(VectorizedParity, RandomizedQueries) {
  Tables tables = MakeTables(197, 41, 0xfeed);
  ParitySources source(tables);
  StoredSources stored(tables, StoredSchemas());
  QueryGen gen(0xbeef);
  size_t both_ok = 0, stored_ok = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string sql = gen.Next();
    if (CheckParity(sql, source)) ++both_ok;
    if (CheckStoredParity(sql, stored)) ++stored_ok;
  }
  // The generator leans on valid shapes; most queries must succeed for
  // the sweep to mean anything.
  EXPECT_GT(both_ok, 200u);
  EXPECT_GT(stored_ok, 200u);
}

TEST(VectorizedParity, RandomizedSmallBatches) {
  // Tiny batch sizes stress chunk-boundary handling in every operator.
  ParitySources source = MakeSources(83, 17, 0xabba);
  for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{7}}) {
    QueryGen gen(0x1234 + batch_rows);
    for (int i = 0; i < 60; ++i) {
      CheckParity(gen.Next(), source, batch_rows);
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases

TEST(VectorizedParity, BatchBoundaryRowCounts) {
  for (size_t n : {size_t{1023}, size_t{1024}, size_t{1025}}) {
    ParitySources source = MakeSources(n, 11, n);
    CheckParity("SELECT id, energy FROM events WHERE energy > 50", source);
    CheckParity("SELECT COUNT(*), SUM(energy) FROM events", source);
    CheckParity("SELECT * FROM events ORDER BY energy DESC LIMIT 5", source);
    CheckParity("SELECT run, COUNT(*) FROM events GROUP BY run", source);
  }
}

TEST(VectorizedParity, EmptyTable) {
  ResultSet empty;
  empty.columns = {"id", "x"};
  ParitySources source({{"events", empty}});
  CheckParity("SELECT id, x FROM events", source);
  CheckParity("SELECT COUNT(*), SUM(x), MIN(x) FROM events", source);
  CheckParity("SELECT id FROM events WHERE x > 3 ORDER BY id LIMIT 4", source);
  CheckParity("SELECT x, COUNT(*) FROM events GROUP BY x HAVING COUNT(*) > 0",
              source);
  // Unknown column over an empty table: the row path never evaluates the
  // projection, so this must NOT error in either path.
  CheckParity("SELECT nope FROM events", source);
}

TEST(VectorizedParity, AllNullColumn) {
  ResultSet rs;
  rs.columns = {"id", "v"};
  for (int i = 0; i < 10; ++i) {
    rs.rows.push_back({Value(static_cast<int64_t>(i)), Value::Null()});
  }
  ParitySources source({{"events", rs}});
  CheckParity("SELECT v, v + 1, v IS NULL FROM events", source);
  CheckParity("SELECT COUNT(v), SUM(v), AVG(v) FROM events", source);
  CheckParity("SELECT id FROM events WHERE v > 0", source);
  CheckParity("SELECT id FROM events ORDER BY v, id", source);
}

TEST(VectorizedParity, LimitOffsetEdges) {
  ParitySources source = MakeSources(50, 7, 0x50);
  CheckParity("SELECT id FROM events LIMIT 0", source);
  CheckParity("SELECT id FROM events LIMIT 5 OFFSET 100", source);
  CheckParity("SELECT id FROM events ORDER BY energy LIMIT 0", source);
  CheckParity("SELECT id FROM events ORDER BY energy LIMIT 3 OFFSET 49",
              source);
  CheckParity("SELECT DISTINCT run FROM events ORDER BY run LIMIT 4", source);
}

TEST(VectorizedParity, MixedTypeColumn) {
  ParitySources source = MakeSources(60, 30, 0x77);
  // runs.weight interleaves int64 and double cells (boxed representation).
  CheckParity("SELECT weight, weight * 2, weight + 0.5 FROM runs", source);
  CheckParity("SELECT SUM(weight), MIN(weight), MAX(weight) FROM runs",
              source);
  CheckParity("SELECT detector FROM runs WHERE weight > 0 ORDER BY weight",
              source);
}

TEST(VectorizedParity, JoinShapes) {
  ParitySources source = MakeSources(70, 25, 0x99);
  CheckParity("SELECT events.id, runs.detector FROM events "
              "JOIN runs ON events.run = runs.run",
              source);
  CheckParity("SELECT events.id, runs.detector, runs.weight FROM events "
              "LEFT JOIN runs ON events.run = runs.run",
              source);
  CheckParity("SELECT events.id, runs.run FROM events "
              "JOIN runs ON events.run > runs.run WHERE events.id < 10",
              source);
  CheckParity("SELECT COUNT(*) FROM events, runs", source);
  CheckParity("SELECT events.id FROM events "
              "LEFT JOIN runs ON events.run = runs.run "
              "ORDER BY events.id, runs.weight LIMIT 20",
              source);
}

TEST(VectorizedParity, HavingDropsGroups) {
  ParitySources source = MakeSources(90, 12, 0x42);
  CheckParity("SELECT run, COUNT(*) FROM events GROUP BY run "
              "HAVING COUNT(*) > 8",
              source);
  CheckParity("SELECT tag, AVG(energy) FROM events GROUP BY tag "
              "HAVING MIN(energy) > 5 ORDER BY 2 DESC",
              source);
  // HAVING that drops every group.
  CheckParity("SELECT run, SUM(energy) FROM events GROUP BY run "
              "HAVING COUNT(*) > 1000",
              source);
}

// ---------------------------------------------------------------------------
// Stored tables

TEST(VectorizedParity, StoredBetweenWithNullAndMixedOperands) {
  Tables tables = MakeTables(300, 40, 0xb7);
  ParitySources source(tables);
  StoredSources stored(tables, StoredSchemas());
  const char* queries[] = {
      "SELECT id, energy BETWEEN 10 AND 50.5 FROM events",
      "SELECT id, energy NOT BETWEEN 10 AND 50.5 FROM events",
      "SELECT id FROM events WHERE run BETWEEN 2 AND 7.5",
      "SELECT id FROM events WHERE run NOT BETWEEN 2.5 AND 7",
      "SELECT id FROM events WHERE energy BETWEEN run AND 60",
      "SELECT id, run BETWEEN NULL AND 3, run NOT BETWEEN 3 AND NULL "
      "FROM events",
      "SELECT id, 5 BETWEEN NULL AND 3, 5 NOT BETWEEN NULL AND 3, "
      "5 BETWEEN 3 AND NULL, 2 BETWEEN 3 AND NULL FROM events",
      "SELECT id FROM events WHERE (5 BETWEEN NULL AND 3) IS NULL",
      "SELECT id FROM events WHERE tag BETWEEN 'electron' AND 'photon'",
      "SELECT detector, weight BETWEEN -1 AND 2.5 FROM runs",
      "SELECT run FROM runs WHERE weight NOT BETWEEN run AND 3",
  };
  for (const char* sql : queries) {
    EXPECT_TRUE(CheckParity(sql, source)) << sql;
    EXPECT_TRUE(CheckStoredParity(sql, stored)) << sql;
  }
  // The rule itself: a NULL bound makes BETWEEN NULL even where the other
  // bound alone already decides (`5 >= NULL AND 5 <= 3` would be FALSE).
  auto rs = stored.db.Execute(
      "SELECT 5 BETWEEN NULL AND 3, 5 NOT BETWEEN NULL AND 3, "
      "4 BETWEEN 3 AND 4.5 FROM events LIMIT 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_TRUE(rs->rows[0][0].is_null());
  EXPECT_TRUE(rs->rows[0][1].is_null());
  EXPECT_TRUE(rs->rows[0][2].AsBoolStrict());
}

TEST(VectorizedParity, StoredTopKTiesAcrossChunks) {
  // 3 * kChunkRows + 17 rows whose sort key takes three values, so every
  // key value ties across every chunk boundary.
  const size_t n = 3 * storage::kChunkRows + 17;
  ResultSet rs;
  rs.columns = {"id", "k", "v"};
  for (size_t i = 0; i < n; ++i) {
    rs.rows.push_back({Value(static_cast<int64_t>(i)),
                       Value(static_cast<int64_t>((i * 7) % 3)),
                       i % 11 == 0 ? Value::Null()
                                   : Value(static_cast<double>(i % 5))});
  }
  Tables tables = {{"ties", rs}};
  ParitySources source(tables);
  using storage::DataType;
  StoredSources stored(
      tables, {storage::TableSchema("ties", {{"id", DataType::kInt64},
                                             {"k", DataType::kInt64},
                                             {"v", DataType::kDouble}})});
  const char* queries[] = {
      "SELECT id, k FROM ties ORDER BY k LIMIT 1500",
      "SELECT id FROM ties ORDER BY k DESC LIMIT 10",
      "SELECT id, v FROM ties ORDER BY v, k DESC LIMIT 700 OFFSET 600",
      "SELECT id FROM ties WHERE id > 5 ORDER BY k, v DESC LIMIT 2000",
      "SELECT id FROM ties ORDER BY v DESC LIMIT 1030 OFFSET 1020",
      "SELECT k * 2 AS twice, id FROM ties ORDER BY twice, 2 DESC LIMIT 5",
      "SELECT id FROM ties ORDER BY k LIMIT 0",
      "SELECT DISTINCT k FROM ties ORDER BY k DESC LIMIT 2",
      "SELECT id, k FROM ties ORDER BY k",
  };
  for (const char* sql : queries) {
    EXPECT_TRUE(CheckParity(sql, source)) << sql;
    EXPECT_TRUE(CheckStoredParity(sql, stored)) << sql;
  }
}

TEST(VectorizedParity, StoredUpdateAndDeleteThenSelect) {
  Tables tables = MakeTables(2500, 40, 0xd1);
  StoredSources stored(tables, StoredSchemas());
  const std::vector<std::string> events_columns = tables[0].second.columns;
  const char* checks[] = {
      "SELECT * FROM events",
      "SELECT id, energy FROM events WHERE energy BETWEEN 20 AND 40",
      "SELECT run, COUNT(*), SUM(energy) FROM events GROUP BY run",
      "SELECT id, tag FROM events ORDER BY energy DESC, id LIMIT 30",
      "SELECT events.id, runs.detector FROM events "
      "JOIN runs ON events.run = runs.run WHERE events.id < 300",
  };
  // Each statement's expected table comes from the oracle over the
  // pre-statement rows.
  auto apply = [&](const std::string& dml, const std::string& expected_sql) {
    auto stmt = sql::ParseSelect(expected_sql,
                                 sql::Dialect::For(sql::Vendor::kMySql));
    ASSERT_TRUE(stmt.ok()) << expected_sql;
    auto expected =
        bench::row_executor::ExecuteSelectReferenceRows(**stmt, stored.oracle);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(stored.db.Execute(dml).ok()) << dml;
    stored.Reload("events", events_columns, std::move(expected->rows));
    for (const char* sql : checks) {
      EXPECT_TRUE(CheckStoredParity(sql, stored)) << dml << " then " << sql;
    }
  };
  apply("UPDATE events SET energy = energy + 1, tag = 'muon' WHERE run = 3",
        "SELECT id, run, CASE WHEN run = 3 THEN energy + 1 ELSE energy END, "
        "CASE WHEN run = 3 THEN 'muon' ELSE tag END, flag FROM events");
  apply("UPDATE events SET run = NULL WHERE energy > 90",
        "SELECT id, CASE WHEN energy > 90 THEN NULL ELSE run END, energy, "
        "tag, flag FROM events");
  apply("DELETE FROM events WHERE id % 7 = 0 OR energy < 5",
        "SELECT * FROM events WHERE NOT (id % 7 = 0 OR energy < 5) "
        "OR (id % 7 = 0 OR energy < 5) IS NULL");
  apply("DELETE FROM events WHERE id BETWEEN 1000 AND 2100",
        "SELECT * FROM events WHERE id NOT BETWEEN 1000 AND 2100");
  EXPECT_EQ(stored.db.RowCount("events"),
            stored.contents.at("events").rows.size());
}

constexpr const char* kGoldenEventsDigest =
    "rows=2500 md5=e6a4c44937247532447a2c2cd2272cf9";
constexpr const char* kGoldenEditedDigest =
    "rows=1667 md5=b626932da767cc41fb1dbfacb8e88dab";

TEST(VectorizedParity, StoredContentDigestIsUnchanged) {
  // Digest bytes are part of replica verification across versions: this
  // value was taken from the row-heap table layout, before tables became
  // column chunks.
  Tables tables = MakeTables(2500, 40, 0xd19e57);
  StoredSources stored(tables, StoredSchemas());
  auto digest = stored.db.ContentDigest("events");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->ToString(), kGoldenEventsDigest);
  ASSERT_TRUE(stored.db.Execute("DELETE FROM events WHERE id % 3 = 1").ok());
  ASSERT_TRUE(stored.db.Execute("UPDATE events SET tag = 'x' WHERE run = 2")
                  .ok());
  digest = stored.db.ContentDigest("events");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->ToString(), kGoldenEditedDigest);
}

TEST(VectorizedParity, ThreadedMixedQueries) {
  // Shared read-only sources, concurrent executors and oracle: the
  // TSan leg of the suite watches this for unsynchronized shared state
  // (e.g. the registered engine metrics).
  ParitySources source = MakeSources(257, 31, 0x1111);
  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&source, t] {
      QueryGen gen(0x9000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 40; ++i) {
        CheckParity(gen.Next(), source, t % 2 ? 64 : 1024);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace
}  // namespace griddb::engine
