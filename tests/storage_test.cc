#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "griddb/storage/result_set.h"
#include "griddb/storage/schema.h"
#include "griddb/storage/stage_file.h"
#include "griddb/storage/table.h"
#include "griddb/storage/value.h"

namespace griddb::storage {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypesAndNull) {
  EXPECT_EQ(Value().type(), DataType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).type(), DataType::kInt64);
  EXPECT_EQ(Value(2.5).type(), DataType::kDouble);
  EXPECT_EQ(Value("x").type(), DataType::kString);
  EXPECT_EQ(Value(true).type(), DataType::kBool);
}

TEST(ValueTest, NumericCoercionInComparison) {
  EXPECT_EQ(Value(int64_t{1}).Compare(Value(1.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(true).Compare(Value(int64_t{1})), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value(std::string("abc")).Hash());
}

TEST(ValueTest, Coercers) {
  EXPECT_DOUBLE_EQ(Value(int64_t{4}).AsDouble().value(), 4.0);
  EXPECT_EQ(Value(4.0).AsInt64().value(), 4);
  EXPECT_FALSE(Value(4.5).AsInt64().ok());
  EXPECT_FALSE(Value("x").AsDouble().ok());
  EXPECT_TRUE(Value(int64_t{1}).AsBool().value());
  EXPECT_FALSE(Value(0.0).AsBool().value());
}

TEST(ValueTest, ToSqlLiteralQuotesStrings) {
  EXPECT_EQ(Value("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value(int64_t{7}).ToSqlLiteral(), "7");
  EXPECT_EQ(Value().ToSqlLiteral(), "NULL");
}

TEST(ValueTest, FromText) {
  EXPECT_EQ(Value::FromText("42", DataType::kInt64).value().AsInt64Strict(), 42);
  EXPECT_DOUBLE_EQ(Value::FromText("2.5", DataType::kDouble).value().AsDoubleStrict(), 2.5);
  EXPECT_TRUE(Value::FromText("true", DataType::kBool).value().AsBoolStrict());
  EXPECT_EQ(Value::FromText("hi", DataType::kString).value().AsStringStrict(), "hi");
  EXPECT_FALSE(Value::FromText("4x", DataType::kInt64).ok());
}

TEST(ValueTest, WireSizeAccountsPayload) {
  EXPECT_EQ(Value().WireSize(), 1u);
  EXPECT_EQ(Value(int64_t{1}).WireSize(), 9u);
  EXPECT_EQ(Value("abcd").WireSize(), 9u);  // 5 + 4
  Row row = {Value(int64_t{1}), Value("ab")};
  EXPECT_EQ(RowWireSize(row), 4u + 9u + 7u);
}

// ---------- TableSchema ----------

TableSchema EventSchema() {
  return TableSchema(
      "events",
      {{"event_id", DataType::kInt64, true, true},
       {"energy", DataType::kDouble, false, false},
       {"tag", DataType::kString, false, false}});
}

TEST(SchemaTest, ColumnLookupIsCaseInsensitive) {
  TableSchema schema = EventSchema();
  EXPECT_EQ(schema.ColumnIndex("ENERGY"), 1u);
  EXPECT_EQ(schema.ColumnIndex("nope"), std::nullopt);
  EXPECT_NE(schema.FindColumn("Tag"), nullptr);
}

TEST(SchemaTest, PrimaryKeyIndexes) {
  TableSchema schema = EventSchema();
  EXPECT_TRUE(schema.HasPrimaryKey());
  EXPECT_EQ(schema.PrimaryKeyIndexes(), std::vector<size_t>{0});
}

TEST(SchemaTest, ValidateRowChecksArity) {
  TableSchema schema = EventSchema();
  EXPECT_FALSE(schema.ValidateRow({Value(int64_t{1})}).ok());
}

TEST(SchemaTest, ValidateRowChecksNotNull) {
  TableSchema schema = EventSchema();
  EXPECT_FALSE(schema.ValidateRow({Value(), Value(1.0), Value("x")}).ok());
  EXPECT_TRUE(schema.ValidateRow({Value(int64_t{1}), Value(), Value()}).ok());
}

TEST(SchemaTest, ValidateRowChecksTypes) {
  TableSchema schema = EventSchema();
  EXPECT_FALSE(
      schema.ValidateRow({Value("not an int"), Value(1.0), Value("x")}).ok());
  // int into double column is fine.
  EXPECT_TRUE(
      schema.ValidateRow({Value(int64_t{1}), Value(int64_t{5}), Value("x")}).ok());
}

TEST(SchemaTest, CoerceRowConvertsNumerics) {
  TableSchema schema = EventSchema();
  Row row = {Value(int64_t{1}), Value(int64_t{5}), Value("x")};
  ASSERT_TRUE(schema.CoerceRow(row).ok());
  EXPECT_EQ(row[1].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(row[1].AsDoubleStrict(), 5.0);
}

// ---------- Table ----------

TEST(TableTest, InsertAndScan) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(10.5), Value("muon")}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{2}), Value(11.5), Value("e")}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table.GetRow(0)[1].AsDoubleStrict(), 10.5);
}

TEST(TableTest, RejectsDuplicatePrimaryKey) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(1.0), Value("a")}).ok());
  Status dup = table.Insert({Value(int64_t{1}), Value(2.0), Value("b")});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(TableTest, CompositeKeysCompareByCellNotByText) {
  // A key built by joining rendered cells with a separator would make
  // these two distinct keys collide.
  Table table(TableSchema("pairs", {{"a", DataType::kString, true, true},
                                    {"b", DataType::kString, true, true}}));
  ASSERT_TRUE(table.Insert({Value("x\x1f"), Value("y")}).ok());
  EXPECT_TRUE(table.Insert({Value("x"), Value("\x1fy")}).ok());
  EXPECT_EQ(table.Insert({Value("x"), Value("\x1fy")}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, KeyIndexTracksMovedAndDeletedKeys) {
  // Enough keys that probe runs in the index collide and entries shift
  // when a key moves out.
  Table table(EventSchema());
  constexpr int64_t kRows = 3000;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(table.Insert({Value(i), Value(0.0), Value("t")}).ok());
  }
  for (int64_t i = 0; i < kRows; i += 3) {
    ASSERT_TRUE(
        table.UpdateRow(i, {Value(i + 10 * kRows), Value(1.0), Value("m")})
            .ok());
  }
  // Exactly the moved-away keys are free again.
  for (int64_t i = 0; i < kRows; ++i) {
    Status s = table.Insert({Value(i), Value(2.0), Value("n")});
    EXPECT_EQ(s.ok(), i % 3 == 0) << i;
  }
  EXPECT_EQ(
      table.UpdateRow(1, {Value(10 * kRows), Value(0.0), Value("x")}).code(),
      StatusCode::kAlreadyExists);

  // DELETE re-indexes what remains: deleted keys are free, kept ones held.
  std::vector<size_t> doomed;
  std::vector<int64_t> deleted, kept;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    int64_t key = table.GetRow(r)[0].AsInt64Strict();
    if (r % 2 == 0) {
      doomed.push_back(r);
      deleted.push_back(key);
    } else {
      kept.push_back(key);
    }
  }
  table.DeleteRows(doomed);
  EXPECT_EQ(table.num_rows(), kept.size());
  for (int64_t key : kept) {
    EXPECT_EQ(table.Insert({Value(key), Value(0.0), Value("k")}).code(),
              StatusCode::kAlreadyExists)
        << key;
  }
  for (int64_t key : deleted) {
    EXPECT_TRUE(table.Insert({Value(key), Value(0.0), Value("d")}).ok())
        << key;
  }
}

TEST(TableTest, UpdateRowReindexes) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(1.0), Value("a")}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{2}), Value(2.0), Value("b")}).ok());
  ASSERT_TRUE(table.UpdateRow(0, {Value(int64_t{3}), Value(3.0), Value("c")}).ok());
  // Old key is free again; new key is taken.
  EXPECT_TRUE(table.Insert({Value(int64_t{1}), Value(9.0), Value("z")}).ok());
  EXPECT_EQ(table.Insert({Value(int64_t{3}), Value(9.0), Value("z")}).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, UpdateRowToConflictingKeyFails) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(1.0), Value("a")}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{2}), Value(2.0), Value("b")}).ok());
  EXPECT_FALSE(table.UpdateRow(1, {Value(int64_t{1}), Value(2.0), Value("b")}).ok());
}

TEST(TableTest, DeleteRows) {
  Table table(EventSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Insert({Value(int64_t{i}), Value(0.0), Value("t")}).ok());
  }
  table.DeleteRows({1, 3, 5});
  EXPECT_EQ(table.num_rows(), 7u);
  // Deleted keys can be reinserted.
  EXPECT_TRUE(table.Insert({Value(int64_t{3}), Value(0.0), Value("t")}).ok());
}

TEST(TableTest, TruncateKeepsSchema) {
  Table table(EventSchema());
  ASSERT_TRUE(table.Insert({Value(int64_t{1}), Value(1.0), Value("a")}).ok());
  table.Truncate();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_TRUE(table.Insert({Value(int64_t{1}), Value(1.0), Value("a")}).ok());
}

// ---------- ResultSet ----------

TEST(ResultSetTest, ColumnIndexCaseInsensitive) {
  ResultSet rs;
  rs.columns = {"Event_Id", "energy"};
  EXPECT_EQ(rs.ColumnIndex("event_id"), 0);
  EXPECT_EQ(rs.ColumnIndex("ENERGY"), 1);
  EXPECT_EQ(rs.ColumnIndex("ghost"), -1);
}

TEST(ResultSetTest, ToTextRendersTable) {
  ResultSet rs;
  rs.columns = {"id", "name"};
  rs.rows = {{Value(int64_t{1}), Value("alice")},
             {Value(int64_t{2}), Value("bob")}};
  std::string text = rs.ToText();
  EXPECT_NE(text.find("alice"), std::string::npos);
  EXPECT_NE(text.find("| id"), std::string::npos);
}

TEST(ResultSetTest, WireSizeGrowsWithRows) {
  ResultSet small, large;
  small.columns = large.columns = {"x"};
  small.rows = {{Value(int64_t{1})}};
  large.rows = std::vector<Row>(100, {Value(int64_t{1})});
  EXPECT_GT(large.WireSize(), small.WireSize());
}

// ---------- Stage files ----------

TEST(StageFileTest, EncodeDecodeRoundTrip) {
  TableSchema schema = EventSchema();
  std::vector<Row> rows = {
      {Value(int64_t{1}), Value(10.5), Value("has\ttab")},
      {Value(int64_t{2}), Value(), Value("has\nnewline")},
      {Value(int64_t{3}), Value(0.25), Value()},
  };
  std::string encoded = EncodeStage(schema, rows);
  auto decoded = DecodeStage(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->schema.name(), "events");
  ASSERT_EQ(decoded->rows.size(), 3u);
  EXPECT_EQ(decoded->rows[0][2].AsStringStrict(), "has\ttab");
  EXPECT_TRUE(decoded->rows[1][1].is_null());
  EXPECT_TRUE(decoded->rows[2][2].is_null());
  EXPECT_TRUE(decoded->schema.columns()[0].primary_key);
  EXPECT_TRUE(decoded->schema.columns()[0].not_null);
}

TEST(StageFileTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "griddb_stage_test.tmp").string();
  TableSchema schema = EventSchema();
  std::vector<Row> rows = {{Value(int64_t{1}), Value(1.0), Value("x")}};
  ASSERT_TRUE(WriteStageFile(path, schema, rows).ok());
  auto loaded = ReadStageFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows.size(), 1u);
  std::remove(path.c_str());
}

TEST(StageFileTest, RejectsBadMagic) {
  EXPECT_FALSE(DecodeStage("not a stage file").ok());
}

TEST(StageFileTest, RejectsTruncatedRows) {
  TableSchema schema("t", {{"a", DataType::kInt64, false, false}});
  std::string encoded = EncodeStage(schema, {{Value(int64_t{1})}});
  // Claim two rows but provide one.
  std::string lied = encoded;
  size_t pos = lied.find("rows 1");
  ASSERT_NE(pos, std::string::npos);
  lied.replace(pos, 6, "rows 2");
  EXPECT_FALSE(DecodeStage(lied).ok());
}

TEST(StageFileTest, RejectsCellTypeMismatch) {
  std::string buffer =
      "# griddb-stage v1\ntable t\ncolumn a INT64\nrows 1\nnot_an_int\n";
  EXPECT_FALSE(DecodeStage(buffer).ok());
}

TEST(StageFileTest, MissingFileIsNotFound) {
  // Stage I/O goes through the util::FileSystem seam, which types a
  // missing file as kNotFound — recovery paths branch on it (a missing
  // stage file restages from scratch; other I/O errors propagate).
  auto result = ReadStageFile("/nonexistent/griddb.stage");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StageFileTest, EscapeCellRoundTrip) {
  Value original("a\\b\tc\nd\re");
  auto decoded = UnescapeCell(EscapeCell(original), DataType::kString);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->AsStringStrict(), original.AsStringStrict());
}

}  // namespace
}  // namespace griddb::storage
