// Data dictionary of logical names (paper §4.4).
//
// "The client is provided this data dictionary of logical names, and he
// uses these logical names without any knowledge of the physical location
// of the data and their actual names." Built from the upper-level XSpec
// plus each database's lower-level XSpec; consulted by the planner to map
// logical table/column names to (database, physical name) pairs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "griddb/unity/xspec.h"
#include "griddb/util/status.h"

namespace griddb::unity {

struct ColumnBinding {
  std::string logical;
  std::string physical;
  storage::DataType type = storage::DataType::kString;
};

/// One location of a logical table: which database hosts it and under
/// what physical name. Replicated tables have several locations.
struct TableBinding {
  std::string logical;
  std::string physical;
  std::string database_name;
  std::string connection;  ///< Connection string from the upper XSpec.
  std::string driver;
  std::vector<ColumnBinding> columns;

  const ColumnBinding* FindLogicalColumn(std::string_view logical_col) const;
  bool HasLogicalColumn(std::string_view logical_col) const {
    return FindLogicalColumn(logical_col) != nullptr;
  }
};

class DataDictionary {
 public:
  /// Registers every table of a database. Fails if the database name is
  /// already registered (use Replace for schema updates).
  Status AddDatabase(const UpperXSpecEntry& upper, const LowerXSpec& lower);
  /// Atomically swaps a database's schema (schema-change tracking, §4.9).
  Status ReplaceDatabase(const UpperXSpecEntry& upper, const LowerXSpec& lower);
  Status RemoveDatabase(const std::string& database_name);
  bool HasDatabase(const std::string& database_name) const;

  /// All locations of a logical table (replicas across marts).
  std::vector<TableBinding> Locate(std::string_view logical_table) const;
  /// The locations of each of `logical_tables`, read under one lock, and
  /// the epoch of that snapshot: a plan built from them is current exactly
  /// while the epoch is unchanged.
  uint64_t LocateAll(const std::vector<std::string>& logical_tables,
                     std::vector<std::vector<TableBinding>>* locations) const;
  bool HasTable(std::string_view logical_table) const;

  /// Sorted logical table names across the whole federation.
  std::vector<std::string> LogicalTables() const;
  std::vector<std::string> DatabaseNames() const;

  /// Schema epoch: a monotonically increasing counter bumped by every
  /// Add/Replace/Remove. Plans record the epoch they were made against;
  /// executing a plan under a newer epoch means the schema changed
  /// mid-flight and the plan must be rebuilt (§4.9 schema-change
  /// tracking).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  Status AddLocked(const UpperXSpecEntry& upper, const LowerXSpec& lower);
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  std::atomic<uint64_t> epoch_{1};
  mutable std::shared_mutex mu_;
  // logical table (lower-case) -> locations
  std::map<std::string, std::vector<TableBinding>> tables_;
  std::map<std::string, bool> databases_;
};

}  // namespace griddb::unity
