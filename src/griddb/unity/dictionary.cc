#include "griddb/unity/dictionary.h"

#include <algorithm>
#include <mutex>

#include "griddb/util/strings.h"

namespace griddb::unity {

const ColumnBinding* TableBinding::FindLogicalColumn(
    std::string_view logical_col) const {
  for (const ColumnBinding& col : columns) {
    if (EqualsIgnoreCase(col.logical, logical_col)) return &col;
  }
  return nullptr;
}

Status DataDictionary::AddLocked(const UpperXSpecEntry& upper,
                                 const LowerXSpec& lower) {
  databases_[upper.database_name] = true;
  for (const XSpecTable& table : lower.tables) {
    TableBinding binding;
    binding.logical = ToLower(table.logical_name);
    binding.physical = table.physical_name;
    binding.database_name = upper.database_name;
    binding.connection = upper.url;
    binding.driver = upper.driver;
    for (const XSpecColumn& col : table.columns) {
      binding.columns.push_back(
          {ToLower(col.logical_name), col.physical_name, col.type});
    }
    tables_[binding.logical].push_back(std::move(binding));
  }
  BumpEpoch();
  return Status::Ok();
}

Status DataDictionary::AddDatabase(const UpperXSpecEntry& upper,
                                   const LowerXSpec& lower) {
  std::unique_lock lock(mu_);
  if (databases_.count(upper.database_name)) {
    return AlreadyExists("database '" + upper.database_name +
                         "' already in dictionary");
  }
  return AddLocked(upper, lower);
}

Status DataDictionary::ReplaceDatabase(const UpperXSpecEntry& upper,
                                       const LowerXSpec& lower) {
  std::unique_lock lock(mu_);
  for (auto it = tables_.begin(); it != tables_.end();) {
    auto& locations = it->second;
    locations.erase(std::remove_if(locations.begin(), locations.end(),
                                   [&](const TableBinding& b) {
                                     return b.database_name ==
                                            upper.database_name;
                                   }),
                    locations.end());
    it = locations.empty() ? tables_.erase(it) : std::next(it);
  }
  databases_.erase(upper.database_name);
  return AddLocked(upper, lower);
}

Status DataDictionary::RemoveDatabase(const std::string& database_name) {
  std::unique_lock lock(mu_);
  if (!databases_.erase(database_name)) {
    return NotFound("database '" + database_name + "' not in dictionary");
  }
  for (auto it = tables_.begin(); it != tables_.end();) {
    auto& locations = it->second;
    locations.erase(std::remove_if(locations.begin(), locations.end(),
                                   [&](const TableBinding& b) {
                                     return b.database_name == database_name;
                                   }),
                    locations.end());
    it = locations.empty() ? tables_.erase(it) : std::next(it);
  }
  BumpEpoch();
  return Status::Ok();
}

bool DataDictionary::HasDatabase(const std::string& database_name) const {
  std::shared_lock lock(mu_);
  return databases_.count(database_name) > 0;
}

std::vector<TableBinding> DataDictionary::Locate(
    std::string_view logical_table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(logical_table));
  if (it == tables_.end()) return {};
  return it->second;
}

uint64_t DataDictionary::LocateAll(
    const std::vector<std::string>& logical_tables,
    std::vector<std::vector<TableBinding>>* locations) const {
  std::shared_lock lock(mu_);
  locations->clear();
  for (const std::string& table : logical_tables) {
    auto it = tables_.find(ToLower(table));
    locations->push_back(it == tables_.end() ? std::vector<TableBinding>()
                                             : it->second);
  }
  return epoch();
}

bool DataDictionary::HasTable(std::string_view logical_table) const {
  std::shared_lock lock(mu_);
  return tables_.count(ToLower(logical_table)) > 0;
}

std::vector<std::string> DataDictionary::LogicalTables() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [logical, locations] : tables_) {
    (void)locations;
    out.push_back(logical);
  }
  return out;
}

std::vector<std::string> DataDictionary::DatabaseNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(databases_.size());
  for (const auto& [name, unused] : databases_) {
    (void)unused;
    out.push_back(name);
  }
  return out;
}

}  // namespace griddb::unity
