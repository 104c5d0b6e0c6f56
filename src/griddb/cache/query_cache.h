// Multi-tier query cache for the data access layer.
//
// Two tiers share one lock and one invalidation model:
//
//  - The *plan cache* maps a canonical query fingerprint
//    (sql/fingerprint.h) to the full planning artefact: the semantic-
//    checked QueryPlan plus every per-dialect rendered SQL string the
//    executor would otherwise regenerate (POOL-RAL field/table/where
//    strings or the JDBC statement text, per sub-query and for the
//    single-database fast path). A hit skips lexer, parser, semantic
//    analysis, planning and rendering. Entries are valid only for the
//    (schema epoch, routing generation) they were planned under — an
//    epoch bump (schema change) or routing-generation bump (quarantine /
//    reinstate changed which replicas are eligible) turns the next
//    lookup into a miss that evicts the stale entry.
//
//  - The *result cache* maps (fingerprint, epoch, per-table content
//    versions) to an immutable shared ResultSet, LRU-evicted under a
//    byte budget (ResultSet::WireSize accounting). Table versions bump
//    when the IntegrityMonitor observes a content-digest change, so a
//    mutation anywhere in the federation forces a miss on every query
//    that referenced the mutated table — while queries over unchanged
//    tables (including the unchanged side of a cross-database join,
//    cached per sub-query) keep hitting. Quarantine invalidates by
//    marking entries stale-only.
//
// Invalidated entries are not dropped immediately: they leave the key
// index but remain LRU-reachable as the *last known good* result of
// their fingerprint, which the service may serve — tagged stale=true —
// when every replica is down and the operator opted into
// stale-while-revalidate. Normal lookups never see them.
//
// Thread safety: every public method is safe against the parallel
// sub-query fan-out; one mutex guards both tiers (entries themselves are
// immutable shared_ptr<const ...>, so hits copy a pointer, not rows).
//
// Multi-tenancy: keys are deliberately tenant-agnostic — all tenants
// share one cache, so a popular query warms the cache for everyone. The
// safety contract lives in the service layer: DataAccessService checks
// the REQUESTING tenant's grants (core/rbac) before every probe of this
// cache, including the stale-while-revalidate serve, so a result cached
// under tenant A's request is never replayed to a tenant whose current
// grants do not cover the referenced tables, and a revocation takes
// effect on the very next request without touching cached entries.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "griddb/storage/result_set.h"
#include "griddb/unity/planner.h"

namespace griddb::cache {

struct QueryCacheConfig {
  size_t plan_capacity = 128;              ///< Max cached plans (LRU).
  size_t result_capacity_bytes = 8u << 20; ///< Result-tier byte budget.
};

/// Pre-rendered execution strings for one planned sub-query, so repeat
/// executions (and replica failover re-attempts) never re-render.
struct RenderedSubQuery {
  bool pool_form = false;                  ///< POOL-RAL wrapper route.
  std::vector<std::string> field_strings;  ///< "P AS l" select fields.
  std::string quoted_table;                ///< Quoted physical table.
  std::string where_string;                ///< Rendered WHERE, may be "".
  std::string full_sql;  ///< JDBC statement text; the forwarded client-
                         ///< dialect text for a remote sub-query.
  /// Digest identifying this rendered fetch (connection + text); the key
  /// prefix for per-sub-query result caching. Empty for remote
  /// sub-queries, which are never cached (their content versions are not
  /// observed here).
  std::string cache_id;
};

/// A plan plus everything derivable from it that execution needs.
struct CachedPlan {
  unity::QueryPlan plan;

  // Whole-statement plans, pre-rendered.
  bool direct_pool_form = false;
  std::vector<std::string> direct_fields;
  std::vector<std::string> direct_tables;
  std::string direct_where;
  std::string direct_sql;  ///< JDBC form when !direct_pool_form; the
                           ///< client-dialect text forwarded whole when
                           ///< no table is local.

  /// Parallel to plan.subqueries.
  std::vector<RenderedSubQuery> subquery_renders;
};

/// Response-shape facts replayed into QueryStats on a result-cache hit.
struct ResultMeta {
  bool distributed = false;
  size_t databases = 0;
  size_t tables = 0;
  /// True when the producing execution did not run to clean completion:
  /// cancelled, deadline-truncated, or assembled with partial-results
  /// substitutes. Such a result reflects a moment the operator chose
  /// availability over completeness — replaying it from cache would turn
  /// a one-off degradation into a sticky wrong answer, so InsertResult
  /// refuses to store it (the service also skips the insert; the tag here
  /// is defence in depth for future call sites).
  bool non_cacheable = false;
};

/// A result-tier hit: shared immutable rows plus replay metadata.
struct CachedResult {
  std::shared_ptr<const storage::ResultSet> result;
  ResultMeta meta;

  explicit operator bool() const { return result != nullptr; }
};

class QueryCache {
 public:
  explicit QueryCache(QueryCacheConfig config = {});

  // ---- text memo ----

  /// Raw-text -> fingerprint/table-list memo. A pure function of the
  /// query text (never invalidated, only LRU-bounded at 4x the plan
  /// capacity), it lets a byte-identical repeat query skip the lexer and
  /// parser before the result-cache probe.
  struct TextInfo {
    std::string fingerprint;
    std::vector<std::string> tables;  ///< Referenced tables, lower-case.
  };
  std::optional<TextInfo> LookupText(const std::string& text);
  void InsertText(const std::string& text, TextInfo info);

  // ---- plan tier ----

  /// Returns the cached plan for `fingerprint` if it was built at exactly
  /// this (epoch, routing_gen); a mismatch evicts the entry and misses.
  std::shared_ptr<const CachedPlan> LookupPlan(const std::string& fingerprint,
                                               uint64_t epoch,
                                               uint64_t routing_gen);
  void InsertPlan(const std::string& fingerprint, uint64_t epoch,
                  uint64_t routing_gen, std::shared_ptr<const CachedPlan> plan);

  // ---- result tier ----

  /// Composes the result-tier key: fingerprint + epoch + the current
  /// content version of every referenced table (sorted, lower-case).
  /// Computed BEFORE execution; if a version bumps mid-flight the insert
  /// under this key is simply never hit again.
  std::string ResultKey(const std::string& fingerprint, uint64_t epoch,
                        const std::vector<std::string>& tables);

  CachedResult LookupResult(const std::string& key);
  void InsertResult(const std::string& key, const std::string& fingerprint,
                    uint64_t epoch, std::vector<std::string> tables,
                    std::shared_ptr<const storage::ResultSet> result,
                    const ResultMeta& meta);

  /// Most recent (possibly invalidated) result of `fingerprint`, served
  /// only when it was computed at the same schema epoch — bounded
  /// staleness never spans a schema change. Counts a stale serve.
  CachedResult LastKnownGood(const std::string& fingerprint, uint64_t epoch);

  // ---- invalidation ----

  /// Records the observed content digest of a (lower-case logical) table.
  /// A digest different from the last observation bumps the table's
  /// version — future keys miss — and marks every cached result that
  /// referenced the table stale-only. Returns true when a change was
  /// detected.
  bool ObserveDigest(const std::string& table, const std::string& md5);

  /// Marks every result referencing `table` stale-only (quarantine, admin
  /// invalidation). Returns the number of entries invalidated.
  size_t InvalidateTable(const std::string& table);

  /// Drops everything, last-known-good entries included. Returns the
  /// number of entries dropped (plans + results).
  size_t Clear();

  // ---- introspection (tests) ----

  size_t result_bytes() const;
  size_t result_entries() const;
  size_t plan_entries() const;

 private:
  struct ResultNode {
    std::string key;  ///< Empty once stale-only (left the key index).
    std::string fingerprint;
    uint64_t epoch = 0;
    std::vector<std::string> tables;
    std::shared_ptr<const storage::ResultSet> result;
    ResultMeta meta;
    size_t bytes = 0;
    bool stale_only = false;
  };
  struct PlanNode {
    std::string fingerprint;
    uint64_t epoch = 0;
    uint64_t routing_gen = 0;
    std::shared_ptr<const CachedPlan> plan;
  };

  void MarkStaleLocked(std::list<ResultNode>::iterator it);
  void EvictResultLocked(std::list<ResultNode>::iterator it);
  void TrimLocked();

  QueryCacheConfig config_;
  mutable std::mutex mu_;

  std::list<PlanNode> plan_lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, std::list<PlanNode>::iterator> plan_by_fp_;

  using TextNode = std::pair<std::string, TextInfo>;  // raw text, info
  std::list<TextNode> text_lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, std::list<TextNode>::iterator> text_by_sql_;

  std::list<ResultNode> result_lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, std::list<ResultNode>::iterator> by_key_;
  /// fingerprint -> most recently inserted/hit node (stale-only included).
  std::unordered_map<std::string, std::list<ResultNode>::iterator> last_good_;
  size_t bytes_ = 0;

  std::unordered_map<std::string, uint64_t> table_versions_;
  std::unordered_map<std::string, std::string> table_digests_;
};

}  // namespace griddb::cache
