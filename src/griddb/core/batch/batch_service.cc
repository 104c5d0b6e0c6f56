#include "griddb/core/batch/batch_service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "griddb/obs/metrics.h"
#include "griddb/sql/parser.h"
#include "griddb/sql/render.h"
#include "griddb/storage/stage_file.h"
#include "griddb/util/fs.h"
#include "griddb/util/logging.h"
#include "griddb/util/md5.h"
#include "griddb/util/strings.h"

namespace griddb::core {

using storage::ResultSet;

namespace {

const sql::Dialect& ClientDialect() {
  return sql::Dialect::For(sql::Vendor::kSqlite);
}

obs::Counter& SubmittedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.jobs_submitted");
  return *c;
}
obs::Counter& CompletedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.jobs_completed");
  return *c;
}
obs::Counter& FailedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.batch.jobs_failed");
  return *c;
}
obs::Counter& CancelledCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.jobs_cancelled");
  return *c;
}
obs::Counter& RecoveredCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.jobs_recovered");
  return *c;
}
obs::Counter& CheckpointsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.chunks_checkpointed");
  return *c;
}
obs::Counter& ChunksRecoveredCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.chunks_recovered");
  return *c;
}
obs::Counter& RetriesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.subquery_retries");
  return *c;
}
obs::Counter& ShedWaitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.subquery_sheds");
  return *c;
}
obs::Counter& FetchPagesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.batch.fetch_pages");
  return *c;
}
obs::Counter& JournalTruncatedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.journal_truncated");
  return *c;
}
obs::Counter& IoPausesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("griddb.batch.io_pauses");
  return *c;
}
obs::Counter& StageRepairsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "griddb.batch.stage_repairs");
  return *c;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default().GetGauge("griddb.batch.queue_depth");
  return *g;
}
obs::Gauge& RunningGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default().GetGauge("griddb.batch.running");
  return *g;
}

/// Gauges are set-only; the running count backing griddb.batch.running.
std::atomic<int>& RunningCount() {
  static std::atomic<int> n{0};
  return n;
}

/// True when the expression tree contains any function call (aggregates
/// included) — paging such a statement would change its semantics.
bool HasFunction(const sql::Expr& expr) {
  if (expr.kind == sql::Expr::Kind::kFunction) return true;
  for (const sql::ExprPtr& child : expr.children) {
    if (child && HasFunction(*child)) return true;
  }
  return false;
}

/// A statement is pageable when appending LIMIT/OFFSET yields the same
/// rows in deterministic slices: no aggregation, grouping, DISTINCT,
/// ordering or explicit LIMIT/OFFSET of its own. (Row order without
/// ORDER BY is engine order, which is deterministic for the embedded
/// engines — the same premise EtlPipeline::RunResumable documents.)
bool IsPageable(const sql::SelectStmt& stmt) {
  if (stmt.distinct || !stmt.group_by.empty() || stmt.having ||
      !stmt.order_by.empty() || stmt.limit || stmt.offset) {
    return false;
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr && HasFunction(*item.expr)) return false;
  }
  return true;
}

/// Infers a table schema for materializing `rs`: column types from the
/// first non-null value per column, kString for all-null columns.
storage::TableSchema SchemaFor(const std::string& table, const ResultSet& rs) {
  std::vector<storage::ColumnDef> columns;
  columns.reserve(rs.columns.size());
  for (size_t c = 0; c < rs.columns.size(); ++c) {
    storage::ColumnDef def;
    def.name = rs.columns[c];
    def.type = storage::DataType::kString;
    for (const storage::Row& row : rs.rows) {
      if (c < row.size() && !row[c].is_null()) {
        def.type = row[c].type();
        break;
      }
    }
    columns.push_back(std::move(def));
  }
  return storage::TableSchema(table, std::move(columns));
}

/// Parses "key value" lines of a journal payload; the `sql` and `error`
/// keys (always last) consume the remainder of the payload verbatim so
/// arbitrary statement text round-trips.
struct RecordFields {
  std::map<std::string, std::string> fields;
  std::string kind;

  static RecordFields Parse(const std::string& payload) {
    RecordFields out;
    size_t pos = 0;
    bool first = true;
    while (pos < payload.size()) {
      size_t eol = payload.find('\n', pos);
      std::string line = payload.substr(
          pos, eol == std::string::npos ? std::string::npos : eol - pos);
      if (first) {
        out.kind = line;
        first = false;
      } else {
        size_t sp = line.find(' ');
        std::string key = line.substr(0, sp);
        if (key == "sql" || key == "error") {
          // Rest-of-payload field: everything past "key ".
          size_t start = pos + key.size() + 1;
          out.fields[key] =
              start <= payload.size() ? payload.substr(start) : "";
          break;
        }
        out.fields[key] =
            sp == std::string::npos ? std::string() : line.substr(sp + 1);
      }
      if (eol == std::string::npos) break;
      pos = eol + 1;
    }
    return out;
  }

  uint64_t U64(const std::string& key) const {
    auto it = fields.find(key);
    if (it == fields.end()) return 0;
    return static_cast<uint64_t>(strtoull(it->second.c_str(), nullptr, 10));
  }
  std::string Str(const std::string& key) const {
    auto it = fields.find(key);
    return it == fields.end() ? std::string() : it->second;
  }
};

}  // namespace

const char* BatchJobStateName(BatchJobState state) noexcept {
  switch (state) {
    case BatchJobState::kQueued: return "queued";
    case BatchJobState::kRunning: return "running";
    case BatchJobState::kDone: return "done";
    case BatchJobState::kFailed: return "failed";
    case BatchJobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool IsTerminal(BatchJobState state) noexcept {
  return state == BatchJobState::kDone || state == BatchJobState::kFailed ||
         state == BatchJobState::kCancelled;
}

BatchJobManager::BatchJobManager(DataAccessService* service,
                                 ral::DatabaseCatalog* catalog,
                                 BatchConfig config)
    : service_(service),
      catalog_(catalog),
      config_(std::move(config)),
      journal_((config_.journal_dir.empty() ? std::string(".")
                                            : config_.journal_dir) +
               "/batch_jobs.journal") {
  if (config_.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.journal_dir, ec);
  }
}

BatchJobManager::~BatchJobManager() { Stop(); }

void BatchJobManager::set_crash_hook(CrashHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_hook_ = std::move(hook);
}

const std::vector<std::string>& BatchJobManager::CrashPointNames() {
  static const std::vector<std::string> names = {"checkpoint", "staged",
                                                 "terminal", "total"};
  return names;
}

void BatchJobManager::CrashPoint(const char* point, uint64_t job_id,
                                 size_t chunk) {
  assert(std::find(CrashPointNames().begin(), CrashPointNames().end(),
                   point) != CrashPointNames().end() &&
         "crash point fired without being registered in CrashPointNames()");
  CrashHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = crash_hook_;
  }
  if (hook) hook(point, job_id, chunk);
}

std::string BatchJobManager::StagePath(uint64_t id) const {
  return config_.journal_dir + "/job_" + std::to_string(id) + ".stage";
}

std::string BatchJobManager::ScratchMartName(const std::string& tenant) const {
  // Tenant identities come from the RBAC catalog; sanitize into an
  // identifier so arbitrary characters cannot escape into SQL/paths.
  std::string base = tenant.empty() ? "anonymous" : ToLower(tenant);
  std::string safe;
  safe.reserve(base.size());
  for (char c : base) {
    safe += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return "scratch_" + safe;
}

// ---------- journal encoding ----------

Status BatchJobManager::JournalAppend(const std::string& payload) {
  if (crashed()) return Unavailable("batch manager crashed (simulated)");
  // JournalWriter is not internally synchronized; checkpoint appends run
  // outside mu_ (they sit on the hot scan path), so all appends funnel
  // through this dedicated mutex. Lock order is always mu_ → journal_mu_.
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (crashed()) return Unavailable("batch manager crashed (simulated)");
  return journal_.Append(payload);
}

Status BatchJobManager::JournalSubmit(const Job& job) {
  std::ostringstream out;
  out << "submit\nid " << job.info.id << "\nchunk_rows " << job.chunk_rows
      << "\ntenant " << job.info.tenant << "\nsql " << job.info.sql;
  return JournalAppend(out.str());
}

Status BatchJobManager::JournalCheckpoint(uint64_t id, size_t chunk,
                                          size_t rows,
                                          const std::string& md5) {
  std::ostringstream out;
  out << "checkpoint\nid " << id << "\nchunk " << chunk << "\nrows " << rows
      << "\nmd5 " << md5;
  return JournalAppend(out.str());
}

Status BatchJobManager::JournalTotal(uint64_t id, size_t chunks,
                                     size_t rows) {
  std::ostringstream out;
  out << "total\nid " << id << "\nchunks " << chunks << "\nrows " << rows;
  return JournalAppend(out.str());
}

Status BatchJobManager::JournalTerminal(uint64_t id, BatchJobState state,
                                        const std::string& error) {
  std::ostringstream out;
  out << "state\nid " << id << "\nto " << BatchJobStateName(state);
  if (!error.empty()) out << "\nerror " << error;
  return JournalAppend(out.str());
}

// ---------- recovery ----------

Status BatchJobManager::Recover() {
  if (!config_.enabled()) return Status::Ok();
  GRIDDB_ASSIGN_OR_RETURN(util::JournalReplay replay,
                          util::ReadJournal(journal_.path()));
  if (replay.truncated) {
    JournalTruncatedCounter().Add(1);
    // Repair the tear before anything can append: Append is O_APPEND,
    // so new records would otherwise land after the torn bytes, where
    // the next replay — which stops at the tear — can never see them.
    // Acknowledged submits and terminal states written after an
    // unrepaired tear would silently vanish on the following restart.
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    GRIDDB_RETURN_IF_ERROR(journal_.TruncateTo(replay.intact_bytes));
  }

  std::unique_lock<std::mutex> lock(mu_);
  // Idempotence: replaying over already-recovered state would double
  // every job; recovery is a construction-time event.
  if (!jobs_.empty() || started_) {
    return FailedPrecondition("Recover() must run once, before Start()");
  }
  for (const std::string& payload : replay.records) {
    RecordFields rec = RecordFields::Parse(payload);
    const uint64_t id = rec.U64("id");
    if (rec.kind == "submit") {
      Job job;
      job.info.id = id;
      job.info.tenant = rec.Str("tenant");
      job.info.sql = rec.Str("sql");
      job.info.scratch_mart = ScratchMartName(job.info.tenant);
      job.info.result_table = "batch_" + std::to_string(id);
      job.chunk_rows = static_cast<size_t>(rec.U64("chunk_rows"));
      if (job.chunk_rows == 0) job.chunk_rows = config_.chunk_rows;
      jobs_.emplace(id, std::move(job));
      next_id_ = std::max(next_id_, id + 1);
    } else if (rec.kind == "checkpoint") {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;  // tolerate orphaned records
      const size_t chunk = static_cast<size_t>(rec.U64("chunk"));
      const size_t rows = static_cast<size_t>(rec.U64("rows"));
      // Re-checkpointed chunks (a resume re-ran a page whose journal
      // record survived but whose stage frame did not) overwrite: last
      // record wins, mirroring last-frame-wins in the stage file.
      auto [md5_it, fresh] = it->second.chunk_md5.insert_or_assign(
          chunk, rec.Str("md5"));
      (void)md5_it;
      if (!fresh) {
        it->second.info.rows -= it->second.chunk_row_counts[chunk];
      }
      it->second.chunk_row_counts[chunk] = rows;
      it->second.info.rows += rows;
      it->second.info.chunks_done = it->second.chunk_md5.size();
    } else if (rec.kind == "total") {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      it->second.info.total_chunks = static_cast<size_t>(rec.U64("chunks"));
      it->second.info.total_known = true;
    } else if (rec.kind == "state") {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      const std::string to = rec.Str("to");
      if (to == "done") {
        it->second.info.state = BatchJobState::kDone;
      } else if (to == "failed") {
        it->second.info.state = BatchJobState::kFailed;
      } else if (to == "cancelled") {
        it->second.info.state = BatchJobState::kCancelled;
        it->second.cancel.Cancel(Unavailable("batch job cancelled"));
      }
      it->second.info.error = rec.Str("error");
    }
    // Unknown kinds are skipped: a journal written by a newer build
    // replays what this build understands instead of failing recovery.
  }

  // Rebuild scratch state and requeue interrupted work.
  for (auto& [id, job] : jobs_) {
    if (job.info.state == BatchJobState::kDone) {
      // The scratch mart is an in-memory cache over the durable stage
      // file; rebuild it so fetches and follow-up queries work after the
      // restart.
      lock.unlock();
      Status rebuilt = [&]() -> Status {
        GRIDDB_ASSIGN_OR_RETURN(engine::Database * db,
                                EnsureScratchMart(job.info.tenant));
        GRIDDB_ASSIGN_OR_RETURN(size_t resume, MaterializeCheckpointed(job, db));
        if (job.info.total_known && resume < job.info.total_chunks) {
          return Corruption("stage file of done job " + std::to_string(id) +
                            " is missing chunks past " +
                            std::to_string(resume));
        }
        return PublishResultTable(job);
      }();
      lock.lock();
      if (!rebuilt.ok()) {
        // The stage file lost chunks the journal says were durable — an
        // fsync that lied before a power cut, or media rot past the
        // digest-quarantine repair. Serving the truncated result as
        // "done" would be silent data loss; the SQL and per-chunk
        // digests are journaled, so demote the job and re-execute from
        // its last intact checkpoint instead.
        job.info.error = "scratch rebuild failed: " + rebuilt.ToString();
        GRIDDB_LOG(Warn) << "batch job " << id << ": " << job.info.error
                         << " (requeued from last intact checkpoint)";
        job.info.state = BatchJobState::kQueued;
        job.info.recovered = true;
        queue_.push_back(id);
        RecoveredCounter().Add(1);
      }
      continue;
    }
    if (IsTerminal(job.info.state)) continue;
    job.info.recovered = true;
    job.info.state = BatchJobState::kQueued;
    queue_.push_back(id);
    RecoveredCounter().Add(1);
  }
  QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  return Status::Ok();
}

// ---------- lifecycle ----------

void BatchJobManager::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.enabled() || started_) return;
  started_ = true;
  stopping_ = false;
  const size_t n = std::max<size_t>(config_.workers, 1);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void BatchJobManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  workers_.clear();
  started_ = false;
  journal_.Close();
}

size_t BatchJobManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

// ---------- RPC surface ----------

Result<uint64_t> BatchJobManager::Submit(const std::string& tenant,
                                         const std::string& sql) {
  if (!config_.enabled()) {
    return Unavailable("batch service not configured on this server");
  }
  // Validate before journaling: a statement that cannot parse must not
  // occupy a durable journal record only to fail at run time. Nor may a
  // tenant containing control bytes: the submit record carries it on a
  // newline-delimited field line, and an embedded newline would shift
  // the record's framing on replay (mis-scoping the job, swallowing the
  // sql field).
  for (char c : tenant) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      return InvalidArgument("tenant identity contains control characters");
    }
  }
  auto parsed = sql::ParseSelect(sql, ClientDialect());
  if (!parsed.ok()) return parsed.status();

  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return Unavailable("batch service shutting down");
  Job job;
  job.info.id = next_id_;
  job.info.tenant = tenant;
  job.info.sql = sql;
  job.info.scratch_mart = ScratchMartName(tenant);
  job.info.result_table = "batch_" + std::to_string(job.info.id);
  job.chunk_rows = std::max<size_t>(config_.chunk_rows, 1);
  // Write-ahead: the submit record is durable before the id is handed
  // out, so an acknowledged job survives any later crash.
  GRIDDB_RETURN_IF_ERROR(JournalSubmit(job));
  const uint64_t id = job.info.id;
  next_id_ = id + 1;
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  SubmittedCounter().Add(1);
  QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  work_cv_.notify_one();
  return id;
}

Result<BatchJobInfo> BatchJobManager::Poll(const std::string& tenant,
                                           uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return NotFound("no batch job " + std::to_string(id));
  }
  if (it->second.info.tenant != tenant) {
    // Per-tenant visibility: another tenant's job id behaves as absent.
    return NotFound("no batch job " + std::to_string(id));
  }
  return it->second.info;
}

Status BatchJobManager::Cancel(const std::string& tenant, uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.info.tenant != tenant) {
    return NotFound("no batch job " + std::to_string(id));
  }
  Job& job = it->second;
  if (IsTerminal(job.info.state)) {
    return FailedPrecondition("batch job " + std::to_string(id) +
                              " already " +
                              BatchJobStateName(job.info.state));
  }
  // Durable-before-effective: journal the cancellation, then latch the
  // token. A crash after this record recovers the job as cancelled; the
  // running scan observes the token at its next chunk boundary (or
  // mid-chunk through the executor's cooperative checks) and stops
  // without writing a second terminal record.
  GRIDDB_RETURN_IF_ERROR(
      JournalTerminal(id, BatchJobState::kCancelled, ""));
  job.info.state = BatchJobState::kCancelled;
  job.cancel.Cancel(Unavailable("batch job cancelled"));
  queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
  QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  CancelledCounter().Add(1);
  done_cv_.notify_all();
  work_cv_.notify_all();  // interrupt the job's shed/retry backoff wait
  return Status::Ok();
}

Result<ResultSet> BatchJobManager::Fetch(const std::string& tenant,
                                         uint64_t id, size_t page) {
  std::string mart;
  std::string table;
  size_t total_rows = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.info.tenant != tenant) {
      return NotFound("no batch job " + std::to_string(id));
    }
    const Job& job = it->second;
    if (job.info.state != BatchJobState::kDone) {
      return FailedPrecondition("batch job " + std::to_string(id) + " is " +
                                BatchJobStateName(job.info.state) +
                                ", results are fetchable once done");
    }
    mart = job.info.scratch_mart;
    table = job.info.result_table;
    total_rows = job.info.rows;
  }
  engine::Database* db = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = scratch_.find(mart);
    if (it != scratch_.end()) db = it->second.get();
  }
  if (db == nullptr || !db->HasTable(table)) {
    return Unavailable("scratch table '" + table + "' is not materialized");
  }
  const size_t rows = std::max<size_t>(config_.fetch_page_rows, 1);
  // page * rows can wrap size_t for a hostile client-supplied page and
  // alias a real offset; any page past the last row IS "past the end",
  // so clamp to the row count instead of multiplying (page <= max_page
  // implies page * rows <= total_rows, which cannot overflow).
  const size_t max_page = total_rows / rows;
  const size_t offset = page > max_page ? total_rows : page * rows;
  std::string page_sql = "SELECT * FROM " + table + " LIMIT " +
                         std::to_string(rows) + " OFFSET " +
                         std::to_string(offset);
  FetchPagesCounter().Add(1);
  return db->Execute(page_sql);
}

bool BatchJobManager::WaitForTerminal(uint64_t id, double timeout_sec) {
  std::unique_lock<std::mutex> lock(mu_);
  return done_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_sec), [&] {
        auto it = jobs_.find(id);
        return it != jobs_.end() && IsTerminal(it->second.info.state);
      });
}

// ---------- execution ----------

void BatchJobManager::WorkerLoop() {
  for (;;) {
    uint64_t id = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || crashed() || !queue_.empty();
      });
      if (stopping_ || crashed()) return;
      id = queue_.front();
      queue_.pop_front();
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
    }
    RunJob(id);
  }
}

void BatchJobManager::RunJob(uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || IsTerminal(it->second.info.state)) return;
    it->second.info.state = BatchJobState::kRunning;
  }
  RunningGauge().Set(RunningCount().fetch_add(1) + 1);

  // The scan runs outside mu_ (it performs queries); it re-locks for
  // each state mutation. The Job reference is stable: jobs_ is a map and
  // entries are never erased.
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job = &jobs_.at(id);
  }
  job->ledger = net::Cost();
  obs::Span span = service_->tracer().StartSpan("batch.job", &job->ledger);
  if (span.active()) span.AddAttr("job", std::to_string(id));
  Status result = RunScan(*job);

  size_t chunks_done = 0;
  bool io_pause = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RunningGauge().Set(RunningCount().fetch_sub(1) - 1);
    if (crashed()) {
      // A simulated crash freezes state where the "kill" happened; the
      // journal on disk — not this in-memory state — is what recovery of
      // the next incarnation replays.
      if (span.active()) span.End();
      return;
    }
    if (job->info.state == BatchJobState::kCancelled) {
      // Terminal record was already written by Cancel(); just stop.
      if (span.active()) span.End();
      done_cv_.notify_all();
      return;
    }
    if (!result.ok() && stop_requested()) {
      // Stop() interrupted the scan (chunk boundary or backoff wait):
      // no terminal record — the job returns to queued state and a
      // later Start() or a restart resumes it from its last durable
      // checkpoint. (A genuine failure racing with Stop() requeues
      // too; the re-run deterministically re-fails and records the
      // failure then.)
      job->info.state = BatchJobState::kQueued;
      queue_.push_front(id);
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      if (span.active()) span.End();
      return;
    }
    if (result.ok()) {
      if (Status t = JournalTerminal(id, BatchJobState::kDone, ""); t.ok()) {
        job->info.state = BatchJobState::kDone;
        CompletedCounter().Add(1);
      } else {
        // The work is all durably checkpointed; only the terminal record
        // could not be written. Failing the job here would throw a
        // finished result away because a disk hiccuped — park it instead
        // and retry once storage recovers (the retry re-runs nothing: it
        // restores every chunk and re-attempts only this append).
        io_pause = true;
      }
    } else if (result.code() == StatusCode::kIoError) {
      // Storage failure (ENOSPC window, torn write, unwritable journal):
      // graceful degradation is pause-and-retry, never job failure. The
      // checkpointed prefix stays durable; the retry resumes after it.
      io_pause = true;
    } else {
      job->info.error = result.ToString();
      if (JournalTerminal(id, BatchJobState::kFailed, job->info.error).ok()) {
        job->info.state = BatchJobState::kFailed;
        FailedCounter().Add(1);
      } else {
        // Can't even record the failure: park and re-derive it later.
        job->info.error.clear();
        io_pause = true;
      }
    }
    if (io_pause) {
      job->info.state = BatchJobState::kQueued;
      ++job->info.io_pauses;
      IoPausesCounter().Add(1);
    }
    if (span.active()) {
      if (!result.ok()) span.SetError(result.ToString());
      span.End();
    }
    chunks_done = job->info.chunks_done;
  }
  if (io_pause) {
    // Back off before requeueing so a persistent ENOSPC window does not
    // spin the worker pool; the wait aborts early on stop/crash/cancel.
    InterruptibleWait(*job, config_.io_retry_backoff_ms);
    std::lock_guard<std::mutex> lock(mu_);
    // Requeue even when the wait was cut short by Stop(): the queue
    // survives Stop()/Start(), and a job parked outside it would be
    // invisible to the next incarnation's workers. Cancellation flips
    // the state away from queued, which skips the requeue.
    if (job->info.state == BatchJobState::kQueued && !crashed()) {
      queue_.push_back(id);
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      work_cv_.notify_one();
    }
    return;
  }
  // Outside mu_: CrashPoint re-locks it to read the hook.
  CrashPoint("terminal", id, chunks_done);
  done_cv_.notify_all();
}

void BatchJobManager::InterruptibleWait(Job& job, double ms) {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(ms),
                    [&] {
                      return stop_requested() || crashed() ||
                             !job.cancel.Check().ok();
                    });
}

Result<ResultSet> BatchJobManager::RunSubQuery(Job& job,
                                               const std::string& sql) {
  const rpc::RetryPolicy& policy = config_.retry;
  double backoff_ms = policy.initial_backoff_ms;
  int attempts = 0;
  for (;;) {
    if (crashed()) return Unavailable("batch manager crashed (simulated)");
    if (stop_requested()) return Unavailable("batch service stopping");
    GRIDDB_RETURN_IF_ERROR(job.cancel.Check());
    QueryContext ctx;
    ctx.priority = QueryPriority::kBatch;
    ctx.tenant = job.info.tenant;
    ctx.cancel = job.cancel;
    ctx.start_ms = job.ledger.now_ms();
    QueryStats stats;
    auto rs = service_->Query(sql, &stats, 0, "", std::move(ctx));
    job.ledger.AddMs(stats.simulated_ms);
    if (rs.ok()) return rs;
    const Status& st = rs.status();
    if (st.code() == StatusCode::kResourceExhausted) {
      // An admission shed is back-pressure, not failure: the cluster has
      // no idle capacity for batch work right now. Wait it out (honouring
      // the shed's retry-after hint as a floor) without consuming the
      // transient-failure retry budget. Workers are real threads below
      // the virtual clock, so the wait is wall-clock — and interruptible:
      // under sustained foreground demand this loop can spin for the rest
      // of the job's life, and Stop() must not wait behind it.
      ShedWaitsCounter().Add(1);
      double wait_ms = std::max(config_.shed_backoff_ms,
                                rpc::RetryAfterHintMs(st.message()));
      InterruptibleWait(job, wait_ms);
      continue;
    }
    if (!rpc::IsRetryable(st.code())) return st;
    if (++attempts >= policy.max_attempts) return st;
    RetriesCounter().Add(1);
    InterruptibleWait(job, backoff_ms);
    backoff_ms = std::min(backoff_ms * policy.backoff_multiplier,
                          policy.max_backoff_ms);
  }
}

Result<engine::Database*> BatchJobManager::EnsureScratchMart(
    const std::string& tenant) {
  // Creation + catalog add + service registration run as one critical
  // section so a second worker for the same tenant never observes a
  // half-registered mart. The service never calls back into this
  // manager, so holding mu_ across the registration cannot deadlock.
  const std::string mart = ScratchMartName(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = scratch_.find(mart);
  if (it != scratch_.end()) return it->second.get();

  auto db = std::make_unique<engine::Database>(mart, sql::Vendor::kSqlite);
  engine::Database* raw = db.get();
  const std::string conn =
      "sqlite://" + service_->config().host + "/" + mart;
  ral::DatabaseCatalog::Entry entry;
  entry.connection_string = conn;
  entry.database = raw;
  entry.host = service_->config().host;
  Status added = catalog_->Add(entry);
  if (added.code() == StatusCode::kAlreadyExists) {
    // Restart path: the catalog still maps this connection string to the
    // previous incarnation's (destroyed) scratch database. Point it at
    // the rebuilt one.
    GRIDDB_RETURN_IF_ERROR(catalog_->Remove(conn));
    added = catalog_->Add(std::move(entry));
  }
  GRIDDB_RETURN_IF_ERROR(added);
  // From here the catalog holds a raw pointer into `db`; every error
  // return must take it back out, or `db` dies with this frame and any
  // later resolution of the connection string is a use-after-free.
  auto fail = [&](Status st) {
    (void)catalog_->Remove(conn);
    return st;
  };
  Status registered = service_->RegisterLiveDatabase(conn, "");
  if (registered.code() == StatusCode::kAlreadyExists) {
    // The service outlived the previous manager (embedders rebuild the
    // manager in-process; a real restart rebuilds both), so its
    // dictionary still describes the destroyed incarnation. The catalog
    // now points at the rebuilt database; a refresh re-derives the
    // dictionary from it.
    registered = service_->RefreshRegisteredDatabase(mart);
  }
  if (!registered.ok()) return fail(std::move(registered));
  // The scratch mart belongs to its tenant: a mart grant makes every
  // result table it will ever host readable by follow-up queries without
  // per-table grant churn. Other tenants get nothing.
  if (std::shared_ptr<RbacCatalog> rbac = service_->config().rbac) {
    const std::string user =
        tenant.empty() ? RbacCatalog::kAnonymousTenant : tenant;
    (void)rbac->CreateUser(user);  // kAlreadyExists is fine
    Status granted = rbac->GrantMart(user, mart);
    if (!granted.ok() && granted.code() != StatusCode::kAlreadyExists) {
      return fail(std::move(granted));
    }
  }
  scratch_.emplace(mart, std::move(db));
  return raw;
}

Result<size_t> BatchJobManager::MaterializeCheckpointed(
    Job& job, engine::Database* db) {
  // The journal's checkpoint records are the truth; stage frames must
  // match them digest-for-digest to count. Returns the first chunk id
  // the scan must (re-)run.
  (void)db->DropTable(job.info.result_table, /*if_exists=*/true);
  std::map<size_t, std::string> journaled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    journaled = job.chunk_md5;
  }
  if (journaled.empty()) return size_t{0};

  const std::string stage_path = StagePath(job.info.id);
  std::vector<size_t> corrupt;
  storage::StageDamage damage;
  auto staged =
      storage::ReadChunkedStageFileTolerant(stage_path, &corrupt, &damage);
  if (!staged.ok()) {
    // Missing or unreadably damaged stage file: nothing restorable — the
    // scan re-runs from chunk 0. Damaged (as opposed to missing) files
    // must be removed first: stage appends land at the physical end of
    // file, so frames written after unreadable bytes would be invisible
    // to every later read and the job could never converge.
    if (staged.status().code() != StatusCode::kNotFound) {
      (void)util::Fs().Unlink(stage_path);
      StageRepairsCounter().Add(1);
    }
    return size_t{0};
  }
  if (damage.torn) {
    // A tail torn by a crash, a torn write, or a lying fsync whose bytes
    // a crash dropped. Cut the file back to its intact frames before any
    // append, for the same reason Recover() truncates a torn journal.
    GRIDDB_RETURN_IF_ERROR(
        util::Fs().Truncate(stage_path, damage.intact_bytes));
    GRIDDB_RETURN_IF_ERROR(util::Fs().Fsync(stage_path));
    StageRepairsCounter().Add(1);
  }
  // Restore the dense prefix of chunks whose stage frame digest matches
  // the journaled checkpoint; stop at the first hole — LIMIT/OFFSET
  // paging needs a contiguous prefix to resume from.
  std::map<size_t, size_t> frame_index;
  for (size_t i = 0; i < staged->chunks.size(); ++i) {
    frame_index[staged->chunks[i].id] = i;
  }
  size_t resume = 0;
  bool created = false;
  while (true) {
    auto want = journaled.find(resume);
    if (want == journaled.end()) break;
    auto have = frame_index.find(resume);
    if (have == frame_index.end() ||
        staged->chunks[have->second].md5 != want->second) {
      break;
    }
    if (!created) {
      storage::TableSchema schema(job.info.result_table,
                                  staged->schema.columns());
      GRIDDB_RETURN_IF_ERROR(db->CreateTable(schema));
      created = true;
    }
    GRIDDB_RETURN_IF_ERROR(db->InsertRows(job.info.result_table,
                                          staged->rows[have->second]));
    ChunksRecoveredCounter().Add(1);
    ++resume;
  }
  return resume;
}

Status BatchJobManager::PublishResultTable(Job& job) {
  // Republishing the scratch database puts the new logical table into
  // the Unity dictionary, so follow-up interactive queries can use it as
  // a source table.
  return service_->RefreshRegisteredDatabase(job.info.scratch_mart);
}

Status BatchJobManager::RunScan(Job& job) {
  const uint64_t id = job.info.id;
  GRIDDB_ASSIGN_OR_RETURN(engine::Database * db,
                          EnsureScratchMart(job.info.tenant));
  GRIDDB_ASSIGN_OR_RETURN(size_t resume, MaterializeCheckpointed(job, db));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Forget journaled checkpoints past the restored prefix: those
    // chunks re-run and re-checkpoint (last record wins on replay).
    for (auto it = job.chunk_md5.begin(); it != job.chunk_md5.end();) {
      if (it->first >= resume) {
        job.info.rows -= job.chunk_row_counts[it->first];
        job.chunk_row_counts.erase(it->first);
        it = job.chunk_md5.erase(it);
      } else {
        ++it;
      }
    }
    job.info.chunks_done = resume;
  }

  auto parsed = sql::ParseSelect(job.info.sql, ClientDialect());
  if (!parsed.ok()) return parsed.status();
  std::unique_ptr<sql::SelectStmt> stmt = std::move(*parsed);
  // Paging is per-chunk LIMIT/OFFSET, so every replica of every
  // referenced table must provably live behind a dialect that can
  // express the offset. TOP (MS-SQL) and ROWNUM (Oracle) renderings
  // drop it, handing back the first chunk on every page — an
  // unterminating scan. A table with no local binding executes on a
  // peer server whose vendor this coordinator cannot see, so it gets
  // the same conservative treatment: degrade to the single-shot path.
  bool offset_ok = true;
  for (const sql::TableRef* ref : stmt->AllTables()) {
    auto bindings = service_->driver().dictionary().Locate(ref->table);
    if (bindings.empty()) offset_ok = false;
    for (const unity::TableBinding& binding : bindings) {
      const size_t scheme = binding.connection.find("://");
      auto vendor = sql::VendorFromName(
          std::string_view(binding.connection)
              .substr(0, scheme == std::string::npos ? 0 : scheme));
      if (!vendor.ok() || sql::Dialect::For(*vendor).limit_style() !=
                              sql::LimitStyle::kLimitOffset) {
        offset_ok = false;
      }
    }
  }
  const bool pageable = IsPageable(*stmt) && offset_ok;
  const size_t chunk_rows = std::max<size_t>(job.chunk_rows, 1);

  // Materializes one chunk durably: stage frame first (fsync'd), then
  // the journal checkpoint — so a journaled checkpoint always has its
  // data on disk, and a crash between the two merely re-runs one chunk
  // whose re-staged frame is byte-identical (last frame per id wins).
  auto checkpoint_chunk = [&](size_t chunk_id,
                              const ResultSet& rs) -> Status {
    if (crashed()) return Unavailable("batch manager crashed (simulated)");
    storage::TableSchema schema = SchemaFor(job.info.result_table, rs);
    storage::StageChunk chunk;
    chunk.id = chunk_id;
    chunk.rows = rs.rows.size();
    std::string encoded = storage::EncodeRowBlock(rs.rows);
    chunk.md5 = Md5Hex(encoded);
    GRIDDB_RETURN_IF_ERROR(storage::AppendStageChunk(
        StagePath(id), schema, chunk, encoded));
    GRIDDB_RETURN_IF_ERROR(util::FsyncFile(StagePath(id)));
    CrashPoint("staged", id, chunk_id);
    if (crashed()) return Unavailable("batch manager crashed (simulated)");
    GRIDDB_RETURN_IF_ERROR(
        JournalCheckpoint(id, chunk_id, rs.rows.size(), chunk.md5));
    CheckpointsCounter().Add(1);
    CrashPoint("checkpoint", id, chunk_id);
    // In-memory materialization follows durability.
    if (!db->HasTable(job.info.result_table)) {
      GRIDDB_RETURN_IF_ERROR(db->CreateTable(schema));
    }
    GRIDDB_RETURN_IF_ERROR(
        db->InsertRows(job.info.result_table, rs.rows));
    std::lock_guard<std::mutex> lock(mu_);
    job.chunk_md5[chunk_id] = chunk.md5;
    job.chunk_row_counts[chunk_id] = rs.rows.size();
    job.info.chunks_done = job.chunk_md5.size();
    job.info.rows += rs.rows.size();
    return Status::Ok();
  };

  size_t total_chunks = 0;
  size_t total_rows = 0;
  if (pageable) {
    // Checkpointed scan: each chunk is its own LIMIT/OFFSET sub-query,
    // so a resume repeats no sub-query work before `resume`.
    size_t k = resume;
    for (;;) {
      // Chunk boundary: Stop() waits at most one chunk, not the whole
      // scan. RunJob sees stop_requested() and requeues without a
      // terminal record.
      if (stop_requested()) return Unavailable("batch service stopping");
      GRIDDB_RETURN_IF_ERROR(job.cancel.Check());
      std::unique_ptr<sql::SelectStmt> page = stmt->Clone();
      page->limit = static_cast<int64_t>(chunk_rows);
      page->offset = static_cast<int64_t>(k * chunk_rows);
      GRIDDB_ASSIGN_OR_RETURN(
          ResultSet rs,
          RunSubQuery(job, sql::RenderSelect(*page, ClientDialect())));
      const size_t got = rs.rows.size();
      if (got > 0 || k == 0) {
        // Chunk 0 is staged even when empty: the stage header carries
        // the schema a zero-row result table still needs.
        GRIDDB_RETURN_IF_ERROR(checkpoint_chunk(k, rs));
        ++k;
      }
      if (got < chunk_rows) break;
    }
    total_chunks = k;
  } else {
    // Non-pageable statements run single-shot; only materialization is
    // chunked. A crash mid-materialization re-runs the whole query on
    // resume (deterministic engines: same result) and re-stages from the
    // first missing chunk.
    GRIDDB_RETURN_IF_ERROR(job.cancel.Check());
    GRIDDB_ASSIGN_OR_RETURN(ResultSet rs, RunSubQuery(job, job.info.sql));
    size_t k = 0;
    size_t offset = 0;
    for (;;) {
      if (stop_requested()) return Unavailable("batch service stopping");
      const size_t take = std::min(chunk_rows, rs.rows.size() - offset);
      ResultSet slice;
      slice.columns = rs.columns;
      slice.rows.assign(rs.rows.begin() + static_cast<ptrdiff_t>(offset),
                        rs.rows.begin() + static_cast<ptrdiff_t>(offset + take));
      if (k >= resume && (take > 0 || k == 0)) {
        GRIDDB_RETURN_IF_ERROR(checkpoint_chunk(k, slice));
      }
      offset += take;
      if (take > 0 || k == 0) ++k;
      if (offset >= rs.rows.size()) break;
    }
    total_chunks = k;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_rows = job.info.rows;
  }
  if (crashed()) return Unavailable("batch manager crashed (simulated)");
  GRIDDB_RETURN_IF_ERROR(JournalTotal(id, total_chunks, total_rows));
  {
    std::lock_guard<std::mutex> lock(mu_);
    job.info.total_chunks = total_chunks;
    job.info.total_known = true;
  }
  CrashPoint("total", id, total_chunks);
  if (crashed()) return Unavailable("batch manager crashed (simulated)");
  return PublishResultTable(job);
}

}  // namespace griddb::core
