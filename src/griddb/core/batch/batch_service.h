// Crash-safe asynchronous batch-query service (CasJobs-style).
//
// The interactive mart/warehouse pipeline cannot serve the long
// ntuple-scan workload grid analysis generates: under admission control
// those queries either shed or monopolize interactive slots. This module
// gives them their own lane. A client submits a query and gets a job id
// back immediately (dataaccess.batchSubmit); a BatchJobManager executes
// the job in the background at QueryPriority::kBatch — strictly out of
// the admission controller's idle capacity — and materializes the result
// into the tenant's scratch mart ("MyDB"), where it is fetchable in
// pages (dataaccess.batchFetch) and usable as a source table for
// follow-up queries.
//
// Robustness contract (the reason this module exists):
//  - Every state transition is written ahead to an append-only job
//    journal (util/journal.h: framed, digest-verified, fsync'd records)
//    BEFORE it takes effect, so a coordinator crash at any instant
//    loses at most the work since the last durable checkpoint.
//  - Scans are checkpointed per row-chunk: a pageable query runs as a
//    sequence of LIMIT/OFFSET sub-queries (the embedded engines are
//    deterministic, so a resume sees the same rows in the same order —
//    the same premise the resumable ETL pipeline rests on), each
//    completed chunk is appended to a digest-verified stage file
//    (storage/stage_file v2 frames) and then journaled. Non-pageable
//    queries (aggregates, DISTINCT, GROUP BY, ORDER BY, explicit
//    LIMIT/OFFSET) execute single-shot and are chunked at
//    materialization time instead.
//  - Recover() replays the journal on restart: terminal jobs (done /
//    failed / cancelled) stay terminal and done jobs get their scratch
//    tables rebuilt from the stage files; interrupted jobs are
//    re-enqueued and resume at the first missing chunk — zero sub-query
//    work after the last durable checkpoint is repeated. A torn journal
//    tail (crash mid-append) is dropped AND the file is truncated back
//    to the intact prefix before anything appends again — appends are
//    O_APPEND, so records written after an unrepaired tear would be
//    invisible to every later replay. Replay is idempotent.
//  - Transient sub-query failures retry under rpc::RetryPolicy;
//    admission sheds (kResourceExhausted: the cluster has no idle
//    capacity right now) are scheduling waits, not failures — the job
//    backs off (honouring the shed's retry-after hint) and tries again
//    until capacity frees up or it is cancelled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "griddb/core/data_access_service.h"
#include "griddb/engine/database.h"
#include "griddb/rpc/server.h"
#include "griddb/util/cancellation.h"
#include "griddb/util/journal.h"
#include "griddb/util/status.h"

namespace griddb::core {

struct BatchConfig {
  /// Directory holding the job journal and per-job stage files. Empty =
  /// batch service disabled (the seed behaviour: submit RPCs fail with
  /// kUnavailable and no threads or files are created).
  std::string journal_dir;
  /// Rows per checkpointed chunk: the unit of durable progress. Smaller
  /// chunks lose less work to a crash but journal more often.
  size_t chunk_rows = 512;
  /// Max rows one dataaccess.batchFetch page returns.
  size_t fetch_page_rows = 1024;
  /// Background worker threads (= jobs making progress concurrently).
  size_t workers = 2;
  /// Retry behaviour for transient sub-query failures (kUnavailable,
  /// kTimeout, kCorruption). Admission sheds are waited out separately
  /// and do not consume these attempts.
  rpc::RetryPolicy retry = rpc::RetryPolicy::Default();
  /// Real-time backoff (ms) between admission-shed reattempts when the
  /// shed carries no retry-after hint. Batch workers are real threads
  /// below the virtual clock, so these waits are wall-clock.
  double shed_backoff_ms = 2.0;
  /// Real-time backoff (ms) before a job paused by a storage failure
  /// (kIoError: ENOSPC, torn write, unwritable journal) is requeued.
  /// Storage faults park jobs instead of failing them — disks fill and
  /// come back; the work already checkpointed must not be thrown away.
  double io_retry_backoff_ms = 5.0;
  /// Start workers inside the JClarensServer constructor (the production
  /// behaviour: recovered jobs resume with no client traffic). Tests and
  /// embedders that must register source databases first set this false
  /// and call BatchJobManager::Start() once the world is wired.
  bool autostart = true;

  bool enabled() const { return !journal_dir.empty(); }
};

enum class BatchJobState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* BatchJobStateName(BatchJobState state) noexcept;
bool IsTerminal(BatchJobState state) noexcept;

/// Snapshot of one job, as served by dataaccess.batchPoll.
struct BatchJobInfo {
  uint64_t id = 0;
  std::string tenant;
  std::string sql;
  BatchJobState state = BatchJobState::kQueued;
  size_t chunks_done = 0;
  /// Total chunk count; 0 while unknown (scan still running).
  size_t total_chunks = 0;
  bool total_known = false;
  size_t rows = 0;           ///< Rows durably checkpointed so far.
  std::string error;         ///< Failure reason (kFailed).
  std::string scratch_mart;  ///< Tenant scratch database name.
  std::string result_table;  ///< Logical result table ("batch_<id>").
  bool recovered = false;    ///< Resumed by Recover() after a restart.
  /// Times the job was parked back to queued by a storage failure
  /// (kIoError) instead of being failed. Never causes kFailed: storage
  /// faults are ridden out, not surfaced to the submitter.
  size_t io_pauses = 0;
};

class BatchJobManager {
 public:
  /// `service` executes sub-queries and hosts scratch-mart registration;
  /// `catalog` is the grid-wide connection-string catalog the scratch
  /// databases are added to. Neither is owned. Call Recover() (replays
  /// the journal) then Start() (spawns workers) after construction.
  BatchJobManager(DataAccessService* service, ral::DatabaseCatalog* catalog,
                  BatchConfig config);
  ~BatchJobManager();

  BatchJobManager(const BatchJobManager&) = delete;
  BatchJobManager& operator=(const BatchJobManager&) = delete;

  /// Replays the job journal: rebuilds job state, restores done jobs'
  /// scratch tables from their digest-verified stage files, re-enqueues
  /// interrupted jobs at their last durable checkpoint. Idempotent —
  /// replaying an already-recovered journal changes nothing. A torn
  /// tail record (crash mid-append) is dropped, not an error.
  Status Recover();

  /// Spawns the worker threads. No-op when already started or disabled.
  void Start();

  /// Stops workers (joins them) promptly: a running scan finishes its
  /// current chunk (or abandons its current shed/retry wait) and the
  /// job returns to queued state — no terminal record is written, so a
  /// later Start() or a restart resumes it from its last durable
  /// checkpoint.
  void Stop();

  // ---- the RPC surface (tenant = the authenticated caller) ----

  /// Journals and enqueues a job; returns its id. The returned id is
  /// durable: once Submit returns, a crash cannot lose the job.
  Result<uint64_t> Submit(const std::string& tenant, const std::string& sql);

  /// Job status. Jobs are visible only to their submitting tenant.
  Result<BatchJobInfo> Poll(const std::string& tenant, uint64_t id) const;

  /// Cancels a queued or running job (durable: journaled before it takes
  /// effect). Terminal states are stable: cancelling a done/failed job
  /// fails with kFailedPrecondition and changes nothing.
  Status Cancel(const std::string& tenant, uint64_t id);

  /// One page of a done job's materialized result (page is 0-based;
  /// config.fetch_page_rows rows per page). The page past the end
  /// returns an empty row set.
  Result<storage::ResultSet> Fetch(const std::string& tenant, uint64_t id,
                                   size_t page);

  /// Blocks until `id` reaches a terminal state (test/bench helper);
  /// false on timeout.
  bool WaitForTerminal(uint64_t id, double timeout_sec);

  const BatchConfig& config() const { return config_; }
  size_t queue_depth() const;

  // ---- crash-injection seam (tests and the CI crash sweep) ----
  //
  // Called at named points of the checkpoint protocol:
  //   "staged"      — chunk appended to the stage file, not yet journaled
  //   "checkpoint"  — checkpoint record journaled
  //   "total"       — total record journaled (scan finished)
  //   "terminal"    — terminal state record journaled
  // A hook that calls SimulateCrash() freezes the manager exactly as a
  // process kill would: no further journal or stage writes happen, and
  // workers abandon their jobs. The on-disk state is then whatever the
  // crash left — the input Recover() must handle.
  using CrashHook = std::function<void(const char* point, uint64_t job_id,
                                       size_t chunk)>;
  void set_crash_hook(CrashHook hook);
  /// Every crash-point name CrashPoint() can fire, sorted. The single
  /// registry chaos schedules, the GRIDDB_CRASH_POINT sweep and the
  /// dataaccess.crashPoints debug RPC enumerate — so schedules and docs
  /// cannot drift from the code (CrashPoint asserts membership).
  static const std::vector<std::string>& CrashPointNames();
  void SimulateCrash() { crashed_.store(true, std::memory_order_release); }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

 private:
  struct Job {
    BatchJobInfo info;
    size_t chunk_rows = 0;         ///< Chunk size journaled at submit.
    CancelToken cancel = CancelToken::Cancellable();
    /// The queries the current run issued, end to end: the clock their
    /// spans and the run's batch.job span read.
    net::Cost ledger;
    /// Checkpoint digests by chunk id (journal truth; stage frames are
    /// verified against these on resume).
    std::map<size_t, std::string> chunk_md5;
    std::map<size_t, size_t> chunk_row_counts;
  };

  // Journal append helpers (all no-ops returning kUnavailable once
  // SimulateCrash() fired, so a "dead" manager cannot touch disk).
  Status JournalAppend(const std::string& payload);
  Status JournalSubmit(const Job& job);
  Status JournalCheckpoint(uint64_t id, size_t chunk, size_t rows,
                           const std::string& md5);
  Status JournalTotal(uint64_t id, size_t chunks, size_t rows);
  Status JournalTerminal(uint64_t id, BatchJobState state,
                         const std::string& error);

  void WorkerLoop();
  /// Runs (or resumes) one job end to end; owns its state transitions.
  void RunJob(uint64_t id);
  /// The checkpointed scan: pages for pageable statements, single-shot +
  /// chunked materialization otherwise. Returns the terminal status.
  Status RunScan(Job& job);
  /// One sub-query through the service at batch priority, waiting out
  /// admission sheds and retrying transient failures per config.retry.
  Result<storage::ResultSet> RunSubQuery(Job& job, const std::string& sql);
  /// Wall-clock wait of `ms` used by RunSubQuery's backoff loops,
  /// interruptible by Stop(), SimulateCrash() and job cancellation so
  /// shutdown never sits out a full backoff (or a perpetual shed loop).
  void InterruptibleWait(Job& job, double ms);
  /// Non-blocking stop probe for scan/wait loops.
  bool stop_requested() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Ensures the tenant's scratch database exists, is in the catalog and
  /// is registered with the service (+ RBAC mart grant when configured).
  Result<engine::Database*> EnsureScratchMart(const std::string& tenant);
  /// Loads every journaled chunk of `job`'s stage file into its scratch
  /// result table, verifying frame digests against the journal. Returns
  /// the first chunk id NOT restored (= where the scan resumes).
  Result<size_t> MaterializeCheckpointed(Job& job, engine::Database* db);
  /// Publishes the finished result table into the service dictionary.
  Status PublishResultTable(Job& job);

  std::string StagePath(uint64_t id) const;
  std::string ScratchMartName(const std::string& tenant) const;

  void CrashPoint(const char* point, uint64_t job_id, size_t chunk);

  DataAccessService* service_;
  ral::DatabaseCatalog* catalog_;
  const BatchConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;      ///< Wakes workers (queue/stop).
  mutable std::condition_variable done_cv_;  ///< Wakes WaitForTerminal.
  std::map<uint64_t, Job> jobs_;
  std::deque<uint64_t> queue_;
  uint64_t next_id_ = 1;
  bool started_ = false;
  /// Atomic so scan loops probe it between chunks without taking mu_;
  /// writes still happen under mu_ (it gates the worker cv predicate).
  std::atomic<bool> stopping_{false};
  /// Serializes journal appends (JournalWriter is not internally
  /// synchronized; checkpoint appends run outside mu_). Lock order is
  /// always mu_ → journal_mu_, never the reverse.
  std::mutex journal_mu_;
  util::JournalWriter journal_;
  /// Scratch databases by mart name (owned; catalog/service hold raw
  /// pointers, so these live as long as the manager).
  std::map<std::string, std::unique_ptr<engine::Database>> scratch_;

  std::vector<std::thread> workers_;
  std::atomic<bool> crashed_{false};
  CrashHook crash_hook_;  // written before Start(); read by workers
};

}  // namespace griddb::core
