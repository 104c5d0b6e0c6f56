// Federation benchmark: one seeded workload against a two-server GridDB
// federation, timed end to end through the client RPC surface, or (with
// --trace 1) broken down by layer.
//
//   fedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The federation is the paper's §5.2 testbed at a smaller scale: two
// JClarens servers on a 100 Mbps LAN, six marts (three MySQL, three
// MS-SQL) split across them, and a central RLS. The seed generates the
// table contents and the query literals; the program only sees the
// generated tables and SQL text. One client on its own host sends
// queries to server A in a closed loop (next query after the previous
// reply). Every reply is checked against a single reference engine that
// holds every table: the paper's transparency claim is that the
// federation answers exactly as one database would.
//
// Workloads (all run with the query cache on, as an operator would):
//   local_join  cross-database joins and GROUP BY aggregates over the
//               three marts on server A; every query text is new, so the
//               result and plan caches always miss.
//   local_scan  row-heavy range scans and a top-K over one mart on A (the
//               paper's Fig 6 shape: about 150 to 1,500 rows per reply);
//               every query text is new.
//   remote_rls  tables that live on server B, found through the RLS and
//               fetched over the binary server-to-server wire, plus mixed
//               A/B joins; every query text is new.
//   cache_hit   a pool of 25 queries over both servers, repeated, so the
//               result cache answers after the first pass.
//
// Set-up (timed as setup_s) loads the marts, starts the servers and
// registers every mart; it runs eleven times and the median is reported.
//
// With --trace 0 the run reports the end-to-end metrics: median and p90
// client latency, throughput and setup time; each timing is taken in ten
// consecutive windows of the run and the median window is reported. With
// --trace 1 every query is also replayed through the layers one at a time
// from this file (parse, fingerprint, plan, engine, XML-RPC and binary
// codecs), each call wrapped in a span; the run reports each layer's mean
// time per query and the program's per-query counters.
//
// The last line of stdout is one JSON object:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "griddb/core/jclarens_server.h"
#include "griddb/engine/database.h"
#include "griddb/obs/metrics.h"
#include "griddb/rls/rls.h"
#include "griddb/rpc/wire.h"
#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/sql/dialect.h"
#include "griddb/sql/fingerprint.h"
#include "griddb/sql/parser.h"

using namespace griddb;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "fedbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---- seeded inputs ----------------------------------------------------

/// Seeded draws built on std::mt19937_64 only, so the inputs depend on
/// the seed and not on the library's own generators.
class Draw {
 public:
  explicit Draw(uint64_t seed) : engine_(seed) {}

  double Unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Unit(); }
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(engine_() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  double Exponential(double mean) { return -mean * std::log1p(-Unit()); }
  double Gaussian(double mean, double sd) {
    const double u = 1.0 - Unit();  // (0, 1]
    return mean + sd * std::sqrt(-2.0 * std::log(u)) *
                      std::cos(2.0 * 3.14159265358979323846 * Unit());
  }

 private:
  std::mt19937_64 engine_;
};

struct MartSpec {
  const char* name;
  sql::Vendor vendor;
  const char* host;
};

const MartSpec kMarts[6] = {
    {"my_a1", sql::Vendor::kMySql, "site-a"},
    {"my_a2", sql::Vendor::kMySql, "site-a"},
    {"ms_a1", sql::Vendor::kMsSql, "site-a"},
    {"my_b1", sql::Vendor::kMySql, "site-b"},
    {"ms_b1", sql::Vendor::kMsSql, "site-b"},
    {"ms_b2", sql::Vendor::kMsSql, "site-b"},
};
constexpr const char* kServerAUrl = "clarens://site-a:8080/clarens";
constexpr const char* kServerBUrl = "clarens://site-b:8080/clarens";
constexpr const char* kRlsUrl = "rls://rls-host:39281/rls";

constexpr size_t kEventsPerMart = 8000;
constexpr int kChunksPerMart = 280;
constexpr int kChunkRows = 16;
constexpr int kRuns = 8;
const char* kDetectors[4] = {"ECAL", "HCAL", "TRACKER", "MUON_CH"};

std::string ConnectionString(const MartSpec& mart) {
  return std::string(sql::VendorName(mart.vendor)) + "://" + mart.host + "/" +
         mart.name;
}

struct TableInput {
  size_t mart;
  storage::TableSchema schema;
  std::vector<storage::Row> rows;
};

/// Every mart holds an event table ntuple_<mart> (physics-like columns as
/// in the paper's HEP ntuples) and kChunksPerMart small calibration tables
/// chunk_<mart>_<i>; ms_a1 and ms_b1 also hold the runs dimension
/// (runs_a, runs_b), so same-host cross-vendor joins exist on both sites.
std::vector<TableInput> MakeInputs(uint64_t seed) {
  using storage::DataType;
  using storage::Row;
  using storage::Value;
  Draw draw(seed);
  std::vector<TableInput> tables;
  int64_t next_event = 1;
  for (size_t m = 0; m < 6; ++m) {
    const std::string mart = kMarts[m].name;
    TableInput events{
        m,
        storage::TableSchema(
            "ntuple_" + mart,
            {{"event_id", DataType::kInt64, true, true},
             {"run_id", DataType::kInt64, true, false},
             {"e_total", DataType::kDouble, false, false},
             {"pt", DataType::kDouble, false, false},
             {"eta", DataType::kDouble, false, false},
             {"phi", DataType::kDouble, false, false},
             {"nhits", DataType::kInt64, false, false},
             {"chi2", DataType::kDouble, false, false},
             {"mass", DataType::kDouble, false, false}}),
        {}};
    events.rows.reserve(kEventsPerMart);
    for (size_t e = 0; e < kEventsPerMart; ++e) {
      const double pt = draw.Exponential(18.0);
      const double eta = draw.Gaussian(0.0, 1.6);
      Row row;
      row.push_back(Value(next_event++));
      row.push_back(Value(draw.Int(1, kRuns)));
      row.push_back(Value(pt * std::cosh(eta) + draw.Exponential(2.0)));
      row.push_back(Value(pt));
      row.push_back(Value(eta));
      row.push_back(Value(draw.Uniform(-3.14159, 3.14159)));
      row.push_back(Value(draw.Int(4, 48)));
      row.push_back(Value(draw.Exponential(1.0)));
      row.push_back(Value(std::fabs(draw.Gaussian(91.0, 6.0))));
      events.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(events));

    if (m == 2 || m == 4) {
      TableInput runs{m,
                      storage::TableSchema(
                          m == 2 ? "runs_a" : "runs_b",
                          {{"run_id", DataType::kInt64, true, true},
                           {"detector", DataType::kString, true, false}}),
                      {}};
      for (int r = 1; r <= kRuns; ++r) {
        runs.rows.push_back(
            {Value(static_cast<int64_t>(r)), Value(kDetectors[r % 4])});
      }
      tables.push_back(std::move(runs));
    }

    for (int c = 0; c < kChunksPerMart; ++c) {
      TableInput chunk{
          m,
          storage::TableSchema(
              "chunk_" + mart + "_" + std::to_string(c),
              {{"id", DataType::kInt64, true, true},
               {"value", DataType::kDouble, false, false}}),
          {}};
      for (int r = 0; r < kChunkRows; ++r) {
        chunk.rows.push_back({Value(static_cast<int64_t>(r)),
                              Value(draw.Gaussian(0.0, 1.0))});
      }
      tables.push_back(std::move(chunk));
    }
  }
  return tables;
}

// ---- the federation under test ----------------------------------------

/// Declaration order is teardown order reversed: the client and servers
/// (whose worker threads reach the marts) go before the marts and the
/// network they use.
struct Federation {
  net::Network network;
  rpc::Transport transport{&network, net::ServiceCosts::Default()};
  ral::DatabaseCatalog catalog;
  std::vector<std::unique_ptr<engine::Database>> marts;
  std::unique_ptr<rls::RlsServer> rls;
  std::unique_ptr<core::JClarensServer> server_a;
  std::unique_ptr<core::JClarensServer> server_b;
  std::unique_ptr<rpc::RpcClient> client;
};

std::unique_ptr<Federation> BuildFederation(
    const std::vector<TableInput>& inputs) {
  auto fed = std::make_unique<Federation>();
  for (const char* host : {"site-a", "site-b", "rls-host", "client"}) {
    fed->network.AddHost(host);
  }
  fed->network.SetDefaultLink(net::LinkSpec::Lan100Mbps());
  fed->rls = std::make_unique<rls::RlsServer>(kRlsUrl, &fed->transport);

  for (const MartSpec& spec : kMarts) {
    fed->marts.push_back(
        std::make_unique<engine::Database>(spec.name, spec.vendor));
  }
  for (const TableInput& table : inputs) {
    engine::Database& db = *fed->marts[table.mart];
    Check(db.CreateTable(table.schema), "create " + table.schema.name());
    Check(db.InsertRows(table.schema.name(), table.rows),
          "load " + table.schema.name());
  }
  for (size_t m = 0; m < 6; ++m) {
    Check(fed->catalog.Add({ConnectionString(kMarts[m]), fed->marts[m].get(),
                            kMarts[m].host, "", ""}),
          "catalog");
  }

  auto make_server = [&](const char* name, const char* host,
                         const char* url) {
    core::DataAccessConfig config;
    config.server_name = name;
    config.host = host;
    config.server_url = url;
    config.rls_url = kRlsUrl;
    config.query_cache = true;
    config.wire_protocol = "binary";
    return std::make_unique<core::JClarensServer>(config, &fed->catalog,
                                                  &fed->transport);
  };
  fed->server_a = make_server("jclarens-a", "site-a", kServerAUrl);
  fed->server_b = make_server("jclarens-b", "site-b", kServerBUrl);
  for (const MartSpec& spec : kMarts) {
    core::JClarensServer& server = std::strcmp(spec.host, "site-a") == 0
                                       ? *fed->server_a
                                       : *fed->server_b;
    Check(server.service().RegisterLiveDatabase(ConnectionString(spec), ""),
          std::string("register ") + spec.name);
  }

  // The client hop speaks plain XML-RPC, the protocol of the paper and
  // the default of every client that does not opt in.
  fed->client =
      std::make_unique<rpc::RpcClient>(&fed->transport, "client", kServerAUrl);
  fed->client->set_wire_preference(0);
  Check(fed->client->Connect(nullptr), "client connect");
  return fed;
}

// ---- queries -----------------------------------------------------------

enum class Workload { kLocalJoin, kLocalScan, kRemoteRls, kCacheHit };

struct Query {
  std::string sql;
  int home;        ///< Server whose marts hold every table (0 = A, 1 = B),
                   ///< or -1 when the tables span both servers.
  int pool_slot;   ///< Index in the repeated pool, or -1 for a fresh query.
};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string Chunk(const char* mart, Draw& draw) {
  return std::string("chunk_") + mart + "_" +
         std::to_string(draw.Int(0, kChunksPerMart - 1));
}

/// Query `k` of a workload's stream. Shapes rotate with k, so every run
/// has the same mix; the seed only moves tables and literals. Each
/// workload has an odd number of shapes with distinct costs, so the median
/// and p90 fall inside one shape's spread rather than in a gap between
/// two. Range literals are stratified: the i-th query of a shape draws
/// from the (i mod 16)-th sixteenth of the range, so every run sweeps the
/// range evenly and reply sizes follow the same distribution on every
/// seed.
Query MakeQuery(Workload workload, size_t k, Draw& draw) {
  constexpr size_t kStrata = 16;
  const size_t shapes = workload == Workload::kLocalJoin ||
                                workload == Workload::kLocalScan
                            ? 3
                            : 5;
  const size_t shape = k % shapes;
  const double stratum = static_cast<double>((k / shapes) % kStrata);
  auto in = [&](double lo, double hi) {
    return lo + (hi - lo) * (stratum + draw.Unit()) / kStrata;
  };
  switch (workload) {
    case Workload::kLocalJoin:
      switch (shape) {
        case 0:
          return {"SELECT a.id, a.value, b.value FROM " +
                      Chunk("my_a1", draw) + " a JOIN " +
                      Chunk("ms_a1", draw) +
                      " b ON a.id = b.id WHERE b.value > " +
                      Num(in(-1.5, 0.5)),
                  0, -1};
        case 1:
          return {"SELECT a.id, a.value, b.value, c.value FROM " +
                      Chunk("my_a1", draw) + " a JOIN " +
                      Chunk("my_a2", draw) + " b ON a.id = b.id JOIN " +
                      Chunk("ms_a1", draw) +
                      " c ON b.id = c.id WHERE c.value < " +
                      Num(in(-0.5, 1.5)),
                  0, -1};
        default:
          return {"SELECT r.detector, COUNT(*) AS n, AVG(e.pt) AS avg_pt "
                  "FROM ntuple_my_a1 e JOIN runs_a r ON e.run_id = r.run_id "
                  "WHERE e.eta > " +
                      Num(in(-1.0, 3.0)) + " GROUP BY r.detector",
                  0, -1};
      }
    case Workload::kLocalScan:
      switch (shape) {
        case 0:
          return {"SELECT event_id, run_id, pt, eta, phi FROM ntuple_my_a2 "
                  "WHERE pt > " +
                      Num(in(30.0, 70.0)),
                  0, -1};
        case 1: {
          const double lo = in(84.0, 96.0);
          return {"SELECT event_id, e_total, mass, chi2 FROM ntuple_ms_a1 "
                  "WHERE mass BETWEEN " +
                      Num(lo) + " AND " + Num(lo + 2.0),
                  0, -1};
        }
        default:
          return {"SELECT event_id, pt, nhits FROM ntuple_my_a1 WHERE eta > " +
                      Num(in(-2.0, 2.0)) +
                      " ORDER BY pt DESC, event_id LIMIT 50",
                  0, -1};
      }
    case Workload::kRemoteRls:
      switch (shape) {
        case 0:
          return {"SELECT id, value FROM " + Chunk("my_b1", draw) +
                      " WHERE value > " + Num(in(-1.5, 0.5)),
                  1, -1};
        case 1:
          return {"SELECT a.id, a.value, b.value FROM " +
                      Chunk("my_a1", draw) + " a JOIN " +
                      Chunk("ms_b2", draw) +
                      " b ON a.id = b.id WHERE a.value > " +
                      Num(in(-1.5, 0.5)),
                  -1, -1};
        case 2:
          return {"SELECT event_id, pt, eta FROM ntuple_my_b1 WHERE pt > " +
                      Num(in(20.0, 60.0)),
                  1, -1};
        case 3:
          return {"SELECT r.detector, COUNT(*) AS n, MAX(e.nhits) AS max_hits "
                  "FROM ntuple_ms_b1 e JOIN runs_b r ON e.run_id = r.run_id "
                  "WHERE e.chi2 < " +
                      Num(in(0.2, 3.0)) + " GROUP BY r.detector",
                  1, -1};
        default:
          return {"SELECT event_id, pt FROM ntuple_ms_b2 WHERE eta > " +
                      Num(in(-2.0, 2.0)) +
                      " ORDER BY pt DESC, event_id LIMIT 25",
                  1, -1};
      }
    case Workload::kCacheHit:
      // Pool entries have seed-independent reply sizes (48, 32, 12, 8 and
      // 100 cells), so the mix of reply sizes is the same on every seed.
      switch (shape) {
        case 0:
          return {"SELECT a.id, a.value, b.value FROM " +
                      Chunk("my_a1", draw) + " a JOIN " +
                      Chunk("ms_a1", draw) + " b ON a.id = b.id",
                  0, -1};
        case 1:
          return {"SELECT id, value FROM " + Chunk("my_b1", draw), 1, -1};
        case 2:
          return {"SELECT r.detector, COUNT(*) AS n, AVG(e.pt) AS avg_pt "
                  "FROM ntuple_my_a1 e JOIN runs_a r ON e.run_id = r.run_id "
                  "WHERE e.nhits > " +
                      std::to_string(draw.Int(4, 40)) +
                      " GROUP BY r.detector",
                  0, -1};
        case 3:
          return {"SELECT r.detector, COUNT(*) AS n "
                  "FROM ntuple_ms_b1 e JOIN runs_b r ON e.run_id = r.run_id "
                  "WHERE e.nhits > " +
                      std::to_string(draw.Int(4, 40)) +
                      " GROUP BY r.detector",
                  1, -1};
        default:
          return {"SELECT event_id, pt FROM ntuple_ms_b2 WHERE eta > " +
                      Num(in(-2.0, 2.0)) +
                      " ORDER BY pt DESC, event_id LIMIT 50",
                  1, -1};
      }
  }
  Die("unknown workload");
}

/// The closed-loop query sequence of one run. Miss workloads never repeat
/// a text (a repeat is redrawn), so every query misses the caches; the
/// hit workload cycles through a fixed pool.
class QueryStream {
 public:
  static constexpr size_t kPoolSize = 25;

  QueryStream(Workload workload, uint64_t seed)
      : workload_(workload), draw_(seed ^ 0x9e3779b97f4a7c15ull) {
    if (workload_ == Workload::kCacheHit) {
      for (size_t k = 0; k < kPoolSize; ++k) {
        Query q = Fresh(k);
        q.pool_slot = static_cast<int>(k);
        pool_.push_back(std::move(q));
      }
    }
  }

  const std::vector<Query>& pool() const { return pool_; }

  Query Next() {
    const size_t k = count_++;
    if (!pool_.empty()) return pool_[k % pool_.size()];
    return Fresh(k);
  }

 private:
  Query Fresh(size_t k) {
    for (;;) {
      Query q = MakeQuery(workload_, k, draw_);
      if (seen_.insert(q.sql).second) return q;
    }
  }

  Workload workload_;
  Draw draw_;
  size_t count_ = 0;
  std::vector<Query> pool_;
  std::unordered_set<std::string> seen_;
};

// ---- correctness -------------------------------------------------------

void SortRows(storage::ResultSet& rs) {
  std::sort(rs.rows.begin(), rs.rows.end(),
            [](const storage::Row& a, const storage::Row& b) {
              for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
                const int cmp = a[i].Compare(b[i]);
                if (cmp != 0) return cmp < 0;
              }
              return a.size() < b.size();
            });
}

/// Same cells as the reference; doubles within a relative 1e-9 (partial
/// aggregates merge in a different order than one engine sums them).
/// Row order is compared only when the query orders.
bool SameResult(storage::ResultSet expected, storage::ResultSet actual,
                bool ordered) {
  if (expected.num_columns() != actual.num_columns() ||
      expected.num_rows() != actual.num_rows()) {
    return false;
  }
  if (!ordered) {
    SortRows(expected);
    SortRows(actual);
  }
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    if (expected.rows[r].size() != actual.rows[r].size()) return false;
    for (size_t c = 0; c < expected.rows[r].size(); ++c) {
      const storage::Value& e = expected.rows[r][c];
      const storage::Value& a = actual.rows[r][c];
      if (e.is_null() != a.is_null()) return false;
      if (e.is_null()) continue;
      if (e.type() == storage::DataType::kDouble ||
          a.type() == storage::DataType::kDouble) {
        auto ed = e.AsDouble();
        auto ad = a.AsDouble();
        if (!ed.ok() || !ad.ok()) return false;
        if (std::fabs(*ed - *ad) > 1e-9 * std::max(1.0, std::fabs(*ed))) {
          return false;
        }
      } else if (e.Compare(a) != 0) {
        return false;
      }
    }
  }
  return true;
}

// ---- per-layer spans ---------------------------------------------------

/// Spans recorded around the calls this file makes into each layer. One
/// root span per query; its children are the layer calls. Kept in memory
/// and summarized when the run ends.
class SpanLog {
 public:
  int Open(const char* name, int parent) {
    spans_.push_back({name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size() - 1);
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end = Clock::now(); }

  /// Total microseconds and span count per name.
  std::map<std::string, std::pair<double, size_t>> Totals() const {
    std::map<std::string, std::pair<double, size_t>> totals;
    for (const SpanRec& span : spans_) {
      auto& [us, n] = totals[span.name];
      us += std::chrono::duration<double, std::micro>(span.end - span.start)
                .count();
      ++n;
    }
    return totals;
  }

 private:
  struct SpanRec {
    const char* name;
    int parent;  ///< -1 for a query's root span.
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<SpanRec> spans_;
};

/// RAII span over one layer call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, int parent)
      : log_(log), id_(log.Open(name, parent)) {}
  ~Scope() { log_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Replays one answered query through the layers it crossed, one call per
/// span: parse and fingerprint (the server's front end), plan (on the
/// server that holds every table), the engine (on the reference), and the
/// XML-RPC and binary codecs over the reply. Returns the binary size of
/// the reply relative to its XML-RPC size.
double ProbeLayers(SpanLog& log, int root, Federation& fed,
                   engine::Database& reference, const Query& query,
                   const storage::ResultSet& reply) {
  std::unique_ptr<sql::SelectStmt> stmt;
  {
    Scope span(log, "sql.parse", root);
    auto parsed =
        sql::ParseSelect(query.sql, sql::Dialect::For(sql::Vendor::kSqlite));
    if (!parsed.ok()) Die("parse: " + parsed.status().ToString());
    stmt = std::move(*parsed);
  }
  {
    Scope span(log, "cache.fingerprint", root);
    if (sql::FingerprintSelect(*stmt).empty()) Die("empty fingerprint");
  }
  if (query.home >= 0) {
    core::JClarensServer& server =
        query.home == 0 ? *fed.server_a : *fed.server_b;
    Scope span(log, "unity.plan", root);
    auto plan = server.service().driver().Plan(*stmt);
    if (!plan.ok()) Die("plan: " + plan.status().ToString());
  }
  {
    Scope span(log, "engine.execute", root);
    auto rs = reference.Execute(query.sql);
    if (!rs.ok()) Die("engine: " + rs.status().ToString());
  }

  rpc::XmlRpcStruct envelope;
  envelope["result"] = rpc::ResultSetToRpc(reply);
  const rpc::XmlRpcValue value(std::move(envelope));
  std::string xml;
  {
    Scope span(log, "wire.xml.encode", root);
    xml = rpc::EncodeResponse(value);
  }
  {
    Scope span(log, "wire.xml.decode", root);
    auto decoded = rpc::DecodeResponse(xml);
    if (!decoded.ok()) Die("xml decode: " + decoded.status().ToString());
    auto member = decoded->Member("result");
    if (!member.ok() || !rpc::RpcToResultSet(**member).ok()) {
      Die("xml decode: no result");
    }
  }
  std::string binary;
  {
    Scope span(log, "wire.binary.encode", root);
    binary = rpc::wire::EncodeBinaryResponse(value, rpc::wire::kAllCaps,
                                             1024, xml.size());
  }
  {
    Scope span(log, "wire.binary.decode", root);
    auto ranges = rpc::wire::SplitFrames(binary);
    if (!ranges.ok()) Die("binary split: " + ranges.status().ToString());
    rpc::wire::ResponseDecoder decoder;
    std::vector<storage::Row> rows;
    for (const auto& [offset, length] : *ranges) {
      auto frame = rpc::wire::ParseFrame(
          std::string_view(binary).substr(offset, length));
      if (!frame.ok()) Die("binary frame: " + frame.status().ToString());
      storage::ResultSet chunk;
      bool is_chunk = false;
      Check(decoder.Consume(std::move(*frame), &chunk, &is_chunk),
            "binary consume");
      if (is_chunk) {
        rows.insert(rows.end(), std::make_move_iterator(chunk.rows.begin()),
                    std::make_move_iterator(chunk.rows.end()));
      }
    }
    auto decoded = decoder.Finish(true, std::move(rows));
    if (!decoded.ok()) Die("binary finish: " + decoded.status().ToString());
    auto member = decoded->Member("result");
    if (!member.ok() || !rpc::RpcToResultSet(**member).ok()) {
      Die("binary decode: no result");
    }
  }
  return static_cast<double>(binary.size()) / static_cast<double>(xml.size());
}

// ---- the measured loop ---------------------------------------------------

struct Counters {
  double rows = 0;
  double subqueries = 0;
  double servers = 0;
  double result_cache_hits = 0;
  double response_bytes = 0;
  double simulated_ms = 0;
  double binary_ratio = 0;
};

struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatched = 0;
  std::vector<double> latency_ms;
  Counters sums;
};

/// One query through the client: the timed part is the call and turning
/// its reply into rows, which is what a user waits for.
struct Answer {
  bool ok = false;
  double ms = 0;
  storage::ResultSet rows;
  core::QueryStats stats;
  rpc::CallStats call;
  double simulated_ms = 0;
};

Answer Ask(rpc::RpcClient& client, const std::string& sql) {
  Answer answer;
  rpc::XmlRpcArray params;
  params.emplace_back(sql);
  net::Cost cost;
  const Clock::time_point start = Clock::now();
  auto response = client.Call("dataaccess.query", std::move(params), &cost, 0,
                              "", &answer.call);
  if (!response.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n", sql.c_str(),
                 response.status().ToString().c_str());
    return answer;
  }
  auto result = response->Member("result");
  if (!result.ok()) return answer;
  auto rows = rpc::RpcToResultSet(**result);
  answer.ms = MsSince(start);
  if (!rows.ok()) return answer;
  answer.rows = std::move(*rows);
  if (auto stats = response->Member("stats"); stats.ok()) {
    answer.stats = core::StatsFromRpc(**stats);
  }
  answer.simulated_ms = cost.total_ms();
  answer.ok = true;
  return answer;
}

class Runner {
 public:
  Runner(Federation& fed, engine::Database& reference, QueryStream& stream)
      : fed_(fed), reference_(reference), stream_(stream) {
    for (const Query& q : stream_.pool()) pool_expected_.push_back(Expect(q));
  }

  /// Runs queries until `seconds` of wall time pass, checking each reply.
  /// With `log`, each query is also replayed layer by layer under spans.
  RunResult Run(double seconds, SpanLog* log) {
    RunResult run;
    const Clock::time_point start = Clock::now();
    while (MsSince(start) < seconds * 1000.0) {
      const Query query = stream_.Next();
      ++run.attempted;
      int root = -1;
      if (log != nullptr) root = log->Open("query", -1);
      Answer answer;
      {
        std::optional<Scope> span;
        if (log != nullptr) span.emplace(*log, "client.call", root);
        answer = Ask(*fed_.client, query.sql);
      }
      if (!answer.ok) {
        ++run.failed;
        if (log != nullptr) log->Close(root);
        continue;
      }
      run.latency_ms.push_back(answer.ms);
      Counters& s = run.sums;
      s.rows += static_cast<double>(answer.rows.num_rows());
      s.subqueries += static_cast<double>(answer.stats.pool_ral_subqueries +
                                          answer.stats.jdbc_subqueries);
      s.servers += static_cast<double>(answer.stats.servers_contacted);
      s.result_cache_hits +=
          static_cast<double>(answer.stats.result_cache_hits);
      s.response_bytes += static_cast<double>(answer.call.response_bytes);
      s.simulated_ms += answer.simulated_ms;
      if (log != nullptr) {
        s.binary_ratio +=
            ProbeLayers(*log, root, fed_, reference_, query, answer.rows);
        log->Close(root);
      }
      storage::ResultSet fresh;
      if (query.pool_slot < 0) fresh = Expect(query);
      const storage::ResultSet& expected =
          query.pool_slot >= 0
              ? pool_expected_[static_cast<size_t>(query.pool_slot)]
              : fresh;
      const bool ordered = query.sql.find("ORDER BY") != std::string::npos;
      if (!SameResult(expected, std::move(answer.rows), ordered)) {
        ++run.mismatched;
        std::fprintf(stderr, "wrong result: %s\n", query.sql.c_str());
      }
    }
    return run;
  }

 private:
  storage::ResultSet Expect(const Query& query) {
    auto rs = reference_.Execute(query.sql);
    if (!rs.ok()) {
      Die("reference: " + query.sql + ": " + rs.status().ToString());
    }
    return std::move(*rs);
  }

  Federation& fed_;
  engine::Database& reference_;
  QueryStream& stream_;
  std::vector<storage::ResultSet> pool_expected_;
};

// ---- reporting -----------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Statistic of a run's latencies, taken per window and then the median
/// across windows. The windows are kWindows consecutive, equal slices of
/// the run, so a burst of interference shorter than half the run (a busy
/// neighbour on a shared host) moves a few windows and not the result.
constexpr size_t kWindows = 10;

template <typename Stat>
double MedianOverWindows(const std::vector<double>& latency_ms, Stat stat) {
  const size_t per_window = latency_ms.size() / kWindows;
  if (per_window == 0) return stat(latency_ms);
  std::vector<double> values;
  for (size_t w = 0; w < kWindows; ++w) {
    const auto first = latency_ms.begin() +
                       static_cast<std::ptrdiff_t>(w * per_window);
    values.push_back(stat(std::vector<double>(
        first, first + static_cast<std::ptrdiff_t>(per_window))));
  }
  return Quantile(values, 0.5);
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

uint64_t CounterValue(const obs::MetricsSnapshot& snap, const char* name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

struct Args {
  Workload workload = Workload::kLocalJoin;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      have_workload = true;
      if (value == "local_join") {
        args.workload = Workload::kLocalJoin;
      } else if (value == "local_scan") {
        args.workload = Workload::kLocalScan;
      } else if (value == "remote_rls") {
        args.workload = Workload::kRemoteRls;
      } else if (value == "cache_hit") {
        args.workload = Workload::kCacheHit;
      } else {
        Die("unknown workload '" + value + "'");
      }
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      Die("unknown argument '" + key + "'");
    }
  }
  if (!have_workload || args.seconds <= 0) {
    Die("usage: fedbench --workload <local_join|local_scan|remote_rls|"
        "cache_hit> --seed <n> --seconds <s> --trace <0|1>");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<TableInput> inputs = MakeInputs(args.seed);

  // Set-up, kSetups times; the last federation serves the run.
  constexpr int kSetups = 11;
  std::vector<double> setup_s;
  std::unique_ptr<Federation> fed;
  for (int i = 0; i < kSetups; ++i) {
    fed.reset();
    const Clock::time_point start = Clock::now();
    fed = BuildFederation(inputs);
    setup_s.push_back(MsSince(start) / 1000.0);
  }

  engine::Database reference("reference", sql::Vendor::kSqlite);
  for (const TableInput& table : inputs) {
    Check(reference.CreateTable(table.schema), "reference create");
    Check(reference.InsertRows(table.schema.name(), table.rows),
          "reference load");
  }

  QueryStream stream(args.workload, args.seed);
  Runner runner(*fed, reference, stream);
  // One second of warm-up: per-mart connections, the RLS path, the
  // allocator and (for cache_hit) the pool's first pass; checked but not
  // reported.
  RunResult warm = runner.Run(1.0, nullptr);

  SpanLog log;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::MetricsSnapshot before = registry.Snapshot();
  RunResult run = runner.Run(args.seconds, args.trace ? &log : nullptr);
  const obs::MetricsSnapshot after = registry.Snapshot();

  const bool correct = warm.failed == 0 && warm.mismatched == 0 &&
                       run.mismatched == 0 && run.failed == 0 &&
                       !run.latency_ms.empty();
  const double answered = std::max<double>(1, run.latency_ms.size());

  MetricsJson metrics;
  if (!args.trace) {
    auto p50 = [](const std::vector<double>& w) { return Quantile(w, 0.5); };
    auto p90 = [](const std::vector<double>& w) { return Quantile(w, 0.9); };
    // Queries per second of client time: one closed-loop client is busy
    // for exactly the sum of its latencies.
    auto qps = [](const std::vector<double>& w) {
      double busy_ms = 0;
      for (double ms : w) busy_ms += ms;
      return static_cast<double>(w.size()) / (busy_ms / 1000.0);
    };
    metrics.Add("latency_ms", MedianOverWindows(run.latency_ms, p50), "ms");
    metrics.Add("latency_p90_ms", MedianOverWindows(run.latency_ms, p90), "ms");
    metrics.Add("throughput_qps", MedianOverWindows(run.latency_ms, qps),
                "1/s");
    metrics.Add("setup_s", Quantile(setup_s, 0.5), "s");
  } else {
    const auto totals = log.Totals();
    auto mean_us = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() || it->second.second == 0
                 ? 0.0
                 : it->second.first / static_cast<double>(it->second.second);
    };
    metrics.Add("client_call_us", mean_us("client.call"), "us");
    metrics.Add("sql_parse_us", mean_us("sql.parse"), "us");
    metrics.Add("cache_fingerprint_us", mean_us("cache.fingerprint"), "us");
    metrics.Add("unity_plan_us", mean_us("unity.plan"), "us");
    metrics.Add("engine_execute_us", mean_us("engine.execute"), "us");
    metrics.Add("wire_xml_encode_us", mean_us("wire.xml.encode"), "us");
    metrics.Add("wire_xml_decode_us", mean_us("wire.xml.decode"), "us");
    metrics.Add("wire_binary_encode_us", mean_us("wire.binary.encode"), "us");
    metrics.Add("wire_binary_decode_us", mean_us("wire.binary.decode"), "us");
    const Counters& s = run.sums;
    metrics.Add("rows_per_query", s.rows / answered, "rows");
    metrics.Add("subqueries_per_query", s.subqueries / answered, "count");
    metrics.Add("servers_per_query", s.servers / answered, "count");
    metrics.Add("result_cache_hit_ratio", s.result_cache_hits / answered,
                "ratio");
    metrics.Add("response_bytes_per_query", s.response_bytes / answered,
                "bytes");
    metrics.Add("binary_to_xml_bytes", s.binary_ratio / answered, "ratio");
    metrics.Add("simulated_ms_per_query", s.simulated_ms / answered, "sim_ms");
    auto per_query = [&](const char* counter) {
      return static_cast<double>(CounterValue(after, counter) -
                                 CounterValue(before, counter)) /
             answered;
    };
    metrics.Add("rpc_calls_per_query", per_query("griddb.rpc.client.calls"),
                "count");
    metrics.Add("rls_lookups_per_query", per_query("griddb.rls.lookups"),
                "count");
    metrics.Add("engine_batches_per_query", per_query("griddb.engine.batches"),
                "count");
  }

  std::fprintf(stderr,
               "fedbench: %zu queries (%zu failed, %zu wrong), setup %.3f s\n",
               run.attempted, run.failed, run.mismatched,
               Quantile(setup_s, 0.5));
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<size_t>(run.attempted, 1),
              run.failed, metrics.str().c_str());
  std::fflush(stdout);
  return 0;
}
