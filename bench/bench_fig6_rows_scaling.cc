// Figure 6 (paper §5.2): Response time versus number of rows requested.
//
// "Increasing the number of rows from 21 to 2551 only increases the
//  response time from about 300 to 700 ms" — a linear trend whose slope
// is dominated by per-row serialization/shipping, with a large fixed base
// (RLS lookup + remote connect) because the ntuple data is requested
// through the web-service interface from the server that does not host
// it locally.
//
// Exits non-zero when a simulated time drifts more than 0.1 ms from the
// calibrated value recorded in EXPERIMENTS.md.
#include <cmath>
#include <cstdio>

#include "bench/testbed.h"
#include "griddb/util/stopwatch.h"

using namespace griddb;

int main() {
  std::printf("=== Figure 6: response time vs rows requested ===\n");
  std::printf("building testbed...\n");
  auto bed = bench::Testbed::Build();
  std::printf("testbed ready: %zu tables, %zu rows\n\n", bed->total_tables,
              bed->total_rows);

  rpc::RpcClient client(&bed->transport, "client",
                        "clarens://pentium4-a:8080/clarens");
  (void)client.Call("dataaccess.listTables", {}, nullptr);

  // The paper's endpoints: 21 -> ~300 ms, 2551 -> ~700 ms.
  const int row_counts[] = {21, 115, 450, 1024, 1800, 2551};
  // Calibrated simulated ms per row count (EXPERIMENTS.md, Figure 6).
  const double calibrated_ms[] = {270.4, 285.0, 337.2, 426.8, 547.8, 665.0};
  int drifted = 0;
  size_t point = 0;

  std::printf("%-10s %16s %12s %14s\n", "rows", "measured (ms)", "cpu (ms)",
              "paper anchor");
  double first_ms = 0, last_ms = 0;
  for (int n : row_counts) {
    // Ntuple rows from the server-B-hosted table, via server A.
    std::string sql =
        "SELECT event_id, e_total, pt, eta, phi FROM ntuple_my_b1 LIMIT " +
        std::to_string(n);
    net::Cost cost;
    Stopwatch wall;
    rpc::XmlRpcArray params;
    params.emplace_back(sql);
    auto response = client.Call("dataaccess.query", std::move(params), &cost);
    if (!response.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    auto rs = rpc::RpcToResultSet(**response->Member("result"));
    if (!rs.ok() || rs->num_rows() != static_cast<size_t>(n)) {
      std::fprintf(stderr, "unexpected row count\n");
      return 1;
    }
    const char* anchor = n == 21 ? "~300 ms" : (n == 2551 ? "~700 ms" : "");
    std::printf("%-10d %16.1f %12.2f %14s\n", n, cost.total_ms(),
                wall.ElapsedMs(), anchor);
    if (n == 21) first_ms = cost.total_ms();
    if (n == 2551) last_ms = cost.total_ms();
    if (std::fabs(cost.total_ms() - calibrated_ms[point]) > 0.1) {
      std::fprintf(stderr, "%d rows: %.2f ms drifted from calibrated %.1f\n",
                   n, cost.total_ms(), calibrated_ms[point]);
      ++drifted;
    }
    ++point;
  }

  std::printf("\nslope: %.3f ms/row (paper: ~%.3f ms/row); "
              "growth factor %.2fx (paper: ~2.3x)\n",
              (last_ms - first_ms) / (2551 - 21),
              (700.0 - 300.0) / (2551 - 21), last_ms / first_ms);
  return drifted == 0 ? 0 : 1;
}
