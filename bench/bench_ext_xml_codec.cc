// Extension: the one-pass XML-RPC codec against the tree codec it
// replaced.
//
// XML-RPC is the wire every client that does not negotiate binary frames
// speaks (paper §4.5), so its encode and decode sit on the path of every
// such query. This bench measures real CPU time (not the simulation's
// virtual clock) for a query response carrying the Fig 6 ntuple
// projection (event_id, e_total, pt, eta, phi) at the Fig 6 row counts,
// through:
//   - the production codec: EncodeResponse writes the message in one
//     pass with std::to_chars; DecodeResponse reads it in one pass
//     straight into XmlRpcValue;
//   - the tree oracle (bench/xmlrpc_tree_oracle.h): an xml::Node tree
//     serialized by xml::Write, and xml::Parse followed by a tree walk.
// Both decode timings include RpcToResultSet, the step that turns the
// reply into rows.
//
// Acceptance (wired into scripts/check.sh, see EXPERIMENTS.md):
//   - the production encoder's bytes equal the oracle's at every point;
//   - both decoders return the original rows at every point;
//   - over the whole sweep, decode and encode are each >= 2x faster
//     than the oracle.
// Emits BENCH_xml_codec.json (path = argv[1]).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/xmlrpc_tree_oracle.h"
#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/util/rng.h"
#include "griddb/util/stopwatch.h"

using namespace griddb;

namespace {

constexpr int kRowCounts[] = {21, 115, 450, 1024, 1800, 2551};
constexpr int kRepeats = 15;

/// The Fig 6 projection: SELECT event_id, e_total, pt, eta, phi.
storage::ResultSet NtupleRows(int rows, uint64_t seed) {
  Rng rng(seed);
  storage::ResultSet rs;
  rs.columns = {"event_id", "e_total", "pt", "eta", "phi"};
  rs.rows.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    rs.rows.push_back({storage::Value(int64_t{100000} + i),
                       storage::Value(rng.Uniform(0.0, 500.0)),
                       storage::Value(rng.Gaussian(40.0, 15.0)),
                       storage::Value(rng.Uniform(-2.5, 2.5)),
                       storage::Value(rng.Uniform(-3.14159, 3.14159))});
  }
  return rs;
}

rpc::XmlRpcValue Envelope(const storage::ResultSet& rs) {
  rpc::XmlRpcStruct out;
  out["result"] = rpc::ResultSetToRpc(rs);
  out["rows"] = static_cast<int64_t>(rs.rows.size());
  return rpc::XmlRpcValue(std::move(out));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median ms of `fn` over kRepeats runs; `inner` calls per run keep small
/// points above timer resolution.
template <typename Fn>
double TimeMs(int inner, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < kRepeats; ++r) {
    Stopwatch sw;
    for (int i = 0; i < inner; ++i) fn();
    times.push_back(sw.ElapsedMs() / inner);
  }
  return Median(std::move(times));
}

/// Decodes a response and returns its rows (empty set on failure).
template <typename Decode>
storage::ResultSet DecodeRows(Decode&& decode, const std::string& xml,
                              bool* ok) {
  auto value = decode(xml);
  if (!value.ok()) return {};
  auto member = value->Member("result");
  if (!member.ok()) return {};
  auto rows = rpc::RpcToResultSet(**member);
  if (!rows.ok()) return {};
  *ok = true;
  return std::move(*rows);
}

struct Point {
  int rows = 0;
  size_t bytes = 0;
  double encode_ms = 0, oracle_encode_ms = 0;
  double decode_ms = 0, oracle_decode_ms = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_xml_codec.json";
  namespace tree = bench::xmlrpc_tree;

  std::printf("=== Extension: one-pass XML-RPC codec vs the tree codec ===\n");
  std::printf("%6s %9s | %10s %10s %6s | %10s %10s %6s | %s\n", "rows",
              "bytes", "enc us/row", "tree", "x", "dec us/row", "tree", "x",
              "identical");
  std::vector<Point> points;
  bool all_identical = true;
  double enc_total = 0, oracle_enc_total = 0;
  double dec_total = 0, oracle_dec_total = 0;
  for (int n : kRowCounts) {
    const storage::ResultSet rs = NtupleRows(n, 2005 + n);
    const rpc::XmlRpcValue value = Envelope(rs);
    const int inner = std::max(1, 2000 / n);

    Point p;
    p.rows = n;
    const std::string xml = rpc::EncodeResponse(value);
    const std::string oracle_xml = tree::EncodeResponse(value);
    p.bytes = xml.size();
    bool ok = false, oracle_ok = false;
    storage::ResultSet back = DecodeRows(rpc::DecodeResponse, xml, &ok);
    storage::ResultSet oracle_back =
        DecodeRows(tree::DecodeResponse, xml, &oracle_ok);
    p.identical = xml == oracle_xml && ok && oracle_ok &&
                  back.columns == rs.columns && back.rows == rs.rows &&
                  oracle_back.columns == rs.columns &&
                  oracle_back.rows == rs.rows;
    all_identical = all_identical && p.identical;

    p.encode_ms = TimeMs(inner, [&] {
      std::string out = rpc::EncodeResponse(value);
      if (out.size() != xml.size()) std::abort();
    });
    p.oracle_encode_ms = TimeMs(inner, [&] {
      std::string out = tree::EncodeResponse(value);
      if (out.size() != xml.size()) std::abort();
    });
    p.decode_ms = TimeMs(inner, [&] {
      bool decoded = false;
      if (DecodeRows(rpc::DecodeResponse, xml, &decoded).rows.size() !=
          rs.rows.size()) {
        std::abort();
      }
    });
    p.oracle_decode_ms = TimeMs(inner, [&] {
      bool decoded = false;
      if (DecodeRows(tree::DecodeResponse, xml, &decoded).rows.size() !=
          rs.rows.size()) {
        std::abort();
      }
    });
    enc_total += p.encode_ms;
    oracle_enc_total += p.oracle_encode_ms;
    dec_total += p.decode_ms;
    oracle_dec_total += p.oracle_decode_ms;

    const double us_per_row = 1000.0 / n;
    std::printf("%6d %9zu | %10.3f %10.3f %5.2fx | %10.3f %10.3f %5.2fx | %s\n",
                n, p.bytes, p.encode_ms * us_per_row,
                p.oracle_encode_ms * us_per_row,
                p.oracle_encode_ms / p.encode_ms, p.decode_ms * us_per_row,
                p.oracle_decode_ms * us_per_row,
                p.oracle_decode_ms / p.decode_ms, p.identical ? "yes" : "NO");
    points.push_back(p);
  }

  const double encode_speedup = oracle_enc_total / enc_total;
  const double decode_speedup = oracle_dec_total / dec_total;
  const bool pass = all_identical && encode_speedup >= 2.0 &&
                    decode_speedup >= 2.0;
  std::printf("\nsweep: encode %.2fx, decode %.2fx faster than the tree "
              "codec (gate >= 2x each); bytes and rows identical: %s\n",
              encode_speedup, decode_speedup, all_identical ? "yes" : "NO");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  auto mb_per_s = [](size_t bytes, double ms) {
    return static_cast<double>(bytes) / 1e6 / (ms / 1000.0);
  };
  std::fprintf(f, "{\n  \"bench\": \"xml_codec\",\n");
  std::fprintf(f, "  \"shape\": \"fig6 ntuple projection: event_id, e_total, "
                  "pt, eta, phi\",\n");
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const double us_per_row = 1000.0 / p.rows;
    std::fprintf(
        f,
        "    {\"rows\": %d, \"bytes\": %zu, "
        "\"encode_us_per_row\": %.4f, \"encode_mb_s\": %.1f, "
        "\"oracle_encode_us_per_row\": %.4f, \"oracle_encode_mb_s\": %.1f, "
        "\"decode_us_per_row\": %.4f, \"decode_mb_s\": %.1f, "
        "\"oracle_decode_us_per_row\": %.4f, \"oracle_decode_mb_s\": %.1f, "
        "\"identical\": %s}%s\n",
        p.rows, p.bytes, p.encode_ms * us_per_row,
        mb_per_s(p.bytes, p.encode_ms), p.oracle_encode_ms * us_per_row,
        mb_per_s(p.bytes, p.oracle_encode_ms), p.decode_ms * us_per_row,
        mb_per_s(p.bytes, p.decode_ms), p.oracle_decode_ms * us_per_row,
        mb_per_s(p.bytes, p.oracle_decode_ms), p.identical ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"encode_speedup\": %.3f,\n", encode_speedup);
  std::fprintf(f, "  \"decode_speedup\": %.3f,\n", decode_speedup);
  std::fprintf(f, "  \"bytes_and_rows_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return pass ? 0 : 1;
}
