// Out-of-core pipeline bench: streaming text→.ridg conversion and
// detection over graphs that never fit in the converter's RAM budget
// (DESIGN.md §15).
//
// Three claims are measured on deterministic synthetic edge streams, plus
// one text-ingest row:
//
//   1. Conversion is bounded-memory: stream_convert_to_columnar writes a
//      multi-GB .ridg while its peak RSS stays flat (O(nodes + chunk)) as
//      the edge count — and hence the output file — grows by >= 10x. The
//      full report's largest file is >= 4x the enforced RSS ceiling, so
//      the in-RAM writer could not have produced it under the same cap.
//   2. Byte-identity: the streamed file is cmp-identical (and fingerprint-
//      identical) to the in-RAM writer's output for the same edge stream —
//      checked on the smallest row, where materializing is still possible.
//   3. Detection stays out-of-core: run_rid over the mmap-ed view (WCC and
//      candidate-arc sweeps drop pages behind their cursors) keeps peak RSS
//      under the same ceiling, and the ArcGather::kStreamed result is
//      bit-identical to the ArcGather::kCopy oracle.
//   4. Text convert: the smoke-size stream is written (untimed) to a
//      "src dst sign weight" text file and converted through
//      TextEdgeSource, so the row's edges/s includes the text tokenizer
//      the synthetic rows never touch. Its .ridg must carry the same
//      fingerprint as the synthetic conversion of the same stream.
//
// Every heavy stage runs in a forked child; the parent reads a POD result
// through a pipe and the child's peak RSS from wait4's rusage, so each
// probe's ru_maxrss reflects only that stage's working set.
//
// Writes BENCH_oocore.json; scripts/check_bench.py validates the shape and
// gates the RSS ceiling / growth / identity claims.
//
//   ./bench_oocore [--smoke] [--json=BENCH_oocore.json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#define RIDNET_BENCH_HAS_FORK 1
#endif

#include "core/rid.hpp"
#include "graph/columnar.hpp"
#include "graph/columnar_stream.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/graph_io.hpp"
#include "util/flags.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace rid;
using graph::NodeId;

namespace fs = std::filesystem;

/// The RSS ceiling (KiB) every probe must stay under, and which the largest
/// full-mode .ridg must exceed by >= 4x. Mirrored in BENCH_oocore.json and
/// enforced by scripts/check_bench.py.
constexpr double kRssCapKb = 400000.0;

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Order- and bit-sensitive digest of a DetectionResult (same fields
/// bench_columnar_load's `identical` compares).
std::uint64_t result_digest(const core::DetectionResult& r) {
  std::uint64_t h = util::kFnv64Basis;
  const auto mix = [&h](const void* data, std::size_t size) {
    h = util::fnv1a64(data, size, h);
  };
  const std::uint64_t counts[2] = {r.num_components, r.num_trees};
  mix(counts, sizeof(counts));
  mix(r.initiators.data(), r.initiators.size() * sizeof(NodeId));
  mix(r.states.data(), r.states.size() * sizeof(graph::NodeState));
  const std::uint64_t totals[2] = {double_bits(r.total_opt),
                                   double_bits(r.total_objective)};
  mix(totals, sizeof(totals));
  return h;
}

/// Runs `fn` in a forked child; the POD result crosses a pipe and the
/// child's peak RSS (ru_maxrss KiB) comes from wait4. Without fork the
/// stage runs inline and rss_kb stays 0 (the JSON marks it unmeasured).
template <typename T, typename Fn>
T run_probe(Fn&& fn, double& rss_kb) {
  rss_kb = 0.0;
#ifdef RIDNET_BENCH_HAS_FORK
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) return fn();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return fn();
  }
  if (pid == 0) {
    close(fds[0]);
    const T value = fn();
    const ssize_t unused = write(fds[1], &value, sizeof(T));
    static_cast<void>(unused);
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  T value{};
  const ssize_t got = read(fds[0], &value, sizeof(T));
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  wait4(pid, &status, 0, &usage);
#ifdef __APPLE__
  rss_kb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // bytes on macOS
#else
  rss_kb = static_cast<double>(usage.ru_maxrss);  // KiB on Linux
#endif
  if (got != static_cast<ssize_t>(sizeof(T))) return T{};
  return value;
#else
  return fn();
#endif
}

/// Deterministic random edge stream, regenerated from the seed on rewind —
/// the stream itself is never resident. ~80% positive signs, uniform
/// weights; duplicates and self-loops exercise the normalization sweep.
class SyntheticEdgeSource final : public graph::EdgeSource {
 public:
  SyntheticEdgeSource(NodeId nodes, std::uint64_t edges, std::uint64_t seed)
      : nodes_(nodes), edges_(edges), seed_(seed), rng_(seed) {}

  void rewind() override {
    rng_ = util::Rng(seed_);
    produced_ = 0;
  }

  bool next(graph::ParsedEdge& edge) override {
    if (produced_ == edges_) return false;
    ++produced_;
    edge.src = rng_.next_below(nodes_);
    edge.dst = rng_.next_below(nodes_);
    edge.sign = rng_.bernoulli(0.8) ? 1 : -1;
    edge.weight = rng_.uniform(0.01, 0.99);
    return true;
  }

 private:
  NodeId nodes_;
  std::uint64_t edges_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::uint64_t produced_ = 0;
};

/// Sparse embedded snapshot: ~2000 alternating +/- observations. Detection
/// cost is then dominated by the streamed whole-graph sweeps (WCC, arc
/// gather), which is the out-of-core path under test, not by giant DPs.
std::vector<graph::NodeState> make_snapshot(NodeId nodes) {
  std::vector<graph::NodeState> states(nodes, graph::NodeState::kInactive);
  const NodeId stride = std::max<NodeId>(1, nodes / 2000);
  bool positive = true;
  for (NodeId v = 0; v < nodes; v += stride) {
    states[v] = positive ? graph::NodeState::kPositive
                         : graph::NodeState::kNegative;
    positive = !positive;
  }
  return states;
}

graph::StreamConvertOptions convert_options() {
  graph::StreamConvertOptions options;
  options.social = false;
  options.flags = graph::kRidgFlagDiffusion;
  options.make_states = make_snapshot;
  return options;
}

core::RidConfig rid_config(core::ArcGather gather) {
  core::RidConfig config;
  config.extraction.arc_gather = gather;
  return config;
}

struct ConvertProbe {
  bool ok = false;
  std::size_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t fingerprint = 0;
  double seconds = 0.0;
};

ConvertProbe run_convert(NodeId nodes, std::uint64_t edges,
                         const std::string& ridg_path) {
  ConvertProbe probe;
  try {
    SyntheticEdgeSource source(nodes, edges, 2026);
    util::Timer timer;
    const graph::StreamConvertResult result =
        graph::stream_convert_to_columnar(source, ridg_path,
                                          convert_options());
    probe.seconds = timer.seconds();
    probe.nodes = result.num_nodes;
    probe.edges = result.num_edges;
    probe.fingerprint = result.fingerprint;
    probe.ok = true;
  } catch (...) {
    probe.ok = false;
  }
  return probe;
}

/// The smoke-size stream, shared by the smoke row and the text row.
constexpr NodeId kSmokeNodes = 20000;
constexpr std::uint64_t kSmokeEdges = 120000;

struct TextConvertProbe {
  bool ok = false;
  bool fingerprint_match = false;
  std::uint64_t edges = 0;
  std::uintmax_t text_bytes = 0;
  double seconds = 0.0;
};

/// Writes the synthetic stream as weighted text (weights at round-trip
/// precision), untimed, then times stream_convert_to_columnar over it and
/// compares the fingerprint with the synthetic source's conversion.
TextConvertProbe run_text_convert(const fs::path& dir) {
  TextConvertProbe probe;
  try {
    const fs::path text_path = dir / "edges.txt";
    {
      SyntheticEdgeSource source(kSmokeNodes, kSmokeEdges, 2026);
      std::ofstream out(text_path);
      graph::ParsedEdge edge;
      char line[96];
      while (source.next(edge)) {
        const int len = std::snprintf(
            line, sizeof(line), "%llu %llu %d %.17g\n",
            static_cast<unsigned long long>(edge.src),
            static_cast<unsigned long long>(edge.dst), edge.sign,
            edge.weight);
        out.write(line, len);
      }
    }
    probe.text_bytes = fs::file_size(text_path);

    graph::TextEdgeSource source(text_path.string());
    util::Timer timer;
    const graph::StreamConvertResult result =
        graph::stream_convert_to_columnar(
            source, (dir / "text.ridg").string(), convert_options());
    probe.seconds = timer.seconds();
    probe.edges = result.num_edges;

    const ConvertProbe synthetic = run_convert(
        kSmokeNodes, kSmokeEdges, (dir / "synthetic.ridg").string());
    probe.fingerprint_match =
        synthetic.ok && synthetic.fingerprint == result.fingerprint;
    probe.ok = true;
  } catch (...) {
    probe.ok = false;
  }
  return probe;
}

struct DetectProbe {
  bool ok = false;
  std::uint64_t digest = 0;
  double seconds = 0.0;
};

DetectProbe run_detect(const std::string& ridg_path, core::ArcGather gather) {
  DetectProbe probe;
  try {
    const graph::ColumnarGraphView view =
        graph::ColumnarGraphView::open(ridg_path);
    util::Timer timer;
    const core::DetectionResult result =
        core::run_rid(view, view.states(), rid_config(gather));
    probe.seconds = timer.seconds();
    probe.digest = result_digest(result);
    probe.ok = true;
  } catch (...) {
    probe.ok = false;
  }
  return probe;
}

struct OracleProbe {
  bool ok = false;
  bool bytes_match = false;
  bool fingerprint_match = false;
};

/// Materializes the same edge stream with graph_io semantics, writes it
/// with the in-RAM writer, and cmp's the two files. Only run on the
/// smallest row — this is the path whose memory the streaming converter
/// exists to avoid.
OracleProbe run_oracle(NodeId nodes, std::uint64_t edges,
                       const std::string& streamed_path,
                       const std::string& oracle_path) {
  OracleProbe probe;
  try {
    SyntheticEdgeSource source(nodes, edges, 2026);
    graph::LoadedGraph loaded = graph::load_edge_source(source);
    const graph::SignedGraph diffusion =
        graph::make_diffusion_network(loaded.graph);
    graph::write_columnar_file(diffusion, make_snapshot(diffusion.num_nodes()),
                               oracle_path, graph::kRidgFlagDiffusion);

    probe.fingerprint_match =
        graph::ColumnarGraphView::open(streamed_path).fingerprint() ==
        graph::ColumnarGraphView::open(oracle_path).fingerprint();

    std::ifstream a(streamed_path, std::ios::binary);
    std::ifstream b(oracle_path, std::ios::binary);
    std::vector<char> buf_a(1 << 20), buf_b(1 << 20);
    probe.bytes_match = a.is_open() && b.is_open();
    while (probe.bytes_match) {
      a.read(buf_a.data(), static_cast<std::streamsize>(buf_a.size()));
      b.read(buf_b.data(), static_cast<std::streamsize>(buf_b.size()));
      if (a.gcount() != b.gcount() ||
          std::memcmp(buf_a.data(), buf_b.data(),
                      static_cast<std::size_t>(a.gcount())) != 0) {
        probe.bytes_match = false;
        break;
      }
      if (a.gcount() == 0) break;
    }
    probe.ok = true;
  } catch (...) {
    probe.ok = false;
  }
  return probe;
}

/// One JSON row.
struct Row {
  std::size_t nodes = 0;
  std::uint64_t edges_in = 0;  // generated rows (pre-normalization)
  std::uint64_t edges = 0;     // kept edges
  std::uintmax_t ridg_bytes = 0;
  double convert_s = 0.0;
  double edges_per_s = 0.0;
  double convert_rss_kb = 0.0;
  double detect_s = 0.0;
  double detect_rss_kb = 0.0;
  bool measured = false;     // fork/wait4 RSS available
  bool oracle = false;       // in-RAM byte-identity checked on this row
  bool gather_match = false; // kStreamed digest == kCopy digest on this row
};

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);

  // Full mode: fixed node count, edge count growing 12x, so the output file
  // (~21 bytes/edge) spans ~0.2 GB -> ~2.5 GB while the converter's
  // working set (nodes + one chunk) stays put. The largest file is >= 4x
  // the kRssCapKb ceiling.
  struct Size {
    NodeId nodes;
    std::uint64_t edges;
  };
  const std::vector<Size> sizes =
      smoke ? std::vector<Size>{{kSmokeNodes, kSmokeEdges}}
            : std::vector<Size>{{400000, 10000000},
                                {400000, 40000000},
                                {400000, 120000000}};

  const fs::path dir = fs::temp_directory_path() / "bench_oocore";
  fs::remove_all(dir);
  fs::create_directories(dir);

  util::AsciiTable table({"nodes", "edges", "ridg MiB", "convert s",
                          "Medges/s", "conv RSS MiB", "detect s",
                          "det RSS MiB"});
  table.set_title("streaming convert + out-of-core detect; RSS cap " +
                  std::to_string(static_cast<int>(kRssCapKb / 1024)) + " MiB");

  std::vector<Row> rows;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const Size& size = sizes[si];
    const std::string ridg_path = (dir / "graph.ridg").string();

    Row row;
    row.edges_in = size.edges;

    const ConvertProbe convert = run_probe<ConvertProbe>(
        [&] { return run_convert(size.nodes, size.edges, ridg_path); },
        row.convert_rss_kb);
    if (!convert.ok) {
      std::cerr << "FATAL: streaming conversion failed at " << size.edges
                << " edges\n";
      return 1;
    }
    row.nodes = convert.nodes;
    row.edges = convert.edges;
    row.ridg_bytes = fs::file_size(ridg_path);
    row.convert_s = convert.seconds;
    row.edges_per_s = static_cast<double>(size.edges) / convert.seconds;
    row.measured = row.convert_rss_kb > 0.0;

    const DetectProbe detect = run_probe<DetectProbe>(
        [&] { return run_detect(ridg_path, core::ArcGather::kStreamed); },
        row.detect_rss_kb);
    if (!detect.ok) {
      std::cerr << "FATAL: detection over " << ridg_path << " failed\n";
      return 1;
    }
    row.detect_s = detect.seconds;

    // Identity checks on the smallest row only: the oracle materializes the
    // whole graph, and the kCopy gather walks per-component adjacency — the
    // exact costs the streamed paths avoid at scale.
    if (si == 0) {
      const std::string oracle_path = (dir / "oracle.ridg").string();
      double ignored = 0.0;
      const OracleProbe oracle = run_probe<OracleProbe>(
          [&] {
            return run_oracle(size.nodes, size.edges, ridg_path, oracle_path);
          },
          ignored);
      if (!oracle.ok || !oracle.bytes_match || !oracle.fingerprint_match) {
        std::cerr << "FATAL: streamed .ridg is not byte-identical to the "
                  << "in-RAM writer's output\n";
        return 1;
      }
      row.oracle = true;
      fs::remove(oracle_path);

      const DetectProbe copy = run_probe<DetectProbe>(
          [&] { return run_detect(ridg_path, core::ArcGather::kCopy); },
          ignored);
      if (!copy.ok || copy.digest != detect.digest) {
        std::cerr << "FATAL: ArcGather::kStreamed diverged from the "
                  << "ArcGather::kCopy oracle\n";
        return 1;
      }
      row.gather_match = true;
    }

    rows.push_back(row);
    table.row(row.nodes, row.edges,
              static_cast<double>(row.ridg_bytes) / (1024.0 * 1024.0),
              row.convert_s, row.edges_per_s / 1e6,
              row.convert_rss_kb / 1024.0, row.detect_s,
              row.detect_rss_kb / 1024.0);
  }
  table.render(std::cout);

  double ignored = 0.0;
  const TextConvertProbe text = run_probe<TextConvertProbe>(
      [&] { return run_text_convert(dir); }, ignored);
  if (!text.ok || !text.fingerprint_match) {
    std::cerr << "FATAL: text conversion failed or its .ridg differs from "
              << "the synthetic stream's\n";
    return 1;
  }
  const double text_edges_per_s =
      static_cast<double>(kSmokeEdges) / text.seconds;
  std::printf("text convert: %llu rows (%.1f MiB of text) in %.3f s = %.2f "
              "Medges/s\n",
              static_cast<unsigned long long>(kSmokeEdges),
              static_cast<double>(text.text_bytes) / (1024.0 * 1024.0),
              text.seconds, text_edges_per_s / 1e6);
  fs::remove_all(dir);

  const std::string json_path = flags.get_string("json", "BENCH_oocore.json");
  std::ofstream out(json_path);
  out << "{\n  \"benchmark\": \"oocore\",\n  \"unit\": \"edges/s\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"rss_cap_kb\": " << static_cast<long long>(kRssCapKb)
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"nodes\": %zu, \"edges_in\": %llu, \"edges\": %llu, "
        "\"ridg_bytes\": %llu, \"convert_s\": %.3f, \"edges_per_s\": %.0f, "
        "\"convert_rss_kb\": %.0f, \"detect_s\": %.3f, \"detect_rss_kb\": "
        "%.0f, \"measured\": %s, \"oracle\": %s, \"gather_match\": %s}%s\n",
        r.nodes, static_cast<unsigned long long>(r.edges_in),
        static_cast<unsigned long long>(r.edges),
        static_cast<unsigned long long>(r.ridg_bytes), r.convert_s,
        r.edges_per_s, r.convert_rss_kb, r.detect_s, r.detect_rss_kb,
        r.measured ? "true" : "false", r.oracle ? "true" : "false",
        r.gather_match ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  char text_row[256];
  std::snprintf(text_row, sizeof(text_row),
                "  ],\n  \"text_convert\": {\"edges_in\": %llu, \"edges\": "
                "%llu, \"text_bytes\": %llu, \"convert_s\": %.6f, "
                "\"edges_per_s\": %.0f, \"fingerprint_match\": %s}\n}\n",
                static_cast<unsigned long long>(kSmokeEdges),
                static_cast<unsigned long long>(text.edges),
                static_cast<unsigned long long>(text.text_bytes),
                text.seconds, text_edges_per_s,
                text.fingerprint_match ? "true" : "false");
  out << text_row;
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
