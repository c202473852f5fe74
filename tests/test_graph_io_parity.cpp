// Parity of the block tokenizer with the line-at-a-time parser it replaced.
//
// `reference` below is the previous edge-list parser, kept verbatim as the
// oracle: a std::getline loop that tokenizes each line into a vector, parses
// weights with std::stod on a fresh std::string, and compacts labels through
// std::unordered_map. Over a corpus of awkward inputs, the current loaders
// must return an equal LoadedGraph (weights compared bit for bit) or throw
// the same what(). The snapshot loader gets the same treatment against its
// previous per-line std::istringstream parser.
#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include <unistd.h>

#include "core/snapshot_io.hpp"
#include "graph/columnar_stream.hpp"
#include "util/errors.hpp"

namespace rid::graph {
namespace {

namespace reference {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw util::InputError("graph_io: line " + std::to_string(line_no) + ": " +
                         what);
}

bool tokenize(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                               line[i] == '\r'))
      ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '\r')
      ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  if (tokens.empty()) return false;
  if (tokens.front().front() == '#' || tokens.front().front() == '%')
    return false;
  return true;
}

template <typename T>
T parse_number(std::string_view token, std::size_t line_no) {
  T value{};
  if constexpr (std::is_floating_point_v<T>) {
    try {
      std::size_t pos = 0;
      value = static_cast<T>(std::stod(std::string(token), &pos));
      if (pos != token.size()) fail(line_no, "trailing characters in number");
    } catch (const std::exception&) {
      fail(line_no, "expected a number, got '" + std::string(token) + "'");
    }
  } else {
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
      fail(line_no, "expected an integer, got '" + std::string(token) + "'");
  }
  return value;
}

bool parse_edge_line(std::string_view line, std::size_t line_no, bool weighted,
                     ParsedEdge& out) {
  std::vector<std::string_view> tokens;
  if (!tokenize(line, tokens)) return false;
  const std::size_t expected = weighted ? 4 : 3;
  if (tokens.size() < expected)
    fail(line_no, "expected " + std::to_string(expected) + " columns, got " +
                      std::to_string(tokens.size()));
  out.src = parse_number<std::uint64_t>(tokens[0], line_no);
  out.dst = parse_number<std::uint64_t>(tokens[1], line_no);
  out.sign = parse_number<int>(tokens[2], line_no);
  if (out.sign != 1 && out.sign != -1)
    fail(line_no, "sign must be +1 or -1, got " + std::to_string(out.sign));
  out.weight = weighted ? parse_number<double>(tokens[3], line_no) : 1.0;
  if (!(out.weight >= 0.0 && out.weight <= 1.0))
    fail(line_no, "weight outside [0, 1]");
  return true;
}

LoadedGraph assemble_edges(const std::vector<ParsedEdge>& edges) {
  LoadedGraph out;
  std::unordered_map<std::uint64_t, NodeId> compact;
  const auto id_of = [&](std::uint64_t label) {
    const auto [it, inserted] =
        compact.emplace(label, static_cast<NodeId>(out.original_label.size()));
    if (inserted) out.original_label.push_back(label);
    return it->second;
  };
  std::vector<std::pair<NodeId, NodeId>> endpoints;
  for (const ParsedEdge& e : edges) {
    const NodeId src = id_of(e.src);
    const NodeId dst = id_of(e.dst);
    endpoints.emplace_back(src, dst);
  }
  SignedGraphBuilder builder(static_cast<NodeId>(out.original_label.size()));
  for (std::size_t i = 0; i < edges.size(); ++i)
    builder.add_edge(endpoints[i].first, endpoints[i].second,
                     sign_from_value(edges[i].sign), edges[i].weight);
  out.graph = builder.build();
  return out;
}

LoadedGraph load(std::istream& in, bool weighted) {
  std::vector<ParsedEdge> raw;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    ParsedEdge e;
    if (parse_edge_line(line, line_no, weighted, e)) raw.push_back(e);
  }
  return assemble_edges(raw);
}

[[noreturn]] void snapshot_fail(std::size_t line_no, const std::string& what) {
  throw util::InputError("snapshot_io: line " + std::to_string(line_no) +
                         ": " + what);
}

std::vector<core::SnapshotEntry> parse_snapshot_entries(std::istream& in) {
  std::vector<core::SnapshotEntry> entries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream row(line);
    std::string id_token;
    std::string state_token;
    if (!(row >> id_token)) continue;
    if (id_token[0] == '#' || id_token[0] == '%') continue;
    if (!(row >> state_token)) snapshot_fail(line_no, "missing state column");
    core::SnapshotEntry entry;
    entry.line_no = line_no;
    const auto res = std::from_chars(
        id_token.data(), id_token.data() + id_token.size(), entry.node);
    if (res.ec != std::errc{} || res.ptr != id_token.data() + id_token.size())
      snapshot_fail(line_no, "bad node id '" + id_token + "'");
    if (state_token == "+1" || state_token == "1") {
      entry.state = NodeState::kPositive;
    } else if (state_token == "-1") {
      entry.state = NodeState::kNegative;
    } else if (state_token == "?") {
      entry.state = NodeState::kUnknown;
    } else if (state_token == "0") {
      entry.state = NodeState::kInactive;
    } else {
      snapshot_fail(line_no, "bad state '" + state_token + "'");
    }
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace reference

/// A loader's outcome: the graph it returned or the what() it threw.
template <typename T>
std::variant<T, std::string> outcome(auto&& load) {
  try {
    return load();
  } catch (const util::InputError& e) {
    return std::string(e.what());
  }
}

void expect_same(const std::variant<LoadedGraph, std::string>& got,
                 const std::variant<LoadedGraph, std::string>& want,
                 const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.index(), want.index())
      << (want.index() == 1 ? "want error: " + std::get<1>(want)
                            : "got error: " + std::get<1>(got));
  if (want.index() == 1) {
    EXPECT_EQ(std::get<1>(got), std::get<1>(want));
    return;
  }
  const LoadedGraph& g = std::get<0>(got);
  const LoadedGraph& w = std::get<0>(want);
  EXPECT_EQ(g.original_label, w.original_label);
  EXPECT_TRUE(g.graph == w.graph);
  ASSERT_EQ(g.graph.num_edges(), w.graph.num_edges());
  for (EdgeId e = 0; e < w.graph.num_edges(); ++e)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.graph.edge_weight(e)),
              std::bit_cast<std::uint64_t>(w.graph.edge_weight(e)))
        << "edge " << e;
}

/// Checks every loader (stream and file, weighted and SNAP, plus the
/// streaming converter's TextEdgeSource) against the reference on `text`.
void expect_parity(const std::string& text, const std::string& label) {
  const auto path =
      std::filesystem::path(::testing::TempDir()) /
      ("graph_io_parity_" + std::to_string(::getpid()) + ".txt");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  for (const bool weighted : {true, false}) {
    const std::string case_label =
        label + (weighted ? " [weighted]" : " [snap]");
    const auto want = outcome<LoadedGraph>([&] {
      std::istringstream in(text);
      return reference::load(in, weighted);
    });
    expect_same(outcome<LoadedGraph>([&] {
                  std::istringstream in(text);
                  return weighted ? load_weighted(in) : load_snap(in);
                }),
                want, case_label + " stream");
    expect_same(outcome<LoadedGraph>([&] {
                  return weighted ? load_weighted_file(path.string())
                                  : load_snap_file(path.string());
                }),
                want, case_label + " file");
    expect_same(outcome<LoadedGraph>([&] {
                  TextEdgeSource source(path.string(), weighted);
                  return load_edge_source(source);
                }),
                want, case_label + " TextEdgeSource");
  }
  std::filesystem::remove(path);
}

TEST(GraphIoParity, WeightSpellings) {
  const char* weights[] = {
      "0.5",      "+0.5",     "0x1p-2",   "0X1.8P-1", "1e-400",   "nan",
      "NaN",      "-nan",     "nan(12)",  "inf",      "+inf",     "-inf",
      "infinity", "1e400",    "1e-310",   "4.9e-324", "1e-300",   "9.9e-301",
      "2.2250738585072014e-308",          "0",        "-0",       "0.000",
      "0e-400",   "+0",       "00.25",    ".5",       "5.",       "1",
      "1.0",      "1e0",      "1e",       "1e+",      "0.5x",     "0x",
      "\v0.25",   "\f1",      "0.1000000000000000055511151231257827",
      "1.00000000000000000001",           "0.99999999999999999999",
      "-",        "+",        ".",        "e5",       "0.5\v",    "0,5",
  };
  for (const char* w : weights) {
    expect_parity(std::string("1 2 1 ") + w + "\n2 3 -1 0.25\n",
                  std::string("weight '") + w + "'");
  }
}

TEST(GraphIoParity, IdsSignsAndColumns) {
  const char* rows[] = {
      "18446744073709551615 0 1 0.5",   // ~0ull is a valid label
      "0 18446744073709551615 -1 0.5",
      "18446744073709551616 0 1 0.5",   // overflows u64
      "-1 2 1 0.5", "1 -2 1 0.5", "1 2 +1 0.5", "1 2 0 0.5", "1 2 2 0.5",
      "1 2 -1 0.5 extra columns here", "1 2 1", "1 2", "1", "x 2 1 0.5",
      "1 2 1x 0.5", "12345678901234567890 1 1 1", "1 1 1 0.5",
  };
  for (const char* row : rows) {
    const std::string text = std::string("5 6 1 0.5\n") + row + "\n6 5 1 1\n";
    expect_parity(text, std::string("row '") + row + "'");
  }
}

TEST(GraphIoParity, LineEndingsCommentsAndSeparators) {
  const char* texts[] = {
      "1 2 1 0.5\r\n2 3 -1 0.25\r\n",
      "1\t2\t1\t0.5\n2\t\t3 \t -1\t0.25\n",
      "# header\n% other comment\n\n   \n\t\r\n1 2 1 0.5\n",
      "1 2 1 0.5\n2 3 1 0.75",          // no trailing newline
      "1 2 1 0.5\n2 3 1 x",             // error on the unterminated line
      "#\n%\n1 2 1 0.5\n  # indented comment\n",
      "1 2 1 0.5 # trailing comment\n",
      "1 2 1 0.5\n\n\n\n3 4 1 2\n",     // error line number past blanks
      "\n", "", "\r", "#only a comment", "1 2 1 0.5\n1 2 -1 0.25\n2 1 1 1\n",
      "1 2 1 0.5\v\n", "1\v2 1 0.5\n",
  };
  for (const char* text : texts)
    expect_parity(text, std::string("'") + text + "'");
  expect_parity(std::string("1 2 1 0.5\n3\0 4 1 0.5\n", 21), "NUL in an id");
  expect_parity(std::string("1 2 1 0.5\0\n", 11), "NUL after a weight");
}

TEST(GraphIoParity, LinesLongerThanOneBlock) {
  const std::size_t big = LineReader::kBlockBytes + LineReader::kBlockBytes / 2;
  expect_parity("1 2 1 0.5\n1" + std::string(big, ' ') + "3 -1 0.25\n4 1 1 1\n",
                "long whitespace run");
  expect_parity("1 2 1 0.5\n#" + std::string(big, 'c') + "\n4 1 1 1",
                "long comment");
  expect_parity("1 2 1 0." + std::string(big, '3') + "\n4 1 1 1\n",
                "long weight token");
  expect_parity("1 2 1 0.5\n" + std::string(big, '7') + " 1 1 1\n",
                "long bad id token");
  expect_parity(std::string(3 * LineReader::kBlockBytes, '\n') + "1 2 1 x\n",
                "error after many blank blocks");
}

/// Several blocks of rows with varied lengths, separators, comments and
/// weight spellings; optionally one malformed row near the end.
std::string generated_file(std::uint64_t seed, bool with_error) {
  std::mt19937_64 rng(seed);
  std::string text = "# generated\n";
  char buf[64];
  while (text.size() < 3 * LineReader::kBlockBytes + 12345) {
    const auto pad = [&] {
      static const char* kPads[] = {" ", "\t", "  ", " \t ", "\r "};
      return std::string(kPads[rng() % 5]) +
             std::string(rng() % 16 == 0 ? rng() % 200 : 0, ' ');
    };
    switch (rng() % 16) {
      case 0:
        text += "# comment " + std::string(rng() % 100, 'c') + "\n";
        continue;
      case 1:
        text += std::string(rng() % 4, ' ') + "\n";
        continue;
      default:
        break;
    }
    const std::uint64_t src = rng() % 5000 * (rng() % 7 == 0 ? 1000003 : 1);
    const std::uint64_t dst = rng() % 5000;
    const double w = static_cast<double>(rng() % 1000001) / 1000000.0;
    const auto res = std::to_chars(buf, buf + sizeof(buf), w);
    std::string weight(buf, res.ptr);
    if (rng() % 50 == 0) weight = "+" + weight;
    if (rng() % 50 == 0) {
      std::snprintf(buf, sizeof(buf), "%a", w);
      weight = buf;
    }
    text += std::to_string(src) + pad() + std::to_string(dst) + pad() +
            (rng() % 3 == 0 ? "-1" : "1") + pad() + weight +
            (rng() % 10 == 0 ? pad() + "extra" : "") +
            (rng() % 8 == 0 ? "\r\n" : "\n");
  }
  if (with_error) text += "1 2 1 1.5\n3 4 1 0.5\n";
  return text;
}

TEST(GraphIoParity, GeneratedMultiBlockFiles) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::string text = generated_file(seed, /*with_error=*/seed == 3);
    ASSERT_GT(text.size(), 3 * LineReader::kBlockBytes);
    expect_parity(text, "generated seed " + std::to_string(seed));
  }
}

TEST(SnapshotIoParity, MatchesIstringstreamParser) {
  const std::string big(LineReader::kBlockBytes + 7, ' ');
  const std::string texts[] = {
      "# node state\n0 +1\n1 -1\n2 ?\n3 0\n4 1\n",
      "0 +1\r\n1\t-1\r\n",
      "0 +1\n1\n",
      "x +1\n",
      "0 +2\n",
      "0 +1 extra\n\n  \n% c\n1 ?",
      "0\v+1\n1\f-1\n",
      "0" + big + "+1\n1 ?\n",
      "18446744073709551616 +1\n",
      "-1 +1\n",
      "",
  };
  for (const std::string& text : texts) {
    SCOPED_TRACE("'" + text.substr(0, 40) + "'");
    const auto run = [](auto&& parse) {
      return outcome<std::vector<core::SnapshotEntry>>(parse);
    };
    const auto want = run([&] {
      std::istringstream in(text);
      return reference::parse_snapshot_entries(in);
    });
    const auto got = run([&] {
      std::istringstream in(text);
      return core::parse_snapshot_entries(in);
    });
    ASSERT_EQ(got.index(), want.index());
    if (want.index() == 1) {
      EXPECT_EQ(std::get<1>(got), std::get<1>(want));
      continue;
    }
    const auto& g = std::get<0>(got);
    const auto& w = std::get<0>(want);
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(g[i].node, w[i].node);
      EXPECT_EQ(g[i].state, w[i].state);
      EXPECT_EQ(g[i].line_no, w[i].line_no);
    }
  }
}

}  // namespace
}  // namespace rid::graph
