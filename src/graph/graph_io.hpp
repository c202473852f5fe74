// Reading and writing signed edge lists.
//
// Two formats are supported:
//  * SNAP format ("FromNodeId ToNodeId Sign", '#' comments) — the format of
//    the public soc-sign-epinions / soc-sign-Slashdot dumps the paper uses;
//    weights default to 1.0 and are normally assigned afterwards with
//    apply_jaccard_weights().
//  * weighted format with a fourth column holding the weight in [0, 1].
//
// Node ids in files may be sparse; they are compacted to 0..n-1 and the
// original labels are returned so results can be reported in file ids.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/signed_graph.hpp"

namespace rid::graph {

struct LoadedGraph {
  SignedGraph graph;
  /// original_label[i] is the file's node id for library node i.
  std::vector<std::uint64_t> original_label;
};

/// One syntactically valid edge row, still in the file's raw (possibly
/// sparse) node ids.
struct ParsedEdge {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  int sign = 1;
  double weight = 1.0;
};

/// Yields the lines of a text stream, reading it in kBlockBytes blocks and
/// carrying a partial line over to the next block, so memory stays at one
/// block plus the longest line. Lines are split exactly as std::getline
/// splits them: on '\n', with a final unterminated line included. Views stay
/// valid until the next call to next().
class LineReader {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  explicit LineReader(std::istream& in);

  /// Stores the next line (without its '\n') in `line`; false at the end.
  bool next(std::string_view& line);
  /// 1-based number of the line last returned.
  std::size_t line_no() const noexcept { return line_no_; }

 private:
  void refill();

  std::istream* in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // start of the unconsumed bytes in buf_
  std::size_t end_ = 0;  // end of the bytes read into buf_
  bool eof_ = false;
  std::size_t line_no_ = 0;
};

/// A set of field separators for split_fields.
struct Separators {
  bool is[256] = {};
  constexpr explicit Separators(std::string_view chars) {
    for (const char c : chars) is[static_cast<unsigned char>(c)] = true;
  }
};
/// Edge lists split on ' ', '\t' and '\r'.
inline constexpr Separators kEdgeSeparators{" \t\r"};

/// Splits `line` into fields separated by runs of `seps`, storing at most
/// fields.size() of them; returns how many it stored. Fields past the last
/// slot are not scanned.
std::size_t split_fields(std::string_view line,
                         std::span<std::string_view> fields,
                         const Separators& seps = kEdgeSeparators);

/// Parses edge rows from a text stream: '#' and '%' comment lines and blank
/// lines are skipped, and a malformed row throws util::InputError naming its
/// line. The one edge parser behind load_snap/load_weighted and the
/// streaming converter's TextEdgeSource, so both report identical errors.
class EdgeReader {
 public:
  EdgeReader(std::istream& in, bool weighted);
  /// Fills `edge` with the next edge row; false at the end of the stream.
  bool next(ParsedEdge& edge);

 private:
  LineReader lines_;
  bool weighted_;
};

/// Open-addressing map from raw node labels to compact ids, assigned in
/// first-seen order. Every u64 is a valid label; empty slots are marked by
/// the id kInvalidNode instead.
class LabelTable {
 public:
  LabelTable();

  /// The label's id, assigning the next free one on first sight.
  NodeId intern(std::uint64_t label);
  /// The label's id, or kInvalidNode if it was never interned.
  NodeId find(std::uint64_t label) const noexcept;
  std::size_t size() const noexcept { return labels_.size(); }
  /// Hands over the labels, indexed by id; the table is unusable after.
  std::vector<std::uint64_t> take_labels() noexcept {
    return std::move(labels_);
  }

 private:
  struct Slot {
    std::uint64_t label = 0;
    NodeId id = kInvalidNode;
  };
  std::size_t home(std::uint64_t label) const noexcept;
  void grow();

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  unsigned shift_ = 0;       // 64 - log2(slots_.size())
  std::vector<std::uint64_t> labels_;
};

/// Compacts raw node ids in order of appearance (sources before destinations
/// within each edge) and builds the normalized graph, one edge at a time:
/// the exact semantics of load_snap/load_weighted, shared with other edge
/// producers (the streaming converter's oracle, synthetic benches).
class EdgeAssembler {
 public:
  void add(const ParsedEdge& edge);
  /// Builds the graph. Call once, after the last add().
  LoadedGraph finish();

 private:
  LabelTable ids_;
  SignedGraphBuilder builder_{0};
};

/// Parses a SNAP-style signed edge list from a stream.
/// Throws std::runtime_error with the line number on malformed input.
LoadedGraph load_snap(std::istream& in);

/// Reads the file at `path` with load_snap(std::istream&).
LoadedGraph load_snap_file(const std::string& path);

/// Parses the 4-column weighted variant ("src dst sign weight").
LoadedGraph load_weighted(std::istream& in);
LoadedGraph load_weighted_file(const std::string& path);

/// Writes "src dst sign weight" rows (library node ids, '#' header).
void save_weighted(const SignedGraph& graph, std::ostream& out);
void save_weighted_file(const SignedGraph& graph, const std::string& path);

}  // namespace rid::graph
