#include "graph/graph_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "util/errors.hpp"

namespace rid::graph {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw util::InputError("graph_io: line " + std::to_string(line_no) + ": " +
                         what);
}

template <typename T>
T parse_integer(std::string_view token, std::size_t line_no) {
  T value{};
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
    fail(line_no, "expected an integer, got '" + std::string(token) + "'");
  return value;
}

/// True when the mantissa of a decimal token has no nonzero digit, i.e. the
/// token spells an exact zero.
bool spells_zero(std::string_view token) {
  for (const char c : token) {
    if (c == 'e' || c == 'E') break;
    if (c >= '1' && c <= '9') return false;
  }
  return true;
}

/// Parses a weight with std::stod's semantics: a leading '+', hex floats and
/// leading whitespace other than the separators are accepted, and results
/// that over- or underflow (ERANGE) are rejected. std::from_chars handles
/// the common case; anything it does not accept in full, and any result
/// near the underflow range, is re-parsed by std::stod itself.
double parse_weight(std::string_view token, std::size_t line_no) {
  double value = 0.0;
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (res.ec == std::errc{} && res.ptr == token.data() + token.size() &&
      ((std::isfinite(value) && std::fabs(value) >= 1e-300) ||
       (value == 0.0 && spells_zero(token))))
    return value;
  try {
    std::size_t pos = 0;
    value = std::stod(std::string(token), &pos);
    if (pos == token.size()) return value;
  } catch (const std::exception&) {
  }
  fail(line_no, "expected a number, got '" + std::string(token) + "'");
}

/// Parses one edge-list line. Returns false for blank/comment lines, true
/// with `out` filled for edge rows; throws util::InputError carrying
/// `line_no` on malformed rows.
bool parse_edge_line(std::string_view line, std::size_t line_no, bool weighted,
                     ParsedEdge& out) {
  std::string_view fields[4];
  const std::size_t expected = weighted ? 4 : 3;
  const std::size_t got =
      split_fields(line, std::span<std::string_view>(fields, expected));
  if (got == 0 || fields[0].front() == '#' || fields[0].front() == '%')
    return false;
  if (got < expected)
    fail(line_no, "expected " + std::to_string(expected) + " columns, got " +
                      std::to_string(got));
  out.src = parse_integer<std::uint64_t>(fields[0], line_no);
  out.dst = parse_integer<std::uint64_t>(fields[1], line_no);
  out.sign = parse_integer<int>(fields[2], line_no);
  if (out.sign != 1 && out.sign != -1)
    fail(line_no, "sign must be +1 or -1, got " + std::to_string(out.sign));
  out.weight = weighted ? parse_weight(fields[3], line_no) : 1.0;
  if (!(out.weight >= 0.0 && out.weight <= 1.0))
    fail(line_no, "weight outside [0, 1]");
  return true;
}

LoadedGraph load_impl(std::istream& in, bool weighted) {
  EdgeReader reader(in, weighted);
  EdgeAssembler assembler;
  ParsedEdge edge;
  while (reader.next(edge)) assembler.add(edge);
  return assembler.finish();
}

}  // namespace

LineReader::LineReader(std::istream& in) : in_(&in) {}

void LineReader::refill() {
  // Keep the unconsumed tail (a partial line) and append one block after it.
  const std::size_t carried = end_ - pos_;
  if (carried > 0 && pos_ > 0)
    std::memmove(buf_.data(), buf_.data() + pos_, carried);
  pos_ = 0;
  end_ = carried;
  if (buf_.size() < carried + kBlockBytes) buf_.resize(carried + kBlockBytes);
  in_->read(buf_.data() + end_, static_cast<std::streamsize>(kBlockBytes));
  const auto got = static_cast<std::size_t>(in_->gcount());
  end_ += got;
  if (got < kBlockBytes) eof_ = true;
}

bool LineReader::next(std::string_view& line) {
  for (;;) {
    const char* begin = buf_.data() + pos_;
    const auto* newline =
        pos_ < end_
            ? static_cast<const char*>(std::memchr(begin, '\n', end_ - pos_))
            : nullptr;
    if (newline != nullptr) {
      line = std::string_view(begin, static_cast<std::size_t>(newline - begin));
      pos_ += line.size() + 1;
      ++line_no_;
      return true;
    }
    if (eof_) {
      if (pos_ == end_) return false;
      line = std::string_view(begin, end_ - pos_);
      pos_ = end_;
      ++line_no_;
      return true;
    }
    refill();
  }
}

std::size_t split_fields(std::string_view line,
                         std::span<std::string_view> fields,
                         const Separators& seps) {
  const auto is_sep = [&](char c) {
    return seps.is[static_cast<unsigned char>(c)];
  };
  std::size_t count = 0;
  std::size_t i = 0;
  while (count < fields.size()) {
    while (i < line.size() && is_sep(line[i])) ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && !is_sep(line[i])) ++i;
    fields[count++] = line.substr(start, i - start);
  }
  return count;
}

EdgeReader::EdgeReader(std::istream& in, bool weighted)
    : lines_(in), weighted_(weighted) {}

bool EdgeReader::next(ParsedEdge& edge) {
  std::string_view line;
  while (lines_.next(line)) {
    if (parse_edge_line(line, lines_.line_no(), weighted_, edge)) return true;
  }
  return false;
}

LabelTable::LabelTable() : slots_(1024), shift_(64 - 10) {}

std::size_t LabelTable::home(std::uint64_t label) const noexcept {
  // Fibonacci hashing: the multiply spreads sequential and strided labels
  // alike, and the high bits index the table.
  return static_cast<std::size_t>((label * 0x9E3779B97F4A7C15ull) >> shift_);
}

NodeId LabelTable::find(std::uint64_t label) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(label);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidNode || slot.label == label) return slot.id;
  }
}

NodeId LabelTable::intern(std::uint64_t label) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(label);
  for (; slots_[i].id != kInvalidNode; i = (i + 1) & mask)
    if (slots_[i].label == label) return slots_[i].id;
  if (labels_.size() >= kInvalidNode)
    throw std::length_error("graph_io: node count exceeds 32-bit id space");
  const auto id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  slots_[i] = {label, id};
  if (2 * labels_.size() > slots_.size()) grow();
  return id;
}

void LabelTable::grow() {
  slots_.assign(2 * slots_.size(), Slot{});
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t id = 0; id < labels_.size(); ++id) {
    std::size_t i = home(labels_[id]);
    while (slots_[i].id != kInvalidNode) i = (i + 1) & mask;
    slots_[i] = {labels_[id], static_cast<NodeId>(id)};
  }
}

void EdgeAssembler::add(const ParsedEdge& edge) {
  // Explicit sequencing: the source is numbered before the destination.
  const NodeId src = ids_.intern(edge.src);
  const NodeId dst = ids_.intern(edge.dst);
  builder_.ensure_node(std::max(src, dst));
  builder_.add_edge(src, dst, sign_from_value(edge.sign), edge.weight);
}

LoadedGraph EdgeAssembler::finish() {
  LoadedGraph out;
  out.graph = builder_.build();
  out.original_label = ids_.take_labels();
  return out;
}

LoadedGraph load_snap(std::istream& in) { return load_impl(in, false); }

LoadedGraph load_weighted(std::istream& in) { return load_impl(in, true); }

LoadedGraph load_snap_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::InputError("graph_io: cannot open " + path);
  return load_snap(in);
}

LoadedGraph load_weighted_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::InputError("graph_io: cannot open " + path);
  return load_weighted(in);
}

void save_weighted(const SignedGraph& graph, std::ostream& out) {
  out << "# src dst sign weight\n";
  // Shortest round-trip formatting: a load of the saved file reproduces
  // every weight bit-for-bit (ostream's default 6 significant digits would
  // not).
  char buf[64];
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), graph.edge_weight(e));
    out << graph.edge_src(e) << '\t' << graph.edge_dst(e) << '\t'
        << sign_value(graph.edge_sign(e)) << '\t'
        << std::string_view(buf, static_cast<std::size_t>(res.ptr - buf))
        << '\n';
  }
}

void save_weighted_file(const SignedGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw util::InputError("graph_io: cannot open " + path);
  save_weighted(graph, out);
}

}  // namespace rid::graph
