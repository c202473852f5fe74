#include "core/snapshot_io.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>

#include "graph/graph_io.hpp"
#include "util/errors.hpp"

namespace rid::core {

namespace {
[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw util::InputError("snapshot_io: line " + std::to_string(line_no) +
                         ": " + what);
}
}  // namespace

void save_snapshot(std::span<const graph::NodeState> states,
                   std::ostream& out) {
  out << "# node state   (state in {+1, -1, ?}; inactive nodes omitted)\n";
  for (std::size_t v = 0; v < states.size(); ++v) {
    if (states[v] == graph::NodeState::kInactive) continue;
    out << v << ' ' << graph::to_string(states[v]) << '\n';
  }
}

void save_snapshot_file(std::span<const graph::NodeState> states,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw util::InputError("snapshot_io: cannot open " + path);
  save_snapshot(states, out);
}

std::vector<SnapshotEntry> parse_snapshot_entries(std::istream& in) {
  // Fields split on every C-locale space character, as `>>` splits them.
  static constexpr graph::Separators kSeparators{" \t\r\v\f"};
  std::vector<SnapshotEntry> entries;
  graph::LineReader lines(in);
  std::string_view line;
  while (lines.next(line)) {
    const std::size_t line_no = lines.line_no();
    std::string_view fields[2];
    const std::size_t got = graph::split_fields(line, fields, kSeparators);
    if (got == 0) continue;  // blank line
    const std::string_view id_token = fields[0];
    if (id_token[0] == '#' || id_token[0] == '%') continue;
    if (got < 2) fail(line_no, "missing state column");
    const std::string_view state_token = fields[1];

    SnapshotEntry entry;
    entry.line_no = line_no;
    const auto res = std::from_chars(
        id_token.data(), id_token.data() + id_token.size(), entry.node);
    if (res.ec != std::errc{} || res.ptr != id_token.data() + id_token.size())
      fail(line_no, "bad node id '" + std::string(id_token) + "'");

    if (state_token == "+1" || state_token == "1") {
      entry.state = graph::NodeState::kPositive;
    } else if (state_token == "-1") {
      entry.state = graph::NodeState::kNegative;
    } else if (state_token == "?") {
      entry.state = graph::NodeState::kUnknown;
    } else if (state_token == "0") {
      entry.state = graph::NodeState::kInactive;
    } else {
      fail(line_no, "bad state '" + std::string(state_token) + "'");
    }
    entries.push_back(entry);
  }
  return entries;
}

std::vector<SnapshotEntry> load_snapshot_entries_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::InputError("snapshot_io: cannot open " + path);
  return parse_snapshot_entries(in);
}

std::vector<graph::NodeState> apply_snapshot_entries(
    std::span<const SnapshotEntry> entries, graph::NodeId num_nodes) {
  std::vector<graph::NodeState> states(num_nodes,
                                       graph::NodeState::kInactive);
  for (const SnapshotEntry& entry : entries) {
    if (entry.node >= num_nodes) fail(entry.line_no, "node id out of range");
    states[static_cast<std::size_t>(entry.node)] = entry.state;
  }
  return states;
}

std::vector<graph::NodeState> load_snapshot(std::istream& in,
                                            graph::NodeId num_nodes) {
  return apply_snapshot_entries(parse_snapshot_entries(in), num_nodes);
}

std::vector<graph::NodeState> load_snapshot_file(const std::string& path,
                                                 graph::NodeId num_nodes) {
  std::ifstream in(path);
  if (!in) throw util::InputError("snapshot_io: cannot open " + path);
  return load_snapshot(in, num_nodes);
}

}  // namespace rid::core
