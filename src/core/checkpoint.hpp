// Durable per-tree checkpoint stream for long RID runs.
//
// A sharded (or otherwise long-running) RID run streams every completed
// tree's DetectionResult contribution — the TreeSolution plus its
// TreeDiagnostics fields — into a *run directory* as it is produced, so an
// interrupted or crashed run resumes by skipping the trees already on disk.
// Workers die abruptly (crash, OOM-kill, SIGKILL from the supervisor), so
// the format is an append-only stream of self-validating records: readers
// keep the longest valid prefix of each file and treat everything after the
// first damaged byte as lost.
//
// File format (little-endian; also parsed by scripts/check_checkpoint.py):
//   header:  8-byte magic "RIDNCKP1" | u32 format version | u32 reserved(0)
//            | u64 forest fingerprint
//   record:  u32 payload length | u32 FNV-1a checksum of payload | payload
//   payload: u64 tree_index | u8 status | u8 budget_hit
//            | u8 fallback_root_only | u8 reserved(0) | u32 k
//            | f64 opt | f64 objective | f64 seconds   (raw IEEE-754 bits)
//            | u32 #initiators | #initiators x (u32 node | i8 state)
//            | u32 #entry_k    | #entry_k x u32
//            | u32 error length | error bytes
//
// Doubles are stored as raw bit patterns, so a resumed run merges to a
// result bit-identical to the uninterrupted one. The forest fingerprint
// ties a run directory to the exact forest it was computed from; resuming
// against a different snapshot is detected, not silently merged.
//
// Error contract: damaged data (bad magic, unsupported version, fingerprint
// mismatch, bad checksum, truncated record) is reported as util::InputError
// by the strict reader; the tolerant directory loader converts those into
// per-file notes, keeps each file's valid record prefix, and lets the
// caller recompute the missing trees. Corruption never crashes a resume and
// is never silently merged.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/cascade_extraction.hpp"
#include "core/diagnostics.hpp"
#include "core/tree_dp.hpp"

namespace rid::core {

inline constexpr std::uint32_t kCheckpointFormatVersion = 1;
inline constexpr char kCheckpointMagic[8] = {'R', 'I', 'D', 'N',
                                             'C', 'K', 'P', '1'};
/// Checkpoint files in a run directory use this suffix.
inline constexpr const char* kCheckpointExtension = ".ckpt";

/// One durable per-tree result: everything run_rid_on_forest would have
/// produced for this tree (solution + diagnostics), minus the in-memory-only
/// timing attribution.
struct TreeCheckpointRecord {
  std::uint64_t tree_index = 0;
  TreeStatus status = TreeStatus::kOk;
  bool budget_hit = false;
  bool fallback_root_only = false;
  double seconds = 0.0;
  std::string error;
  TreeSolution solution;
};

/// Stable 64-bit fingerprint of a forest's shape (tree count, per-tree node
/// lists and roots). Stored in every checkpoint header; a resume against a
/// directory whose fingerprint differs rejects the stale files instead of
/// merging results from another snapshot.
std::uint64_t forest_fingerprint(const CascadeForest& forest);

/// Serializes one record's payload (exposed for tests and round-trip
/// checks; the writer frames it with length + checksum).
std::string encode_record(const TreeCheckpointRecord& record);

/// Parses one payload. Throws util::InputError on malformed bytes.
TreeCheckpointRecord decode_record(std::string_view payload);

/// Append-only writer for one worker attempt. The header is written at
/// construction; append() frames, checksums, writes, and flushes one record
/// so a crash immediately after the call cannot lose it (the OS still holds
/// the page cache — full durability would add fsync; see DESIGN.md §11).
/// I/O failures throw std::runtime_error.
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path, std::uint64_t fingerprint);
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  void append(const TreeCheckpointRecord& record);
  const std::string& path() const noexcept { return path_; }
  std::size_t records_written() const noexcept { return records_written_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t records_written_ = 0;
};

/// "<run_dir>/<stem>-<n>.ckpt" for the next process-wide n that no file
/// uses yet: writers open with "wb", and shard ids and attempt numbers
/// repeat across fallback phases, resumes and restarts.
std::string fresh_checkpoint_path(const std::string& run_dir,
                                  const std::string& stem);

/// Strict single-file read: returns every record or throws util::InputError
/// on the first damaged byte (bad magic/version/fingerprint/checksum or a
/// truncated record). Pass expected_fingerprint = 0 to skip the fingerprint
/// check (tools that inspect arbitrary run directories).
std::vector<TreeCheckpointRecord> read_checkpoint_file(
    const std::string& path, std::uint64_t expected_fingerprint);

struct CheckpointLoad {
  /// Valid records from every readable file, in (file, offset) order.
  /// tree_index duplicates are possible (a tree completed by two attempts);
  /// entries are byte-identical for a deterministic pipeline, and callers
  /// keep the first.
  std::vector<TreeCheckpointRecord> records;
  /// One human-readable InputError note per damaged file (the file's valid
  /// record prefix is still in `records`).
  std::vector<std::string> errors;
  std::size_t files_scanned = 0;
};

/// Tolerant resume loader: reads every "*.ckpt" file in run_dir (sorted by
/// name for determinism). Damaged files contribute their valid prefix plus
/// an error note; a missing or empty directory is a fresh run, not an
/// error. Never throws on damaged data.
CheckpointLoad load_checkpoint_dir(const std::string& run_dir,
                                   std::uint64_t expected_fingerprint);

/// What `ridnet_cli checkpoints` reports per file: claimed header fields
/// plus how much of the record stream is readable.
struct CheckpointFileInfo {
  std::string path;
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  std::size_t records = 0;  // valid record prefix length
  bool damaged = false;     // header unreadable or stream damaged mid-file
  std::string error;        // description when damaged
};

/// Tolerantly inspects one checkpoint file: header fields (as far as they
/// can be parsed) plus the length of the valid record prefix. Never throws
/// on damaged data — damage lands in `damaged`/`error`.
CheckpointFileInfo inspect_checkpoint_file(const std::string& path);

/// Outcome of compact_checkpoint_dir.
struct CompactionResult {
  std::size_t files_before = 0;       // *.ckpt files scanned
  std::size_t files_removed = 0;      // stale/damaged/superseded files pruned
  std::size_t records_kept = 0;       // records in the compacted file
  std::size_t duplicates_dropped = 0; // same tree_index finished twice
  std::vector<std::string> errors;    // per-file damage notes (informational)
  std::string output_file;            // empty when the dir had no records
};

/// Garbage-collects a run directory: merges every salvageable record (first
/// record per tree_index wins — identical to resume semantics) into a single
/// "compact.ckpt", then removes the superseded attempt/poison files. With
/// expected_fingerprint == 0 the fingerprint is taken from the first
/// readable header; files written for a *different* forest contribute no
/// records and are pruned with the rest. When nothing at all is salvageable
/// the directory is left untouched (a mistaken GC against the wrong forest
/// must not destroy data). Resuming from the compacted directory yields the same
/// merge as from the original. Throws util::InputError only when the new
/// compact file cannot be written; damaged inputs never throw.
CompactionResult compact_checkpoint_dir(const std::string& run_dir,
                                        std::uint64_t expected_fingerprint = 0);

}  // namespace rid::core
