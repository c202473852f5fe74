// Crash-isolated sharded RID runner: plan shards, launch one worker per
// shard (util/proc_supervisor.hpp) through the shard dispatcher
// (core/shard_transport.hpp), which appends every streamed per-tree record
// to the run directory's checkpoint files (core/checkpoint.hpp), and merge
// in the parent with the exact in-process accumulation order so the result
// is bit-identical to run_rid for any shard count — including a resume
// after a mid-run crash. See DESIGN.md §11.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/rid.hpp"
#include "core/rid_internal.hpp"
#include "core/shard_transport.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rid::core {

namespace {

namespace fs = std::filesystem;
namespace trace = util::trace;

/// Sharded-runner metrics series (the supervisor's shard.* counters live in
/// util/proc_supervisor.cpp; these mirror rid.cpp's per-tree outcome ones).
struct ShardedRidMetrics {
  util::metrics::Counter& runs =
      util::metrics::global().counter("rid.sharded_runs");
  util::metrics::Counter& trees_ok =
      util::metrics::global().counter("rid.trees_ok");
  util::metrics::Counter& trees_degraded =
      util::metrics::global().counter("rid.trees_degraded");
  util::metrics::Counter& trees_failed =
      util::metrics::global().counter("rid.trees_failed");
  util::metrics::Counter& resumed =
      util::metrics::global().counter("rid.trees_resumed");
  util::metrics::Counter& transport_fallbacks =
      util::metrics::global().counter("net.transport_fallbacks");
};

ShardedRidMetrics& sharded_metrics() {
  static ShardedRidMetrics instance;
  return instance;
}

/// Size-balanced deterministic plan over an arbitrary subset of trees
/// (resume plans only the trees missing from the checkpoint directory).
std::vector<util::ShardWork> plan_over(const CascadeForest& forest,
                                       std::vector<std::size_t> trees,
                                       std::size_t num_shards) {
  if (num_shards == 0)
    throw util::InputError("sharded RID run requires num_shards >= 1");
  std::vector<util::ShardWork> shards;
  if (trees.empty()) return shards;
  // Longest-processing-time greedy: biggest trees first (index breaks
  // ties), each onto the lightest shard (shard id breaks ties). Depends
  // only on the forest shape, never on scheduling.
  std::sort(trees.begin(), trees.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t sa = forest.trees[a].size();
    const std::size_t sb = forest.trees[b].size();
    if (sa != sb) return sa > sb;
    return a < b;
  });
  shards.resize(std::min(num_shards, trees.size()));
  for (std::size_t s = 0; s < shards.size(); ++s) shards[s].shard_id = s;
  std::vector<std::size_t> load(shards.size(), 0);
  for (const std::size_t tree : trees) {
    const std::size_t lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    shards[lightest].items.push_back(tree);
    load[lightest] += std::max<std::size_t>(1, forest.trees[tree].size());
  }
  // Workers process (and the poison suspect is defined over) ascending tree
  // order within the shard.
  for (util::ShardWork& shard : shards)
    std::sort(shard.items.begin(), shard.items.end());
  return shards;
}

void ensure_run_dir(const std::string& run_dir, bool resume,
                    std::vector<std::string>& events) {
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    throw util::InputError("cannot create run directory '" + run_dir +
                           "': " + ec.message());
  }
  if (resume) return;
  // Fresh run: stale checkpoint files would otherwise be merged back in by
  // a later resume.
  std::size_t removed = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(run_dir, ec)) {
    if (ec) break;
    if (entry.path().extension() != kCheckpointExtension) continue;
    std::error_code remove_ec;
    if (fs::remove(entry.path(), remove_ec)) ++removed;
  }
  if (removed > 0) {
    std::ostringstream event;
    event << "fresh run: removed " << removed << " stale checkpoint file"
          << (removed == 1 ? "" : "s") << " from " << run_dir;
    events.push_back(event.str());
  }
}

/// Parent-side demotion for a tree no worker could complete (poison pill,
/// attempts exhausted, or cancellation): the same RID-Tree root-only ladder
/// an in-process DP failure takes.
TreeCheckpointRecord demote_tree(const CascadeForest& forest,
                                 std::size_t tree_index,
                                 const std::string& reason) {
  TreeCheckpointRecord record;
  record.tree_index = tree_index;
  record.error = reason;
  try {
    record.solution = internal::root_only_fallback(forest.trees[tree_index]);
    record.fallback_root_only = !record.solution.initiators.empty();
  } catch (...) {
    const internal::FailureInfo second =
        internal::describe_failure(std::current_exception());
    record.error += "; fallback: " + second.message;
    record.solution = TreeSolution{};
    record.fallback_root_only = false;
  }
  record.status = record.fallback_root_only ? TreeStatus::kDegraded
                                            : TreeStatus::kFailed;
  return record;
}

}  // namespace

std::vector<util::ShardWork> plan_shards(const CascadeForest& forest,
                                         std::size_t num_shards) {
  std::vector<std::size_t> trees(forest.trees.size());
  std::iota(trees.begin(), trees.end(), 0);
  return plan_over(forest, std::move(trees), num_shards);
}

DetectionResult run_rid_sharded_on_forest(const CascadeForest& forest,
                                          const RidConfig& config,
                                          const ShardedConfig& sharded) {
  if (sharded.run_dir.empty()) {
    throw util::InputError(
        "sharded RID run requires a run directory (ShardedConfig::run_dir)");
  }
  const bool socket_transport =
      sharded.transport == ShardTransport::kSocket;
  if (socket_transport) {
    if (sharded.worker_command.empty())
      throw util::InputError(
          "socket transport requires ShardedConfig::worker_command (the "
          "binary exec'd as `<cmd> worker`)");
    if (sharded.graph_path.empty())
      throw util::InputError(
          "socket transport requires ShardedConfig::graph_path (a .ridg "
          "snapshot with embedded states for workers to re-map)");
    // The forest fingerprint covers tree shapes and states but NOT the
    // candidate mask or repaired states — an exec'd worker re-extracting
    // from the raw snapshot would silently compute against a different
    // eligibility set. Refuse instead of diverging.
    if (!config.candidates.empty())
      throw util::InputError(
          "socket transport does not support RidConfig::candidates (the "
          "mask is not covered by the forest fingerprint)");
    if (config.repair_policy == RepairPolicy::kRepair)
      throw util::InputError(
          "socket transport does not support RepairPolicy::kRepair "
          "(repaired states are not covered by the forest fingerprint)");
  }
  if (!util::process_isolation_supported() ||
      (socket_transport && !util::net::supported())) {
    // No fork() on this platform: degrade to the in-process pipeline (same
    // answer — the whole point of the bit-identity contract).
    DetectionResult result = run_rid_on_forest(forest, config);
    result.diagnostics.shard_events.push_back(
        "process isolation unsupported on this platform - ran in-process");
    return result;
  }
  sharded_metrics().runs.add(1);

  trace::TraceSpan span("solve_forest_sharded");
  span.tag("trees", static_cast<std::int64_t>(forest.trees.size()));
  span.tag("shards", static_cast<std::int64_t>(sharded.num_shards));

  DetectionResult out;
  out.num_components = forest.num_components;
  out.num_trees = forest.trees.size();
  RunDiagnostics& diagnostics = out.diagnostics;

  ensure_run_dir(sharded.run_dir, sharded.resume, diagnostics.shard_events);
  const std::uint64_t fingerprint = forest_fingerprint(forest);
  const std::size_t n = forest.trees.size();

  // Resume: adopt every durable tree (first record wins; records for the
  // same tree are byte-identical on a deterministic pipeline), recompute
  // the rest. Damaged files surface as shard events, never as a crash.
  std::vector<bool> have(n, false);
  std::vector<TreeCheckpointRecord> records(n);
  const auto adopt_records = [&](std::vector<TreeCheckpointRecord> found,
                                 bool counts_as_resume) {
    for (TreeCheckpointRecord& record : found) {
      if (record.tree_index >= n) {
        std::ostringstream event;
        event << "ignoring checkpoint record for out-of-range tree "
              << record.tree_index;
        diagnostics.shard_events.push_back(event.str());
        continue;
      }
      const std::size_t t = static_cast<std::size_t>(record.tree_index);
      if (have[t]) continue;
      have[t] = true;
      records[t] = std::move(record);
      if (counts_as_resume) ++diagnostics.resumed_trees;
    }
  };
  if (sharded.resume) {
    CheckpointLoad load = load_checkpoint_dir(sharded.run_dir, fingerprint);
    adopt_records(std::move(load.records), /*counts_as_resume=*/true);
    for (std::string& error : load.errors)
      diagnostics.shard_events.push_back("checkpoint: " + std::move(error));
  }
  sharded_metrics().resumed.add(diagnostics.resumed_trees);

  // Plan only the missing trees.
  std::vector<std::size_t> pending;
  for (std::size_t t = 0; t < n; ++t)
    if (!have[t]) pending.push_back(t);
  // The plan of the phase being supervised (a fork fallback re-plans).
  std::vector<util::ShardWork> shards =
      plan_over(forest, pending, sharded.num_shards);
  diagnostics.shard_count = shards.size();

  // Resolved solve configuration (thread counts substituted — the DP is
  // bit-identical across them); exec'd workers also rebuild the forest.
  WorkerAssignment assignment;
  assignment.fingerprint = fingerprint;
  assignment.trace_id = sharded.trace_id;
  // Workers record spans only when the parent is tracing; the telemetry
  // frame itself always flows (the metrics half is always compiled).
  assignment.collect_trace = trace::enabled();
  assignment.graph_path = sharded.graph_path;
  assignment.beta = config.beta;
  assignment.dp = config.dp;
  assignment.dp.budget = nullptr;
  if (assignment.dp.num_threads == 0)
    assignment.dp.num_threads = internal::intra_tree_threads(config, forest);
  assignment.extraction = config.extraction;
  assignment.extraction.budget = nullptr;
  if (assignment.extraction.num_threads == 0)
    assignment.extraction.num_threads = config.num_threads;
  assignment.budget = config.budget;
  assignment.budget.cancel = {};  // cancellation stays parent-side

  // The dispatcher is the only writer of this run's checkpoint records,
  // whatever launched the worker; only exec'd workers need it to listen.
  SocketDispatcher dispatcher =
      socket_transport
          ? SocketDispatcher(
                sharded.worker_endpoint.empty()
                    ? util::net::Endpoint::unix_path(sharded.run_dir +
                                                     "/workers.sock")
                    : util::net::Endpoint::parse(sharded.worker_endpoint),
                sharded.run_dir, std::move(assignment),
                {sharded.auth_token, sharded.graph_cache_dir})
          : SocketDispatcher(sharded.run_dir, std::move(assignment));
  // Parent-side durability probe: which of a shard's trees the dispatcher
  // has appended (the supervisor drains a reaped worker's frames first).
  const auto durable = [&](std::size_t shard_id) {
    return dispatcher.appended(shards[shard_id].items);
  };

  util::SupervisorReport report;
  if (socket_transport) {
    // Grace watchdog (remote_grace_seconds > 0): a derived cancel token
    // trips when the user cancels, or when the grace budget elapses with no
    // worker having ever completed a handshake — the transport is treated
    // as unreachable and the remaining trees re-run over the fork launcher
    // below. The watchdog retires permanently after the first handshake:
    // from then on connection losses follow the normal retry/requeue
    // ladder, not the fallback.
    util::SupervisorOptions socket_supervisor = sharded.supervisor;
    util::CancelToken grace_cancel;
    std::atomic<bool> watchdog_stop{false};
    std::thread watchdog;
    if (sharded.remote_grace_seconds > 0) {
      grace_cancel = util::CancelToken::create();
      socket_supervisor.cancel = grace_cancel;
      const util::CancelToken user_cancel = sharded.supervisor.cancel;
      const double grace = sharded.remote_grace_seconds;
      watchdog = std::thread([&dispatcher, &watchdog_stop, grace_cancel,
                              user_cancel, grace] {
        const auto start = std::chrono::steady_clock::now();
        while (!watchdog_stop.load(std::memory_order_relaxed)) {
          if (user_cancel.cancel_requested()) {
            grace_cancel.request_cancel();
            return;
          }
          if (dispatcher.handshakes_completed() > 0) return;
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          if (elapsed >= grace) {
            grace_cancel.request_cancel();
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }
    report = util::supervise_shards(
        shards, socket_supervisor,
        dispatcher.exec_launcher(sharded.worker_command, socket_supervisor),
        durable);
    if (watchdog.joinable()) {
      watchdog_stop.store(true, std::memory_order_relaxed);
      watchdog.join();
    }

    // Degraded-transport fallback: the socket phase ended (grace-cancelled
    // or attempts exhausted) without a single completed handshake, and
    // trees remain. Re-plan the non-durable remainder and run it through
    // the fork launcher under the *user's* cancel token. The socket phase's
    // poison/abandon verdicts are transport artifacts — no worker ever held
    // those trees — so the fallback's verdicts replace them; its crash and
    // retry counts merge for observability. Results stay bit-identical:
    // records adopt first-wins and both launchers run the same solver.
    if (sharded.remote_grace_seconds > 0 &&
        !sharded.supervisor.cancel.cancel_requested() &&
        (report.cancelled || dispatcher.handshakes_completed() == 0)) {
      const std::vector<std::size_t> done = dispatcher.appended(pending);
      std::vector<std::size_t> remaining;
      std::set_difference(pending.begin(), pending.end(), done.begin(),
                          done.end(), std::back_inserter(remaining));
      if (!remaining.empty()) {
        sharded_metrics().transport_fallbacks.add(1);
        std::ostringstream event;
        event << "degraded transport: no socket worker completed a handshake"
              << " within the " << sharded.remote_grace_seconds
              << "s grace budget; re-running " << remaining.size()
              << " trees over the fork transport";
        diagnostics.shard_events.push_back(event.str());
        shards = plan_over(forest, remaining, sharded.num_shards);
        util::SupervisorReport fallback = util::supervise_shards(
            shards, sharded.supervisor,
            dispatcher.fork_launcher(forest, sharded.supervisor), durable);
        report.cancelled = fallback.cancelled;
        report.workers_spawned += fallback.workers_spawned;
        report.crashes += fallback.crashes;
        report.kills += fallback.kills;
        report.retries += fallback.retries;
        report.poisoned_items = std::move(fallback.poisoned_items);
        report.abandoned_items = std::move(fallback.abandoned_items);
        for (std::string& fb_event : fallback.events)
          report.events.push_back(std::move(fb_event));
      }
    }
  } else {
    report = util::supervise_shards(
        shards, sharded.supervisor,
        dispatcher.fork_launcher(forest, sharded.supervisor), durable);
  }
  // Every worker is reaped and drained: fold in its telemetry, then adopt
  // what the dispatcher appended.
  dispatcher.merge_telemetry();
  for (std::string& event : dispatcher.take_events())
    diagnostics.shard_events.push_back(std::move(event));
  diagnostics.shard_retries = report.retries;
  diagnostics.shard_crashes = report.crashes;
  for (const std::string& event : report.events)
    diagnostics.shard_events.push_back(event);
  adopt_records(dispatcher.take_records(), /*counts_as_resume=*/false);

  // Poison pills: demote in the parent and *persist* the demotion, so a
  // later resume keeps the verdict instead of feeding the killer tree to a
  // fresh worker. Abandoned or cancelled trees are demoted in memory only —
  // a clean resume should recompute them.
  if (!report.poisoned_items.empty()) {
    std::ostringstream reason;
    reason << "poison pill: tree killed " << sharded.supervisor.poison_threshold
           << " workers; demoted to root-only fallback";
    std::vector<const TreeCheckpointRecord*> demoted;
    for (const std::size_t item : report.poisoned_items) {
      if (item >= n || have[item]) continue;
      records[item] = demote_tree(forest, item, reason.str());
      have[item] = true;
      ++diagnostics.shard_poison_trees;
      demoted.push_back(&records[item]);
    }
    try {
      CheckpointWriter poison_writer(
          fresh_checkpoint_path(sharded.run_dir, "poison"), fingerprint);
      for (const TreeCheckpointRecord* record : demoted)
        poison_writer.append(*record);
    } catch (const std::exception& e) {
      diagnostics.shard_events.push_back(
          std::string("failed to persist poison demotions: ") + e.what());
    }
  }
  for (const std::size_t item : report.abandoned_items) {
    if (item >= n || have[item]) continue;
    std::ostringstream reason;
    reason << "abandoned after " << sharded.supervisor.max_shard_attempts
           << " worker attempts";
    records[item] = demote_tree(forest, item, reason.str());
    have[item] = true;
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (have[t]) continue;
    records[t] = demote_tree(forest, t,
                             report.cancelled
                                 ? "cancelled before completion"
                                 : "not completed by any worker");
    have[t] = true;
  }

  // Per-tree diagnostics and the merge, both in tree order — the merge
  // accumulation order is the bit-identity contract with run_rid.
  ShardedRidMetrics& rm = sharded_metrics();
  for (std::size_t t = 0; t < n; ++t) {
    TreeDiagnostics tree;
    tree.tree_index = t;
    tree.num_nodes = forest.trees[t].size();
    tree.status = records[t].status;
    tree.seconds = records[t].seconds;
    tree.budget_hit = records[t].budget_hit;
    tree.fallback_root_only = records[t].fallback_root_only;
    tree.error = records[t].error;
    switch (tree.status) {
      case TreeStatus::kOk:
        rm.trees_ok.add(1);
        break;
      case TreeStatus::kDegraded:
        rm.trees_degraded.add(1);
        break;
      case TreeStatus::kFailed:
        rm.trees_failed.add(1);
        break;
    }
    diagnostics.record(std::move(tree));
  }
  std::vector<const TreeSolution*> views(n);
  for (std::size_t t = 0; t < n; ++t) views[t] = &records[t].solution;
  internal::merge_solutions(forest, views, out);

  diagnostics.total_seconds = span.seconds();
  internal::attach_stage_totals(diagnostics);
  util::log_debug("run_rid_sharded(beta=", config.beta, ", shards=",
                  diagnostics.shard_count, "): ", out.initiators.size(),
                  " initiators from ", n, " trees (",
                  diagnostics.resumed_trees, " resumed, ", report.retries,
                  " retries, ", report.crashes, " crashes)");
  return out;
}

DetectionResult run_rid_sharded(const graph::ColumnarGraphView& diffusion,
                                std::span<const graph::NodeState> states,
                                const RidConfig& config,
                                const ShardedConfig& sharded) {
  trace::TraceSpan span("run_rid_sharded");
  // Extraction runs in the parent, once; workers inherit the forest
  // copy-on-write.
  return internal::detect_with(
      diffusion, states, config, span, [&](const CascadeForest& forest) {
        // The solves only need the forest. On a mapped view, drop the
        // graph's resident pages *before* the supervisor forks workers, so
        // each child's RSS is O(its shard's trees) instead of O(graph) —
        // the pages re-fault from the file if the parent touches them again.
        diffusion.advise_dontneed();
        return run_rid_sharded_on_forest(forest, config, sharded);
      });
}

}  // namespace rid::core
