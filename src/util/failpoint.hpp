// Deterministic fault injection for testing recovery paths.
//
// A *failpoint* is a named hook compiled into a code path (via the
// RID_FAILPOINT macro) that normally does nothing. Tests (or an operator,
// through the RID_FAILPOINTS environment variable) can *arm* a failpoint
// with an action — throw an exception, abort the process, sleep, or
// simulate an allocation failure — and a trigger count, so the Nth traversal
// of that exact code path fails on demand. Every crash-recovery branch in
// the sharded RID runner (worker requeue, backoff, poison-pill demotion,
// checkpoint resume) is exercised through this framework rather than
// trusted; see DESIGN.md §11 for the failpoint catalog.
//
// Spec grammar (';' or ',' separated):
//     name=action[(arg)][@N]
//   actions:
//     throw        throw rid::util::failpoint::FailpointError
//     abort        std::abort() — a crash the process cannot catch
//     oom          throw std::bad_alloc (allocation-failure simulation)
//     sleep(MS)    block the hitting thread for MS milliseconds (hangs)
//     window(MS)   throw for MS milliseconds starting at the triggering
//                  hit, then pass forever (a network partition that heals)
//     drop(PCT)    no throw/abort — marks PCT% of hits as "dropped"; the
//                  hook site queries should_drop() and swallows the
//                  operation itself (lossy-link simulation)
//   @N: trigger only on the Nth hit of this process (counting from 1);
//       omitted = trigger on every hit (for window: the window opens at
//       the Nth hit).
// Examples:
//     "tree_dp.compute=throw"              every DP compute throws
//     "shard.worker_tree=abort@2"          worker dies at its 2nd tree
//     "checkpoint.append=sleep(500)@1"     first record append stalls 500 ms
//                                          (appends run in the supervising
//                                          process: abort there crashes the
//                                          run, and --resume recovers it)
//     "net.partition=window(400)@3"        3rd net op opens a 400 ms outage
//     "net.drop_rate=drop(25)"             25% of frames vanish silently
//
// Cost when nothing is armed: one relaxed atomic load and a predictable
// branch per RID_FAILPOINT — cheap enough for per-solve/per-component
// granularity (never placed in per-node inner loops). Hit bookkeeping is
// process-local: a forked worker starts with the parent's arming but its
// own copy of the counters, which is exactly what per-worker "@N" semantics
// want.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rid::util::failpoint {

/// Thrown by the `throw` action. Deliberately NOT an InputError or
/// BudgetExceededError: an injected fault models an internal failure, so it
/// must flow through the generic recovery paths.
class FailpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
extern std::atomic<int> g_armed_count;  // armed failpoints in this process
void hit_slow(const char* name);
bool should_drop_slow(const char* name);
}  // namespace detail

/// True when at least one failpoint is armed (relaxed load; the fast path
/// of every RID_FAILPOINT).
inline bool any_armed() noexcept {
  return detail::g_armed_count.load(std::memory_order_relaxed) > 0;
}

/// Evaluates the named failpoint: counts the hit and performs the armed
/// action when the trigger matches. No-op (one atomic load) when nothing is
/// armed anywhere, or this name is not armed.
inline void hit(const char* name) {
  if (any_armed()) detail::hit_slow(name);
}

/// Non-throwing query for `drop(PCT)` failpoints: true when this hit falls
/// in the armed drop percentage (deterministic per hit index — no RNG, so
/// chaos schedules replay identically). False when the name is unarmed, is
/// armed with a non-drop action, or nothing is armed at all. The hook site
/// owns the semantics of "dropped" (swallow a frame, skip a write, ...).
inline bool should_drop(const char* name) {
  return any_armed() && detail::should_drop_slow(name);
}

/// Arms failpoints from a spec string (see the grammar above). Merges into
/// the current arming — re-arming a name replaces its action and resets its
/// hit count. Throws std::invalid_argument on a malformed spec.
void arm(const std::string& spec);

/// Arms from the RID_FAILPOINTS environment variable; no-op when unset or
/// empty. Called by the CLI at startup and by sharded workers after fork.
void arm_from_env();

/// Disarms one failpoint (no-op when not armed) / all failpoints.
void disarm(const std::string& name);
void disarm_all();

/// Hits observed by an armed failpoint since it was armed (0 for unarmed
/// names — unarmed hits are not counted; the fast path never touches the
/// registry).
std::uint64_t hit_count(const std::string& name);

/// Names currently armed, sorted.
std::vector<std::string> armed_names();

}  // namespace rid::util::failpoint

/// The hook placed in library code. `name` must be a string literal (or
/// otherwise outlive the call).
#define RID_FAILPOINT(name) ::rid::util::failpoint::hit(name)
