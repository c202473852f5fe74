#include "util/failpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <thread>

#include "util/flight_recorder.hpp"

#if !defined(_WIN32)
#include <pthread.h>
#endif

namespace rid::util::failpoint {

namespace detail {
std::atomic<int> g_armed_count{0};
}  // namespace detail

namespace {

enum class Action : std::uint8_t { kThrow, kAbort, kOom, kSleep, kWindow,
                                   kDrop };

struct Entry {
  Action action = Action::kThrow;
  std::uint64_t arg = 0;          // sleep/window milliseconds, drop percent
  std::uint64_t trigger_hit = 0;  // 0 = every hit; N = only the Nth
  std::uint64_t hits = 0;
  // window(MS) state: the outage opens at the triggering hit and heals
  // arg milliseconds later — hits inside it throw, hits after it pass.
  bool window_opened = false;
  bool window_closed = false;
  std::chrono::steady_clock::time_point window_start{};
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Entry> entries;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

#if !defined(_WIN32)
// Forked workers hit failpoints while parent threads keep hitting them:
// holding the lock across fork() keeps a child from inheriting it taken.
[[maybe_unused]] const int kForkGuard =
    ::pthread_atfork([] { registry().mutex.lock(); },
                     [] { registry().mutex.unlock(); },
                     [] { registry().mutex.unlock(); });
#endif

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

std::uint64_t parse_u64(const std::string& text, const std::string& where) {
  std::size_t consumed = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != text.size() || text.empty())
    throw std::invalid_argument("failpoint spec: bad number '" + text +
                                "' in '" + where + "'");
  return value;
}

/// Parses one "name=action[(arg)][@N]" clause into the registry.
void arm_one(const std::string& clause) {
  const auto eq = clause.find('=');
  if (eq == std::string::npos || eq == 0)
    throw std::invalid_argument("failpoint spec: expected name=action in '" +
                                clause + "'");
  const std::string name = trim(clause.substr(0, eq));
  std::string action = trim(clause.substr(eq + 1));
  if (name.empty() || action.empty())
    throw std::invalid_argument("failpoint spec: empty name or action in '" +
                                clause + "'");

  Entry entry;
  const auto at = action.rfind('@');
  if (at != std::string::npos) {
    entry.trigger_hit = parse_u64(trim(action.substr(at + 1)), clause);
    if (entry.trigger_hit == 0)
      throw std::invalid_argument(
          "failpoint spec: @N counts from 1 (omit @N to trigger on every "
          "hit) in '" + clause + "'");
    action = trim(action.substr(0, at));
  }

  if (action == "throw") {
    entry.action = Action::kThrow;
  } else if (action == "abort") {
    entry.action = Action::kAbort;
  } else if (action == "oom") {
    entry.action = Action::kOom;
  } else if (action.rfind("sleep(", 0) == 0 && action.back() == ')') {
    entry.action = Action::kSleep;
    entry.arg = parse_u64(trim(action.substr(6, action.size() - 7)), clause);
  } else if (action.rfind("window(", 0) == 0 && action.back() == ')') {
    entry.action = Action::kWindow;
    entry.arg = parse_u64(trim(action.substr(7, action.size() - 8)), clause);
  } else if (action.rfind("drop(", 0) == 0 && action.back() == ')') {
    entry.action = Action::kDrop;
    entry.arg = parse_u64(trim(action.substr(5, action.size() - 6)), clause);
    if (entry.arg > 100)
      throw std::invalid_argument(
          "failpoint spec: drop(PCT) takes 0..100 in '" + clause + "'");
  } else {
    throw std::invalid_argument(
        "failpoint spec: unknown action '" + action + "' in '" + clause +
        "' (throw|abort|oom|sleep(MS)|window(MS)|drop(PCT))");
  }

  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto [it, inserted] = reg.entries.insert_or_assign(name, entry);
  (void)it;
  if (inserted)
    detail::g_armed_count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace detail {

void hit_slow(const char* name) {
  Action action;
  std::uint64_t arg;
  {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.entries.find(name);
    if (it == reg.entries.end()) return;
    Entry& entry = it->second;
    ++entry.hits;
    if (entry.action == Action::kWindow) {
      // A partition: opens at the triggering hit, heals arg ms later.
      // Unlike the one-shot actions, every hit inside the window throws.
      if (entry.window_closed) return;
      const auto now = std::chrono::steady_clock::now();
      if (!entry.window_opened) {
        if (entry.trigger_hit != 0 && entry.hits < entry.trigger_hit) return;
        entry.window_opened = true;
        entry.window_start = now;
      }
      if (now - entry.window_start >=
          std::chrono::milliseconds(entry.arg)) {
        entry.window_closed = true;
        return;
      }
      action = Action::kThrow;
      arg = 0;
    } else if (entry.action == Action::kDrop) {
      return;  // drop is queried via should_drop(), never thrown
    } else {
      if (entry.trigger_hit != 0 && entry.hits != entry.trigger_hit) return;
      action = entry.action;
      arg = entry.arg;
    }
  }
  // The action runs outside the registry lock: sleep must not serialize
  // other failpoints, and throw/abort must not leave the mutex held. The
  // flight-recorder event lands before abort so the injected kill is
  // visible in a post-mortem dump.
  switch (action) {
    case Action::kThrow:
      flight::record("failpoint", std::string(name) + ": throw");
      break;
    case Action::kAbort:
      flight::record("failpoint", std::string(name) + ": abort");
      break;
    case Action::kOom:
      flight::record("failpoint", std::string(name) + ": oom");
      break;
    case Action::kSleep:
      break;  // sleeps fire per tree — too chatty for the event ring
    case Action::kWindow:
    case Action::kDrop:
      break;  // rewritten to kThrow / handled in-lock above
  }
  switch (action) {
    case Action::kThrow:
      throw FailpointError(std::string("failpoint '") + name + "' hit");
    case Action::kAbort:
      std::abort();
    case Action::kOom:
      throw std::bad_alloc();
    case Action::kSleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(arg));
      return;
    case Action::kWindow:
    case Action::kDrop:
      return;  // unreachable: rewritten/handled under the lock
  }
}

bool should_drop_slow(const char* name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.entries.find(name);
  if (it == reg.entries.end()) return false;
  Entry& entry = it->second;
  if (entry.action != Action::kDrop) return false;
  ++entry.hits;
  if (entry.trigger_hit != 0 && entry.hits < entry.trigger_hit) return false;
  // Deterministic PCT% selection by hit index (Knuth multiplicative hash):
  // no RNG state, so a replayed chaos schedule drops the same frames.
  const std::uint64_t mixed = (entry.hits * 2654435761ull) >> 13;
  return mixed % 100 < entry.arg;
}

}  // namespace detail

void arm(const std::string& spec) {
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t end = spec.find_first_of(";,", begin);
    const std::string clause =
        trim(spec.substr(begin, end == std::string::npos ? std::string::npos
                                                         : end - begin));
    if (!clause.empty()) arm_one(clause);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
}

void arm_from_env() {
  const char* spec = std::getenv("RID_FAILPOINTS");
  if (spec != nullptr && spec[0] != '\0') arm(spec);
}

void disarm(const std::string& name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.entries.erase(name) > 0)
    detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  detail::g_armed_count.fetch_sub(static_cast<int>(reg.entries.size()),
                                  std::memory_order_relaxed);
  reg.entries.clear();
}

std::uint64_t hit_count(const std::string& name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.entries.find(name);
  return it == reg.entries.end() ? 0 : it->second.hits;
}

std::vector<std::string> armed_names() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.entries.size());
  for (const auto& [name, entry] : reg.entries) names.push_back(name);
  return names;
}

}  // namespace rid::util::failpoint
