#include "util/failpoint.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>

namespace lmfao {

namespace {

enum class FpAction { kFail, kOom, kDelay, kPanic };

struct FpEntry {
  FpAction action = FpAction::kFail;
  int delay_ms = 10;
  double probability = 1.0;   // @prob; 1.0 = always
  uint64_t nth = 0;           // #nth; 0 = any hit
  uint64_t max_fires = 0;     // *count; 0 = unlimited
  // Mutable state, guarded by the registry lock held in shared mode plus
  // the atomics' own ordering: counters only ever increase.
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fires{0};

  FpEntry() = default;
  FpEntry(const FpEntry& o)
      : action(o.action),
        delay_ms(o.delay_ms),
        probability(o.probability),
        nth(o.nth),
        max_fires(o.max_fires),
        hits(o.hits.load()),
        fires(o.fires.load()) {}
};

struct FpRegistry {
  std::shared_mutex mu;
  std::unordered_map<std::string, FpEntry> entries;
  std::string spec;
  uint64_t seed = 0;
};

FpRegistry& Registry() {
  static FpRegistry* r = new FpRegistry();  // never destroyed: checked from
  return *r;                                // static-teardown-adjacent code
}

thread_local Status g_parked;  // NOLINT: thread-local error slot for void seams

uint64_t Mix64(uint64_t x) {
  // SplitMix64 finalizer: cheap, well-distributed, deterministic.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Parses all of `text` as a decimal count: digits only, no sign, no
/// trailing characters, no overflow.
bool ParseCount(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") !=
                          std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0) return false;
  *out = v;
  return true;
}

/// Parses all of `text` as a finite double (no leading space, no trailing
/// characters, no NaN or infinity).
bool ParseFinite(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Parses one `name=action[:ms][@prob][#nth][*count]` clause.
Status ParseClause(const std::string& clause, std::string* name,
                   FpEntry* entry) {
  size_t eq = clause.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("failpoint clause missing '=': '" + clause +
                                   "'");
  }
  *name = clause.substr(0, eq);
  std::string rest = clause.substr(eq + 1);

  // Split off trigger suffixes (@, #, *) — order-independent.
  size_t action_end = rest.find_first_of("@#*");
  std::string action = rest.substr(0, action_end);
  std::string triggers =
      action_end == std::string::npos ? "" : rest.substr(action_end);

  // action[:ms]
  size_t colon = action.find(':');
  std::string verb = action.substr(0, colon);
  if (verb == "fail") {
    entry->action = FpAction::kFail;
  } else if (verb == "oom") {
    entry->action = FpAction::kOom;
  } else if (verb == "delay") {
    entry->action = FpAction::kDelay;
  } else if (verb == "panic") {
    entry->action = FpAction::kPanic;
  } else {
    return Status::InvalidArgument("unknown failpoint action '" + verb +
                                   "' in '" + clause + "'");
  }
  if (colon != std::string::npos) {
    if (verb != "delay") {
      return Status::InvalidArgument("':ms' only valid for delay: '" + clause +
                                     "'");
    }
    uint64_t ms = 0;
    if (!ParseCount(action.substr(colon + 1), &ms) || ms > INT_MAX) {
      return Status::InvalidArgument("bad delay milliseconds in '" + clause +
                                     "'");
    }
    entry->delay_ms = static_cast<int>(ms);
  }

  // Trigger suffixes.
  size_t i = 0;
  while (i < triggers.size()) {
    char kind = triggers[i++];
    size_t end = triggers.find_first_of("@#*", i);
    std::string num = triggers.substr(i, end == std::string::npos
                                             ? std::string::npos
                                             : end - i);
    if (num.empty()) {
      return Status::InvalidArgument("empty trigger value in '" + clause +
                                     "'");
    }
    const bool parsed = kind == '@'
                            ? ParseFinite(num, &entry->probability)
                            : ParseCount(num, kind == '#' ? &entry->nth
                                                          : &entry->max_fires);
    if (!parsed) {
      return Status::InvalidArgument("bad trigger number in '" + clause + "'");
    }
    if (kind == '@' &&
        (entry->probability < 0.0 || entry->probability > 1.0)) {
      return Status::InvalidArgument("probability out of [0,1] in '" + clause +
                                     "'");
    }
    if (kind == '#' && entry->nth == 0) {
      return Status::InvalidArgument("'#nth' is 1-based in '" + clause + "'");
    }
    if (kind == '*' && entry->max_fires == 0) {
      return Status::InvalidArgument("'*count' must be positive in '" +
                                     clause + "'");
    }
    i = end == std::string::npos ? triggers.size() : end;
  }
  return Status::OK();
}

/// Loads LMFAO_FAILPOINTS at process start so env-driven sweeps (CI) need no
/// code changes in the binaries under test.
struct EnvLoader {
  EnvLoader() {
    const char* spec = std::getenv("LMFAO_FAILPOINTS");
    if (spec != nullptr && spec[0] != '\0') {
      // A malformed env spec is ignored rather than aborting the process;
      // tests that care configure programmatically and check the Status.
      (void)Failpoints::Configure(spec);
    }
  }
};
EnvLoader g_env_loader;

}  // namespace

std::atomic<bool> Failpoints::enabled_{false};

Status Failpoints::Configure(const std::string& spec, uint64_t seed) {
  std::unordered_map<std::string, FpEntry> parsed;
  size_t start = 0;
  while (start < spec.size()) {
    size_t comma = spec.find(',', start);
    std::string clause = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!clause.empty()) {
      std::string name;
      FpEntry entry;
      LMFAO_RETURN_NOT_OK(ParseClause(clause, &name, &entry));
      parsed.erase(name);  // duplicate clause: last one wins
      parsed.emplace(name, entry);
    }
    start = comma == std::string::npos ? spec.size() : comma + 1;
  }

  FpRegistry& reg = Registry();
  std::unique_lock<std::shared_mutex> lock(reg.mu);
  reg.entries = std::move(parsed);
  reg.spec = spec;
  reg.seed = seed;
  enabled_.store(!reg.entries.empty(), std::memory_order_release);
  return Status::OK();
}

void Failpoints::Clear() {
  FpRegistry& reg = Registry();
  std::unique_lock<std::shared_mutex> lock(reg.mu);
  reg.entries.clear();
  reg.spec.clear();
  enabled_.store(false, std::memory_order_release);
}

std::string Failpoints::CurrentSpec() {
  FpRegistry& reg = Registry();
  std::shared_lock<std::shared_mutex> lock(reg.mu);
  return reg.spec;
}

uint64_t Failpoints::Hits(const char* name) {
  FpRegistry& reg = Registry();
  std::shared_lock<std::shared_mutex> lock(reg.mu);
  auto it = reg.entries.find(name);
  return it == reg.entries.end() ? 0 : it->second.hits.load();
}

Status Failpoints::Check(const char* name) {
  if (!enabled()) return Status::OK();
  FpRegistry& reg = Registry();
  FpAction action;
  int delay_ms;
  {
    std::shared_lock<std::shared_mutex> lock(reg.mu);
    auto it = reg.entries.find(name);
    if (it == reg.entries.end()) return Status::OK();
    FpEntry& e = it->second;
    uint64_t hit = e.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    if (e.nth != 0 && hit != e.nth) return Status::OK();
    if (e.probability < 1.0) {
      // Deterministic per (seed, name, hit): reproducible across runs and
      // independent of thread interleaving for a fixed hit index.
      uint64_t r = Mix64(reg.seed ^ HashName(name) ^ hit);
      double u = static_cast<double>(r >> 11) * 0x1.0p-53;
      if (u >= e.probability) return Status::OK();
    }
    if (e.max_fires != 0 &&
        e.fires.fetch_add(1, std::memory_order_relaxed) >= e.max_fires) {
      return Status::OK();
    }
    if (e.max_fires == 0) e.fires.fetch_add(1, std::memory_order_relaxed);
    action = e.action;
    delay_ms = e.delay_ms;
  }
  switch (action) {
    case FpAction::kFail:
      // Injected failures stand in for flaky infrastructure (a compiler
      // invocation, an allocation, a cache rebuild), so they carry the
      // transient tag: Status::IsRetryable() is true and retry loops (the
      // serving layer, the CART provider) treat them as recoverable.
      return Status::Internal(std::string("injected failure at failpoint '") +
                              name + "'")
          .MarkTransient();
    case FpAction::kOom:
      return Status::ResourceExhausted(
          std::string("injected allocation failure at failpoint '") + name +
          "'");
    case FpAction::kPanic:
      // Panic-as-Status: the library contract is "never aborts across the
      // API", so even a simulated panic is reported as an error return.
      return Status::Internal(std::string("injected panic at failpoint '") +
                              name + "'");
    case FpAction::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      return Status::OK();
  }
  return Status::OK();
}

void Failpoints::CheckParked(const char* name) {
  Status st = Check(name);
  // First failure wins; a park that was never collected must not be
  // silently overwritten (nor dropped) by a later one.
  if (!st.ok() && g_parked.ok()) g_parked = std::move(st);
}

Status Failpoints::TakeParked() {
  Status st = std::move(g_parked);
  g_parked = Status::OK();
  return st;
}

void Failpoints::ClearParked() { g_parked = Status::OK(); }

}  // namespace lmfao
