/// \file jit.h
/// \brief The runtime JIT backend: compiles a batch's generated C++ into a
/// shared object with the system compiler and resolves per-group function
/// pointers.
///
/// Lifecycle: Engine::Prepare hands the runtime translation unit
/// (codegen.h GenerateRuntimeBatchCode) to JitModule::Compile. In kSync
/// mode the call blocks until the module is ready (or failed); in kAsync
/// mode compilation runs on a background thread — executions started
/// before it finishes use the interpreter, later ones hot-swap
/// to native code. The module is owned by the CompiledArtifact via
/// shared_ptr, so it outlives every PreparedBatch that dispatches into it
/// and is reused across structural plan-cache hits.
///
/// Failure is always graceful: no compiler on PATH, a sandbox that blocks
/// exec/dlopen, or a compile error simply parks the module in kFailed and
/// execution stays on the interpreter tier. `LMFAO_JIT_CC=/bin/false`
/// exercises exactly this path in tests.

#ifndef LMFAO_ENGINE_JIT_H_
#define LMFAO_ENGINE_JIT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/codegen.h"
#include "util/hash.h"

namespace lmfao {

/// \name JIT call ABI
/// Plain-C structs crossing the dlopen boundary. The generated translation
/// unit (GenerateRuntimeBatchCode) contains a textual copy of these
/// definitions; the static_asserts below pin the layout so the two copies
/// cannot drift silently on the supported targets (LP64 Linux).
/// @{

/// One consumed incoming view, in the sorted/permuted layout the plan
/// expects (see ConsumedView). Payload indexing is fully general:
/// slot s of entry i lives at payload[i * entry_stride + s * slot_stride],
/// covering both row-major (entry_stride = width, slot_stride = 1) and
/// columnar (entry_stride = 1, slot_stride = size) layouts.
struct LmfaoJitView {
  uint64_t size = 0;
  const int64_t* keys[TupleKey::kMaxArity] = {};
  const double* payload = nullptr;
  uint64_t entry_stride = 0;
  uint64_t slot_stride = 0;
};

/// Everything one group invocation reads. `rel_cols[i]` is the column for
/// RuntimeGroupMeta::used_cols[i] (int64_t* or double* per the schema),
/// from the scanned range's first row on; `params[i]` is the resolved
/// value for RuntimeGroupMeta::param_order[i].
struct LmfaoJitInput {
  uint64_t rel_rows = 0;
  const void* const* rel_cols = nullptr;
  const LmfaoJitView* views = nullptr;
  const double* params = nullptr;
};

/// Where group results go: one host-side upsert callback for all outputs.
/// The callback returns the payload row for `key` in output `output`
/// (key may be null for keyless outputs); the generated code accumulates
/// into the returned slots.
struct LmfaoJitOutput {
  void* ctx = nullptr;
  double* (*upsert)(void* ctx, int32_t output, const int64_t* key) = nullptr;
};

static_assert(TupleKey::kMaxArity == 12,
              "update the emitted LmfaoJitView (codegen.cc) when the key "
              "arity cap changes");
static_assert(sizeof(LmfaoJitView) == 8 + 12 * 8 + 8 + 8 + 8,
              "LmfaoJitView layout drifted from the emitted copy");
static_assert(offsetof(LmfaoJitView, payload) == 8 + 12 * 8, "ABI drift");
static_assert(offsetof(LmfaoJitInput, params) == 24, "ABI drift");
static_assert(offsetof(LmfaoJitOutput, upsert) == 8, "ABI drift");

/// Signature of each emitted `extern "C" lmfao_jit_group_<id>` function.
using JitGroupFn = void (*)(const LmfaoJitInput*, LmfaoJitOutput*);

/// @}

/// When (and whether) Prepare JIT-compiles a batch.
enum class JitMode {
  kOff,    ///< Never compile; interpreter only.
  kAsync,  ///< Compile in the background; hot-swap when ready.
  kSync,   ///< Block Prepare until compiled (benchmarks, tests).
};

struct JitOptions {
  JitMode mode = JitMode::kOff;
  /// Compiler executable; empty = $LMFAO_JIT_CC, else the compiler that
  /// built the engine (CMake bakes it in), else "c++".
  std::string compiler;

  /// Session default from the environment: LMFAO_JIT=on|async → kAsync,
  /// LMFAO_JIT=sync → kSync, anything else (or unset) → kOff.
  static JitOptions FromEnv();
};

/// A compiled (or compiling, or failed) batch module.
class JitModule {
 public:
  enum class State { kCompiling, kReady, kFailed };

  /// Starts compiling `code` under `options`. Never returns null: in
  /// kSync mode the result is already kReady or kFailed, in kAsync mode
  /// it may still be kCompiling (the background thread keeps the module
  /// alive via shared_ptr until it reaches a terminal state).
  static std::shared_ptr<JitModule> Compile(RuntimeBatchCode code,
                                            const JitOptions& options);

  ~JitModule();
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;

  State state() const { return state_.load(std::memory_order_acquire); }
  bool ready() const { return state() == State::kReady; }

  /// Blocks until the module leaves kCompiling.
  void Wait() const;

  /// The native function for a group, or null unless ready().
  JitGroupFn GetFn(int group_id) const;

  /// Marshalling recipe for a group (valid immediately), or null if the
  /// group is not part of this module.
  const RuntimeGroupMeta* GetMeta(int group_id) const;

  /// Wall-clock spent in the compiler+link step (valid once terminal).
  double compile_ms() const { return compile_ms_; }

  /// Compiler/loader diagnostics (valid once terminal; empty on success).
  const std::string& error() const { return error_; }

  /// This process's private scratch directory for emitted TUs and shared
  /// objects: `$TMPDIR/lmfao_jit_p<pid>`. Each compile gets a fresh
  /// mkdtemp'd subdirectory inside it, removed (with the emitted files) on
  /// every exit path of the compile — success, compile failure, and dlopen
  /// failure alike. Exposed so tests can assert nothing is left behind.
  static std::string ScratchDir();

 private:
  JitModule() = default;

  /// Runs the compile → dlopen → dlsym pipeline; sets the terminal state.
  void CompileNow(const std::string& source, const JitOptions& options);

  std::map<int, RuntimeGroupMeta> metas_;
  std::map<int, JitGroupFn> fns_;  ///< Written before state_ → kReady.
  void* handle_ = nullptr;
  double compile_ms_ = 0.0;
  std::string error_;

  std::atomic<State> state_{State::kCompiling};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
};

}  // namespace lmfao

#endif  // LMFAO_ENGINE_JIT_H_
