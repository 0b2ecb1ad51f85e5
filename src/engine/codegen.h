/// \file codegen.h
/// \brief The Code Generation layer: lowers group plans to C++ source.
///
/// The generated code is specialized to the schema and join tree exactly as
/// described in Section 2: trie iteration becomes nested loops over sorted
/// columns, view lookups become seeks into sorted key arrays, aggregate
/// functions are inlined, alpha/beta registers become local variables and
/// running sums. The same GroupPlan drives both this generator and the
/// interpreter (executor.h), so the two lowerings agree by construction;
/// GenerateStandaloneProgram additionally embeds a concrete dataset so that
/// the emitted program can be compiled and *run*, validating the generated
/// code end to end against interpreter results.

#ifndef LMFAO_ENGINE_CODEGEN_H_
#define LMFAO_ENGINE_CODEGEN_H_

#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/plan.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace lmfao {

/// \brief Emits the specialized C++ function of one group.
///
/// The output contains an `Input`/`Output` struct pair and a function
/// `lmfao_group_<id>` implementing the multi-output plan. It is
/// self-contained modulo dictionary-function definitions, which are emitted
/// as forward declarations (the standalone program defines them).
std::string GenerateGroupCode(const GroupPlan& plan, const Workload& workload,
                              const Catalog& catalog);

/// \brief Emits a complete runnable program for one group.
///
/// Embeds the (sorted) node relation and consumed incoming views as literal
/// arrays, defines any dictionary functions, calls the group function and
/// prints, for every output, its entry count and per-slot totals with full
/// precision. Compiling and running this program and comparing its output
/// against the interpreter is the codegen integration test.
StatusOr<std::string> GenerateStandaloneProgram(
    const GroupPlan& plan, const Workload& workload, const Catalog& catalog,
    const Relation& sorted_relation,
    const std::vector<const ConsumedView*>& views);

/// \brief How the runtime host calls one JIT-compiled group function.
///
/// The emitted symbol takes (const LmfaoJitInput*, LmfaoJitOutput*) — see
/// engine/jit.h for the ABI structs. The host marshals exactly the relation
/// columns in `used_cols` (in order) into LmfaoJitInput::rel_cols, and the
/// resolved parameter values in `param_order` (in order) into
/// LmfaoJitInput::params.
struct RuntimeGroupMeta {
  int group_id = -1;
  /// The extern "C" symbol name ("lmfao_jit_group_<id>").
  std::string symbol;
  /// Node-relation column indices the emitted code reads, sorted.
  std::vector<int> used_cols;
  /// Parameter slots referenced by the group's functions, sorted; the
  /// emitted code reads params[i] for param_order[i].
  std::vector<ParamId> param_order;
};

/// \brief One translation unit covering a whole compiled batch.
struct RuntimeBatchCode {
  std::string source;
  std::vector<RuntimeGroupMeta> groups;  ///< Parallel to the input plans.
};

/// \brief Emits the runtime (JIT) translation unit for a batch of plans.
///
/// Same loop-nest/register/write lowering as GenerateGroupCode — the two
/// modes share one emitter core, so the offline validator and the runtime
/// backend cannot drift — but data access goes through the LmfaoJit* ABI
/// (pointer indirection instead of embedded literals), writes go through
/// the host upsert callback, the relation is whatever row range the host
/// passes (a domain-shard block or split slice is just fewer rows), and
/// parameterized function thresholds are read from the params array
/// instead of being baked in.
StatusOr<RuntimeBatchCode> GenerateRuntimeBatchCode(
    const std::vector<GroupPlan>& plans, const Workload& workload,
    const Catalog& catalog);

}  // namespace lmfao

#endif  // LMFAO_ENGINE_CODEGEN_H_
