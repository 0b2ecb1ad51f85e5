/// \file codegen.h
/// \brief The Code Generation layer: lowers a batch of group plans to one
/// C++ translation unit.
///
/// The generated code is specialized to the schema and join tree exactly as
/// described in Section 2: trie iteration becomes nested loops over sorted
/// columns, view lookups become seeks into sorted key arrays, aggregate
/// functions are inlined, alpha/beta registers become local variables and
/// running sums. The same GroupPlan drives both this generator and the
/// interpreter (executor.h). GenerateRuntimeBatchCode is the only lowering:
/// the JIT (jit.h) compiles its output, and `examples/codegen_dump` prints
/// it. The unit includes only <cstddef> and <cstdint> and compiles on its
/// own; data reaches it at run time through the LmfaoJit* ABI.

#ifndef LMFAO_ENGINE_CODEGEN_H_
#define LMFAO_ENGINE_CODEGEN_H_

#include <string>
#include <vector>

#include "engine/plan.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace lmfao {

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
/// One extern "C" function per plan. Data access goes through the
/// LmfaoJit* ABI, writes go through the host upsert callback, the relation
/// is whatever row range the host passes (a domain-shard block or split
/// slice is just fewer rows), and parameterized function thresholds are
/// read from the params array. Dictionary functions become one static
/// switch table per distinct FunctionDict, shared by the groups using it.
StatusOr<RuntimeBatchCode> GenerateRuntimeBatchCode(
    const std::vector<GroupPlan>& plans, const Workload& workload,
    const Catalog& catalog);

}  // namespace lmfao

#endif  // LMFAO_ENGINE_CODEGEN_H_
