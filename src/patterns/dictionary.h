// Fault dictionaries: the exchange artifact for the paper's proposed
// integration — "our classification of fault patterns can enable
// application-level fault injectors (such as LLTFI) to perform more
// precise FI campaigns with the systolic array hardware model" (Sec. VI).
//
// A dictionary captures, for one (operation, array, dataflow)
// configuration, the predicted reach of every fault-site equivalence
// class, serialized as JSON so an external injector — in any language —
// can sample a hardware-faithful fault without linking this library:
// pick a class weighted by its site count, perturb exactly its coords.
//
// The JSON uses a small stable schema:
//   {
//     "workload": "gemm-16x16", "dataflow": "WS",
//     "array": {"rows": 16, "cols": 16},
//     "gemm": {"m": 16, "k": 16, "n": 16},
//     "classes": [
//       {"pattern": "single-column",
//        "sites":  [[0,9],[1,9], ...],
//        "coords": [[0,9],[1,9], ...]},
//       ...
//     ]
//   }
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "patterns/symmetry.h"

namespace saffire {

struct FaultDictionary {
  std::string workload_name;
  Dataflow dataflow = Dataflow::kWeightStationary;
  std::int32_t array_rows = 0;
  std::int32_t array_cols = 0;
  std::int64_t gemm_m = 0;
  std::int64_t gemm_k = 0;
  std::int64_t gemm_n = 0;
  std::vector<SiteEquivalenceClass> classes;

  bool operator==(const FaultDictionary& other) const;
};

// Builds the dictionary from the analytical predictor (no simulation).
FaultDictionary BuildFaultDictionary(const WorkloadSpec& workload,
                                     const AccelConfig& accel,
                                     Dataflow dataflow);

// Serializes to the schema above (deterministic field and class order).
std::string ToJson(const FaultDictionary& dictionary);

// Parses a dictionary back through JsonValue::Parse. Accepts the schema
// above, any member of it omitted; throws std::invalid_argument on
// malformed JSON, an unknown or empty object, a class without sites, or an
// integer its field cannot hold.
FaultDictionary FaultDictionaryFromJson(std::string_view json);

}  // namespace saffire
