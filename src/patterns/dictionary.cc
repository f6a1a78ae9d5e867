#include "patterns/dictionary.h"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/json.h"
#include "common/strings.h"

namespace saffire {

bool FaultDictionary::operator==(const FaultDictionary& other) const {
  return workload_name == other.workload_name && dataflow == other.dataflow &&
         array_rows == other.array_rows && array_cols == other.array_cols &&
         gemm_m == other.gemm_m && gemm_k == other.gemm_k &&
         gemm_n == other.gemm_n && classes == other.classes;
}

FaultDictionary BuildFaultDictionary(const WorkloadSpec& workload,
                                     const AccelConfig& accel,
                                     Dataflow dataflow) {
  workload.Validate();
  accel.Validate();
  FaultDictionary dictionary;
  dictionary.workload_name =
      workload.name.empty() ? workload.ToString() : workload.name;
  dictionary.dataflow = dataflow;
  dictionary.array_rows = accel.array.rows;
  dictionary.array_cols = accel.array.cols;
  dictionary.gemm_m = workload.GemmM();
  dictionary.gemm_k = workload.GemmK();
  dictionary.gemm_n = workload.GemmN();
  dictionary.classes = PartitionFaultSites(workload, accel, dataflow);
  return dictionary;
}

namespace {

template <typename Pair>
void WritePairs(JsonWriter& w, const std::vector<Pair>& pairs) {
  w.BeginArray();
  for (const Pair& pair : pairs) {
    w.BeginArray().Int(pair.row).Int(pair.col).EndArray();
  }
  w.EndArray();
}

// [[row,col],...] back into coordinates, through `make(row, col)`.
template <typename Element, typename Make>
std::vector<Element> ReadPairs(const JsonValue& json, Make make) {
  std::vector<Element> out;
  for (const JsonValue& pair : json.AsArray()) {
    const std::vector<JsonValue>& items = pair.AsArray();
    SAFFIRE_CHECK_MSG(items.size() == 2, "expected a [row,col] pair");
    out.push_back(make(items[0].AsInt(), items[1].AsInt()));
  }
  return out;
}

// Rejects an empty `json` object and any member outside `fields`: every
// object ToJson emits has at least one member, and none other.
void CheckFields(const JsonValue& json, const char* what,
                 std::initializer_list<std::string_view> fields) {
  const std::map<std::string, JsonValue>& members = json.AsObject();
  SAFFIRE_CHECK_MSG(!members.empty(), "empty " << what << " object");
  for (const auto& member : members) {
    SAFFIRE_CHECK_MSG(
        std::find(fields.begin(), fields.end(), member.first) != fields.end(),
        "unknown " << what << " field '" << member.first << "'");
  }
}

// Stores member `name` of `json` in `field` when it is present.
template <typename T>
void ReadInt(const JsonValue& json, const std::string& name, T& field) {
  if (const JsonValue* value = json.Find(name)) {
    field = NarrowInt<T>(value->AsInt());
  }
}

PatternClass PatternClassFromString(const std::string& name) {
  for (int i = 0; i < kNumPatternClasses; ++i) {
    const auto pattern = static_cast<PatternClass>(i);
    if (ToString(pattern) == name) return pattern;
  }
  SAFFIRE_CHECK_MSG(false, "unknown pattern class '" << name << "'");
}

SiteEquivalenceClass ClassFromJson(const JsonValue& json) {
  CheckFields(json, "class", {"pattern", "sites", "coords"});
  SiteEquivalenceClass equivalence;
  if (const JsonValue* pattern = json.Find("pattern")) {
    equivalence.prediction.pattern =
        PatternClassFromString(pattern->AsString());
  }
  if (const JsonValue* sites = json.Find("sites")) {
    equivalence.members = ReadPairs<PeCoord>(
        *sites, [](std::int64_t row, std::int64_t col) {
          return PeCoord{NarrowInt<std::int32_t>(row),
                         NarrowInt<std::int32_t>(col)};
        });
  }
  if (const JsonValue* coords = json.Find("coords")) {
    equivalence.prediction.coords = ReadPairs<MatrixCoord>(
        *coords, [](std::int64_t row, std::int64_t col) {
          return MatrixCoord{row, col};
        });
  }
  SAFFIRE_CHECK_MSG(!equivalence.members.empty(), "class without sites");
  equivalence.representative = equivalence.members.front();
  return equivalence;
}

}  // namespace

std::string ToJson(const FaultDictionary& dictionary) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject()
      .Key("workload").String(dictionary.workload_name)
      .Key("dataflow").String(ToString(dictionary.dataflow))
      .Key("array").BeginObject()
          .Key("rows").Int(dictionary.array_rows)
          .Key("cols").Int(dictionary.array_cols)
      .EndObject()
      .Key("gemm").BeginObject()
          .Key("m").Int(dictionary.gemm_m)
          .Key("k").Int(dictionary.gemm_k)
          .Key("n").Int(dictionary.gemm_n)
      .EndObject()
      .Key("classes").BeginArray();
  for (const SiteEquivalenceClass& equivalence : dictionary.classes) {
    w.BeginObject()
        .Key("pattern").String(ToString(equivalence.prediction.pattern))
        .Key("sites");
    WritePairs(w, equivalence.members);
    w.Key("coords");
    WritePairs(w, equivalence.prediction.coords);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return os.str();
}

FaultDictionary FaultDictionaryFromJson(std::string_view json) {
  const JsonValue root = JsonValue::Parse(json);
  CheckFields(root, "dictionary",
              {"workload", "dataflow", "array", "gemm", "classes"});
  FaultDictionary dictionary;
  if (const JsonValue* workload = root.Find("workload")) {
    dictionary.workload_name = workload->AsString();
  }
  if (const JsonValue* dataflow = root.Find("dataflow")) {
    dictionary.dataflow = DataflowFromString(dataflow->AsString());
  }
  if (const JsonValue* array = root.Find("array")) {
    CheckFields(*array, "array", {"rows", "cols"});
    ReadInt(*array, "rows", dictionary.array_rows);
    ReadInt(*array, "cols", dictionary.array_cols);
  }
  if (const JsonValue* gemm = root.Find("gemm")) {
    CheckFields(*gemm, "gemm", {"m", "k", "n"});
    ReadInt(*gemm, "m", dictionary.gemm_m);
    ReadInt(*gemm, "k", dictionary.gemm_k);
    ReadInt(*gemm, "n", dictionary.gemm_n);
  }
  if (const JsonValue* classes = root.Find("classes")) {
    for (const JsonValue& equivalence : classes->AsArray()) {
      dictionary.classes.push_back(ClassFromJson(equivalence));
    }
  }
  return dictionary;
}

}  // namespace saffire
