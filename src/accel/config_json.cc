#include "accel/config_json.h"

#include "common/strings.h"

namespace saffire {

void WriteAccelJson(JsonWriter& w, const AccelConfig& accel) {
  w.BeginObject()
      .Key("rows").Int(accel.array.rows)
      .Key("cols").Int(accel.array.cols)
      .Key("input_bits").Int(accel.array.input_bits)
      .Key("acc_bits").Int(accel.array.acc_bits)
      .Key("spad_rows").Int(accel.spad_rows)
      .Key("acc_rows").Int(accel.acc_rows)
      .Key("max_compute_rows").Int(accel.max_compute_rows)
      .Key("double_buffered_weights").Bool(accel.double_buffered_weights)
      .Key("dram_bytes").Int(accel.dram_bytes)
      .EndObject();
}

AccelConfig ParseAccelJson(const JsonValue& json) {
  AccelConfig accel;
  accel.array.rows = NarrowInt<std::int32_t>(json.At("rows").AsInt());
  accel.array.cols = NarrowInt<std::int32_t>(json.At("cols").AsInt());
  accel.array.input_bits =
      NarrowInt<std::int32_t>(json.At("input_bits").AsInt());
  accel.array.acc_bits = NarrowInt<std::int32_t>(json.At("acc_bits").AsInt());
  accel.spad_rows = NarrowInt<std::int32_t>(json.At("spad_rows").AsInt());
  accel.acc_rows = NarrowInt<std::int32_t>(json.At("acc_rows").AsInt());
  accel.max_compute_rows =
      NarrowInt<std::int32_t>(json.At("max_compute_rows").AsInt());
  accel.double_buffered_weights =
      json.At("double_buffered_weights").AsBool();
  accel.dram_bytes = json.At("dram_bytes").AsInt();
  return accel;
}

}  // namespace saffire
