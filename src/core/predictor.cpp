#include "core/predictor.hpp"

#include <optional>

namespace laec::core {

StridePredictor::StridePredictor(const StridePredictorParams& p)
    : params_(p), table_(p.entries) {}

std::optional<Addr> StridePredictor::predict(Addr pc) const {
  ++lookups_;
  const Entry& e = table_[index(pc)];
  if (!e.valid || e.pc_tag != pc ||
      e.confidence < params_.confidence_predict) {
    return std::nullopt;
  }
  ++predictions_;
  return e.last_addr + static_cast<Addr>(e.stride);
}

void StridePredictor::train(Addr pc, Addr actual) {
  Entry& e = table_[index(pc)];
  if (!e.valid || e.pc_tag != pc) {
    e = Entry{true, pc, actual, 0, 0};
    return;
  }
  const i32 observed =
      static_cast<i32>(actual) - static_cast<i32>(e.last_addr);
  if (observed == e.stride) {
    if (e.confidence < params_.confidence_max) ++e.confidence;
  } else if (e.confidence > 0) {
    --e.confidence;
  } else {
    e.stride = observed;
  }
  e.last_addr = actual;
}

}  // namespace laec::core
