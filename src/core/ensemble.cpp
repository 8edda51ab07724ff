#include "core/ensemble.h"

#include <utility>

namespace semsim {

EnsembleEngine::EnsembleEngine(std::vector<Engine*> lanes, bool /*fast_rates*/)
    : lanes_(std::move(lanes)),
      states_(lanes_.size()),
      executed_(lanes_.size(), 0),
      events_(lanes_.size()) {
  for (const Engine* e : lanes_) {
    require(e != nullptr, "EnsembleEngine: null lane");
  }
}

std::size_t EnsembleEngine::step_round() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    LaneState& st = states_[i];
    executed_[i] = 0;
    if (!st.runnable()) continue;
    try {
      if (lanes_[i]->step(&events_[i])) {
        executed_[i] = 1;
        ++n;
      } else {
        st.stuck = true;
      }
    } catch (const Error& e) {
      // The failed lane leaves the rounds; the others never read its state.
      st.alive = false;
      st.code = e.code() == ErrorCode::kNone ? ErrorCode::kUnknown : e.code();
      st.message = e.what();
    }
  }
  return n;
}

std::uint64_t EnsembleEngine::run_events(std::uint64_t n) {
  std::uint64_t total = 0;
  for (std::uint64_t r = 0; r < n; ++r) {
    const std::size_t stepped = step_round();
    if (stepped == 0) break;
    total += stepped;
  }
  return total;
}

}  // namespace semsim
