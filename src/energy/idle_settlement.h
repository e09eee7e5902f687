// Lazy idle-waiting settlement for the fleet engine.
//
// Charging every non-selected server p_wait·round_duration at the end of
// every round is an O(N) pass per round that dominates once N reaches
// 10^6.  The charges are fully determined by the round durations
// alone, so they can be settled lazily: the schedule records one waiting
// charge per completed round, and a server's ledger row is brought up to
// date only when something actually happens to it (it gets selected, or
// the run ends).
//
// Bit-identity argument: EnergyLedger cells are accumulated left to right,
// so a row's final bits depend only on the per-cell sequence of additions.
//   - A server idle for rounds [a, b) then selected in round b replays
//     charge(kWaiting, c_a), ..., charge(kWaiting, c_{b-1}) — in round
//     order — before the round-b activity charges land.  That is the exact
//     per-cell sequence an eager per-round pass produces.
//   - A server idle for the WHOLE run accumulates 0 + c_0 + c_1 + ... once;
//     the schedule folds that prefix sum incrementally (all_rounds_total),
//     so one charge of the fold hits the same bits as R sequential charges
//     into a fresh cell.  One add per untouched server instead of R.
// Per-round charges c_r = p_wait · d_r are computed once per round, so
// every server sees literally the same double, just like the eager pass.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/units.h"

namespace eefei::energy {

class IdleChargeSchedule {
 public:
  explicit IdleChargeSchedule(Watts idle_power) : idle_power_(idle_power) {}

  /// Completes round r (r = number of rounds pushed so far): records its
  /// waiting charge and extends the untouched-server fold.
  void push_round(Seconds duration) {
    const Joules charge = idle_power_ * duration;
    per_round_.push_back(charge);
    all_rounds_total_ += charge;
  }

  [[nodiscard]] std::size_t rounds() const { return per_round_.size(); }

  /// The waiting charge of each completed round, in round order.  Settling
  /// a touched server = charging these one by one for its idle rounds.
  [[nodiscard]] std::span<const Joules> per_round() const {
    return per_round_;
  }

  /// Sequential fold of every round's charge from exact zero — bit-equal
  /// to replaying per_round() into a never-touched cell, by construction.
  [[nodiscard]] Joules all_rounds_total() const { return all_rounds_total_; }

 private:
  Watts idle_power_;
  std::vector<Joules> per_round_;
  Joules all_rounds_total_{0.0};
};

}  // namespace eefei::energy
