// Round time-series recorder: a columnar per-round stats table appended
// O(1) per round by the fleet engine, plus an online anomaly radar that
// flags the rounds worth looking at (crash storms, deadline-miss bursts,
// round-time and energy spikes) as the rows arrive.
//
// Like every obs component this is a pure observer: the engines copy
// already-computed round results into a RoundStats and append; nothing here
// reads a clock or consumes simulation randomness, so recording cannot
// perturb a run.  Columns are plain doubles (round indices and counts
// included) so the export is one homogeneous column dump —
// `timeseries.json`, validated by tools/trace_check.py and rendered by
// tools/fleet_report.py.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace eefei::obs {

/// One row of the per-round table.  Energy columns are plain joule totals
/// by ledger category name (obs sits below the energy layer, so the names
/// are duplicated here rather than depending on the enum).
struct RoundStats {
  double round = 0.0;
  double start_s = 0.0;     // simulated round start
  double duration_s = 0.0;  // simulated round makespan
  double selected = 0.0;
  double aggregated = 0.0;
  double stragglers = 0.0;
  double crashes = 0.0;
  double retries = 0.0;
  double aborted = 0.0;
  double events = 0.0;      // DES events processed this round
  double queue_peak = 0.0;  // event-queue depth high-water this round
  double gateways = 0.0;    // tier fan-in groups active this round
  double energy_j = 0.0;    // total joules charged this round
  double energy_data_collection_j = 0.0;
  double energy_waiting_j = 0.0;
  double energy_download_j = 0.0;
  double energy_training_j = 0.0;
  double energy_upload_j = 0.0;
  double energy_retry_j = 0.0;
  double energy_aborted_j = 0.0;
  double link_msgs = 0.0;      // multi-hop backhaul admissions this round
  double link_wait_s = 0.0;    // summed per-hop queueing delay this round
  double link_util_max = 0.0;  // busiest single link's utilization [0, 1]
  double link_drops = 0.0;     // messages rejected by bounded link queues
};

/// Anomaly kinds, both as bit flags (the per-round `anomaly_mask` column)
/// and as the `kind` string of the flagged-round list.
enum : std::uint32_t {
  kAnomalyRoundTime = 1u << 0,      // round makespan z-score spike
  kAnomalyCrashStorm = 1u << 1,     // crashes >= max(3, selected/2)
  kAnomalyDeadlineBurst = 1u << 2,  // straggler drops >= max(3, selected/2)
  kAnomalyEnergy = 1u << 3,         // per-round joules z-score spike
  kAnomalyRetryBurst = 1u << 4,     // retries z-score spike
  kAnomalyLinkSaturation = 1u << 5,  // a backhaul link pinned at high
                                     // utilization for consecutive rounds
};

struct Anomaly {
  std::uint64_t round = 0;
  const char* kind = "";  // string-literal name, stable for the process
  double value = 0.0;     // the observed signal
  double threshold = 0.0;  // the bound it crossed
};

/// Online, deterministic anomaly detector.  The z-score signals (round
/// time, energy, retries) keep Welford running moments over *previous*
/// rounds and flag values beyond mean + z_threshold * stddev once at least
/// `warmup_rounds` rounds have been seen; the running moments always update
/// afterwards (spikes included), so a sustained shift stops alarming once
/// it becomes the norm.  The crash-storm and deadline-burst rules are
/// absolute cohort-fraction tests and fire from round 0.
class AnomalyRadar {
 public:
  struct Config {
    std::size_t warmup_rounds = 8;
    double z_threshold = 4.0;
    /// Link-saturation rule: fire when link_util_max stays at or above
    /// this utilization for at least `link_saturation_rounds` consecutive
    /// rounds (absolute rule — a transient one-round burst is normal for a
    /// bursty round structure; a sustained streak means the backhaul is
    /// the bottleneck).  Fires on every round of the streak from the
    /// threshold round on; the streak resets when utilization dips below.
    double link_saturation_util = 0.9;
    std::size_t link_saturation_rounds = 3;
  };

  AnomalyRadar() = default;
  explicit AnomalyRadar(Config cfg) : cfg_(cfg) {}

  /// Returns the anomaly bitmask for this round and appends one Anomaly
  /// per set bit to `out` (when non-null).
  std::uint32_t observe(const RoundStats& s, std::vector<Anomaly>* out);

 private:
  struct Signal {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    /// True when v spikes past mean + z*stddev of the history; always
    /// folds v into the history before returning.
    bool spike(double v, double z, std::size_t warmup, double* threshold);
  };

  Config cfg_;
  Signal duration_;
  Signal energy_;
  Signal retries_;
  std::size_t saturation_streak_ = 0;
};

/// Thread-safe columnar store of RoundStats rows + the radar's verdicts.
/// Appends are O(1) amortized (one vector push per column under one lock);
/// memory is ~27 doubles per round, so even a 10^6-round run stays bounded.
class RoundSeries {
 public:
  static constexpr std::size_t kColumns = 25;  // RoundStats fields + mask
  static const std::array<const char*, kColumns>& column_names();

  RoundSeries() = default;
  RoundSeries(const RoundSeries&) = delete;
  RoundSeries& operator=(const RoundSeries&) = delete;

  /// Appends one round row and runs the anomaly radar over it.
  void append(const RoundStats& s);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  struct Snapshot {
    std::array<std::vector<double>, kColumns> columns;
    std::vector<Anomaly> anomalies;
    [[nodiscard]] std::size_t rows() const { return columns[0].size(); }
    /// Column by name (nullptr when unknown) — test convenience.
    [[nodiscard]] const std::vector<double>* column(
        const std::string& name) const;
  };

  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  AnomalyRadar radar_;
  std::vector<Anomaly> anomalies_;
  std::array<std::vector<double>, kColumns> columns_;
};

/// JSON document: {"schema_version", "kind": "timeseries", "rows",
/// "columns": {name: [..]}, "anomalies": [{round, kind, value, threshold}]}.
[[nodiscard]] std::string timeseries_json(const RoundSeries::Snapshot& snap);

[[nodiscard]] Status write_timeseries_json(const RoundSeries::Snapshot& snap,
                                           const std::string& path);

}  // namespace eefei::obs
