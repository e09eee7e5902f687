// Full FEI system simulation: binds the synthetic IoT network, the edge
// servers, the FL training loop and the energy accounting into the
// experiment the paper's prototype runs.  One FeiSystem::run() is one
// "train the model to the target with parameters (K, E)" measurement —
// the unit behind every point in Figs. 4, 5 and 6.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/units.h"
#include "data/partition.h"
#include "data/synth_digits.h"
#include "energy/energy_model.h"
#include "energy/ledger.h"
#include "energy/meter.h"
#include "energy/power_model.h"
#include "fl/checkpoint.h"
#include "fl/coordinator.h"
#include "net/csma.h"
#include "net/topology.h"
#include "sim/fault_process.h"
#include "sim/population.h"

namespace eefei::sim {

struct FeiSystemConfig {
  // --- population ---
  std::size_t num_servers = 20;         // N (prototype value)
  std::size_t samples_per_server = 3000;  // n_k (prototype value)
  std::size_t test_samples = 2000;

  // --- data ---
  data::SynthDigitsConfig data;
  PartitionScheme partition = PartitionScheme::kIid;
  double dirichlet_alpha = 0.5;
  std::size_t shards_per_client = 2;

  // --- learning (paper Table II) ---
  ml::ModelSpec model;
  ml::SgdConfig sgd;
  fl::CoordinatorConfig fl;

  // --- network & hardware ---
  net::TopologyConfig net;
  /// How simultaneous uploads share the medium: kFcfsQueue serializes them
  /// at the access point (the default heuristic); kCsma runs the slotted
  /// CSMA/CA contention model, so the per-upload cost grows with how many
  /// servers finish training together.
  enum class LanContention { kFcfsQueue, kCsma };
  LanContention lan_contention = LanContention::kFcfsQueue;
  net::CsmaConfig csma;
  energy::DevicePowerProfile profile;
  energy::TrainingTimeModel timing;
  /// Relative stddev of per-phase duration jitter (hardware variation).
  double timing_jitter = 0.0;
  /// Straggler injection: each selected server is a straggler with this
  /// probability per round; its training step runs `straggler_slowdown`×
  /// slower (thermal throttling, background load), delaying the round
  /// barrier for everyone.
  double straggler_fraction = 0.0;
  double straggler_slowdown = 3.0;
  /// false: straggling is transient (re-rolled per task — background
  /// load); true: persistent (rolled once per server — slow hardware).
  bool straggler_persistent = false;
  /// Upload quantization (4/8/16 bits; 0/32 = exact float32).  Shrinks the
  /// upload blob (and e^U) and injects quantization error into FedAvg.
  unsigned upload_quant_bits = 0;
  /// Probability an upload is lost before aggregation (training energy is
  /// still spent; upload energy too — the transmission failed in flight).
  double update_drop_probability = 0.0;

  // --- fault tolerance (all off by default; enabling any of these swaps
  // --- the per-round timing model for the fault-aware one, which vetoes
  // --- lost updates BEFORE aggregation and books failed-attempt energy
  // --- under EnergyCategory::kRetry / kAborted) ---
  /// Link loss/outage model lives in net.link_faults (per-attempt loss,
  /// outage windows, retransmission with exponential backoff, attempt cap).
  /// Per-round deadline relative to round start: work still in flight at
  /// the deadline is abandoned (energy until then booked as kAborted) and
  /// the update is dropped as a straggler.  0 = wait for everyone.
  Seconds round_deadline{0.0};
  /// Server crash/reboot process (per-server MTBF/MTTR; mtbf 0 = off).  A
  /// selected server that is down misses the round; one that crashes while
  /// training loses the work in progress (partial energy under kAborted).
  CrashProcessConfig crashes;
  /// Over-selection (K′ = K + fl.overselect) and periodic checkpoint
  /// autosave (fl.checkpoint_every) are configured on `fl` directly.

  // --- accounting modes ---
  /// true: IoT devices upload n_k fresh samples every round (full Eq. 3);
  /// false: prototype mode, dataset preloaded, e^I = 0.
  bool iot_collection = false;
  /// true: also charge waiting energy of non-selected servers each round.
  bool charge_idle_servers = false;

  std::uint64_t seed = 1;
};

struct FeiRunResult {
  fl::TrainingOutcome training;
  energy::EnergyLedger ledger{1};
  /// Per-server power-state timelines over the whole run (the Fig. 3 data).
  std::vector<energy::PowerStateTimeline> timelines;
  Seconds wall_clock{0.0};  // simulated makespan

  // Fault-tolerance telemetry, summed over rounds (zero with faults off).
  std::size_t total_retries = 0;
  std::size_t total_aborted_updates = 0;
  std::size_t total_straggler_drops = 0;
  std::size_t total_crashed_servers = 0;
  /// Most recent periodic autosave (set when fl.checkpoint_every > 0) —
  /// what a restarted coordinator would resume_from().
  std::optional<fl::TrainingCheckpoint> last_checkpoint;

  /// Total "measured" energy — what a bank of POWER-Z meters would report
  /// summed over servers (exact integral; use a PowerMeter on a timeline
  /// for the quantized version).
  [[nodiscard]] Joules measured_energy() const { return ledger.total(); }
};

class FeiSystem {
 public:
  explicit FeiSystem(FeiSystemConfig config);

  /// Builds data/clients lazily, then runs the federated loop with full
  /// timing and energy simulation.
  [[nodiscard]] Result<FeiRunResult> run();

  /// The next run() resumes training from `checkpoint` (e.g. a periodic
  /// autosave recovered after a coordinator crash): ω is restored and round
  /// numbering continues, so fl.max_rounds means "this many MORE rounds".
  /// The energy ledger and clock of the resumed run start from zero — they
  /// cover only the resumed segment.
  void resume_from(fl::TrainingCheckpoint checkpoint) {
    resume_ = std::move(checkpoint);
  }

  /// The closed-form energy model matching this system's configuration
  /// (used by benches to lay the Eq. 12 bound over the measured curve).
  [[nodiscard]] energy::FeiEnergyModel energy_model() const;

  [[nodiscard]] const FeiSystemConfig& config() const { return config_; }

  /// Test-set accessor (valid after prepare()/run()).
  [[nodiscard]] const data::Dataset& test_set() const {
    return population_.test_set();
  }

  /// Mutable access to the built population (valid after prepare()) — for
  /// alternative coordination protocols layered on the same substrate,
  /// e.g. AsyncFeiSystem.
  [[nodiscard]] std::vector<fl::Client>& clients() {
    return population_.clients();
  }
  [[nodiscard]] net::Topology& topology() { return population_.topology(); }

  /// Forces data/client construction without running (benches that only
  /// need the substrate).
  [[nodiscard]] Status prepare();

 private:
  /// PopulationConfig slice of this system's configuration — the exact
  /// recipe EventFleetEngine reuses to build a byte-identical world.
  [[nodiscard]] PopulationConfig population_config() const;

  /// Any fault knob on → the fault-aware round simulation replaces the
  /// fault-free observer path (which stays byte-identical to the seed).
  [[nodiscard]] bool fault_injection_active() const {
    return config_.net.link_faults.enabled() ||
           config_.round_deadline.value() > 0.0 || config_.crashes.enabled();
  }

  FeiSystemConfig config_;
  bool prepared_ = false;
  std::optional<fl::TrainingCheckpoint> resume_;
  Population population_;
};

/// The PopulationConfig a FeiSystemConfig implies (shared with
/// EventFleetEngine, which adds data pooling on top for very large N).
[[nodiscard]] PopulationConfig population_config_for(
    const FeiSystemConfig& config);

/// Convenience: the library's default configuration reproducing the
/// prototype (20 servers, 3000 samples each, Table II model, RPi-4B power
/// profile).  Benches start from this and override K/E/targets.
[[nodiscard]] FeiSystemConfig prototype_config();

}  // namespace eefei::sim
