// The three benchmark workloads. Each is a pure function of its seed:
// the seed becomes Params::seed and nothing else feeds the engine.
//
// All three drive epoch::EpochManager with default EngineOptions, so the
// engine runs on one thread (EngineOptions::engine_threads defaults to 1).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "epoch/manager.hpp"
#include "protocol/adversary.hpp"
#include "protocol/params.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  cyc::protocol::Params params;
  cyc::protocol::AdversaryConfig adversary;
  cyc::epoch::EpochConfig epochs;
};

/// Simulated length of one round: the seven phase durations. In open
/// loop this is also the arrival window each round drains.
inline double nominal_round(const cyc::protocol::Params& p) {
  return (p.config_duration + p.semicommit_duration + p.intra_duration +
          p.inter_duration + p.reputation_duration + p.selection_duration +
          p.block_duration) *
         p.delays.delta;
}

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-m64", "openloop-zipf", "byzantine-lossy"};
  return names;
}

/// paper-m64: the bench_throughput_scalability m=64 point, closed loop,
/// honest. n = 5 + 64 * 10 = 645.
inline Workload paper_m64(std::uint64_t seed) {
  Workload w;
  w.name = "paper-m64";
  auto& p = w.params;
  p.m = 64;
  p.c = 10;
  p.lambda = 2;
  p.referee_size = 5;
  p.txs_per_committee = 12;
  p.cross_shard_fraction = 0.2;
  p.invalid_fraction = 0.0;
  p.users = 24 * p.m;
  p.seed = seed;
  w.epochs.epochs = 1;
  w.epochs.rounds_per_epoch = 2;
  return w;
}

/// openloop-zipf: Poisson arrivals at 0.6x nominal capacity with Zipf
/// account popularity, three epochs with churn and load-aware
/// rebalancing. n = 5 + 8 * 9 = 77 active seats plus 24 standby. The
/// mempool bound (48) is large enough that no arrival is refused at
/// seeds 1-10, so every attempt either commits or is still queued.
inline Workload openloop_zipf(std::uint64_t seed) {
  Workload w;
  w.name = "openloop-zipf";
  auto& p = w.params;
  p.m = 8;
  p.c = 9;
  p.lambda = 3;
  p.referee_size = 5;
  p.txs_per_committee = 10;
  p.cross_shard_fraction = 0.2;
  p.invalid_fraction = 0.0;
  p.users = 40 * p.m;
  p.zipf_s = 1.4;
  p.mempool_cap = 48;
  p.arrival_rate = 0.6 * static_cast<double>(p.m * p.txs_per_committee) /
                   nominal_round(p);
  p.standby = 24;
  p.rebalance = true;
  p.rebalance_moves = 4;
  p.seed = seed;
  w.epochs.epochs = 3;
  w.epochs.rounds_per_epoch = 20;
  w.epochs.churn_rate = 0.2;
  return w;
}

/// byzantine-lossy: 20% corrupt nodes (default misbehaviour mix), half of
/// the round-1 leaders forced corrupt, 2% wide-area message loss.
/// n = 9 + 16 * 12 = 201.
inline Workload byzantine_lossy(std::uint64_t seed) {
  Workload w;
  w.name = "byzantine-lossy";
  auto& p = w.params;
  p.m = 16;
  p.c = 12;
  p.lambda = 3;
  p.referee_size = 9;
  p.txs_per_committee = 16;
  p.cross_shard_fraction = 0.3;
  p.invalid_fraction = 0.05;
  p.faults.drop = 0.02;
  p.seed = seed;
  w.adversary.corrupt_fraction = 0.2;
  w.adversary.forced_corrupt_leader_fraction = 0.5;
  w.epochs.epochs = 1;
  w.epochs.rounds_per_epoch = 4;
  return w;
}

inline Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper-m64") return paper_m64(seed);
  if (name == "openloop-zipf") return openloop_zipf(seed);
  if (name == "byzantine-lossy") return byzantine_lossy(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
