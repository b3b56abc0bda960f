// CycLedger benchmark runner: one workload, one seed, one process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// A *trial* constructs an epoch::EpochManager for the workload and runs
// its whole schedule, checking every round with harness::InvariantChecker
// outside the timed window. Trials repeat until --seconds have passed.
// Round timings keep each round's fastest repeat over the trials.
//
// --trace 0: untraced trials only; prints the end-to-end metrics.
// --trace 1: untraced and traced trials alternate. The traced trials
//   attach an obs::Observer with Tracer::enable_wall_clock() and run the
//   layer probes (block apply / decode, tx signature check) between
//   rounds; prints the per-layer metrics and writes the first traced
//   trial's Perfetto file to <out>/<workload>-s<seed>.trace.json.
//
// Gates (exit 2, no metrics): any invariant violation, any committed
// ground-truth-invalid tx, any deterministic outcome that differs between
// two trials of the seed (traced or not), a probe whose output disagrees
// with the engine's, or a trace ring that evicted events.
//
// The last stdout line is one JSON object with every metric this mode
// measured: {"workload":..,"correct":..,"attempted":..,"failed":..,
// "metrics":{name:{"value":..,"unit":..}},..}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "crypto/schnorr.hpp"
#include "epoch/manager.hpp"
#include "harness/invariants.hpp"
#include "ledger/block.hpp"
#include "ledger/types.hpp"
#include "net/message.hpp"
#include "net/stats.hpp"
#include "obs/observer.hpp"
#include "support/bytes.hpp"
#include "support/json.hpp"
#include "support/math.hpp"
#include "workloads.hpp"

namespace {

using namespace cyc;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The seven protocol phases, in net::Phase order (kCommitteeConfig..kBlock).
constexpr std::size_t kPhases = 7;
constexpr std::size_t kFirstPhase =
    static_cast<std::size_t>(net::Phase::kCommitteeConfig);

std::string phase_label(std::size_t i) {
  return std::string(net::phase_name(static_cast<net::Phase>(kFirstPhase + i)));
}

constexpr std::array<protocol::Role, 4> kRoles = {
    protocol::Role::kLeader, protocol::Role::kPartial, protocol::Role::kCommon,
    protocol::Role::kReferee};

// ---------------------------------------------------------------------------
// One trial's results.

/// Everything a trial produces that is a pure function of (workload,
/// seed): compared exactly across all trials of a process.
struct Outcome {
  std::uint64_t rounds = 0;
  std::uint64_t committed = 0;
  std::uint64_t attempted = 0;  ///< arrivals (open loop) / newly offered txs
  std::uint64_t failed = 0;  ///< refused arrivals (mempool full / pool dry)
  std::uint64_t produced = 0;   ///< committee-rounds with certified output
  std::uint64_t committee_rounds = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t invalid_rejected = 0;
  /// Certified txs rejected at block assembly because an earlier tx of the
  /// block spent the same outpoint (§VIII-B: one of two conflicting spends
  /// is illegal): last_flow().settled - committed.
  std::uint64_t conflicts = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t lost = 0;  ///< probabilistic wide-area message loss
  std::array<std::uint64_t, kPhases> phase_msgs{};
  std::array<std::uint64_t, kPhases> phase_bytes{};
  std::array<double, kRoles.size()> storage{};  ///< summed per-round means
  std::uint64_t utxo_entries = 0;               ///< all shards, at the end
  std::uint64_t backlog_peak = 0;
  std::uint64_t mempool_dropped = 0;
  std::uint64_t planned_moves = 0;
  std::uint64_t migrated_outputs = 0;
  /// Arrival -> commit in simulated time, one per finished arrival; a
  /// refused arrival is +inf.
  std::vector<double> latencies;
  std::string chain_tip;

  bool operator==(const Outcome&) const = default;
};

/// Wall-clock samples of a trial (never compared).
struct Samples {
  std::vector<double> round_ms;  ///< one per run_round call
  std::vector<double> check_ms;  ///< invariant checks, per round
  std::vector<double> boundary_ms;
  // Layer probes, run between the rounds of a traced trial.
  std::vector<double> block_apply_ms;   ///< per round
  std::vector<double> block_decode_us;  ///< per tx, per round
  std::vector<double> tx_verify_us;     ///< per tx, per round
};

struct Trial {
  Outcome outcome;
  Samples samples;
  std::uint64_t payload_allocs = 0;  ///< during run_round calls
  std::uint64_t payload_bytes = 0;
  std::vector<harness::Violation> violations;
};

std::string digest_hex(const crypto::Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

std::string tx_key(const ledger::Transaction& tx) {
  const auto id = tx.id();
  return std::string(id.begin(), id.end());
}

/// ledger::check_tx_signature over every tx of `block`, on a fresh
/// thread: its thread-local verdict cache starts empty, so each call
/// performs the full Schnorr check, and the engine thread's cache (whose
/// hit/miss counters feed the trace) is left untouched. Returns µs per tx,
/// or nullopt when a committed signature fails to verify.
std::optional<double> probe_tx_verify(const ledger::Block& block) {
  double us = 0;
  bool ok = true;
  std::thread worker([&] {
    const auto t0 = Clock::now();
    for (const auto& tx : block.txs) ok = ledger::check_tx_signature(tx) && ok;
    us = ms_since(t0) * 1e3;
  });
  worker.join();
  if (!ok) return std::nullopt;
  return us / static_cast<double>(block.txs.size());
}

/// Run the workload's whole schedule once. `observer` (nullable) is
/// attached to the engine; `probes` enables the layer probes.
Trial run_trial(const perfbench::Workload& w, obs::Observer* observer,
                bool probes) {
  // The verdict cache is thread-local and outlives a trial: start every
  // trial cold so the trials of a process repeat the same work.
  crypto::verify_cache::clear();
  Trial trial;
  Outcome& out = trial.outcome;
  Samples& smp = trial.samples;

  epoch::EpochManager manager(w.params, w.adversary, w.epochs);
  protocol::Engine& engine = manager.engine();
  if (observer != nullptr) engine.attach_observer(observer);
  harness::InvariantChecker checker(engine);
  const double window = perfbench::nominal_round(w.params);

  // Closed loop: round in which each carried tx was first offered.
  std::unordered_map<std::string, std::uint64_t> first_offered;
  std::size_t audited = 0;
  while (!manager.finished()) {
    const std::uint64_t round = out.rounds + 1;
    const std::uint64_t carried_in = engine.carryover_size();
    std::vector<ledger::UtxoStore> pre_state;
    if (probes) pre_state = engine.shard_state();

    const std::uint64_t allocs0 = net::payload_allocations();
    const std::uint64_t bytes0 = net::payload_bytes_allocated();
    const auto round0 = Clock::now();
    const protocol::RoundReport report = manager.run_round();
    smp.round_ms.push_back(ms_since(round0));
    trial.payload_allocs += net::payload_allocations() - allocs0;
    trial.payload_bytes += net::payload_bytes_allocated() - bytes0;

    // --- correctness gate (outside the timed window) ---
    const auto check0 = Clock::now();
    checker.check_round(report);
    while (audited < manager.handoffs().size()) {
      checker.check_epoch_boundary(manager.handoffs()[audited]);
      audited += 1;
    }
    smp.check_ms.push_back(ms_since(check0));
    if (report.invalid_committed > 0) {
      trial.violations.push_back(
          {"safety-invalid-committed", report.round,
           std::to_string(report.invalid_committed) +
               " invalid txs committed"});
    }

    // --- deterministic outcome ---
    const protocol::RoundFlow& flow = engine.last_flow();
    out.rounds += 1;
    out.committed += report.txs_committed;
    // A certified tx that did not commit lost a conflicting-spend race at
    // block assembly (the engine's only other exit, invalid_committed, is
    // gated above): a correct rejection, not a failure.
    out.conflicts +=
        flow.settled > flow.committed ? flow.settled - flow.committed : 0;
    for (const auto& cs : report.committees) {
      out.produced += cs.produced_output ? 1 : 0;
      out.committee_rounds += 1;
    }
    out.msgs_sent += report.traffic_total.msgs_sent;
    out.bytes_sent += report.traffic_total.bytes_sent;
    out.invalid_rejected += report.invalid_rejected;
    out.recoveries += report.recoveries;
    out.lost += report.faults.lost;
    for (const auto& [role, per_phase] : report.traffic_by_role_phase) {
      for (std::size_t i = 0; i < kPhases; ++i) {
        if (kFirstPhase + i < per_phase.size()) {
          out.phase_msgs[i] += per_phase[kFirstPhase + i].msgs_sent;
          out.phase_bytes[i] += per_phase[kFirstPhase + i].bytes_sent;
        }
      }
    }
    for (std::size_t r = 0; r < kRoles.size(); ++r) {
      const auto it = report.storage_by_role.find(kRoles[r]);
      if (it != report.storage_by_role.end()) out.storage[r] += it->second;
    }

    const ledger::Block& block = engine.last_block();
    if (engine.open_loop()) {
      const auto& ol = report.open_loop;
      const std::uint64_t refused = ol.mempool_dropped + ol.exhausted;
      out.attempted += ol.arrived;
      out.failed += refused;
      out.mempool_dropped += ol.mempool_dropped;
      out.backlog_peak = std::max<std::uint64_t>(out.backlog_peak, ol.backlog);
      out.latencies.insert(out.latencies.end(), ol.latencies.begin(),
                           ol.latencies.end());
      out.latencies.insert(out.latencies.end(), refused,
                           std::numeric_limits<double>::infinity());
    } else {
      // A closed-loop client offers its tx at the start of a round's
      // window; the commit stamp is the end of the window holding the
      // block, as in open loop.
      out.attempted += flow.offered - carried_in;
      for (const auto& tx : block.txs) {
        const auto it = first_offered.find(tx_key(tx));
        std::uint64_t from = round;
        if (it != first_offered.end()) {
          from = it->second;
          first_offered.erase(it);
        }
        out.latencies.push_back(static_cast<double>(round - from + 1) * window);
      }
      for (const auto& tx : engine.carryover()) {
        first_offered.emplace(tx_key(tx), round);
      }
    }

    // --- layer probes (outside the timed window) ---
    if (probes && !block.txs.empty()) {
      const auto apply0 = Clock::now();
      for (auto& store : pre_state) {
        for (const auto& tx : block.txs) store.apply(tx);
      }
      smp.block_apply_ms.push_back(ms_since(apply0));

      const Bytes wire = block.serialize();
      const auto decode0 = Clock::now();
      const ledger::Block decoded = ledger::Block::deserialize(wire);
      smp.block_decode_us.push_back(
          ms_since(decode0) * 1e3 / static_cast<double>(block.txs.size()));
      if (!(decoded.header == block.header) || !decoded.body_matches()) {
        trial.violations.push_back(
            {"probe-block-decode", report.round,
             "decoded block differs from the engine's"});
      }
      const auto verify_us = probe_tx_verify(block);
      if (!verify_us) {
        trial.violations.push_back({"probe-tx-signature", report.round,
                                    "a committed tx failed verification"});
      } else {
        smp.tx_verify_us.push_back(*verify_us);
      }
    }
  }

  for (const auto& store : engine.shard_state()) {
    out.utxo_entries += store.size();
  }
  for (const auto& handoff : manager.handoffs()) {
    if (handoff.plan) {
      out.planned_moves += handoff.plan->moves.size();
      out.migrated_outputs += handoff.plan->migrated_outputs;
    }
  }
  smp.boundary_ms = manager.transition_wall_ms();
  out.chain_tip = digest_hex(engine.chain().tip().hash());
  const auto& found = checker.violations();
  trial.violations.insert(trial.violations.end(), found.begin(), found.end());
  return trial;
}

// ---------------------------------------------------------------------------
// Phase split of a traced trial.

/// Wall ms of each protocol phase in each round, from the B/E events on
/// the protocol track (their "wall_us" args). Nullopt if the trace is
/// unusable (events evicted, or a phase span missing its wall clock).
std::optional<std::vector<std::array<double, kPhases>>> phase_split(
    const obs::Observer& observer) {
  if (observer.trace.dropped() > 0) return std::nullopt;
  const auto doc = support::JsonValue::parse(observer.trace.to_chrome_json());
  struct Open {
    std::string name;
    double wall_us;
  };
  std::vector<Open> stack;
  std::vector<std::array<double, kPhases>> rounds;
  for (const auto& ev : doc.find("traceEvents")->as_array()) {
    if (ev.number_or("tid", -1) != obs::kTrackProtocol) continue;
    const std::string ph = ev.string_or("ph", "");
    if (ph != "B" && ph != "E") continue;
    const auto* args = ev.find("args");
    const double wall = args ? args->number_or("wall_us", -1) : -1;
    if (wall < 0) return std::nullopt;
    if (ph == "B") {
      const std::string name = ev.string_or("name", "");
      if (name.rfind("round ", 0) == 0) rounds.push_back({});
      stack.push_back({name, wall});
      continue;
    }
    if (stack.empty() || rounds.empty()) return std::nullopt;
    const Open open = stack.back();
    stack.pop_back();
    for (std::size_t i = 0; i < kPhases; ++i) {
      if (open.name == phase_label(i)) {
        rounds.back()[i] += (wall - open.wall_us) / 1e3;
      }
    }
  }
  return rounds;
}

// ---------------------------------------------------------------------------
// Reductions and output.

double median(const std::vector<double>& xs) {
  return math::percentile(xs, 0.5);
}

double per(double total, double count) { return count > 0 ? total / count : 0; }

struct Metric {
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// One sample series, pooled over trials.
std::vector<double> collect(const std::vector<Trial>& trials,
                            std::vector<double> Samples::*series) {
  std::vector<double> all;
  for (const auto& t : trials) {
    const std::vector<double>& xs = t.samples.*series;
    all.insert(all.end(), xs.begin(), xs.end());
  }
  return all;
}

/// Each round of the schedule at its fastest over the trials. Every trial
/// repeats the same work (the determinism gate checks it), and the host
/// only ever adds time, so the fastest repeat is the least disturbed
/// sample of that round's cost.
std::vector<double> fastest_rounds(const std::vector<Trial>& trials) {
  std::vector<double> best = trials.front().samples.round_ms;
  for (const auto& t : trials) {
    for (std::size_t r = 0; r < best.size(); ++r) {
      best[r] = std::min(best[r], t.samples.round_ms[r]);
    }
  }
  return best;
}

void end_to_end(const std::vector<Trial>& trials,
                const std::vector<double>& setup_s, std::uint32_t nodes,
                std::map<std::string, Metric>& m) {
  const Outcome& o = trials.front().outcome;
  const std::vector<double> best = fastest_rounds(trials);
  double best_ms_sum = 0;
  for (double ms : best) best_ms_sum += ms;
  const double rounds = static_cast<double>(o.rounds);
  m["setup_s"] = {median(setup_s), "s"};
  // Committed txs over the summed run_round wall time of one schedule.
  m["tx_per_s"] = {static_cast<double>(o.committed) / (best_ms_sum / 1e3),
                   "tx/s"};
  m["round_ms_p50"] = {median(best), "ms"};
  m["peak_rss_mb"] = {static_cast<double>(peak_rss_kb()) / 1024.0, "MB"};
  m["committed_per_round"] = {per(static_cast<double>(o.committed), rounds),
                              "tx/round"};
  m["msgs_per_node"] = {
      per(static_cast<double>(o.msgs_sent), rounds * nodes), "msg/node/round"};
  m["bytes_per_node"] = {
      per(static_cast<double>(o.bytes_sent), rounds * nodes), "B/node/round"};
  const math::SortedSample lat(o.latencies);
  m["commit_latency_p50"] = {lat.percentile(0.50), "delta"};
  m["commit_latency_p90"] = {lat.percentile(0.90), "delta"};
  m["committee_liveness"] = {
      per(static_cast<double>(o.produced),
          static_cast<double>(o.committee_rounds)),
      "ratio"};
  m["failed_share"] = {
      per(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
      "ratio"};
}

/// Per-layer metrics from the traced trials (`traced`), the untraced
/// trials of the same process (`plain`) and the first traced trial's
/// registry. Returns the dominant phase's label.
std::string per_layer(const std::vector<Trial>& traced,
                      const std::vector<Trial>& plain,
                      const std::vector<std::array<double, kPhases>>& split,
                      const obs::Registry& registry,
                      std::map<std::string, Metric>& m) {
  const Outcome& o = traced.front().outcome;
  const double rounds = static_cast<double>(o.rounds);
  auto counter = [&](const std::string& name) {
    const auto* c = registry.find_counter(name);
    return c ? static_cast<double>(c->value()) : 0.0;
  };

  std::size_t dominant = 0;
  double dominant_ms = -1;
  for (std::size_t i = 0; i < kPhases; ++i) {
    std::vector<double> xs;
    for (const auto& r : split) xs.push_back(r[i]);
    const double p50 = median(xs);
    if (p50 > dominant_ms) {
      dominant = i;
      dominant_ms = p50;
    }
    m["protocol.phase." + phase_label(i) + "_ms"] = {p50, "ms"};
    m["net." + phase_label(i) + ".msgs_sent"] = {
        per(static_cast<double>(o.phase_msgs[i]), rounds), "msg/round"};
    m["net." + phase_label(i) + ".bytes_sent"] = {
        per(static_cast<double>(o.phase_bytes[i]), rounds), "B/round"};
  }
  for (std::size_t r = 0; r < kRoles.size(); ++r) {
    m["protocol.storage." + std::string(protocol::role_name(kRoles[r])) +
      "_bytes"] = {per(o.storage[r], rounds), "B/node"};
  }

  const Trial& t0 = traced.front();
  m["net.payload_allocs"] = {
      per(static_cast<double>(t0.payload_allocs), rounds), "count/round"};
  m["net.payload_bytes"] = {
      per(static_cast<double>(t0.payload_bytes), rounds), "B/round"};
  m["net.fault.lost"] = {per(counter("net.fault.lost"), rounds), "msg/round"};

  const double hits = counter("crypto.verify_cache.hits");
  const double misses = counter("crypto.verify_cache.misses");
  m["crypto.verify_cache.hits"] = {per(hits, rounds), "count/round"};
  m["crypto.verify_cache.misses"] = {per(misses, rounds), "count/round"};
  m["crypto.verify_cache.hit_ratio"] = {per(hits, hits + misses), "ratio"};
  m["crypto.tx_verify_us"] = {median(collect(traced, &Samples::tx_verify_us)),
                              "us/tx"};

  m["ledger.block_apply_ms"] = {
      median(collect(traced, &Samples::block_apply_ms)), "ms"};
  m["ledger.block_decode_us"] = {
      median(collect(traced, &Samples::block_decode_us)), "us/tx"};
  m["ledger.conflicts_rejected"] = {
      per(static_cast<double>(o.conflicts), rounds), "tx/round"};
  m["ledger.utxo_entries"] = {static_cast<double>(o.utxo_entries), "count"};
  m["ledger.mempool.backlog_peak"] = {static_cast<double>(o.backlog_peak),
                                      "tx"};
  m["ledger.mempool.dropped"] = {
      per(static_cast<double>(o.mempool_dropped), rounds), "tx/round"};

  m["consensus.certs"] = {per(counter("consensus.certs"), rounds),
                          "count/round"};
  m["consensus.votes_flushed"] = {per(counter("engine.votes.flushed"), rounds),
                                  "count/round"};
  m["consensus.recoveries"] = {per(counter("engine.recoveries"), rounds),
                               "count/round"};
  m["consensus.accusations"] = {per(counter("engine.accusations"), rounds),
                                "count/round"};
  m["consensus.convictions"] = {per(counter("engine.convictions"), rounds),
                                "count/round"};

  // 0 on the single-epoch workloads (math::percentile of no samples).
  m["epoch.boundary_ms"] = {median(collect(traced, &Samples::boundary_ms)),
                            "ms"};
  m["epoch.migrated_outputs"] = {static_cast<double>(o.migrated_outputs),
                                 "count"};
  m["epoch.planned_moves"] = {static_cast<double>(o.planned_moves), "count"};

  m["commit_latency_p99"] = {math::percentile(o.latencies, 0.99), "delta"};
  m["harness.check_round_ms"] = {median(collect(traced, &Samples::check_ms)),
                                 "ms"};
  m["obs.trace_overhead"] = {
      median(fastest_rounds(traced)) / median(fastest_rounds(plain)) - 1.0,
      "ratio"};
  return phase_label(dominant);
}

constexpr int kSetupSamplesPerTrial = 4;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <%s|%s|%s> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               msg, perfbench::workload_names()[0].c_str(),
               perfbench::workload_names()[1].c_str(),
               perfbench::workload_names()[2].c_str());
  std::exit(64);
}

/// Cross-check the traced registry against the engine's own reports:
/// both views of one run must agree.
bool registry_agrees(const obs::Registry& registry, const Outcome& o) {
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = registry.find_counter(name);
    return c ? c->value() : 0;
  };
  return counter("engine.rounds") == o.rounds &&
         counter("engine.txs_committed") == o.committed &&
         counter("engine.recoveries") == o.recoveries &&
         counter("net.fault.lost") == o.lost;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::optional<std::uint64_t> seed;
  double seconds = -1;
  int trace = -1;
  std::string out_dir = "perfbench/out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload_name = val;
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = std::stoi(val);
      } else if (arg == "--out") {
        out_dir = val;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (workload_name.empty() || !seed || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are required");
  }

  perfbench::Workload w;
  try {
    w = perfbench::make_workload(workload_name, *seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  // --- measure ---
  const auto start = Clock::now();
  std::vector<double> setup_s;
  std::vector<Trial> plain;
  std::vector<Trial> traced;
  std::optional<obs::Observer> first_observer;
  std::vector<std::array<double, kPhases>> split;
  auto elapsed_s = [&] { return ms_since(start) / 1e3; };
  do {
    // Set-up takes milliseconds, so the host's speed at one instant
    // would decide it: sample it before every trial, across the run.
    for (int i = 0; i < kSetupSamplesPerTrial; ++i) {
      crypto::verify_cache::clear();
      const auto t0 = Clock::now();
      const epoch::EpochManager manager(w.params, w.adversary, w.epochs);
      setup_s.push_back(ms_since(t0) / 1e3);
    }
    plain.push_back(run_trial(w, nullptr, false));
    if (trace == 1) {
      // Large enough that no trial of these workloads evicts events;
      // phase_split() refuses a trace that did.
      obs::Observer observer(std::size_t{1} << 22);
      observer.trace.enable_wall_clock();
      traced.push_back(run_trial(w, &observer, true));
      const auto rounds = phase_split(observer);
      if (!rounds ||
          !registry_agrees(observer.metrics, traced.back().outcome)) {
        std::fprintf(stderr, "FAIL: traced trial unusable (evicted events, "
                             "missing wall clock, or registry != reports)\n");
        return 2;
      }
      split.insert(split.end(), rounds->begin(), rounds->end());
      if (!first_observer) first_observer.emplace(std::move(observer));
    }
  } while (elapsed_s() < seconds || plain.size() < 2);

  // --- gates ---
  std::size_t violations = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const auto& t : *set) {
      for (const auto& v : t.violations) {
        std::fprintf(stderr, "VIOLATION [%s] round %llu: %s\n",
                     v.invariant.c_str(),
                     static_cast<unsigned long long>(v.round),
                     v.detail.c_str());
        violations += 1;
      }
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "FAIL: %zu invariant violations\n", violations);
    return 2;
  }
  const Outcome& ref = plain.front().outcome;
  for (const auto* set : {&plain, &traced}) {
    for (const auto& t : *set) {
      if (!(t.outcome == ref)) {
        std::fprintf(stderr,
                     "FAIL: determinism gate: a trial of seed %llu produced a "
                     "different protocol outcome\n",
                     static_cast<unsigned long long>(*seed));
        return 2;
      }
    }
  }

  // --- report ---
  std::map<std::string, Metric> metrics;
  std::string dominant;
  if (trace == 0) {
    end_to_end(plain, setup_s, w.params.total_nodes(), metrics);
  } else {
    dominant =
        per_layer(traced, plain, split, first_observer->metrics, metrics);
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/" + w.name + "-s" +
                             std::to_string(*seed) + ".trace.json";
    obs::write_trace_file(path, *first_observer);
    std::printf("trace: %s\n", path.c_str());
  }

  std::printf("%s seed %llu: %zu untraced + %zu traced trials, %llu rounds "
              "each, %.1f s\n",
              w.name.c_str(), static_cast<unsigned long long>(*seed),
              plain.size(), traced.size(),
              static_cast<unsigned long long>(ref.rounds), elapsed_s());
  // Hand-rendered: support::JsonWriter prints doubles with 10 digits,
  // and the result line carries every digit measured.
  auto quoted = [](const std::string& v) { return "\"" + v + "\""; };
  std::string json = "{\"workload\":" + quoted(w.name) +
                     ",\"seed\":" + std::to_string(*seed) +
                     ",\"trace\":" + std::to_string(trace) +
                     ",\"correct\":true" +
                     ",\"attempted\":" + std::to_string(ref.attempted) +
                     ",\"failed\":" + std::to_string(ref.failed) +
                     ",\"trials\":" +
                     std::to_string(plain.size() + traced.size()) +
                     ",\"latency_samples\":" +
                     std::to_string(ref.latencies.size()) +
                     ",\"chain_tip\":" + quoted(ref.chain_tip);
  if (!dominant.empty()) json += ",\"dominant_phase\":" + quoted(dominant);
  json += ",\"metrics\":{";
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "FAIL: metric %s is not finite\n", name.c_str());
      return 2;
    }
    if (json.back() != '{') json += ",";
    json += quoted(name) + ":{\"value\":" + fmt(metric.value) +
            ",\"unit\":" + quoted(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
