// The Figure 5 correctness-class census as a library, shared by
// bench_fig5_census and the determinism tests (DeterminismTest.*).
//
// The census is embarrassingly parallel: each (family, workload) pair is
// an independent shard seeded by Rng::Split, so the tallies are
// bit-identical for every pool size (including no pool at all). That
// determinism is the contract the tests pin down: parallel speed must
// never change what the experiment reports.
#ifndef RELSER_WORKLOAD_CENSUS_H_
#define RELSER_WORKLOAD_CENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/generator.h"

namespace relser {

class ThreadPool;

/// Per-spec-family tallies (one row of the Figure 5 table).
struct CensusCounts {
  std::string family;
  std::size_t samples = 0;
  std::size_t serial = 0;
  std::size_t ra = 0;           ///< relatively atomic
  std::size_t rs = 0;           ///< relatively serial
  std::size_t rc = 0;           ///< relatively consistent
  std::size_t rsr = 0;          ///< relatively serializable
  std::size_t csr = 0;          ///< conflict serializable
  std::size_t rs_not_rc = 0;    ///< Figure 4's strictness witness
  std::size_t rc_not_ra = 0;
  std::size_t rsr_not_csr = 0;  ///< concurrency gain over serializability

  CensusCounts& operator+=(const CensusCounts& other);
  bool operator==(const CensusCounts& other) const = default;
};

/// Knobs for RunClassCensus. The defaults reproduce the FIG5 experiment.
struct CensusParams {
  std::uint64_t seed = 20260705;
  std::vector<std::string> families = {"absolute", "density_0.3",
                                       "density_0.7", "compat_sets",
                                       "multilevel"};
  std::size_t workloads_per_family = 40;
  std::size_t schedules_per_workload = 30;
  WorkloadParams workload;

  CensusParams() {
    workload.txn_count = 3;
    workload.min_ops_per_txn = 2;
    workload.max_ops_per_txn = 4;
    workload.object_count = 3;
    workload.read_ratio = 0.4;
  }
};

/// Runs the census over `pool` (nullptr = inline on the calling thread)
/// and returns one row per family, in `params.families` order. Every
/// sampled schedule passes through CheckLatticeInvariants, which aborts
/// the process on any containment violation. Results are bit-identical
/// for every pool size.
std::vector<CensusCounts> RunClassCensus(const CensusParams& params,
                                         ThreadPool* pool);

}  // namespace relser

#endif  // RELSER_WORKLOAD_CENSUS_H_
