// FIG5 — reproduces Figure 5: the containment lattice of correctness
// classes, established statistically over randomized workloads:
//
//     serial ⊆ relatively atomic ⊆ relatively consistent
//            ⊆ relatively serializable,
//     relatively atomic ⊆ relatively serial ⊆ relatively serializable,
//
// with every containment *strict* (witnesses counted per spec family).
// Every sampled schedule is additionally run through
// CheckLatticeInvariants, which aborts on any containment violation.
//
// The census itself lives in workload/census.{h,cc} and runs sharded
// over a thread pool; shards are Rng::Split-seeded, so the counts below
// are bit-identical for every thread count (exec_test's
// DeterminismTest.CensusBitIdenticalAcrossPoolSizes verifies that claim).
#include <iostream>

#include "core/classify.h"
#include "core/paper_examples.h"
#include "exec/thread_pool.h"
#include "model/enumerate.h"
#include "util/table.h"
#include "workload/census.h"

int main() {
  using namespace relser;
  ThreadPool pool(ThreadPool::HardwareConcurrency());
  std::cout << "== FIG5: correctness-class census (threads="
            << pool.thread_count() << ") ==\n\n";

  const CensusParams params;
  std::vector<CensusCounts> rows = RunClassCensus(params, &pool);

  // The RS\RC witnesses require the crafted structure of Figure 4 (the
  // paper needed a gadget for exactly this reason): enumerate *all*
  // interleavings of Figure 4's transaction set and classify each.
  {
    const PaperExample fig = Figure4();
    CensusCounts row;
    row.family = "figure4_exhaustive";
    ClassifyOptions options;
    options.with_relative_consistency = true;
    EnumerateSchedules(fig.txns, [&](const Schedule& schedule) {
      const ScheduleClassification c =
          Classify(fig.txns, schedule, fig.spec, options);
      CheckLatticeInvariants(c);
      ++row.samples;
      row.serial += c.serial;
      row.ra += c.relatively_atomic;
      row.rs += c.relatively_serial;
      row.rc += c.relatively_consistent.value_or(false);
      row.rsr += c.relatively_serializable;
      row.csr += c.conflict_serializable;
      row.rs_not_rc +=
          c.relatively_serial && !c.relatively_consistent.value_or(true);
      row.rc_not_ra +=
          c.relatively_consistent.value_or(false) && !c.relatively_atomic;
      row.rsr_not_csr +=
          c.relatively_serializable && !c.conflict_serializable;
      return true;
    });
    rows.push_back(row);
  }

  AsciiTable table({"spec family", "n", "serial", "RA", "RS", "RC", "RSR",
                    "CSR", "RS\\RC", "RC\\RA", "RSR\\CSR"});
  bool lattice_ok = true;
  for (const CensusCounts& row : rows) {
    table.AddRow({row.family, std::to_string(row.samples),
                  std::to_string(row.serial), std::to_string(row.ra),
                  std::to_string(row.rs), std::to_string(row.rc),
                  std::to_string(row.rsr), std::to_string(row.csr),
                  std::to_string(row.rs_not_rc), std::to_string(row.rc_not_ra),
                  std::to_string(row.rsr_not_csr)});
    lattice_ok = lattice_ok && row.serial <= row.ra && row.ra <= row.rs &&
                 row.rs <= row.rsr && row.ra <= row.rc && row.rc <= row.rsr;
  }
  table.Print(std::cout);

  // Strictness of Figure 5 under relaxed specs: each witness column must
  // be non-empty somewhere, and RSR must strictly exceed CSR.
  std::size_t rs_not_rc = 0;
  std::size_t rc_not_ra = 0;
  std::size_t rsr_not_csr = 0;
  std::size_t ra_total = 0;
  std::size_t serial_total = 0;
  for (const CensusCounts& row : rows) {
    if (row.family == "absolute") continue;
    rs_not_rc += row.rs_not_rc;  // expected from figure4_exhaustive
    rc_not_ra += row.rc_not_ra;
    rsr_not_csr += row.rsr_not_csr;
    ra_total += row.ra;
    serial_total += row.serial;
  }
  const bool strict = rs_not_rc > 0 && rc_not_ra > 0 && rsr_not_csr > 0 &&
                      ra_total > serial_total;
  std::cout << "\ncontainments (counts monotone): "
            << (lattice_ok ? "hold" : "VIOLATED")
            << "\nstrictness witnesses under relaxed specs: "
            << (strict ? "all found" : "MISSING")
            << "\npaper-vs-measured: "
            << (lattice_ok && strict ? "ALL MATCH" : "FAILED") << "\n";
  return lattice_ok && strict ? 0 : 1;
}
