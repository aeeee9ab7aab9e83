// Umbrella header for the relative-serializability library.
//
// Downstream programs (examples/, tools/) include this one header and
// get the whole public surface: the transaction/schedule model, the
// atomicity-spec layer, the RSG/RSR core, the schedulers, the sharded
// admitter, the execution substrate (thread pool, fault plans,
// backoff), observability, and the workload generators.
//
// Library-internal code should keep including the specific component
// headers: the umbrella is a convenience for consumers, not a
// substitute for stating real dependencies inside src/.
#ifndef RELSER_RELSER_H_
#define RELSER_RELSER_H_

// Model: transactions, operations, schedules, conflicts, recovery.
#include "model/chopping.h"
#include "model/conflict.h"
#include "model/enumerate.h"
#include "model/op_indexer.h"
#include "model/operation.h"
#include "model/recovery.h"
#include "model/schedule.h"
#include "model/text.h"
#include "model/transaction.h"
#include "model/view.h"

// Atomicity specs: the paper's relative-atomicity relation and the
// published spec families (absolute, Garcia-Molina, Lynch, Farrag-Ozsu).
#include "spec/atomicity_spec.h"
#include "spec/builders.h"
#include "spec/text.h"

// Core: relative serialization graphs, the RSR membership test, the
// online admission checker, classification and repair.
#include "core/admit.h"
#include "core/brute.h"
#include "core/checkers.h"
#include "core/classify.h"
#include "core/depends.h"
#include "core/explain.h"
#include "core/online.h"
#include "core/paper_examples.h"
#include "core/repair.h"
#include "core/rsg.h"
#include "core/rsr.h"

// Offline auditing: JSONL history ingestion, replay-based checking,
// and delta-debugged minimal violation witnesses.
#include "audit/audit.h"
#include "audit/ingest.h"

// Schedulers.
#include "sched/altruistic.h"
#include "sched/engine.h"
#include "sched/experiment.h"
#include "sched/factory.h"
#include "sched/graph_based.h"
#include "sched/lock_based.h"
#include "sched/relatively_atomic.h"
#include "sched/replay.h"
#include "sched/scheduler.h"
#include "sched/serial.h"
#include "sched/timestamp.h"
#include "sched/verify.h"

// Admission: the fault-tolerant multi-client admitter, partitioned RSR
// checking with a cross-shard coordinator.
#include "shard/coordinator.h"
#include "shard/projection.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"

// Execution substrate: pools, backoff, deterministic fault injection.
#include "exec/backoff.h"
#include "exec/faultplan.h"
#include "exec/thread_pool.h"

// Observability: decision traces, counters, inspection, replay export.
#include "obs/export.h"
#include "obs/inspect.h"
#include "obs/trace.h"

// Workload generation.
#include "workload/adversarial.h"
#include "workload/census.h"
#include "workload/generator.h"
#include "workload/scenarios.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

// Utilities used in public signatures (status, RNG, tables).
#include "util/check.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"

#endif  // RELSER_RELSER_H_
