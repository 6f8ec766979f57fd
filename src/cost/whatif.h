// What-if engine (Section 5): estimates the execution cost of an annotated
// workflow plan from (1) per-stage dataflow and cost statistics carried by
// profile annotations, (2) the per-job configurations, (3) the size and
// layout of the input datasets, and (4) the cluster spec — the same four
// inputs as Starfish's What-if Engine, which the paper uses.
//
// When the required annotations are missing, costing falls back to the
// simple job-count model used by YSmart [11], exactly as Section 5
// prescribes.

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "cost/dataflow.h"
#include "cost/phase_model.h"
#include "cost/schedule.h"
#include "mr/cluster.h"
#include "workflow/plan.h"

namespace stubby {

class CostDigest;
class CostStore;
class DatasetPredictions;
struct CostInstrumentation;

/// Predicted size of a (possibly intermediate) dataset.
struct PredictedDataset {
  double records = 0.0;
  double bytes = 0.0;         ///< raw bytes
  double stored_bytes = 0.0;  ///< after compression
  int partitions = 1;
  /// Fraction of the data in the largest partition (skew carrier).
  double max_partition_fraction = 1.0;
};

/// Result of costing a plan.
struct CostEstimate {
  /// Estimated cost. Comparable across plans costed by the same engine:
  /// makespan seconds normally, or the number of jobs in fallback mode.
  double cost = 0.0;
  bool fallback = false;
  /// Per-job predicted dataflow (empty in fallback mode).
  WorkflowDataflow dataflow;
};

/// How a branch's shuffle spreads over the reduce partitions.
struct ReduceDistribution {
  int nonempty = 1;
  double max_fraction = 1.0;  ///< of the branch's shuffle volume
};

/// What a branch's reduce distribution reads from its partition function
/// and profile: everything but the reduce count.
struct ReduceSkew {
  enum class Kind {
    kFixed,         ///< range over explicit split points, key histogram
    kSampledRange,  ///< range over split points sampled at run time
    kHash,
  };
  Kind kind = Kind::kHash;
  /// kFixed: the distribution itself, read from the histogram over the
  /// split points — no reduce count changes it.
  ReduceDistribution fixed;
  bool key_histogram = false;  ///< kSampledRange: the key was profiled
  double distinct = 0.0;  ///< distinct partition keys (kHash: 0 = unknown)
  double hot = 0.0;       ///< the heaviest key's (or group's) share
};

/// The configuration-independent facts every dataflow prediction over a
/// plan reads, built once per configuration search:
///   - the jobs in topological order with their input/output datasets and
///     scan groups (GroupBranchInputs);
///   - the job graph, its dependencies resolved to indices for the
///     cluster simulation (jobs index it in the same order);
///   - per branch, the reduce skew: the distinct keys and heaviest key
///     share from the profile, and for range partitioning over explicit
///     split points the whole distribution, a histogram scan no reduce
///     count changes;
///   - a slot for every dataset a job reads or writes, and the base
///     inputs' size predictions in theirs.
/// A configuration point may change job configurations and the compression
/// flags of the datasets those jobs produce — what ApplyConfiguration
/// writes — and nothing else: never partition split points, profiles or
/// the job graph, from which the shape caches derived values.
struct PlanShape {
  struct Job {
    std::string id;
    std::vector<std::string> inputs;   ///< JobVertex::InputDatasets
    std::vector<std::string> outputs;  ///< JobVertex::OutputDatasets
    std::vector<InputGroup> groups;    ///< GroupBranchInputs
    std::vector<ReduceSkew> reduce_skew;  ///< per branch
  };
  std::vector<Job> jobs;  ///< topological order
  ScheduleGraph schedule;
  std::map<std::string, size_t> dataset_slots;
  /// Per slot, what every pass starts from: the base inputs' predictions,
  /// nullopt for the datasets jobs produce.
  std::vector<std::optional<PredictedDataset>> base_inputs;
};

/// Cost estimator for plans.
class WhatIfEngine {
 public:
  explicit WhatIfEngine(ClusterSpec cluster)
      : model_(std::move(cluster)) {}

  /// Predicts the full dataflow and simulated makespan of `plan`. Fails
  /// with FailedPrecondition if required annotations (input sizes, stage
  /// statistics) are missing.
  Result<WorkflowDataflow> PredictDataflow(const Plan& plan) const;

  /// Costs the plan; never fails — uses the job-count fallback when the
  /// detailed prediction is not possible.
  CostEstimate Cost(const Plan& plan) const;

  /// The shape of `plan`. Fails like PredictDataflow when a base input has
  /// no size annotation or the job graph has a cycle.
  Result<PlanShape> Shape(const Plan& plan) const;

  /// Costs one configuration point of a search: `plan` differs from the
  /// plan `shape` was built from (by an engine over the same cluster) at
  /// most in job configurations and the produced datasets' compression
  /// flags that follow them — never in split points, profiles or jobs,
  /// whose derived values the shape caches. Equal to Cost(plan), bit for
  /// bit, while paying only for what a configuration can change. With a
  /// cache attached, `job_digests` (optional) must map every job of `plan`
  /// to its JobContentDigest — how the RRS loop avoids re-digesting jobs
  /// it did not touch; without a cache it is ignored.
  CostEstimate CostPoint(
      const Plan& plan, const PlanShape& shape,
      const std::map<std::string, CostDigest>* job_digests = nullptr) const;

  /// True if all annotations needed for detailed costing are present.
  bool IsCostable(const Plan& plan) const;

  const PhaseTimeModel& model() const { return model_; }

  /// Attaches a per-job memo (nullptr detaches) — a CostCache, or a
  /// task-private CostCacheOverlay during parallel costing batches.
  /// Caching is transparent: cached and uncached costing return
  /// bit-identical estimates. The store must outlive the engine or be
  /// detached first.
  void set_cache(CostStore* cache) { cache_ = cache; }
  CostStore* cache() const { return cache_; }

  /// Attaches a counter block updated by every Cost/PredictDataflow call
  /// (nullptr detaches). Callers that drive the engine — e.g. the unit
  /// optimizer's RRS loop — may also bump counters through this pointer.
  void set_instrumentation(CostInstrumentation* stats) { stats_ = stats; }
  CostInstrumentation* instrumentation() const { return stats_; }

 private:
  /// Predicts one job's dataflow given predictions for its inputs, and
  /// records predictions for its outputs.
  Result<JobDataflow> PredictJob(const JobVertex& job,
                                 const PlanShape::Job& shape,
                                 DatasetPredictions* datasets) const;

  /// PredictDataflow over a prebuilt shape, with optional precomputed
  /// per-job content digests for the job-memo keys.
  Result<WorkflowDataflow> PredictDataflowImpl(
      const Plan& plan, const PlanShape& shape,
      const std::map<std::string, CostDigest>* job_digests) const;

  /// The detailed estimate over `shape`, or the job-count fallback when
  /// the prediction fails.
  CostEstimate Estimate(
      const Plan& plan, const PlanShape& shape,
      const std::map<std::string, CostDigest>* job_digests) const;

  PhaseTimeModel model_;
  CostStore* cache_ = nullptr;
  CostInstrumentation* stats_ = nullptr;
};

}  // namespace stubby
