// Job/workflow dataflow descriptions. The execution engine fills these with
// *observed* numbers (ground truth, playing the role of the paper's EC2
// cluster); the what-if engine fills them with *predicted* numbers from
// profile annotations (Section 5). Both feed the same phase-time model and
// cluster scheduler, so "actual" and "estimated" costs differ only through
// the dataflow numbers — exactly the paper's setup.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stubby {

/// Upper bound on map tasks per input scan in the simulation (protects the
/// in-memory executor from degenerate split settings). The what-if engine
/// applies the same cap so predictions match observations.
inline constexpr int kMaxSimulatedMapTasks = 8192;

/// Per-job dataflow in logical units (sample counts scaled by dataset
/// logical_scale).
struct JobDataflow {
  std::string job_id;

  int num_map_tasks = 0;
  int num_reduce_tasks = 0;  ///< 0 for map-only jobs

  // Map side.
  uint64_t map_input_records = 0;
  uint64_t map_input_bytes = 0;         ///< raw (uncompressed) bytes read
  uint64_t map_input_stored_bytes = 0;  ///< on-disk bytes (after compression)
  double map_cpu_units = 0.0;           ///< sum over stages of records*weight
  uint64_t map_output_records = 0;      ///< into the shuffle, before combine
  uint64_t map_output_bytes = 0;

  // Combine output (equals map output when no combiner ran).
  uint64_t combine_output_records = 0;
  uint64_t combine_output_bytes = 0;
  double combine_cpu_units = 0.0;

  // Reduce side.
  uint64_t reduce_input_records = 0;
  uint64_t reduce_input_bytes = 0;
  double reduce_cpu_units = 0.0;

  // Final output (raw; output compression applied by the phase model).
  uint64_t output_records = 0;
  uint64_t output_bytes = 0;
  bool output_compressed = false;

  // Side outputs (tee materializations), raw bytes.
  uint64_t tee_bytes = 0;

  // Bloom predicate transfer (all zero when the branch has no
  // BloomTransferSpec): the pre-map filter-build pass over the build
  // input's map output, and the size of the built filter that every map
  // task fetches before probing.
  uint64_t bloom_build_records = 0;  ///< build-side rows hashed
  uint64_t bloom_build_bytes = 0;    ///< build-side bytes scanned
  double bloom_build_cpu_units = 0.0;
  uint64_t bloom_filter_bytes = 0;

  // Skew / critical-path information.
  uint64_t max_map_task_input_bytes = 0;
  uint64_t max_reduce_input_bytes = 0;  ///< largest reduce partition
  int nonempty_reduce_partitions = 0;   ///< parallelism actually achieved

  /// Number of parallel pipelines sharing each task's memory (1 for an
  /// unpacked job; >1 after horizontal packing). Drives the
  /// resource-contention penalty in the phase model.
  int pipelines_per_task = 1;

  std::string ToString() const;
};

/// Whole-workflow dataflow plus the simulated makespan.
struct WorkflowDataflow {
  std::vector<JobDataflow> jobs;
  double makespan_sec = 0.0;
  /// Simulated finish time of jobs[i], in seconds from the workflow start.
  std::vector<double> job_finish_sec;

  const JobDataflow* FindJob(const std::string& id) const;
  std::string ToString() const;
};

}  // namespace stubby
