#include "exec/job_runner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>

#include "common/threading.h"
#include "exec/wrappers.h"
#include "mr/bloom_filter.h"

namespace stubby {

Result<PartitionSpec> ResolvePartitionSpec(const Branch& branch, int R,
                                           const Dfs& dfs) {
  PartitionSpec spec = branch.partition;
  if (spec.type != PartitionType::kRange || !spec.split_points.empty() ||
      spec.split_points_from.empty()) {
    return spec;
  }
  STUBBY_ASSIGN_OR_RETURN(DatasetPtr ds, dfs.Get(spec.split_points_from));
  std::vector<Row> candidates = ds->AllRows();
  std::sort(candidates.begin(), candidates.end());
  // Duplicate candidates would become duplicate split points, i.e. ranges
  // that can never receive a record; only distinct boundaries qualify.
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  int want = std::max(0, R - 1);
  if (static_cast<int>(candidates.size()) <= want) {
    spec.split_points = std::move(candidates);
  } else {
    for (int i = 1; i <= want; ++i) {
      size_t idx = static_cast<size_t>(
          static_cast<double>(i) * static_cast<double>(candidates.size()) /
          (want + 1));
      idx = std::min(idx, candidates.size() - 1);
      spec.split_points.push_back(candidates[idx]);
    }
  }
  return spec;
}

namespace {

constexpr double kMB = 1024.0 * 1024.0;

uint64_t RowsBytes(const std::vector<Row>& rows) {
  uint64_t b = 0;
  for (const Row& r : rows) b += r.SerializedSize();
  return b;
}

using TeeRows = std::map<std::string, std::vector<Row>>;

/// Collects tee rows during one task; the caller drains per-dataset vectors
/// after the task finishes (so per-task partition boundaries are kept).
class TaskTeeSink : public TeeSink {
 public:
  void TeeEmit(const std::string& dataset_id, const Row& row) override {
    rows_[dataset_id].push_back(row);
  }
  TeeRows& rows() { return rows_; }

 private:
  TeeRows rows_;
};

/// Accumulates a dataset under construction (per-partition payloads +
/// scaled accounting so the stored dataset gets the right logical scale).
/// Byte accounting is representation-independent. Map-side outputs land one
/// partition per map task, reduce outputs one per reduce task in task
/// order.
struct DatasetBuilder {
  std::vector<PartitionData> partitions;
  double scaled_records = 0.0;
  double scaled_bytes = 0.0;
  uint64_t physical_bytes = 0;

  void Add(PartitionData pd, double scale) {
    uint64_t b = pd.raw_bytes();
    scaled_records += static_cast<double>(pd.num_rows()) * scale;
    scaled_bytes += static_cast<double>(b) * scale;
    physical_bytes += b;
    partitions.push_back(std::move(pd));
  }

  double LogicalScale() const {
    return physical_bytes > 0
               ? scaled_bytes / static_cast<double>(physical_bytes)
               : 1.0;
  }
};

/// Physical partitions of `ds` selected by a prune list (all when empty).
/// Pruning selects a partition *set*: the list is canonicalized (sorted,
/// deduplicated) so permuted or duplicated prune entries read the same
/// physical data in the same order. A prune entry referencing a partition
/// the dataset does not have means the plan and the stored data disagree —
/// silently skipping it would under-read the input, so it is an error.
Result<std::vector<int>> SelectedPartitions(const StoredDataset& ds,
                                            const std::vector<int>& prune) {
  std::vector<int> parts;
  if (prune.empty()) {
    for (size_t i = 0; i < ds.num_partitions(); ++i) {
      parts.push_back(static_cast<int>(i));
    }
  } else {
    for (int p : CanonicalPrunePartitions(prune)) {
      if (p < 0 || static_cast<size_t>(p) >= ds.num_partitions()) {
        return Status::InvalidArgument(
            "prune partition " + std::to_string(p) + " out of range: dataset '" +
            ds.id() + "' has " + std::to_string(ds.num_partitions()) +
            " partitions");
      }
      parts.push_back(p);
    }
  }
  return parts;
}

/// One sorted (and possibly combined) reduce bucket produced by a map task.
/// The payload is either rows (record path) or a batch sharing the map
/// output's columns under a sorted selection (columnar path).
struct ShuffleBucket {
  size_t r = 0;
  uint64_t sorted_bytes = 0;   ///< pre-combine, post-sort
  uint64_t pre_records = 0;    ///< pre-combine
  std::vector<Row> post_rows;  ///< after the (physical) combiner
  std::optional<RowBatch> post_batch;  ///< columnar alternative to post_rows
};

/// Partitioned/sorted/combined map output of one task for one branch. Pure
/// task-side data: all dataflow accounting happens when it is merged, in
/// task order.
struct ShuffledOutput {
  uint64_t out_bytes = 0;
  size_t out_records = 0;
  std::vector<uint64_t> group_hashes;  ///< one per map-output row
  std::vector<ShuffleBucket> buckets;  ///< ascending r, non-empty only
};

/// One pipeline's output in one task. Output-writing pipelines (map-only
/// branches, reduce tasks) fill `out`; the map side of shuffle branches
/// fills `shuffled`.
struct TaskPiece {
  Status status = Status::OK();
  double cpu_units = 0.0;
  TeeRows tee;
  PartitionData out;
  ShuffledOutput shuffled;
};

/// Runs `stages` record-at-a-time over the rows `feed` pushes into the
/// pipeline's entry emitter. Records the status, CPU units, and tee rows
/// in `piece` and returns the output rows (none when setup failed).
template <typename Feed>
std::vector<Row> RunRowPipeline(const std::vector<Stage>& stages,
                                const Schema& input_schema, TaskPiece* piece,
                                Feed&& feed) {
  TaskTeeSink tee;
  VectorEmitter out;
  auto runner = PipelineRunner::Make(stages, input_schema, &out, &tee);
  if (!runner.ok()) {
    piece->status = runner.status();
    return {};
  }
  feed(static_cast<Emitter&>(**runner));
  (*runner)->Finish();
  piece->cpu_units = (*runner)->counters().cpu_units;
  piece->tee = std::move(tee.rows());
  return std::move(out.rows());
}

/// Concatenates the live rows of `parts`, in order, column-wise into one
/// dense batch of `ncols` columns.
RowBatch ConcatBatches(const std::vector<RowBatch>& parts, size_t ncols) {
  size_t total = 0;
  for (const RowBatch& rb : parts) total += rb.num_rows();
  std::vector<RowBatch::ColumnPtr> cols;
  cols.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    auto col = std::make_shared<RowBatch::Column>();
    col->reserve(total);
    for (const RowBatch& rb : parts) {
      for (size_t i = 0; i < rb.num_rows(); ++i) col->push_back(rb.At(i, c));
    }
    cols.push_back(std::move(col));
  }
  return RowBatch::FromColumns(std::move(cols),
                               std::vector<uint32_t>(ncols, 1), total);
}

/// Per-branch execution state.
struct BranchState {
  PartitionSpec resolved_partition;
  std::vector<size_t> partition_sort_indices;  // in map-output schema
  std::vector<size_t> group_indices;           // combiner grouping
  std::optional<Partitioner> partitioner;
  // True when the branch runs the columnar end-to-end path: every input
  // map pipeline is batch-eligible, the reduce pipeline is batchable (or
  // empty), and any active combiner has a batch kernel. Buckets then flow
  // as reduce_batches instead of reduce_buckets.
  bool columnar = false;
  // reduce_buckets[r]: rows destined for reduce task r, plus scaled
  // accounting (pre-combine) for skew measurement.
  std::vector<std::vector<Row>> reduce_buckets;
  // reduce_batches[r]: columnar alternative (batches in map-task order).
  std::vector<std::vector<RowBatch>> reduce_batches;
  std::vector<double> bucket_scaled_bytes;      // pre-combine, logical
  std::vector<double> bucket_scaled_records;    // pre-combine, logical
  std::vector<uint64_t> bucket_physical_records;       // pre-combine
  std::vector<uint64_t> bucket_physical_post_records;  // after combiner
  // Combine-effectiveness model inputs: distinct group keys seen and the
  // logical record count each map task contributed.
  std::set<uint64_t> group_hashes;
  std::vector<double> task_logical_records;
  double raw_scaled_records = 0.0;  // pre-combine map output (logical)
  double raw_scaled_bytes = 0.0;
  double combine_ratio = 1.0;  // combined records / raw records
  DatasetBuilder output;
};

/// A map task's input: partition segments — views into PartitionData
/// payloads — so forming tasks copies no rows.
struct ChunkSeg {
  PartitionData pd;  // shares the dataset partition's representation
  size_t lo = 0;
  size_t hi = 0;
};
struct MapTask {
  const InputGroup* group = nullptr;
  DatasetPtr ds;
  double scale = 1.0;
  std::vector<ChunkSeg> segs;
};

struct MapTaskResult {
  uint64_t chunk_bytes = 0;
  size_t chunk_rows = 0;
  std::vector<TaskPiece> pieces;  // one per group subscriber
};

/// A merge-mode branch's co-aligned inputs.
struct MergeBranchCtx {
  size_t bi = 0;
  std::vector<DatasetPtr> inputs_ds;
  std::vector<std::vector<int>> inputs_parts;
  std::vector<size_t> merge_sort_idx;
};
struct MergeInputPiece : TaskPiece {
  size_t input_index = 0;
  uint64_t pb = 0;  ///< physical bytes read
  size_t nrows = 0;
};
/// One merge-mode task; the TaskPiece part is the merged map pipeline's.
struct MergeTaskResult : TaskPiece {
  std::vector<MergeInputPiece> pieces;
  uint64_t task_logical_bytes = 0;
  double task_scale = 1.0;
};

/// The state of one JobRunner::Run call, shared by its phases. Tasks
/// (Bloom builds, map chunks, merge-mode tasks, reduce partitions) are
/// pure: they run pipelines, partition/sort/combine, and return
/// unaggregated per-task pieces. All mutation of the dataflow record, the
/// branch accumulators, and the tee builders happens in a serial merge
/// that walks the pieces in task order — replaying the exact accumulation
/// sequence of a serial run. Results are therefore bit-identical
/// (including floating-point sums) at any thread count.
struct JobRun {
  JobRun(const ClusterSpec& cluster, ThreadPool* pool, ExecOptions exec,
         const Plan& plan, const JobVertex& job, Dfs* dfs)
      : cluster(cluster),
        pool(pool),
        exec(exec),
        plan(plan),
        job(job),
        dfs(dfs),
        R(job.map_only() ? 0 : job.EffectiveReduceTasks()),
        nb(job.branches.size()),
        bstate(nb) {
    df.job_id = job.id;
    df.num_reduce_tasks = R;
    df.output_compressed = job.config.compress_output;
  }

  // Phases, in execution order.
  Status PlanBranches();
  Status BuildBloomFilters();
  Status FormMapTasks(const std::vector<InputGroup>& groups);
  Status RunMapTasks();
  Status RunMergeModeTasks();
  void ModelCombine();
  Status RunReduceTasks();
  Status WriteOutputs();

  // Task-side helpers: read the job state, never write it (reduce tasks
  // drain only the bucket they own).
  ShuffledOutput ShuffleRows(size_t bi, std::vector<Row> rows) const;
  ShuffledOutput ShuffleBatch(size_t bi, const RowBatch& batch) const;
  RowBatch MakeChunkBatch(const MapTask& t) const;
  MergeTaskResult RunMergeTask(const MergeBranchCtx& ctx, size_t t) const;
  TaskPiece ReduceBatches(size_t bi, size_t ri);
  TaskPiece ReduceRows(size_t bi, size_t ri);

  // Serial merge-side helpers.
  void DrainTee(TeeRows& tee_rows, double scale);
  void MergeShuffle(size_t bi, ShuffledOutput so, double scale);
  uint64_t AccountInput(const StoredDataset& ds, uint64_t chunk_bytes,
                        uint64_t chunk_rows);

  const ClusterSpec& cluster;
  ThreadPool* const pool;
  const ExecOptions exec;
  const Plan& plan;
  const JobVertex& job;
  Dfs* const dfs;
  const int R;
  const size_t nb;

  JobDataflow df;
  std::vector<BranchState> bstate;
  std::map<std::string, DatasetBuilder> tee_builders;
  std::map<std::string, Schema> tee_schemas;
  // Effective map stages: per-(branch, input) copies of the plan's stage
  // vectors, with Bloom probe stages bound to their branch's filter.
  std::vector<std::vector<std::vector<Stage>>> eff_stages;
  std::vector<MapTask> map_tasks;
};

Status JobRun::PlanBranches() {
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    if (b.map_only()) continue;
    BranchState& st = bstate[bi];
    STUBBY_ASSIGN_OR_RETURN(st.resolved_partition,
                            ResolvePartitionSpec(b, R, *dfs));
    STUBBY_ASSIGN_OR_RETURN(
        Partitioner partitioner,
        Partitioner::Make(st.resolved_partition, b.map_output_schema, R));
    st.partitioner = std::move(partitioner);
    st.partition_sort_indices = st.partitioner->sort_indices();
    std::vector<std::string> group = b.GroupFields();
    STUBBY_ASSIGN_OR_RETURN(st.group_indices,
                            b.map_output_schema.IndicesOf(group));
    const bool inputs_eligible = std::all_of(
        b.inputs.begin(), b.inputs.end(), [](const BranchInput& in) {
          return BatchPipelineRunner::Eligible(in.map_stages);
        });
    const bool combiner_ok =
        !(job.config.use_combiner && b.combiner != nullptr) ||
        b.combiner->supports_batch();
    st.columnar = exec.vectorized && !b.merge_mode() &&
                  BatchReducePipeline::Eligible(b.reduce_stages) &&
                  inputs_eligible && combiner_ok;
    st.reduce_buckets.assign(static_cast<size_t>(R), {});
    st.reduce_batches.assign(static_cast<size_t>(R), {});
    st.bucket_scaled_bytes.assign(static_cast<size_t>(R), 0.0);
    st.bucket_scaled_records.assign(static_cast<size_t>(R), 0.0);
    st.bucket_physical_records.assign(static_cast<size_t>(R), 0);
    st.bucket_physical_post_records.assign(static_cast<size_t>(R), 0);
  }

  auto declare_tees = [&](const std::vector<Stage>& stages) {
    for (const Stage& s : stages) {
      if (!s.tee_dataset.empty()) tee_schemas[s.tee_dataset] = s.output_schema();
    }
  };
  for (const Branch& b : job.branches) {
    for (const BranchInput& in : b.inputs) declare_tees(in.map_stages);
    declare_tees(b.merged_map_stages);
    declare_tees(b.reduce_stages);
  }
  return Status::OK();
}

void JobRun::DrainTee(TeeRows& tee_rows, double scale) {
  for (auto& [id, rows] : tee_rows) {
    uint64_t b = RowsBytes(rows);
    df.tee_bytes += static_cast<uint64_t>(static_cast<double>(b) * scale);
    tee_builders[id].Add(PartitionData(std::move(rows)), scale);
  }
  tee_rows.clear();
}

// Task side of the shuffle: partition one map task's output for branch
// `bi`, sort each bucket, and run the combiner physically (so the reduce
// functions see combined rows).
ShuffledOutput JobRun::ShuffleRows(size_t bi, std::vector<Row> rows) const {
  const Branch& b = job.branches[bi];
  const BranchState& st = bstate[bi];
  ShuffledOutput so;
  so.out_bytes = RowsBytes(rows);
  so.out_records = rows.size();
  so.group_hashes.reserve(rows.size());
  for (const Row& row : rows) {
    so.group_hashes.push_back(HashOnFields(row, st.group_indices));
  }
  std::vector<std::vector<Row>> buckets(static_cast<size_t>(R));
  for (Row& row : rows) {
    int r = st.partitioner->PartitionOf(row, R);
    buckets[static_cast<size_t>(r)].push_back(std::move(row));
  }
  for (size_t r = 0; r < buckets.size(); ++r) {
    auto& bucket = buckets[r];
    if (bucket.empty()) continue;
    std::stable_sort(bucket.begin(), bucket.end(),
                     [&](const Row& a, const Row& bb) {
                       return CompareOnFields(a, bb,
                                              st.partition_sort_indices) < 0;
                     });
    ShuffleBucket sb;
    sb.r = r;
    sb.sorted_bytes = RowsBytes(bucket);
    sb.pre_records = bucket.size();
    if (job.config.use_combiner && b.combiner != nullptr) {
      double combine_cpu = 0.0;
      bucket =
          RunCombiner(*b.combiner, bucket, st.group_indices, &combine_cpu);
    }
    sb.post_rows = std::move(bucket);
    so.buckets.push_back(std::move(sb));
  }
  return so;
}

// Batch twin of ShuffleRows: hashes, partitions, and sorts on the batch (a
// stable index sort yields the same permutation as the row path's stable
// sort; the RowBatch accounting helpers reproduce the per-Row byte, hash,
// and compare results exactly, so the ShuffledOutput is bit-identical).
// Columnar branches keep each sorted bucket as a batch whose selection
// indexes the map output's shared columns, so no row is materialized
// between the map kernel and the reduce kernel; the combiner, when active,
// runs its batch kernel over equal-key runs. Other branches materialize
// the sorted bucket as rows for the row combiner and reducer. Either way
// the combiner's cpu out-param is discarded — combine CPU is modeled
// analytically after the map phase.
ShuffledOutput JobRun::ShuffleBatch(size_t bi, const RowBatch& batch) const {
  const Branch& b = job.branches[bi];
  const BranchState& st = bstate[bi];
  const bool combine = job.config.use_combiner && b.combiner != nullptr;
  ShuffledOutput so;
  const size_t n = batch.num_rows();
  so.out_bytes = batch.TotalSerializedBytes();
  so.out_records = n;
  so.group_hashes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    so.group_hashes.push_back(batch.HashOnFields(i, st.group_indices));
  }
  std::vector<std::vector<uint32_t>> buckets(static_cast<size_t>(R));
  for (size_t i = 0; i < n; ++i) {
    int r = st.partitioner->PartitionOf(batch, i, R);
    buckets[static_cast<size_t>(r)].push_back(static_cast<uint32_t>(i));
  }
  for (size_t r = 0; r < buckets.size(); ++r) {
    auto& idx = buckets[r];
    if (idx.empty()) continue;
    std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t bb) {
      return batch.Compare(a, bb, st.partition_sort_indices) < 0;
    });
    ShuffleBucket sb;
    sb.r = r;
    sb.pre_records = idx.size();
    for (uint32_t i : idx) sb.sorted_bytes += batch.RowSerializedSize(i);
    double combine_cpu = 0.0;
    if (st.columnar) {
      std::vector<uint32_t> sel;
      sel.reserve(idx.size());
      for (uint32_t i : idx) sel.push_back(batch.selection()[i]);
      RowBatch bucket = batch;  // shares columns
      bucket.SetSelection(std::move(sel));
      if (combine) {
        bucket = RunCombinerBatch(*b.combiner, bucket, st.group_indices,
                                  &combine_cpu);
      }
      sb.post_batch = std::move(bucket);
    } else {
      std::vector<Row> bucket;
      bucket.reserve(idx.size());
      for (uint32_t i : idx) bucket.push_back(batch.MaterializeRow(i));
      if (combine) {
        bucket =
            RunCombiner(*b.combiner, bucket, st.group_indices, &combine_cpu);
      }
      sb.post_rows = std::move(bucket);
    }
    so.buckets.push_back(std::move(sb));
  }
  return so;
}

// Merge side of the shuffle: stash the buckets into the branch state and
// account shuffle volume pre-combine — combine effectiveness at logical
// scale is modeled analytically after the map phase, because the physical
// sample cannot exhibit logical-scale duplicate density.
void JobRun::MergeShuffle(size_t bi, ShuffledOutput so, double scale) {
  BranchState& st = bstate[bi];
  double scaled_records = static_cast<double>(so.out_records) * scale;
  double scaled_bytes = static_cast<double>(so.out_bytes) * scale;
  df.map_output_records += static_cast<uint64_t>(scaled_records);
  df.map_output_bytes += static_cast<uint64_t>(scaled_bytes);
  st.raw_scaled_records += scaled_records;
  st.raw_scaled_bytes += scaled_bytes;
  st.task_logical_records.push_back(scaled_records);
  for (uint64_t h : so.group_hashes) st.group_hashes.insert(h);
  for (ShuffleBucket& sb : so.buckets) {
    st.bucket_scaled_bytes[sb.r] +=
        static_cast<double>(sb.sorted_bytes) * scale;
    st.bucket_scaled_records[sb.r] +=
        static_cast<double>(sb.pre_records) * scale;
    st.bucket_physical_records[sb.r] += sb.pre_records;
    if (sb.post_batch.has_value()) {
      st.bucket_physical_post_records[sb.r] += sb.post_batch->num_rows();
      st.reduce_batches[sb.r].push_back(std::move(*sb.post_batch));
    } else {
      st.bucket_physical_post_records[sb.r] += sb.post_rows.size();
      auto& dst = st.reduce_buckets[sb.r];
      dst.insert(dst.end(), std::make_move_iterator(sb.post_rows.begin()),
                 std::make_move_iterator(sb.post_rows.end()));
    }
  }
}

// Accounts one map-task input chunk read from dataset `ds`.
uint64_t JobRun::AccountInput(const StoredDataset& ds, uint64_t chunk_bytes,
                              uint64_t chunk_rows) {
  double scale = ds.logical_scale();
  uint64_t logical =
      static_cast<uint64_t>(static_cast<double>(chunk_bytes) * scale);
  df.map_input_records +=
      static_cast<uint64_t>(static_cast<double>(chunk_rows) * scale);
  df.map_input_bytes += logical;
  df.map_input_stored_bytes += static_cast<uint64_t>(
      static_cast<double>(logical) *
      (ds.layout().compressed ? cluster.compress_ratio : 1.0));
  return logical;
}

// Bloom predicate-transfer build pass. Probe stages in eff_stages are
// rebound to the filter built for their branch; the plan's own stage
// instances stay untouched (unbound probe stages are pass-throughs), so
// profiling, serialization, and later runs see no execution state.
Status JobRun::BuildBloomFilters() {
  eff_stages.resize(nb);
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    eff_stages[bi].reserve(b.inputs.size());
    for (const BranchInput& in : b.inputs) {
      eff_stages[bi].push_back(in.map_stages);
    }
  }
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    if (!b.bloom) continue;
    const BloomTransferSpec& spec = *b.bloom;
    const BranchInput& build = b.inputs[spec.build_input];
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr build_ds, dfs->Get(build.dataset_id));
    STUBBY_ASSIGN_OR_RETURN(
        std::vector<int> build_parts,
        SelectedPartitions(*build_ds, build.prune_partitions));
    STUBBY_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                            b.map_output_schema.IndicesOf(spec.key_fields));
    // One build task per selected partition: run the build input's map
    // pipeline (per-partition reads preserve the clustering any packed-in
    // reduce stage relies on) and hash the output's key fields into a
    // per-task partial filter. Tees are discarded — the map phase proper
    // writes them once.
    struct BuildPiece : TaskPiece {
      std::unique_ptr<BloomFilter> partial;
      uint64_t pb = 0;    ///< physical bytes read
      size_t hashed = 0;  ///< pipeline output rows inserted
    };
    std::vector<BuildPiece> build_pieces(build_parts.size());
    RunTasks(pool, build_parts.size(), [&](size_t pi) {
      BuildPiece& piece = build_pieces[pi];
      const std::vector<Row>& part =
          build_ds->partition(static_cast<size_t>(build_parts[pi]));
      piece.pb = RowsBytes(part);
      std::vector<Row> keys = RunRowPipeline(
          build.map_stages, build_ds->schema(), &piece, [&](Emitter& in) {
            for (const Row& row : part) in.Emit(row);
          });
      piece.tee.clear();
      if (!piece.status.ok()) return;
      piece.partial = std::make_unique<BloomFilter>(
          spec.bits_log2, spec.num_hashes, kBloomFilterSeed);
      for (const Row& row : keys) {
        piece.partial->Insert(HashOnFields(row, key_idx));
      }
      piece.hashed = keys.size();
    });
    // Serial OR-merge in partition order (bitwise OR is order-independent,
    // so the merged filter is bit-identical at any thread count).
    auto filter = std::make_shared<BloomFilter>(spec.bits_log2,
                                                spec.num_hashes,
                                                kBloomFilterSeed);
    const double build_scale = build_ds->logical_scale();
    for (BuildPiece& piece : build_pieces) {
      if (!piece.status.ok()) return piece.status;
      filter->UnionWith(*piece.partial);
      df.bloom_build_records += static_cast<uint64_t>(
          static_cast<double>(piece.hashed) * build_scale);
      df.bloom_build_bytes += static_cast<uint64_t>(
          static_cast<double>(piece.pb) * build_scale);
      df.bloom_build_cpu_units +=
          (piece.cpu_units +
           static_cast<double>(piece.hashed) * kBloomHashCpuPerRecord) *
          build_scale;
    }
    df.bloom_filter_bytes += filter->SizeBytes();
    for (size_t ii : spec.probe_inputs) {
      for (Stage& s : eff_stages[bi][ii]) {
        if (s.kind != Stage::Kind::kMap) continue;
        auto* probe = dynamic_cast<BloomProbeMapFn*>(s.map_fn.get());
        if (probe != nullptr) s.map_fn = probe->Bind(filter);
      }
    }
  }
  return Status::OK();
}

// Serial task formation for the shared-scan input groups: one task per
// (group, chunk). Aligned reads take whole partitions, size-based splits
// take [lo, hi) ranges of consecutive partitions. Chunk boundaries (task
// counts, per-task record ranges) are identical to the historical
// row-gathering formation.
Status JobRun::FormMapTasks(const std::vector<InputGroup>& groups) {
  for (const InputGroup& g : groups) {
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr ds, dfs->Get(g.dataset_id));
    const double scale = ds->logical_scale();
    STUBBY_ASSIGN_OR_RETURN(std::vector<int> parts,
                            SelectedPartitions(*ds, g.prune_partitions));

    std::vector<std::vector<ChunkSeg>> chunks;
    if (g.aligned) {
      for (int p : parts) {
        const PartitionData& pd = ds->partition_data(static_cast<size_t>(p));
        chunks.push_back({ChunkSeg{pd, 0, pd.num_rows()}});
      }
    } else {
      uint64_t physical_bytes = 0;
      size_t total_rows = 0;
      for (int p : parts) {
        const PartitionData& pd = ds->partition_data(static_cast<size_t>(p));
        physical_bytes += pd.raw_bytes();
        total_rows += pd.num_rows();
      }
      double stored_logical = static_cast<double>(physical_bytes) * scale;
      if (ds->layout().compressed) stored_logical *= cluster.compress_ratio;
      int tasks = std::max(
          1, static_cast<int>(
                 std::ceil(stored_logical / (job.config.split_mb * kMB))));
      tasks = std::min(tasks, JobRunner::kMaxMapTasks);
      size_t per = std::max<size_t>(
          1, (total_rows + static_cast<size_t>(tasks) - 1) /
                 static_cast<size_t>(tasks));
      for (int t = 0; t < tasks; ++t) {
        size_t lo = std::min(total_rows, static_cast<size_t>(t) * per);
        size_t hi = std::min(total_rows, lo + per);
        // Map the global row range [lo, hi) onto partition segments, in
        // `parts` order (the concatenation order of RowsOfPartitions).
        std::vector<ChunkSeg> segs;
        size_t off = 0;
        for (int p : parts) {
          const PartitionData& pd =
              ds->partition_data(static_cast<size_t>(p));
          size_t n = pd.num_rows();
          size_t slo = std::max(lo, off);
          size_t shi = std::min(hi, off + n);
          if (slo < shi) segs.push_back(ChunkSeg{pd, slo - off, shi - off});
          off += n;
          if (off >= hi) break;
        }
        chunks.push_back(std::move(segs));
      }
    }
    if (chunks.empty()) chunks.emplace_back();

    df.num_map_tasks += static_cast<int>(chunks.size());
    df.pipelines_per_task = std::max(
        df.pipelines_per_task, static_cast<int>(g.subscribers.size()));
    for (std::vector<ChunkSeg>& chunk : chunks) {
      map_tasks.push_back(MapTask{&g, ds, scale, std::move(chunk)});
    }
  }
  return Status::OK();
}

// The shared columnar view of a task's chunk. Single-segment chunks are
// zero-copy views of the stored columns (identity or range selection);
// multi-segment chunks gather column-wise. Ragged or width-mismatched
// payloads gather rows and convert them.
RowBatch JobRun::MakeChunkBatch(const MapTask& t) const {
  const size_t nschema = t.ds->schema().size();
  const bool view_ok =
      !t.segs.empty() &&
      std::all_of(t.segs.begin(), t.segs.end(), [&](const ChunkSeg& seg) {
        return seg.pd.columnar() && seg.pd.num_columns() == nschema;
      });
  if (!view_ok) {
    std::vector<Row> rows;
    size_t total = 0;
    for (const ChunkSeg& seg : t.segs) total += seg.hi - seg.lo;
    rows.reserve(total);
    for (const ChunkSeg& seg : t.segs) {
      const auto& src = seg.pd.rows();
      rows.insert(rows.end(), src.begin() + static_cast<long>(seg.lo),
                  src.begin() + static_cast<long>(seg.hi));
    }
    return RowBatch::FromRows(rows, nschema);
  }
  if (t.segs.size() == 1) {
    const ChunkSeg& seg = t.segs.front();
    if (seg.lo == 0 && seg.hi == seg.pd.num_rows()) return seg.pd.AsBatch();
    return seg.pd.BatchSlice(seg.lo, seg.hi);
  }
  std::vector<RowBatch> slices;
  slices.reserve(t.segs.size());
  for (const ChunkSeg& seg : t.segs) {
    slices.push_back(seg.pd.BatchSlice(seg.lo, seg.hi));
  }
  return ConcatBatches(slices, nschema);
}

// Every subscribing branch pipeline over the shared scan, plus the
// per-branch shuffle work, in parallel; then the serial merge in task
// order.
Status JobRun::RunMapTasks() {
  std::vector<MapTaskResult> map_results(map_tasks.size());
  RunTasks(pool, map_tasks.size(), [&](size_t ti) {
    MapTask& t = map_tasks[ti];
    MapTaskResult& res = map_results[ti];
    for (const ChunkSeg& seg : t.segs) {
      res.chunk_rows += seg.hi - seg.lo;
      res.chunk_bytes += seg.pd.RangeBytes(seg.lo, seg.hi);
    }
    // One columnar view of the chunk serves every eligible subscriber
    // (pipelines share the input columns; kernels never mutate them).
    std::optional<RowBatch> chunk_batch;
    for (const auto& [bi, ii] : t.group->subscribers) {
      TaskPiece& piece = res.pieces.emplace_back();
      const Branch& b = job.branches[bi];
      const std::vector<Stage>& stages = eff_stages[bi][ii];
      if (exec.vectorized && BatchPipelineRunner::Eligible(stages)) {
        if (!chunk_batch) chunk_batch = MakeChunkBatch(t);
        BatchPipelineRunner runner = BatchPipelineRunner::Make(stages);
        RowBatch out = runner.Run(*chunk_batch);
        piece.cpu_units = runner.counters().cpu_units;
        if (b.map_only()) {
          piece.out = PartitionData::FromBatch(out);
          piece.out.raw_bytes();  // size in-task, off the merge path
        } else {
          piece.shuffled = ShuffleBatch(bi, out);
        }
        continue;
      }
      std::vector<Row> rows =
          RunRowPipeline(stages, t.ds->schema(), &piece, [&](Emitter& in) {
            for (const ChunkSeg& seg : t.segs) {
              const auto& src = seg.pd.rows();
              for (size_t i = seg.lo; i < seg.hi; ++i) in.Emit(src[i]);
            }
          });
      if (!piece.status.ok()) continue;
      if (b.map_only()) {
        piece.out = PartitionData(std::move(rows));
      } else {
        piece.shuffled = ShuffleRows(bi, std::move(rows));
      }
    }
    t.segs.clear();
    t.segs.shrink_to_fit();
  });

  for (size_t ti = 0; ti < map_tasks.size(); ++ti) {
    MapTask& t = map_tasks[ti];
    MapTaskResult& res = map_results[ti];
    uint64_t logical = AccountInput(*t.ds, res.chunk_bytes, res.chunk_rows);
    df.max_map_task_input_bytes =
        std::max(df.max_map_task_input_bytes, logical);
    for (size_t si = 0; si < res.pieces.size(); ++si) {
      TaskPiece& piece = res.pieces[si];
      if (!piece.status.ok()) return piece.status;
      const size_t bi = t.group->subscribers[si].first;
      df.map_cpu_units += piece.cpu_units * t.scale;
      DrainTee(piece.tee, t.scale);
      if (job.branches[bi].map_only()) {
        bstate[bi].output.Add(std::move(piece.out), t.scale);
      } else {
        MergeShuffle(bi, std::move(piece.shuffled), t.scale);
      }
    }
  }
  map_results.clear();
  map_tasks.clear();
  return Status::OK();
}

// One merge-mode task: task `t` of every input's partition list, each run
// through its input pipeline, interleaved by sort order, then through the
// merged map pipeline.
MergeTaskResult JobRun::RunMergeTask(const MergeBranchCtx& ctx,
                                     size_t t) const {
  MergeTaskResult res;
  const Branch& b = job.branches[ctx.bi];
  std::vector<Row> merged;
  double task_scaled_bytes = 0.0;
  uint64_t task_physical_bytes = 0;
  for (size_t i = 0; i < b.inputs.size(); ++i) {
    if (t >= ctx.inputs_parts[i].size()) continue;
    const StoredDataset& ds = *ctx.inputs_ds[i];
    const std::vector<Row>& part =
        ds.partition(static_cast<size_t>(ctx.inputs_parts[i][t]));
    uint64_t pb = RowsBytes(part);
    // Same arithmetic as AccountInput's `logical`, without the dataflow
    // mutation (that happens at merge).
    uint64_t logical = static_cast<uint64_t>(static_cast<double>(pb) *
                                             ds.logical_scale());
    res.task_logical_bytes += logical;
    task_scaled_bytes += static_cast<double>(logical);
    task_physical_bytes += pb;

    MergeInputPiece& piece = res.pieces.emplace_back();
    piece.input_index = i;
    piece.pb = pb;
    piece.nrows = part.size();
    std::vector<Row> rows = RunRowPipeline(
        b.inputs[i].map_stages, ds.schema(), &piece, [&](Emitter& in) {
          for (const Row& row : part) in.Emit(row);
        });
    if (!piece.status.ok()) {
      res.status = piece.status;
      return res;
    }
    merged.insert(merged.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
  }
  res.task_scale =
      task_physical_bytes > 0
          ? task_scaled_bytes / static_cast<double>(task_physical_bytes)
          : 1.0;

  // Co-aligned merge: interleave the per-input streams by sort order.
  std::stable_sort(merged.begin(), merged.end(),
                   [&](const Row& a, const Row& bb) {
                     return CompareOnFields(a, bb, ctx.merge_sort_idx) < 0;
                   });
  std::vector<Row> rows = RunRowPipeline(
      b.merged_map_stages, b.merge_schema, &res, [&](Emitter& in) {
        for (const Row& row : merged) in.Emit(row);
      });
  if (!res.status.ok()) return res;
  if (b.map_only()) {
    res.out = PartitionData(std::move(rows));
  } else {
    res.shuffled = ShuffleRows(ctx.bi, std::move(rows));
  }
  return res;
}

// Merge-mode branches (co-aligned inputs) stay on the record-at-a-time
// path regardless of ExecOptions::vectorized: their per-input streams are
// concatenated and re-sorted across pipelines, which breaks the
// single-physical-index-space invariant batch pipelines rely on for exact
// CPU-accounting replay.
Status JobRun::RunMergeModeTasks() {
  std::vector<MergeBranchCtx> merge_ctx;
  std::vector<std::pair<size_t, size_t>> merge_tasks;  // (ctx, task index)
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    if (!b.merge_mode()) continue;

    MergeBranchCtx ctx;
    ctx.bi = bi;
    size_t max_parts = 0;
    for (const BranchInput& in : b.inputs) {
      STUBBY_ASSIGN_OR_RETURN(DatasetPtr ds, dfs->Get(in.dataset_id));
      STUBBY_ASSIGN_OR_RETURN(std::vector<int> parts,
                              SelectedPartitions(*ds, in.prune_partitions));
      max_parts = std::max(max_parts, parts.size());
      ctx.inputs_ds.push_back(std::move(ds));
      ctx.inputs_parts.push_back(std::move(parts));
    }
    if (max_parts == 0) max_parts = 1;
    df.num_map_tasks += static_cast<int>(max_parts);
    df.pipelines_per_task = std::max(df.pipelines_per_task, 1);
    STUBBY_ASSIGN_OR_RETURN(ctx.merge_sort_idx,
                            b.merge_schema.IndicesOf(b.merge_sort_fields));
    merge_ctx.push_back(std::move(ctx));
    for (size_t t = 0; t < max_parts; ++t) {
      merge_tasks.emplace_back(merge_ctx.size() - 1, t);
    }
  }

  std::vector<MergeTaskResult> merge_results(merge_tasks.size());
  RunTasks(pool, merge_tasks.size(), [&](size_t ti) {
    merge_results[ti] =
        RunMergeTask(merge_ctx[merge_tasks[ti].first], merge_tasks[ti].second);
  });

  for (size_t ti = 0; ti < merge_tasks.size(); ++ti) {
    const MergeBranchCtx& ctx = merge_ctx[merge_tasks[ti].first];
    MergeTaskResult& res = merge_results[ti];
    if (!res.status.ok()) return res.status;
    const Branch& b = job.branches[ctx.bi];
    for (MergeInputPiece& piece : res.pieces) {
      const StoredDataset& ds = *ctx.inputs_ds[piece.input_index];
      AccountInput(ds, piece.pb, piece.nrows);
      df.map_cpu_units += piece.cpu_units * ds.logical_scale();
      DrainTee(piece.tee, ds.logical_scale());
    }
    df.max_map_task_input_bytes =
        std::max(df.max_map_task_input_bytes, res.task_logical_bytes);
    df.map_cpu_units += res.cpu_units * res.task_scale;
    DrainTee(res.tee, res.task_scale);
    if (b.map_only()) {
      bstate[ctx.bi].output.Add(std::move(res.out), res.task_scale);
    } else {
      MergeShuffle(ctx.bi, std::move(res.shuffled), res.task_scale);
    }
  }
  merge_results.clear();
  merge_tasks.clear();
  return Status::OK();
}

// Combine-effectiveness accounting at logical scale: a map task emitting n
// records over G distinct groups combines down to about G*(1-exp(-n/G))
// records. The what-if engine uses the same model, so estimation error
// stems from its profiled G, not from model mismatch.
void JobRun::ModelCombine() {
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    if (b.map_only()) continue;
    BranchState& st = bstate[bi];
    if (job.config.use_combiner && b.combiner != nullptr &&
        !st.group_hashes.empty() && st.raw_scaled_records > 0) {
      double groups = static_cast<double>(st.group_hashes.size());
      double combined = 0.0;
      for (double n : st.task_logical_records) {
        if (n <= 0) continue;
        combined += std::min(n, groups * (1.0 - std::exp(-n / groups)));
      }
      st.combine_ratio = std::min(1.0, combined / st.raw_scaled_records);
      // Every map-output record passes through the combiner once.
      df.combine_cpu_units +=
          st.raw_scaled_records * b.combiner->cpu_cost_per_record();
    }
    df.combine_output_records +=
        static_cast<uint64_t>(st.raw_scaled_records * st.combine_ratio);
    df.combine_output_bytes +=
        static_cast<uint64_t>(st.raw_scaled_bytes * st.combine_ratio);
  }
}

// Columnar reduce of branch `bi`'s bucket `ri`: the per-map bucket batches
// are concatenated in task order, sorted by selection permutation (same
// stable sort, same comparator, same initial order as the row path — hence
// the same permutation), and grouped runs go through the reducer's batch
// kernel.
TaskPiece JobRun::ReduceBatches(size_t bi, size_t ri) {
  const Branch& b = job.branches[bi];
  BranchState& st = bstate[bi];
  TaskPiece piece;
  auto& batches = st.reduce_batches[ri];
  RowBatch merged = batches.size() == 1
                        ? std::move(batches.front())
                        : ConcatBatches(batches, b.map_output_schema.size());
  batches.clear();
  batches.shrink_to_fit();

  // Merge the per-map sorted segments (modeled as one stable sort) by
  // permuting the selection.
  std::vector<uint32_t> perm(merged.num_rows());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t bb) {
    return merged.Compare(a, bb, st.partition_sort_indices) < 0;
  });
  std::vector<uint32_t> sel;
  sel.reserve(perm.size());
  for (uint32_t p : perm) sel.push_back(merged.selection()[p]);
  merged.SetSelection(std::move(sel));

  auto runner = BatchReducePipeline::Make(b.reduce_stages, b.map_output_schema);
  if (!runner.ok()) {
    piece.status = runner.status();
    return piece;
  }
  RowBatch out = runner->Run(merged);
  piece.cpu_units = runner->counters().cpu_units;
  piece.out = PartitionData::FromBatch(out);
  piece.out.raw_bytes();  // size in-task, off the merge path
  return piece;
}

// Record-at-a-time reduce of branch `bi`'s bucket `ri`.
TaskPiece JobRun::ReduceRows(size_t bi, size_t ri) {
  const Branch& b = job.branches[bi];
  BranchState& st = bstate[bi];
  TaskPiece piece;
  auto& rows = st.reduce_buckets[ri];

  // Merge the per-map sorted segments (modeled as one stable sort).
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& bb) {
    return CompareOnFields(a, bb, st.partition_sort_indices) < 0;
  });
  std::vector<Row> out = RunRowPipeline(
      b.reduce_stages, b.map_output_schema, &piece, [&](Emitter& in) {
        for (const Row& row : rows) in.Emit(row);
      });
  if (!piece.status.ok()) return piece;
  piece.out = PartitionData(std::move(out));
  rows.clear();
  rows.shrink_to_fit();
  return piece;
}

// One task per reduce partition; task r exclusively owns every branch's
// bucket r, so sorting in place and draining it is race-free. The serial
// merge then accounts the partitions in order.
Status JobRun::RunReduceTasks() {
  if (job.map_only()) return Status::OK();
  // reduce_results[r][bi]: branch bi's piece of reduce task r.
  std::vector<std::vector<TaskPiece>> reduce_results(static_cast<size_t>(R));
  RunTasks(pool, static_cast<size_t>(R), [&](size_t ri) {
    std::vector<TaskPiece>& pieces = reduce_results[ri];
    pieces.resize(nb);
    for (size_t bi = 0; bi < nb; ++bi) {
      if (job.branches[bi].map_only()) continue;
      pieces[bi] = bstate[bi].columnar ? ReduceBatches(bi, ri)
                                       : ReduceRows(bi, ri);
    }
  });

  for (size_t ri = 0; ri < static_cast<size_t>(R); ++ri) {
    double partition_scaled_bytes = 0.0;
    bool nonempty = false;
    for (size_t bi = 0; bi < nb; ++bi) {
      if (job.branches[bi].map_only()) continue;
      BranchState& st = bstate[bi];
      TaskPiece& piece = reduce_results[ri][bi];
      if (!piece.status.ok()) return piece.status;
      partition_scaled_bytes += st.bucket_scaled_bytes[ri] * st.combine_ratio;
      // Plain logical/physical data ratio (combine-independent): scales
      // the reduce pipeline's outputs, whose record counts track groups,
      // not pre-aggregation.
      double scale =
          st.bucket_physical_records[ri] > 0
              ? st.bucket_scaled_records[ri] /
                    static_cast<double>(st.bucket_physical_records[ri])
              : 1.0;
      // Reduce-side CPU processes the logically-combined stream.
      double cpu_scale =
          st.bucket_physical_post_records[ri] > 0
              ? st.bucket_scaled_records[ri] * st.combine_ratio /
                    static_cast<double>(st.bucket_physical_post_records[ri])
              : 1.0;
      if (st.bucket_physical_post_records[ri] > 0) nonempty = true;

      df.reduce_input_records += static_cast<uint64_t>(
          st.bucket_scaled_records[ri] * st.combine_ratio);
      df.reduce_input_bytes += static_cast<uint64_t>(
          st.bucket_scaled_bytes[ri] * st.combine_ratio);
      df.reduce_cpu_units += piece.cpu_units * cpu_scale;
      DrainTee(piece.tee, scale);
      st.output.Add(std::move(piece.out), scale);
    }
    if (nonempty) df.nonempty_reduce_partitions++;
    df.max_reduce_input_bytes =
        std::max(df.max_reduce_input_bytes,
                 static_cast<uint64_t>(partition_scaled_bytes));
  }
  return Status::OK();
}

// Materializes every branch output and every declared tee in the DFS.
Status JobRun::WriteOutputs() {
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    BranchState& st = bstate[bi];
    STUBBY_ASSIGN_OR_RETURN(const DatasetVertex* dv,
                            plan.GetDataset(b.output_dataset));
    Layout layout = DeriveOutputLayout(b, job.config, dv->schema);
    auto out_ds =
        std::make_shared<StoredDataset>(b.output_dataset, dv->schema, layout);
    for (auto& p : st.output.partitions) out_ds->AddPartition(std::move(p));
    out_ds->set_logical_scale(st.output.LogicalScale());
    df.output_records += static_cast<uint64_t>(st.output.scaled_records);
    df.output_bytes += static_cast<uint64_t>(st.output.scaled_bytes);
    dfs->PutOrReplace(std::move(out_ds));
  }
  // Every declared tee must land in the DFS, even when the teed stream
  // filtered down to nothing — downstream jobs read it unconditionally,
  // exactly as they would the regular job output it replaced.
  for (const auto& [id, schema] : tee_schemas) {
    Layout layout;  // tee outputs are plain block files
    auto ds = std::make_shared<StoredDataset>(id, schema, layout);
    auto it = tee_builders.find(id);
    if (it != tee_builders.end()) {
      for (auto& p : it->second.partitions) ds->AddPartition(std::move(p));
      ds->set_logical_scale(it->second.LogicalScale());
    }
    dfs->PutOrReplace(std::move(ds));
  }
  return Status::OK();
}

}  // namespace

Result<JobDataflow> JobRunner::Run(const Plan& plan, const JobVertex& job,
                                   Dfs* dfs) const {
  JobRun run(cluster_, pool_, exec_, plan, job, dfs);
  STUBBY_RETURN_NOT_OK(run.PlanBranches());
  STUBBY_RETURN_NOT_OK(run.BuildBloomFilters());
  const std::vector<InputGroup> groups = GroupBranchInputs(job);
  STUBBY_RETURN_NOT_OK(run.FormMapTasks(groups));
  STUBBY_RETURN_NOT_OK(run.RunMapTasks());
  STUBBY_RETURN_NOT_OK(run.RunMergeModeTasks());
  run.ModelCombine();
  STUBBY_RETURN_NOT_OK(run.RunReduceTasks());
  STUBBY_RETURN_NOT_OK(run.WriteOutputs());
  return std::move(run.df);
}

}  // namespace stubby
