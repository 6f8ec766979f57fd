#include "cost/cost_cache.h"

#include <bit>
#include <cstring>

#include "common/strings.h"

namespace stubby {

namespace {

/// splitmix64 finalizer — the per-word mixing step of both digest lanes.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void MixStats(CostDigest* d, const std::optional<StageStats>& stats) {
  if (!stats) {
    d->Mix(false);
    return;
  }
  d->Mix(true);
  d->Mix(stats->record_selectivity);
  d->Mix(stats->byte_selectivity);
  d->Mix(stats->cpu_per_record);
  d->Mix(stats->groups_per_record);
}

void MixStage(CostDigest* d, const Stage& s) {
  d->Mix(static_cast<uint64_t>(s.kind == Stage::Kind::kMap ? 1 : 2));
  d->Mix(s.name());
  d->Mix(s.group_fields);
  d->Mix(s.tee_dataset);
  MixStats(d, s.stats);
}

void MixHistogram(CostDigest* d, const KeyHistogram& h) {
  d->Mix(h.field);
  d->Mix(h.min);
  d->Mix(h.max);
  d->Mix(static_cast<uint64_t>(h.bucket_fractions.size()));
  for (double f : h.bucket_fractions) d->Mix(f);
  d->Mix(h.distinct);
  d->Mix(h.max_key_fraction);
  d->Mix(static_cast<uint64_t>(h.heavy_hitters.size()));
  for (const auto& [value, fraction] : h.heavy_hitters) {
    d->Mix(value);
    d->Mix(fraction);
  }
}

void MixProfile(CostDigest* d, const std::optional<ProfileAnnotation>& p) {
  if (!p) {
    d->Mix(false);
    return;
  }
  d->Mix(true);
  d->Mix(p->avg_input_record_bytes);
  d->Mix(static_cast<uint64_t>(p->key_histograms.size()));
  for (const KeyHistogram& h : p->key_histograms) MixHistogram(d, h);
  d->Mix(p->combine_selectivity);
  d->Mix(p->combine_cpu_per_record);
  d->Mix(p->k2_distinct_groups);
  d->Mix(p->k2_max_group_fraction);
}

void MixConfig(CostDigest* d, const JobConfig& c) {
  d->Mix(static_cast<uint64_t>(c.num_reduce_tasks));
  d->Mix(c.io_sort_mb);
  d->Mix(static_cast<uint64_t>(c.io_sort_factor));
  d->Mix(c.use_combiner);
  d->Mix(c.compress_map_output);
  d->Mix(c.compress_output);
  d->Mix(c.split_mb);
}

}  // namespace

void MixValueDigest(CostDigest* d, const Value& v) {
  if (v.is_int()) {
    d->Mix(uint64_t{1}).Mix(static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_double()) {
    d->Mix(uint64_t{2}).Mix(v.AsDouble());
  } else {
    d->Mix(uint64_t{3}).Mix(v.AsString());
  }
}

void MixPartitionSpecDigest(CostDigest* d, const PartitionSpec& p) {
  d->Mix(static_cast<uint64_t>(p.type));
  d->Mix(p.partition_fields);
  d->Mix(p.sort_fields);
  d->Mix(static_cast<uint64_t>(p.split_points.size()));
  for (const Row& r : p.split_points) {
    d->Mix(static_cast<uint64_t>(r.size()));
    for (const Value& v : r.values()) MixValueDigest(d, v);
  }
  d->Mix(p.split_points_from);
}

CostDigest& CostDigest::Mix(uint64_t v) {
  a_ = Mix64(a_ ^ v);
  b_ = Mix64(b_ + (v ^ 0xa5a5a5a5a5a5a5a5ull));
  return *this;
}

CostDigest& CostDigest::Mix(double v) {
  return Mix(std::bit_cast<uint64_t>(v));
}

CostDigest& CostDigest::Mix(const std::string& s) {
  Mix(static_cast<uint64_t>(s.size()));
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, s.data() + i, 8);
    Mix(word);
  }
  if (i < s.size()) {
    uint64_t word = 0;
    std::memcpy(&word, s.data() + i, s.size() - i);
    Mix(word);
  }
  return *this;
}

CostDigest& CostDigest::Mix(const std::vector<std::string>& strings) {
  Mix(static_cast<uint64_t>(strings.size()));
  for (const std::string& s : strings) Mix(s);
  return *this;
}

CostDigest JobStructureDigest(const JobVertex& job) {
  CostDigest d;
  d.Mix(job.id);
  d.Mix(static_cast<uint64_t>(job.branches.size()));
  for (const Branch& b : job.branches) {
    d.Mix(b.tag);
    d.Mix(static_cast<uint64_t>(b.inputs.size()));
    for (const BranchInput& in : b.inputs) {
      d.Mix(in.dataset_id);
      d.Mix(in.aligned);
      d.Mix(in.prune_fraction);
      d.Mix(static_cast<uint64_t>(in.prune_partitions.size()));
      for (int p : in.prune_partitions) d.Mix(static_cast<uint64_t>(p));
      d.Mix(static_cast<uint64_t>(in.map_stages.size()));
      for (const Stage& s : in.map_stages) MixStage(&d, s);
    }
    d.Mix(static_cast<uint64_t>(b.merged_map_stages.size()));
    for (const Stage& s : b.merged_map_stages) MixStage(&d, s);
    d.Mix(b.merge_sort_fields);
    d.Mix(static_cast<uint64_t>(b.reduce_stages.size()));
    for (const Stage& s : b.reduce_stages) MixStage(&d, s);
    MixPartitionSpecDigest(&d, b.partition);
    d.Mix(b.bloom.has_value());
    if (b.bloom) {
      d.Mix(static_cast<uint64_t>(b.bloom->build_input));
      d.Mix(static_cast<uint64_t>(b.bloom->probe_inputs.size()));
      for (size_t p : b.bloom->probe_inputs) d.Mix(static_cast<uint64_t>(p));
      d.Mix(b.bloom->key_fields);
      d.Mix(static_cast<uint64_t>(b.bloom->bits_log2));
      d.Mix(static_cast<uint64_t>(b.bloom->num_hashes));
      d.Mix(b.bloom->est_pass_fraction);
    }
    d.Mix(b.combiner != nullptr);
    d.Mix(b.output_dataset);
    MixProfile(&d, b.annotations.profile);
  }
  return d;
}

void MixJobConfiguration(CostDigest* d, const JobVertex& job) {
  MixConfig(d, job.config);
  // EffectiveReduceTasks folds in conditions and range-partition overrides.
  d->Mix(static_cast<uint64_t>(job.EffectiveReduceTasks()));
}

CostDigest JobContentDigest(const JobVertex& job) {
  CostDigest d = JobStructureDigest(job);
  MixJobConfiguration(&d, job);
  return d;
}

void MixPredictedDataset(CostDigest* d, const PredictedDataset& p) {
  d->Mix(p.records);
  d->Mix(p.bytes);
  d->Mix(p.stored_bytes);
  d->Mix(static_cast<uint64_t>(p.partitions));
  d->Mix(p.max_partition_fraction);
}

std::map<std::string, CostDigest> JobContentDigests(const Plan& plan) {
  std::map<std::string, CostDigest> out;
  for (const auto& [jid, job] : plan.jobs()) {
    out.emplace(jid, JobContentDigest(job));
  }
  return out;
}

void CostInstrumentation::Add(const CostInstrumentation& other) {
  whatif_invocations += other.whatif_invocations;
  full_predictions += other.full_predictions;
  incremental_predictions += other.incremental_predictions;
  job_predictions += other.job_predictions;
  job_cache_hits += other.job_cache_hits;
  rrs_evaluations += other.rrs_evaluations;
  reuse_priced_candidates += other.reuse_priced_candidates;
}

std::string CostInstrumentation::ToString() const {
  return StrFormat(
      "whatif=%llu full=%llu incr=%llu job_pred=%llu job_hits=%llu rrs=%llu "
      "reuse_priced=%llu",
      (unsigned long long)whatif_invocations,
      (unsigned long long)full_predictions,
      (unsigned long long)incremental_predictions,
      (unsigned long long)job_predictions,
      (unsigned long long)job_cache_hits,
      (unsigned long long)rrs_evaluations,
      (unsigned long long)reuse_priced_candidates);
}

const CostJobEntry* CostCacheOverlay::PeekJob(const CostKey& key) const {
  auto it = jobs_.find(key);
  if (it != jobs_.end()) return &it->second;
  return parent_ != nullptr ? parent_->PeekJob(key) : nullptr;
}

const CostJobEntry* CostCacheOverlay::FindJob(const CostKey& key) {
  const CostJobEntry* hit = PeekJob(key);
  if (hit != nullptr) journal_.emplace_back(Op::kTouch, key);
  return hit;
}

void CostCacheOverlay::InsertJob(const CostKey& key, CostJobEntry entry) {
  journal_.emplace_back(Op::kInsert, key);
  jobs_[key] = std::move(entry);
}

void CostCacheOverlay::TouchJob(const CostKey& key) {
  journal_.emplace_back(Op::kTouch, key);
}

void CostCacheOverlay::MergeInto(CostStore* store) && {
  for (const auto& [op, key] : journal_) {
    if (op == Op::kInsert) {
      auto node = jobs_.extract(key);
      if (node) {
        store->InsertJob(key, std::move(node.mapped()));
        continue;
      }
      // A repeated insert whose entry an earlier one already moved out.
      // Costing never produces one (the engine inserts only after a miss,
      // and Find sees the overlay's own writes); replay it as a touch.
    }
    store->TouchJob(key);
  }
  jobs_.clear();
  journal_.clear();
}

}  // namespace stubby
