#include "optimizer/bloom.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/strings.h"
#include "mr/bloom_filter.h"

namespace stubby {

namespace {

/// Estimated records leaving the map-side pipeline of `in`: the dataset's
/// annotated record count scaled by partition pruning and each stage's
/// profiled record selectivity. Absent size annotations disqualify the
/// input (the information spectrum: no estimate, no application).
std::optional<double> EstimateMapOutputRecords(const Plan& plan,
                                               const BranchInput& in) {
  auto dvr = plan.GetDataset(in.dataset_id);
  if (!dvr.ok()) return std::nullopt;
  const DatasetAnnotation& ann = (*dvr)->annotation;
  if (!ann.num_records) return std::nullopt;
  double records =
      static_cast<double>(*ann.num_records) * in.prune_fraction;
  for (const Stage& s : in.map_stages) {
    if (s.stats) records *= s.stats->record_selectivity;
  }
  return std::max(records, 0.0);
}

/// Estimated fraction of probe-side rows whose key passes the build-side
/// filter. A branch filter annotation on a join-key field gives the direct
/// estimate (the build side keeps only keys in [lo, hi), so probes pass in
/// proportion to the key mass in that range); otherwise fall back to the
/// build side's cumulative record selectivity as a proxy for how much of
/// the key domain survives.
double EstimatePassFraction(const Branch& b, const BranchInput& build) {
  const std::vector<std::string> keys = b.GroupFields();
  if (b.annotations.filter &&
      std::find(keys.begin(), keys.end(), b.annotations.filter->field) !=
          keys.end()) {
    if (b.annotations.profile) {
      const KeyHistogram* hist =
          b.annotations.profile->FindHistogram(b.annotations.filter->field);
      if (hist != nullptr) {
        return std::clamp(hist->FractionInRange(b.annotations.filter->lo,
                                                b.annotations.filter->hi),
                          0.01, 1.0);
      }
    }
  }
  double sel = 1.0;
  for (const Stage& s : build.map_stages) {
    if (s.stats) sel *= s.stats->record_selectivity;
  }
  return std::clamp(sel, 0.05, 1.0);
}

}  // namespace

std::vector<Application> BloomTransferTransform::FindApplications(
    const Plan& plan, const std::vector<std::string>& unit_jobs) const {
  std::vector<Application> apps;
  for (const std::string& jid : unit_jobs) {
    auto jr = plan.GetJob(jid);
    if (!jr.ok()) continue;
    const JobVertex& job = **jr;
    for (size_t bi = 0; bi < job.branches.size(); ++bi) {
      const Branch& b = job.branches[bi];
      if (b.bloom || b.map_only() || b.merge_mode()) continue;
      if (!b.annotations.join || b.inputs.size() < 2) continue;
      const std::vector<std::string> keys = b.GroupFields();
      if (keys.empty()) continue;
      bool keys_ok = true;
      for (const std::string& k : keys) {
        if (!b.map_output_schema.Contains(k)) keys_ok = false;
      }
      if (!keys_ok) continue;

      // Build side: the input with the smallest estimated map output (the
      // filter must be cheap to build and dense in joining keys). Probe
      // sides: every *other* input the join annotation marks filterable —
      // only those may lose non-joining rows.
      std::optional<size_t> build;
      double build_records = std::numeric_limits<double>::infinity();
      std::vector<double> est(b.inputs.size(),
                              std::numeric_limits<double>::quiet_NaN());
      bool all_estimated = true;
      for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
        auto e = EstimateMapOutputRecords(plan, b.inputs[ii]);
        if (!e) {
          all_estimated = false;
          break;
        }
        est[ii] = *e;
        if (*e < build_records) {
          build_records = *e;
          build = ii;
        }
      }
      if (!all_estimated || !build) continue;
      const std::set<size_t> filterable(
          b.annotations.join->filterable_inputs.begin(),
          b.annotations.join->filterable_inputs.end());
      std::vector<size_t> probes;
      for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
        if (ii != *build && filterable.count(ii)) probes.push_back(ii);
      }
      if (probes.empty()) continue;

      BloomTransferSpec spec;
      spec.build_input = *build;
      spec.probe_inputs = probes;
      spec.key_fields = keys;
      spec.bits_log2 = BloomFilter::SizeForKeys(
          static_cast<uint64_t>(std::llround(std::max(build_records, 1.0))));
      spec.num_hashes = 6;
      spec.est_pass_fraction = EstimatePassFraction(b, b.inputs[*build]);

      Application app;
      app.transform_name = name();
      app.description = StrFormat(
          "bloom transfer on %s: build %s (~%.0f keys), probe %zu input%s, "
          "est pass %.2f",
          jid.c_str(), b.inputs[*build].dataset_id.c_str(), build_records,
          probes.size(), probes.size() == 1 ? "" : "s",
          spec.est_pass_fraction);
      app.apply = [jid, bi, spec](const Plan& plan_in) -> Result<Plan> {
        Plan np = plan_in;
        STUBBY_ASSIGN_OR_RETURN(JobVertex * j2, np.GetMutableJob(jid));
        Branch& b2 = j2->branches[bi];
        for (size_t ii : spec.probe_inputs) {
          auto probe_fn = std::make_shared<BloomProbeMapFn>(
              StrFormat("bloom_probe_%s_%zu", jid.c_str(), ii),
              b2.map_output_schema, spec.key_fields);
          StageStats stats;
          stats.record_selectivity = spec.est_pass_fraction;
          stats.byte_selectivity = spec.est_pass_fraction;
          stats.cpu_per_record = probe_fn->cpu_cost_per_record();
          b2.inputs[ii].map_stages.push_back(
              Stage::Map(std::move(probe_fn), stats));
        }
        b2.bloom = spec;
        j2->conditions.bloom_transfer = true;
        STUBBY_RETURN_NOT_OK(np.Validate());
        return np;
      };
      apps.push_back(std::move(app));
    }
  }
  return apps;
}

}  // namespace stubby
