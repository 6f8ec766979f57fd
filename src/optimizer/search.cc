#include "optimizer/search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/strings.h"
#include "common/threading.h"
#include "cost/cost_cache.h"
#include "optimizer/configuration.h"
#include "reuse/probe_cache.h"
#include "reuse/rewriter.h"

namespace stubby {

namespace {

/// Enumeration node: a subplan reached by a sequence of structural
/// transformations.
struct EnumState {
  Plan plan;
  std::map<std::string, std::string> renames;
  std::vector<std::string> applied;
  int depth = 0;
};

/// Maps the unit's original job ids through the renames accumulated so far.
std::vector<std::string> MappedUnitJobs(
    const std::vector<std::string>& original,
    const std::map<std::string, std::string>& renames) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& id : original) {
    auto it = renames.find(id);
    const std::string& mapped = it == renames.end() ? id : it->second;
    if (seen.insert(mapped).second) out.push_back(mapped);
  }
  return out;
}

/// Composes `next` renames on top of `base`.
std::map<std::string, std::string> ComposeRenames(
    const std::map<std::string, std::string>& base,
    const std::map<std::string, std::string>& next) {
  std::map<std::string, std::string> out = base;
  for (auto& [old_id, new_id] : out) {
    auto it = next.find(new_id);
    if (it != next.end()) new_id = it->second;
  }
  for (const auto& [old_id, new_id] : next) {
    if (!out.count(old_id)) out[old_id] = new_id;
  }
  return out;
}

}  // namespace

Result<std::vector<SubplanCandidate>> UnitOptimizer::EnumerateSubplans(
    const Plan& plan, const OptimizationUnit& unit,
    ReuseStats* search_totals) const {
  // Exhaustive BFS over sequences of structural transformations, with
  // signature-based de-duplication, expanded one level at a time. The
  // states of a level that fall under the subplan cap expand as parallel
  // tasks; each task drops children whose signature an earlier level
  // produced (`seen` stays read-only while the level runs). The children
  // then merge serially in (state, transformation, application) order, so
  // `seen`, the next level and the cap cut are exactly those of a serial
  // FIFO BFS, at any thread count.
  struct Child {
    EnumState state;
    std::string signature;
  };
  const size_t cap = static_cast<size_t>(std::max(0, options_.max_subplans));
  const std::vector<std::string> original_jobs = unit.AllJobs();
  std::vector<EnumState> subplans;
  std::set<std::string> seen{PlanSignature(plan)};
  std::vector<EnumState> level;
  level.push_back(EnumState{plan, {}, {}, 0});
  while (!level.empty() && subplans.size() < cap) {
    const size_t expand = std::min(level.size(), cap - subplans.size());
    std::vector<std::vector<Child>> children(expand);
    if (level.front().depth < options_.max_depth) {
      RunTasks(pool_, expand, [&](size_t i) {
        const EnumState& state = level[i];
        std::vector<std::string> scope =
            MappedUnitJobs(original_jobs, state.renames);
        for (const auto& t : transforms_) {
          for (Application& app : t->FindApplications(state.plan, scope)) {
            auto next = app.apply(state.plan);
            if (!next.ok()) continue;  // postconditions not establishable
            std::string sig = PlanSignature(*next);
            if (seen.count(sig) != 0) continue;
            EnumState ns;
            ns.plan = std::move(*next);
            ns.renames = ComposeRenames(state.renames, app.renames);
            ns.applied = state.applied;
            ns.applied.push_back(app.description);
            ns.depth = state.depth + 1;
            children[i].push_back(Child{std::move(ns), std::move(sig)});
          }
        }
      });
    }
    std::vector<EnumState> next_level;
    for (std::vector<Child>& list : children) {
      for (Child& child : list) {
        if (seen.insert(std::move(child.signature)).second) {
          next_level.push_back(std::move(child.state));
        }
      }
    }
    for (size_t i = 0; i < expand; ++i) {
      subplans.push_back(std::move(level[i]));
    }
    level = std::move(next_level);
  }

  // Cost each subplan after an RRS pass over its unit-job configurations.
  // Candidates are independent tasks: each costs through a private engine
  // whose cache (when the optimizer was lent one) is an overlay over the
  // shared store (frozen for the whole batch) and whose instrumentation is
  // a private delta. Overlays and deltas merge serially in candidate order
  // afterwards. The protocol is the same at every thread count, so costs,
  // chosen plans, and counters never depend on how many threads ran the
  // tasks.
  const size_t n = subplans.size();
  std::vector<std::vector<std::string>> scopes(n);
  for (size_t i = 0; i < n; ++i) {
    scopes[i] = MappedUnitJobs(original_jobs, subplans[i].renames);
  }
  CostStore* shared_cache = whatif_->cache();
  CostInstrumentation* shared_stats = whatif_->instrumentation();
  std::vector<std::unique_ptr<CostCacheOverlay>> overlays(n);
  std::vector<CostInstrumentation> deltas(n);
  std::vector<Result<ConfiguredPlan>> configured(
      n, Result<ConfiguredPlan>(Status::Internal("candidate not costed")));
  // Reuse-aware pricing happens inside each candidate's task, against the
  // candidate's *configured* plan: store entries are keyed under the job
  // configurations that actually executed, so probing before the RRS pass
  // would systematically miss tuned jobs. Probes are read-only
  // (PlanForScope never touches hit counts, recency, or pins), and a
  // rewritten form is re-priced through the same per-candidate overlay
  // engine, so the whole path follows the existing merge-in-order
  // determinism protocol unchanged.
  struct ReuseOutcome {
    ReuseStats probe;  ///< this candidate's probe/priced counters
    ReuseStats hits;   ///< the rewrite's hit counters (when it won)
    std::map<std::string, CostKey> materialized_lineage;
    bool rewritten = false;
  };
  std::vector<ReuseOutcome> reuse_outcomes(n);
  ReuseRewriter rewriter(reuse_.store, reuse_.dfs);
  // Signature memo: pre-seed the shared (frozen-for-the-batch) memo with
  // the unit base plan's lineage before the candidate tasks run. Candidates
  // only perturb unit jobs, and tasks of one batch never observe each
  // other's overlay inserts — so cross-candidate collapse of the non-unit
  // jobs' JobReuseKey digests requires exactly this serial warm-up. The
  // pre-seed is restricted to the upstream closure of the unit scope (the
  // only keys a scoped probe can observe) and its hit/miss counters merge
  // into `search_totals` first, matching serial execution order.
  ProbeStore* probe_cache = reuse_.active() ? reuse_.probe_cache : nullptr;
  ReuseStats preseed;
  if (probe_cache != nullptr) {
    std::set<std::string> base_scope(original_jobs.begin(),
                                     original_jobs.end());
    auto closure = UpstreamJobClosure(plan, base_scope);
    if (closure.ok()) {
      LineageMemo accel;
      accel.memo = probe_cache;
      accel.restrict_to = &*closure;
      if (ComputeLineage(plan, *reuse_.dfs, reuse_.seeds, &accel).ok()) {
        preseed.probe_cache_hits = accel.hits;
        preseed.probe_cache_misses = accel.misses;
        preseed.signature_keys_computed = accel.computed;
      }
    }
  }
  std::vector<std::unique_ptr<ProbeCacheOverlay>> probe_overlays(n);
  std::vector<std::map<std::string, CostDigest>> content_digests(n);
  RunTasks(pool_, n, [&](size_t i) {
    WhatIfEngine engine(whatif_->model().cluster());
    if (shared_cache != nullptr) {
      overlays[i] = std::make_unique<CostCacheOverlay>(shared_cache);
      engine.set_cache(overlays[i].get());
    }
    if (shared_stats != nullptr) engine.set_instrumentation(&deltas[i]);
    configured[i] = OptimizeConfigurations(
        &engine, std::move(subplans[i].plan), scopes[i],
        probe_cache != nullptr ? &content_digests[i] : nullptr);
    if (!configured[i].ok() || !reuse_.active()) return;

    RewriteProbe rewrite_probe;
    if (probe_cache != nullptr) {
      probe_overlays[i] = std::make_unique<ProbeCacheOverlay>(probe_cache);
      rewrite_probe.memo = probe_overlays[i].get();
      rewrite_probe.content_digests = &content_digests[i];
    }
    auto probe = rewriter.PlanForScope(configured[i]->plan, &scopes[i],
                                       reuse_.seeds, &rewrite_probe);
    if (!probe.ok()) {
      configured[i] = probe.status();
      return;
    }
    reuse_outcomes[i].probe.search_probes += probe->stats.lookups;
    reuse_outcomes[i].probe.probe_cache_hits += probe->stats.probe_cache_hits;
    reuse_outcomes[i].probe.probe_cache_misses +=
        probe->stats.probe_cache_misses;
    reuse_outcomes[i].probe.signature_keys_computed +=
        probe->stats.signature_keys_computed;
    if (!probe->changed) return;
    ++reuse_outcomes[i].probe.search_priced;
    if (shared_stats != nullptr) ++deltas[i].reuse_priced_candidates;
    // Re-tune the surviving jobs on the rewritten landscape (cheap: an
    // all-elided scope has no configuration space left) and keep the
    // rewritten form only when it strictly beats recomputing.
    auto repriced = OptimizeConfigurations(&engine, std::move(probe->plan),
                                           scopes[i]);
    if (!repriced.ok()) {
      configured[i] = repriced.status();
      return;
    }
    // Under the job-count fallback model both forms of a prefix rewrite
    // price identically (same number of jobs), so a tie there goes to the
    // rewrite: scanning stored bytes can't be worse than recomputing them,
    // the fallback model just can't see it. Detailed-cost ties keep the
    // unrewritten form (closer to the reuse-blind bits).
    const bool fallback_tie = repriced->fallback && configured[i]->fallback &&
                              repriced->cost == configured[i]->cost;
    if (repriced->cost < configured[i]->cost || fallback_tie) {
      reuse_outcomes[i].hits = probe->stats;
      reuse_outcomes[i].materialized_lineage =
          std::move(probe->materialized_lineage);
      reuse_outcomes[i].rewritten = true;
      configured[i] = std::move(repriced);
    }
  });
  Status first_error = Status::OK();
  if (search_totals != nullptr) search_totals->Add(preseed);
  for (size_t i = 0; i < n; ++i) {
    if (shared_cache != nullptr) {
      std::move(*overlays[i]).MergeInto(shared_cache);
    }
    if (shared_stats != nullptr) shared_stats->Add(deltas[i]);
    if (probe_cache != nullptr && probe_overlays[i] != nullptr) {
      probe_overlays[i]->MergeInto(probe_cache);
    }
    if (search_totals != nullptr) search_totals->Add(reuse_outcomes[i].probe);
    if (first_error.ok() && !configured[i].ok()) {
      first_error = configured[i].status();
    }
  }
  if (!first_error.ok()) return first_error;

  std::vector<SubplanCandidate> out;
  for (size_t i = 0; i < n; ++i) {
    SubplanCandidate cand;
    cand.plan = std::move(configured[i]->plan);
    cand.cost = configured[i]->cost;
    cand.fallback = configured[i]->fallback;
    cand.applied = std::move(subplans[i].applied);
    cand.renames = std::move(subplans[i].renames);
    if (reuse_outcomes[i].rewritten) {
      cand.reuse_rewritten = true;
      cand.reuse = reuse_outcomes[i].hits;
      cand.materialized_lineage =
          std::move(reuse_outcomes[i].materialized_lineage);
      cand.applied.push_back(StrFormat(
          "reuse: %llu whole-job + %llu map-prefix hit(s) priced from store",
          (unsigned long long)cand.reuse.whole_job_hits,
          (unsigned long long)cand.reuse.prefix_hits));
    }
    out.push_back(std::move(cand));
  }
  return out;
}

Result<UnitOptimizer::ConfiguredPlan> UnitOptimizer::OptimizeConfigurations(
    const WhatIfEngine* engine, Plan plan,
    const std::vector<std::string>& unit_jobs,
    std::map<std::string, CostDigest>* content_digests) const {
  CostEstimate base = engine->Cost(plan);
  if (!options_.enable_configuration || base.fallback) {
    // Without profiles the configuration subspace cannot be costed; the
    // search degrades gracefully to the job-count model (Section 5).
    if (content_digests != nullptr) *content_digests = JobContentDigests(plan);
    return ConfiguredPlan{std::move(plan), base.cost, base.fallback};
  }

  // Joint configuration space of the unit's (surviving) jobs.
  struct JobSpace {
    std::string id;
    ConfigSpace space;
    size_t offset;
  };
  std::vector<JobSpace> spaces;
  size_t dims = 0;
  for (const auto& jid : unit_jobs) {
    auto jr = plan.GetJob(jid);
    if (!jr.ok()) continue;
    ConfigSpace space = SpaceForJob(**jr, plan.cluster());
    if (space.size() == 0) continue;
    spaces.push_back(JobSpace{jid, std::move(space), dims});
    dims += spaces.back().space.size();
  }
  if (dims == 0) {
    if (content_digests != nullptr) *content_digests = JobContentDigests(plan);
    return ConfiguredPlan{std::move(plan), base.cost, base.fallback};
  }

  auto apply_point_to = [&](Plan* candidate,
                            const std::vector<double>& point) -> Status {
    for (const JobSpace& js : spaces) {
      std::vector<double> slice(
          point.begin() + static_cast<long>(js.offset),
          point.begin() + static_cast<long>(js.offset + js.space.size()));
      STUBBY_ASSIGN_OR_RETURN(const JobVertex* job, candidate->GetJob(js.id));
      JobConfig config = js.space.PointToConfig(slice, job->config);
      STUBBY_RETURN_NOT_OK(ApplyConfiguration(candidate, js.id, config));
    }
    return Status::OK();
  };

  // With a cache attached, only the unit jobs' digests change between
  // points, and within each such job only the configuration suffix does:
  // digest the base subplan once, precompute the unit jobs' structural
  // prefixes, and refresh just the configuration mix per point.
  const bool incremental_digests = engine->cache() != nullptr;
  std::map<std::string, CostDigest> digests;
  std::vector<CostDigest> structure;
  if (incremental_digests) {
    digests = JobContentDigests(plan);
    structure.reserve(spaces.size());
    for (const JobSpace& js : spaces) {
      auto jr = plan.GetJob(js.id);
      structure.push_back(jr.ok() ? JobStructureDigest(**jr) : CostDigest{});
    }
  }

  // Every RRS point of this search is evaluated on one scratch plan and one
  // digest map, copied once here. Points differ only in the unit jobs'
  // configurations, and ApplyConfiguration overwrites every controlled
  // field of those jobs, the produced datasets' `compressed` flags included
  // (uncontrolled fields pass through PointToConfig unchanged), while the
  // per-point digest refresh rewrites every unit-job entry. So the scratch
  // evaluates each point exactly as a fresh copy of `plan` would, whatever
  // point it held before. Points change only configurations, so they all
  // share one shape too.
  //
  // Points cost one after another through `engine` — the candidate task's
  // own engine, memo overlay and counters — so what each point finds in the
  // memo depends only on the points before it, at any thread count.
  CostInstrumentation* stats = engine->instrumentation();
  Plan scratch = plan;
  std::map<std::string, CostDigest> scratch_digests = digests;
  STUBBY_ASSIGN_OR_RETURN(const PlanShape shape, engine->Shape(plan));
  auto batch_eval =
      [&](const std::vector<std::vector<double>>& points) -> std::vector<double> {
    std::vector<double> values(points.size());
    for (size_t p = 0; p < points.size(); ++p) {
      if (stats != nullptr) ++stats->rrs_evaluations;
      if (!apply_point_to(&scratch, points[p]).ok()) {
        values[p] = std::numeric_limits<double>::infinity();
        continue;
      }
      if (incremental_digests) {
        for (size_t i = 0; i < spaces.size(); ++i) {
          auto jr = scratch.GetJob(spaces[i].id);
          if (!jr.ok()) continue;
          CostDigest jd = structure[i];
          MixJobConfiguration(&jd, **jr);
          scratch_digests[spaces[i].id] = jd;
        }
      }
      values[p] = engine
                      ->CostPoint(scratch, shape,
                                  incremental_digests ? &scratch_digests
                                                      : nullptr)
                      .cost;
    }
    return values;
  };

  // Seeds: the current configurations and the rule-of-thumb settings.
  std::vector<double> current_seed;
  std::vector<double> thumb_seed;
  for (const JobSpace& js : spaces) {
    auto jr = plan.GetJob(js.id);
    std::vector<double> cur = js.space.ConfigToPoint((*jr)->config);
    std::vector<double> thumb =
        js.space.ConfigToPoint(RuleOfThumbConfig(**jr, plan.cluster(), &plan));
    current_seed.insert(current_seed.end(), cur.begin(), cur.end());
    thumb_seed.insert(thumb_seed.end(), thumb.begin(), thumb.end());
  }

  RecursiveRandomSearch rrs(options_.rrs, options_.seed);
  auto [best_point, best_value] =
      rrs.MinimizeBatches(dims, batch_eval, {current_seed, thumb_seed});
  if (!std::isfinite(best_value) || best_value >= base.cost) {
    if (content_digests != nullptr) {
      *content_digests = incremental_digests ? std::move(digests)
                                             : JobContentDigests(plan);
    }
    return ConfiguredPlan{std::move(plan), base.cost, base.fallback};
  }
  // The scratch evaluates any point as a fresh copy would, so the winner is
  // built in place on it.
  STUBBY_RETURN_NOT_OK(apply_point_to(&scratch, best_point));
  if (content_digests != nullptr) {
    // The winning point only reconfigured the unit jobs: refresh those
    // entries' configuration suffix (exactly what the point evaluator
    // does) and hand the rest of the base-plan digests through.
    if (!incremental_digests) digests = JobContentDigests(plan);
    for (size_t i = 0; i < spaces.size(); ++i) {
      auto jr = scratch.GetJob(spaces[i].id);
      if (!jr.ok()) continue;
      CostDigest jd = incremental_digests ? structure[i]
                                          : JobStructureDigest(**jr);
      MixJobConfiguration(&jd, **jr);
      digests[spaces[i].id] = jd;
    }
    *content_digests = std::move(digests);
  }
  // base was costable (no fallback), and configuration changes never remove
  // the annotations that made it so.
  return ConfiguredPlan{std::move(scratch), best_value, false};
}

Result<UnitResult> UnitOptimizer::Optimize(const Plan& plan,
                                           const OptimizationUnit& unit) const {
  ReuseStats search_totals;
  STUBBY_ASSIGN_OR_RETURN(std::vector<SubplanCandidate> candidates,
                          EnumerateSubplans(plan, unit, &search_totals));
  if (candidates.empty()) {
    return Status::Internal("unit enumeration produced no subplans");
  }
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].cost < candidates[best].cost) best = i;
  }
  UnitResult result;
  result.plan = std::move(candidates[best].plan);
  result.cost = candidates[best].cost;
  result.fallback = candidates[best].fallback;
  result.renames = std::move(candidates[best].renames);
  result.applied = std::move(candidates[best].applied);
  result.subplans_enumerated = static_cast<int>(candidates.size());
  result.reuse = search_totals;
  if (candidates[best].reuse_rewritten) {
    result.reuse_won = true;
    ++result.reuse.search_won;
    result.reuse.whole_job_hits += candidates[best].reuse.whole_job_hits;
    result.reuse.prefix_hits += candidates[best].reuse.prefix_hits;
    result.reuse.jobs_elided += candidates[best].reuse.jobs_elided;
    result.reuse.bytes_saved += candidates[best].reuse.bytes_saved;
    result.materialized_lineage =
        std::move(candidates[best].materialized_lineage);
  }
  return result;
}

}  // namespace stubby
