#include "service/stubbyd.h"

#include <utility>

#include "common/clock.h"
#include "common/strings.h"
#include "common/threading.h"

namespace stubby {

namespace {

/// Parses the ordinal of a store snapshot id ("rs/<n>").
bool SnapshotOrdinal(const std::string& id, uint64_t* out) {
  if (id.size() < 4 || id.compare(0, 3, "rs/") != 0) return false;
  uint64_t n = 0;
  for (size_t i = 3; i < id.size(); ++i) {
    const char c = id[i];
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = n;
  return true;
}

}  // namespace

const char* DegradeLevelName(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kFull:
      return "full";
    case DegradeLevel::kRegisterSkip:
      return "register_skip";
    case DegradeLevel::kBlind:
      return "blind";
  }
  return "unknown";
}

std::string ServiceStats::ToString() const {
  return StrFormat(
      "accepted=%llu rejected=%llu completed=%llu failed=%llu waves=%llu "
      "conflicts=%llu degraded_skip=%llu degraded_blind=%llu "
      "hit_requests=%llu tenant_evictions=%llu | %s",
      (unsigned long long)accepted, (unsigned long long)rejected,
      (unsigned long long)completed, (unsigned long long)failed,
      (unsigned long long)waves, (unsigned long long)conflicts,
      (unsigned long long)degraded_register_skip,
      (unsigned long long)degraded_blind,
      (unsigned long long)requests_with_hits,
      (unsigned long long)tenant_evictions, reuse.ToString().c_str());
}

StubbyService::StubbyService(ServiceOptions options, ThreadPool* pool)
    : options_(std::move(options)),
      pool_(pool),
      store_(options_.store),
      cost_cache_(options_.cost_cache) {
  if (options_.wave_size == 0) options_.wave_size = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

Result<uint64_t> StubbyService::Submit(Submission submission) {
  if (submission.plan == nullptr || submission.dfs == nullptr) {
    return Status::InvalidArgument("submission needs a plan and a dfs");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.size() >= options_.queue_capacity) {
    ++stats_.rejected;
    return Status::FailedPrecondition(
        "admission queue full (capacity " +
        std::to_string(options_.queue_capacity) + ")");
  }
  Pending pending;
  pending.id = next_id_++;
  pending.submission = std::move(submission);
  pending.enqueued = std::chrono::steady_clock::now();
  const uint64_t id = pending.id;
  queue_.push_back(std::move(pending));
  ++stats_.accepted;
  return id;
}

size_t StubbyService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t StubbyService::TenantBytes(const std::string& tenant) const {
  auto it = owned_.find(tenant);
  if (it == owned_.end()) return 0;
  return store_.SnapshotBytes(it->second);
}

uint64_t StubbyService::TenantBudget(const std::string& tenant) const {
  auto it = options_.tenant_budgets.find(tenant);
  if (it != options_.tenant_budgets.end()) return it->second;
  return options_.tenant_byte_budget;
}

DegradeLevel StubbyService::LevelFor(uint64_t stored_bytes) const {
  if (options_.hard_degrade_bytes > 0 &&
      stored_bytes >= options_.hard_degrade_bytes) {
    return DegradeLevel::kBlind;
  }
  if (options_.soft_degrade_bytes > 0 &&
      stored_bytes >= options_.soft_degrade_bytes) {
    return DegradeLevel::kRegisterSkip;
  }
  return DegradeLevel::kFull;
}

void StubbyService::Speculate(const Pending& pending, Speculation* spec) {
  const auto t0 = std::chrono::steady_clock::now();
  // The degrade decision is made against the wave-frozen store and
  // re-validated at commit time, where the authoritative bytes may have
  // moved — a divergence forces the sequential rerun path.
  spec->level = LevelFor(store_.stored_bytes());
  spec->overlay = std::make_unique<CostCacheOverlay>(&cost_cache_);
  StubbyOptions options = pending.submission.options;
  // The service owns the reuse and costing wiring; whatever the submitter
  // put in these borrowed-pointer fields must not leak into the run.
  options.reuse_store = nullptr;
  options.reuse_dfs = nullptr;
  options.pool = nullptr;
  options.cost_cache = spec->overlay.get();
  if (options_.reoptimize) options.reoptimize = true;
  const Plan& plan = *pending.submission.plan;
  const Dfs& dfs = *pending.submission.dfs;
  Result<ReuseSessionResult> run = Status::Unknown("not run");
  if (spec->level == DegradeLevel::kBlind) {
    ReuseSession session(nullptr);
    run = session.Run(plan, dfs, options, pool_);
  } else {
    // Private copy of the frozen store, with the journal attached.
    ResultStore local = store_;
    spec->base_nonempty = local.num_entries() > 0;
    spec->fork_base = local.next_snapshot_id();
    local.set_journal(&spec->journal);
    ReuseSession session(&local);
    run = session.Run(
        plan, dfs, options, pool_,
        /*register_outputs=*/spec->level == DegradeLevel::kFull);
    local.set_journal(nullptr);
  }
  if (run.ok()) {
    spec->result = std::move(*run);
  } else {
    spec->status = run.status();
  }
  spec->wall_sec = SecondsSince(t0);
}

bool StubbyService::ReplayJournal(const Speculation& spec,
                                  std::set<std::string>* created) {
  ResultStore scratch = store_;
  const uint64_t replay_base = scratch.next_snapshot_id();
  std::set<std::string> fresh_ids;
  // Ids minted after the fork point name different content in the
  // speculative copy than in the authoritative store; they map
  // positionally onto the ids the replay mints (the k-th post-fork
  // snapshot of the speculation is the k-th post-fork snapshot of the
  // replay — every Register is preceded by validated Peeks on its keys, so
  // the replay creates snapshots in the same relative order). Pre-fork ids
  // are content-stable (never mutated, never reused) and match literally.
  auto translate = [&](const std::string& id) -> std::string {
    uint64_t n = 0;
    if (SnapshotOrdinal(id, &n) && n >= spec.fork_base) {
      return "rs/" + std::to_string(replay_base + (n - spec.fork_base));
    }
    return id;
  };
  for (const StoreOp& op : spec.journal.ops()) {
    switch (op.kind) {
      case StoreOp::Kind::kPeek:
      case StoreOp::Kind::kLookup: {
        const StoredResult* got = op.kind == StoreOp::Kind::kPeek
                                      ? scratch.Peek(op.key)
                                      : scratch.Lookup(op.key);
        if ((got != nullptr) != op.hit) return false;
        if (got != nullptr &&
            got->snapshot_id != translate(op.snapshot_id)) {
          return false;
        }
        break;
      }
      case StoreOp::Kind::kPin:
        scratch.Pin(translate(op.snapshot_id));
        break;
      case StoreOp::Kind::kUnpin:
        scratch.Unpin(translate(op.snapshot_id));
        break;
      case StoreOp::Kind::kRegister: {
        const uint64_t before = scratch.next_snapshot_id();
        const std::string id = scratch.Register(*op.dataset, op.reg_keys);
        const bool fresh = scratch.next_snapshot_id() > before;
        // Freshness is already implied by the validated probes issued
        // right before each Register; check anyway so any unexpected
        // divergence forces the sequential rerun instead of committing a
        // result the sequential loop would not have produced.
        if (fresh != op.fresh) return false;
        if (fresh) fresh_ids.insert(id);
        break;
      }
    }
  }
  store_ = std::move(scratch);
  created->insert(fresh_ids.begin(), fresh_ids.end());
  return true;
}

RequestResult StubbyService::Commit(const Pending& pending,
                                    Speculation* spec) {
  const auto t0 = std::chrono::steady_clock::now();
  RequestResult out;
  out.id = pending.id;
  out.tenant = pending.submission.tenant;
  out.name = pending.submission.name;

  const DegradeLevel level_now = LevelFor(store_.stored_bytes());
  std::set<std::string> created;
  bool valid = spec->level == level_now;
  if (valid && spec->level != DegradeLevel::kBlind) {
    // The store-nonempty predicate gates reuse bookkeeping inside the
    // optimizer (cold-store short circuits), so it must still hold.
    valid = spec->base_nonempty == (store_.num_entries() > 0);
    if (valid) valid = ReplayJournal(*spec, &created);
  }

  if (valid) {
    out.status = spec->status;
    out.session = std::move(spec->result);
    out.degrade = spec->level;
    if (spec->overlay != nullptr) spec->overlay->MergeInto(&cost_cache_);
  } else {
    // An earlier commit of this drain changed what the speculation
    // observed: discard it (journal, overlay and all) and run the request
    // for real against the authoritative store — the exact sequential
    // semantics, with the pool available for intra-request parallelism.
    ++stats_.conflicts;
    out.reran = true;
    out.degrade = level_now;
    CostCacheOverlay overlay(&cost_cache_);
    StubbyOptions options = pending.submission.options;
    options.reuse_store = nullptr;
    options.reuse_dfs = nullptr;
    options.pool = nullptr;
    options.cost_cache = &overlay;
    if (options_.reoptimize) options.reoptimize = true;
    const Plan& plan = *pending.submission.plan;
    const Dfs& dfs = *pending.submission.dfs;
    const uint64_t before = store_.next_snapshot_id();
    Result<ReuseSessionResult> run = Status::Unknown("not run");
    if (level_now == DegradeLevel::kBlind) {
      ReuseSession session(nullptr);
      run = session.Run(plan, dfs, options, pool_);
    } else {
      ReuseSession session(&store_);
      run = session.Run(
          plan, dfs, options, pool_,
          /*register_outputs=*/level_now == DegradeLevel::kFull);
    }
    if (run.ok()) {
      out.session = std::move(*run);
    } else {
      out.status = run.status();
    }
    for (uint64_t n = before; n < store_.next_snapshot_id(); ++n) {
      created.insert("rs/" + std::to_string(n));
    }
    overlay.MergeInto(&cost_cache_);
  }

  Account(out.tenant, out.status, out.session, out.degrade, created);
  out.service_sec = spec->wall_sec + SecondsSince(t0);
  out.e2e_sec = SecondsSince(pending.enqueued);
  return out;
}

void StubbyService::Account(const std::string& tenant, const Status& status,
                            const ReuseSessionResult& result,
                            DegradeLevel level,
                            const std::set<std::string>& created) {
  if (status.ok()) {
    ++stats_.completed;
    stats_.reuse.Add(result.reuse);
    if (result.reuse.workflow_hits + result.reuse.whole_job_hits +
            result.reuse.prefix_hits >
        0) {
      ++stats_.requests_with_hits;
    }
  } else {
    ++stats_.failed;
  }
  if (level == DegradeLevel::kRegisterSkip) ++stats_.degraded_register_skip;
  if (level == DegradeLevel::kBlind) ++stats_.degraded_blind;

  if (!created.empty()) {
    owned_[tenant].insert(created.begin(), created.end());
  }
  const uint64_t budget = TenantBudget(tenant);
  auto it = owned_.find(tenant);
  if (budget > 0 && it != owned_.end()) {
    stats_.tenant_evictions += store_.EnforceBudgetOn(it->second, budget);
  }
  // Drop attribution for snapshots that no longer exist (evicted by the
  // global budget, a tenant budget, or registration churn).
  for (auto& [name, ids] : owned_) {
    for (auto iter = ids.begin(); iter != ids.end();) {
      if (!store_.HasSnapshot(*iter)) {
        iter = ids.erase(iter);
      } else {
        ++iter;
      }
    }
  }
}

std::vector<RequestResult> StubbyService::Drain() {
  std::vector<RequestResult> out;
  while (true) {
    std::vector<Pending> wave;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (!queue_.empty() && wave.size() < options_.wave_size) {
        wave.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (wave.empty()) break;
    ++stats_.waves;
    // Phase A: speculate the whole wave in parallel against the frozen
    // store and cost cache. Phase B: commit serially in submission order.
    std::vector<Speculation> specs(wave.size());
    RunTasks(pool_, wave.size(),
             [&](size_t i) { Speculate(wave[i], &specs[i]); });
    for (size_t i = 0; i < wave.size(); ++i) {
      out.push_back(Commit(wave[i], &specs[i]));
    }
  }
  return out;
}

}  // namespace stubby
