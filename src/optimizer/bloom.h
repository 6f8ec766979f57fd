// Bloom predicate-transfer transformation (sixth transformation type): for
// a multi-input join job whose join annotation marks inputs as filterable,
// build a Bloom filter over the join-key column of the smallest input's map
// output and pre-filter the other inputs' map output against it, dropping
// non-joining rows before the shuffle. The filter admits false positives
// but never false negatives, so every dropped row belongs to a group the
// inner join discards — terminal outputs are bit-identical with the
// transfer on or off (recorded in the job's conditions ledger).

#pragma once

#include "optimizer/transform.h"

namespace stubby {

/// Bloom predicate transfer: cuts join shuffle volume by transferring the
/// build side's key-membership predicate to the probe sides' map phase.
class BloomTransferTransform : public Transformation {
 public:
  std::string name() const override { return "bloom-transfer"; }
  std::vector<Application> FindApplications(
      const Plan& plan,
      const std::vector<std::string>& unit_jobs) const override;
};

}  // namespace stubby
