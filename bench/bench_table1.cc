// Table 1: the eight MapReduce workflows and their dataset sizes, as built
// by this reproduction (logical sizes preserved; the in-memory sample is
// what actually executes).
//
// Flags: --threads N  worker threads (default: hardware); workflows run as
//                     concurrent tasks, results are identical at any count

#include <cstdio>

#include "common/strings.h"
#include "bench_common.h"

using namespace stubby;

int main(int argc, char** argv) {
  using namespace stubby::bench;
  const int threads = ThreadsFlag(argc, argv);
  ThreadPool pool(threads);

  std::printf("Table 1: MapReduce workflows and corresponding data sizes\n");
  std::printf("%-6s %-32s %6s %10s %14s %10s\n", "Abbr.", "Workflow",
              "Jobs", "Size", "Sample rows", "Optimize");

  const std::vector<std::string> abbrs = AllWorkloadAbbrs();
  struct WorkloadRow {
    std::string line;
    Json row;
  };
  std::vector<WorkloadRow> results(abbrs.size());
  const auto t0 = std::chrono::steady_clock::now();
  RunTasks(&pool, abbrs.size(), [&](size_t i) {
    const std::string& abbr = abbrs[i];
    WorkloadOptions options;
    auto w = MakeWorkload(abbr, options);
    STUBBY_CHECK_OK(w.status());
    uint64_t sample_rows = 0;
    for (const auto& [id, ds] : w->plan.datasets()) {
      if (!ds.is_base_input) continue;
      auto stored = w->dfs.Get(id);
      if (stored.ok()) sample_rows += (*stored)->num_rows();
    }

    auto pw = Prepare(abbr, 6000);
    STUBBY_CHECK_OK(pw.status());
    auto report = RunStubbyReport(*pw, true, true, 17);
    STUBBY_CHECK_OK(report.status());

    char line[256];
    std::snprintf(line, sizeof(line), "%-6s %-32s %6zu %10s %14llu %9.3fs\n",
                  w->abbr.c_str(), w->name.c_str(), w->plan.num_jobs(),
                  HumanBytes(w->dataset_logical_bytes).c_str(),
                  (unsigned long long)sample_rows,
                  report->optimization_time_sec);
    results[i].line = line;

    Json row = Json::Object();
    row["workload"] = abbr;
    row["name"] = w->name;
    row["jobs"] = static_cast<uint64_t>(w->plan.num_jobs());
    row["logical_bytes"] = w->dataset_logical_bytes;
    row["sample_rows"] = sample_rows;
    row["optimizer_wall_sec"] = report->optimization_time_sec;
    row["optimizer"] = ReportJson(*report);
    results[i].row = std::move(row);
  });
  const double total_wall = SecondsSince(t0);

  Json rows_json = Json::Array();
  for (WorkloadRow& r : results) {
    std::fputs(r.line.c_str(), stdout);
    rows_json.Append(std::move(r.row));
  }
  std::printf("total: %.3fs at %d threads\n", total_wall, threads);

  Json doc = Json::Object();
  doc["bench"] = "table1";
  doc["threads"] = static_cast<uint64_t>(threads);
  doc["total_wall_sec"] = total_wall;
  doc["workloads"] = std::move(rows_json);
  WriteBenchJson("BENCH_TABLE1.json", doc);
  return 0;
}
