// JSON (de)serialization of run reports, for BENCH_*.json trajectory
// tracking and cross-run determinism diffs.
//
// Schema (stable key order; see docs/runner.md and docs/robustness.md):
//   {
//     "name": "fig08_num_flows",
//     "status": "ok",             // "ok" | "partial" | "failed"
//     "threads": 4,
//     "jobs": 20,
//     "shard": { "index": 1, "count": 4, "cells": 5,
//                "total": 20, "grid": 123... },  // only for --shard k/n
//                                 // runs; "grid" is the shard-independent
//                                 // grid hash sweep_merge cross-checks
//     "wall_ms": 5123.4,          // volatile: wall-clock, varies per run
//     "cpu_ms": 19876.5,          // volatile
//     "speedup": 3.88,            // volatile
//     "results": [
//       { "key": "fig08_num_flows/flows=10/PERT",
//         "x": "10", "scheme": "PERT",   // job tags, flattened
//         "seed": 1234567890123456789,
//         "cell": 2,              // global index in the full grid
//         "events": 987654,
//         "wall_ms": 812.3,              // volatile
//         "ok": true,             // status == "ok"
//         "status": "ok",         // "ok" | "failed" | "invariant_violation"
//         "error": "...",         // only when !ok
//         "diagnostics": "...",   // only for watchdog aborts (snapshot)
//         "metrics": { "duration": ..., "avg_queue_pkts": ..., ... },
//         "registry": { "counters": ..., "gauges": ..., "histograms": ... }
//                                 // only when the job recorded metrics
//       }, ... ],
//     "registry": { ... }         // all per-job registries merged; only
//                                 // when at least one job recorded metrics
//   }
// Everything except the three wall-clock fields (and speedup) is a pure
// function of the job vector, so stripping those yields a determinism-
// comparable document.
#pragma once

#include <string>

#include "exp/dumbbell.h"
#include "runner/job.h"
#include "runner/json.h"

namespace pert::runner {

JsonValue to_json(const exp::WindowMetrics& m);
exp::WindowMetrics metrics_from_json(const JsonValue& v);

/// Registry snapshot with full state (gauge m2 included) so that a parsed
/// registry re-serializes byte-identically — required for journal resume.
JsonValue to_json(const obs::MetricRegistry& reg);
obs::MetricRegistry registry_from_json(const JsonValue& v);

JsonValue to_json(const JobResult& r);
JobResult result_from_json(const JsonValue& v);

JsonValue to_json(const RunReport& r);
RunReport report_from_json(const JsonValue& v);

/// Writes `report` as indented JSON to `path`; throws std::runtime_error on
/// I/O failure.
void write_report(const RunReport& report, const std::string& path);

/// Reads a report back (inverse of write_report).
RunReport read_report(const std::string& path);

}  // namespace pert::runner
