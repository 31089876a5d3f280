// Persistence of simulation traces.
//
// Benches print their tables to stdout; for downstream plotting the full
// per-iteration history can be exported as CSV and read back.  The schema
// (v2) opens with a version sentinel line
//       # cmfl-trace v2
//   followed by the column header
//       iteration,uploads,participants,rejected,cumulative_rounds,
//       cumulative_upload_bytes,mean_score,mean_train_loss,delta_update,
//       staleness_mean,staleness_max,accuracy,loss
//   one row per iteration (accuracy/loss cells empty when the iteration was
//   not evaluated), and then one trailing row per client
//       client,<id>,<uploads>,<eliminations>
//   carrying the per-client communication counters (Fig.-6-style outlier
//   analysis needs them from a saved trace).  Input without the sentinel —
//   including the retired 8-column v1 schema — is rejected.
#pragma once

#include <iosfwd>
#include <string>

#include "fl/simulation.h"

namespace cmfl::fl {

/// Writes `result.history` (and the per-client upload/elimination counters,
/// when present) as v2 CSV.  Throws std::runtime_error on stream failure.
void write_trace_csv(std::ostream& os, const SimulationResult& result);
void write_trace_csv_file(const std::string& path,
                          const SimulationResult& result);

/// Reads a v2 trace back into a SimulationResult (history plus the
/// per-client counters; model parameters are not part of the CSV).  Throws
/// std::runtime_error on malformed input.
SimulationResult read_trace_csv(std::istream& is);
SimulationResult read_trace_csv_file(const std::string& path);

}  // namespace cmfl::fl
