#include "fl/trace_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace cmfl::fl {

namespace {
constexpr char kVersionLine[] = "# cmfl-trace v2";
constexpr char kHeaderV2[] =
    "iteration,uploads,participants,rejected,cumulative_rounds,"
    "cumulative_upload_bytes,mean_score,mean_train_loss,delta_update,"
    "staleness_mean,staleness_max,accuracy,loss";

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  // Trailing empty cell ("...,") is dropped by getline; restore it.
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

void finalize_summary(SimulationResult& result) {
  if (result.history.empty()) return;
  result.total_rounds = result.history.back().cumulative_rounds;
  result.uploaded_bytes = result.history.back().cumulative_upload_bytes;
  for (auto it = result.history.rbegin(); it != result.history.rend();
       ++it) {
    if (it->evaluated()) {
      result.final_accuracy = it->accuracy;
      break;
    }
  }
}

IterationRecord parse_row_v2(const std::vector<std::string>& cells) {
  IterationRecord rec;
  rec.iteration = std::stoull(cells[0]);
  rec.uploads = std::stoull(cells[1]);
  rec.participants = std::stoull(cells[2]);
  rec.rejected = std::stoull(cells[3]);
  rec.cumulative_rounds = std::stoull(cells[4]);
  rec.cumulative_upload_bytes = std::stoull(cells[5]);
  rec.mean_score = std::stod(cells[6]);
  rec.mean_train_loss = std::stod(cells[7]);
  rec.delta_update = std::stod(cells[8]);
  rec.staleness_mean = std::stod(cells[9]);
  rec.staleness_max = std::stoull(cells[10]);
  if (!cells[11].empty()) {
    rec.accuracy = std::stod(cells[11]);
    rec.loss = std::stod(cells[12]);
  }
  return rec;
}
}  // namespace

void write_trace_csv(std::ostream& os, const SimulationResult& result) {
  os << kVersionLine << '\n' << kHeaderV2 << '\n';
  for (const auto& rec : result.history) {
    os << rec.iteration << ',' << rec.uploads << ',' << rec.participants
       << ',' << rec.rejected << ',' << rec.cumulative_rounds << ','
       << rec.cumulative_upload_bytes << ',' << rec.mean_score << ','
       << rec.mean_train_loss << ',' << rec.delta_update << ','
       << rec.staleness_mean << ',' << rec.staleness_max << ',';
    if (rec.evaluated()) {
      os << rec.accuracy << ',' << rec.loss;
    } else {
      os << ',';
    }
    os << '\n';
  }
  // Per-client counters ride as trailing rows keyed by the literal
  // "client"; either vector may be empty, in which case rows carry
  // whichever counter exists.
  const std::size_t clients = std::max(result.uploads_per_client.size(),
                                       result.eliminations_per_client.size());
  for (std::size_t id = 0; id < clients; ++id) {
    const std::size_t up =
        id < result.uploads_per_client.size() ? result.uploads_per_client[id]
                                              : 0;
    const std::size_t el = id < result.eliminations_per_client.size()
                               ? result.eliminations_per_client[id]
                               : 0;
    os << "client," << id << ',' << up << ',' << el << '\n';
  }
  if (!os) throw std::runtime_error("write_trace_csv: stream write failed");
}

void write_trace_csv_file(const std::string& path,
                          const SimulationResult& result) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("write_trace_csv_file: cannot open " + path);
  }
  write_trace_csv(os, result);
}

SimulationResult read_trace_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("read_trace_csv: empty input");
  }

  if (line != kVersionLine) {
    throw std::runtime_error("read_trace_csv: missing or wrong header");
  }
  if (!std::getline(is, line) || line != kHeaderV2) {
    throw std::runtime_error("read_trace_csv: v2 column header missing");
  }
  SimulationResult result;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv(line);
    if (!cells.empty() && cells[0] == "client") {
      if (cells.size() != 4) {
        throw std::runtime_error(
            "read_trace_csv: client row needs 4 cells, got " +
            std::to_string(cells.size()));
      }
      try {
        const std::size_t id = std::stoull(cells[1]);
        if (id >= result.uploads_per_client.size()) {
          result.uploads_per_client.resize(id + 1, 0);
          result.eliminations_per_client.resize(id + 1, 0);
        }
        result.uploads_per_client[id] = std::stoull(cells[2]);
        result.eliminations_per_client[id] = std::stoull(cells[3]);
      } catch (const std::exception&) {
        throw std::runtime_error("read_trace_csv: malformed client row '" +
                                 line + "'");
      }
      continue;
    }
    if (cells.size() != 13) {
      throw std::runtime_error("read_trace_csv: expected 13 cells, got " +
                               std::to_string(cells.size()));
    }
    try {
      result.history.push_back(parse_row_v2(cells));
    } catch (const std::exception&) {
      throw std::runtime_error("read_trace_csv: malformed row '" + line +
                               "'");
    }
  }
  finalize_summary(result);
  return result;
}

SimulationResult read_trace_csv_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("read_trace_csv_file: cannot open " + path);
  }
  return read_trace_csv(is);
}

}  // namespace cmfl::fl
