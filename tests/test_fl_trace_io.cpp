#include "fl/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

namespace cmfl::fl {
namespace {

SimulationResult sample_result() {
  SimulationResult r;
  for (std::size_t t = 1; t <= 5; ++t) {
    IterationRecord rec;
    rec.iteration = t;
    rec.uploads = 10 - t;
    rec.participants = 12 - t;
    rec.rejected = t % 2;
    rec.cumulative_rounds = t * 9;
    rec.cumulative_upload_bytes = t * 4096;
    rec.mean_score = 0.5 + 0.01 * static_cast<double>(t);
    rec.mean_train_loss = 2.0 / static_cast<double>(t);
    rec.delta_update = 0.1 * static_cast<double>(t);
    rec.staleness_mean = 0.25 * static_cast<double>(t);
    rec.staleness_max = t + 1;
    if (t % 2 == 0) {
      rec.accuracy = 0.1 * static_cast<double>(t);
      rec.loss = 1.0 / static_cast<double>(t);
    }
    r.history.push_back(rec);
  }
  r.total_rounds = r.history.back().cumulative_rounds;
  r.uploaded_bytes = r.history.back().cumulative_upload_bytes;
  r.final_accuracy = 0.4;
  r.uploads_per_client = {4, 0, 9};
  r.eliminations_per_client = {1, 5, 0};
  return r;
}

TEST(TraceIo, RoundTripPreservesHistory) {
  const SimulationResult original = sample_result();
  std::stringstream ss;
  write_trace_csv(ss, original);
  const SimulationResult loaded = read_trace_csv(ss);
  ASSERT_EQ(loaded.history.size(), original.history.size());
  for (std::size_t i = 0; i < original.history.size(); ++i) {
    const auto& a = original.history[i];
    const auto& b = loaded.history[i];
    EXPECT_EQ(b.iteration, a.iteration);
    EXPECT_EQ(b.uploads, a.uploads);
    EXPECT_EQ(b.cumulative_rounds, a.cumulative_rounds);
    EXPECT_NEAR(b.mean_score, a.mean_score, 1e-9);
    EXPECT_NEAR(b.delta_update, a.delta_update, 1e-9);
    EXPECT_EQ(b.evaluated(), a.evaluated());
    if (a.evaluated()) {
      EXPECT_NEAR(b.accuracy, a.accuracy, 1e-9);
      EXPECT_NEAR(b.loss, a.loss, 1e-9);
    }
  }
  EXPECT_EQ(loaded.total_rounds, original.total_rounds);
  EXPECT_NEAR(loaded.final_accuracy, original.final_accuracy, 1e-9);
}

TEST(TraceIo, V2RoundTripPreservesNewFields) {
  const SimulationResult original = sample_result();
  std::stringstream ss;
  write_trace_csv(ss, original);
  const SimulationResult loaded = read_trace_csv(ss);
  ASSERT_EQ(loaded.history.size(), original.history.size());
  for (std::size_t i = 0; i < original.history.size(); ++i) {
    const auto& a = original.history[i];
    const auto& b = loaded.history[i];
    EXPECT_EQ(b.participants, a.participants);
    EXPECT_EQ(b.rejected, a.rejected);
    EXPECT_EQ(b.cumulative_upload_bytes, a.cumulative_upload_bytes);
    EXPECT_NEAR(b.staleness_mean, a.staleness_mean, 1e-9);
    EXPECT_EQ(b.staleness_max, a.staleness_max);
  }
  EXPECT_EQ(loaded.uploaded_bytes, original.uploaded_bytes);
  EXPECT_EQ(loaded.uploads_per_client, original.uploads_per_client);
  EXPECT_EQ(loaded.eliminations_per_client,
            original.eliminations_per_client);
}

TEST(TraceIo, RejectsMalformedClientRow) {
  std::stringstream ss;
  write_trace_csv(ss, sample_result());
  std::string data = ss.str();
  data += "client,7,oops,0\n";
  std::stringstream broken(data);
  EXPECT_THROW(read_trace_csv(broken), std::runtime_error);
}

TEST(TraceIo, RejectsWrongHeader) {
  std::stringstream ss("nope,nope\n1,2\n");
  EXPECT_THROW(read_trace_csv(ss), std::runtime_error);
  // The retired v1 schema: no version sentinel, 8 columns.
  std::stringstream v1(
      "iteration,uploads,cumulative_rounds,mean_score,mean_train_loss,"
      "delta_update,accuracy,loss\n"
      "1,9,9,0.51,2,0.1,,\n");
  EXPECT_THROW(read_trace_csv(v1), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedRow) {
  std::stringstream ss;
  write_trace_csv(ss, sample_result());
  std::string data = ss.str();
  data += "not,a,valid,row\n";
  std::stringstream broken(data);
  EXPECT_THROW(read_trace_csv(broken), std::runtime_error);
  std::stringstream garbage_cells(
      std::string("# cmfl-trace v2\n"
                  "iteration,uploads,participants,rejected,cumulative_rounds,"
                  "cumulative_upload_bytes,mean_score,mean_train_loss,"
                  "delta_update,staleness_mean,staleness_max,accuracy,loss\n") +
      "x,1,2,3,4,5,6,7,8,9,10,,\n");
  EXPECT_THROW(read_trace_csv(garbage_cells), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cmfl_trace.csv";
  write_trace_csv_file(path, sample_result());
  const SimulationResult loaded = read_trace_csv_file(path);
  EXPECT_EQ(loaded.history.size(), 5u);
  EXPECT_THROW(read_trace_csv_file(path + ".missing"), std::runtime_error);
}

TEST(TraceIo, EmptyHistoryRoundTrips) {
  SimulationResult empty;
  std::stringstream ss;
  write_trace_csv(ss, empty);
  const SimulationResult loaded = read_trace_csv(ss);
  EXPECT_TRUE(loaded.history.empty());
  EXPECT_EQ(loaded.total_rounds, 0u);
}

}  // namespace
}  // namespace cmfl::fl
