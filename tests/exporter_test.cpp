// The /metrics series set of one in-process replica, pinned by a golden.
//
// The test builds an app::Replica as dlnoded does with metrics on — client
// ingress, a LedgerStore in a temp dir, the NodeExporter and the loop-task
// and store-drain histograms — renders the Prometheus exposition, and keeps
// the sorted `name{labels}` of every sample line, without values.
// The result must match tests/data/metrics_names_loops1.txt: refactors of
// the ingress or the exporter may not add, rename or drop a series.
//
// On a mismatch the actual set is written next to the test's temp dir and
// its path is printed, so an intended change is a reviewed copy away.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/loopback_cluster.hpp"

#ifndef DL_TEST_DATA_DIR
#error "DL_TEST_DATA_DIR must point at tests/data"
#endif

namespace dl {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dl_exporter_test.XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// Sorted `name{labels}` of every sample line: comments and values dropped.
std::vector<std::string> series_names(const std::string& exposition) {
  std::vector<std::string> out;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out.push_back(line.substr(0, line.rfind(' ')));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

// Builds one replica of a 4-node cluster and returns its series names.
// Nothing runs: registration alone fixes the set.
std::vector<std::string> replica_series() {
  TempDir dir;
  net::EventLoop loop;
  app::ReplicaOptions opt;
  opt.store_dir = dir.path;
  opt.metrics = true;
  app::Replica replica(loop, app::loopback_config(4), opt);
  return series_names(replica.registry().prometheus_text());
}

TEST(ExporterGolden, SeriesSetSingleLoop) {
  const std::string name = "metrics_names_loops1";
  const std::vector<std::string> actual = replica_series();
  const std::vector<std::string> golden =
      read_lines(std::string(DL_TEST_DATA_DIR) + "/" + name + ".txt");
  if (actual == golden) return;
  const std::string dump = ::testing::TempDir() + name + ".actual.txt";
  std::ofstream out(dump);
  for (const std::string& s : actual) out << s << "\n";
  ADD_FAILURE() << "/metrics series set differs from " << name << ".txt ("
                << actual.size() << " vs " << golden.size()
                << " lines); actual written to " << dump;
}

}  // namespace
}  // namespace dl
