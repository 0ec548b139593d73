// Warm-state checkpoint/restore (DESIGN.md §4.13): the on-disk
// round-trip is exact (doubles travel as bit patterns), a restored
// service continues the checkpointed epoch and serves byte-identical
// warm answers on an empty delta, and every defective file — missing,
// truncated, corrupted, version-mismatched — comes back as a typed
// kIoError that leaves the service cold-serving, never half-restored.

#include "mcfs/serve/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mcfs/common/fault_plan.h"
#include "mcfs/common/random.h"
#include "mcfs/common/status.h"
#include "mcfs/serve/solver_service.h"
#include "tests/test_util.h"

namespace mcfs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

// Service fixture with a tracked customer population, mirroring the
// resolve tests: customers on distinct nodes so optima are unique and
// byte-equality is meaningful.
struct CheckpointFixture {
  Graph graph;
  std::vector<NodeId> customers;
  std::vector<NodeId> facility_nodes;
  std::vector<int> capacities;

  explicit CheckpointFixture(uint64_t seed) {
    Rng rng(seed);
    const int n = 160, m = 36, l = 12;
    graph = testing_util::RandomGraph(n, 3 * n, rng);
    std::vector<int> sampled = rng.SampleWithoutReplacement(n, m + l);
    for (int i = 0; i < m; ++i) customers.push_back(sampled[i]);
    for (int j = 0; j < l; ++j) {
      facility_nodes.push_back(sampled[m + j]);
      capacities.push_back(static_cast<int>(rng.UniformInt(4, 9)));
    }
  }

  std::unique_ptr<SolverService> MakeService(ServiceOptions options = {}) {
    auto service = std::make_unique<SolverService>(&graph, facility_nodes,
                                                   capacities, options);
    UpdateRequest arrive;
    for (const NodeId node : customers) {
      arrive.ops.push_back({UpdateKind::kCustomerArrive, node, 0});
    }
    EXPECT_TRUE(service->ApplyUpdate(arrive).ok());
    return service;
  }
};

TEST(CheckpointFormat, SeedlessRoundTripIsExact) {
  ServiceCheckpoint original;
  original.epoch = 17;
  original.facility_nodes = {4, 9, 2};
  original.capacities = {3, 1, 7};
  original.tracked_customers = {11, 5};
  original.seed_k = 0;
  original.has_seed = false;

  const std::string path = TempPath("ckpt_seedless.mcfsckpt");
  ASSERT_TRUE(WriteServiceCheckpoint(original, path).ok());
  const StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().epoch, original.epoch);
  EXPECT_EQ(loaded.value().facility_nodes, original.facility_nodes);
  EXPECT_EQ(loaded.value().capacities, original.capacities);
  EXPECT_EQ(loaded.value().tracked_customers, original.tracked_customers);
  EXPECT_FALSE(loaded.value().has_seed);
}

TEST(CheckpointFormat, MissingFileIsTypedIoError) {
  const StatusOr<ServiceCheckpoint> loaded =
      ReadServiceCheckpoint(TempPath("ckpt_does_not_exist.mcfsckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(CheckpointFormat, EveryDefectIsTypedIoError) {
  CheckpointFixture fx(41);
  auto service = fx.MakeService();
  ASSERT_TRUE(service->ResolveTracked(6).status.ok());
  const std::string path = TempPath("ckpt_defects.mcfsckpt");
  ASSERT_TRUE(service->CheckpointTo(path).ok());
  const std::string good = ReadFile(path);
  ASSERT_FALSE(good.empty());
  ASSERT_TRUE(ReadServiceCheckpoint(path).ok());

  const std::string mutated = TempPath("ckpt_mutated.mcfsckpt");

  // Truncation: drop the checksum line, then cut mid-payload.
  {
    const size_t last_line = good.rfind("checksum ");
    ASSERT_NE(last_line, std::string::npos);
    WriteFile(mutated, good.substr(0, last_line));
    const StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  {
    WriteFile(mutated, good.substr(0, good.size() / 2));
    const StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }

  // Corruption: flip one payload byte; the checksum must catch it.
  {
    std::string corrupt = good;
    const size_t pos = corrupt.find("tracked ");
    ASSERT_NE(pos, std::string::npos);
    corrupt[pos] = 'T';
    WriteFile(mutated, corrupt);
    const StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }

  // Version mismatch and bad magic.
  {
    std::string wrong_version = good;
    const size_t pos = wrong_version.find("MCFSCKPT 1");
    ASSERT_EQ(pos, 0u);
    wrong_version.replace(0, 10, "MCFSCKPT 9");
    WriteFile(mutated, wrong_version);
    const StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  {
    WriteFile(mutated, "NOTACKPT 1\n" + good.substr(good.find('\n') + 1));
    const StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }

  // Trailing data after the checksum line.
  {
    WriteFile(mutated, good + "extra trailing line\n");
    const StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }

  // Corrupted counts, read before the checksum is: each must end as a
  // typed error, never as an allocation of the declared size.
  const std::string huge = "99999999999999";
  const auto replace_field = [&](const std::string& prefix, int field) {
    std::string corrupt = good;
    const size_t line = corrupt.find(prefix);
    EXPECT_NE(line, std::string::npos) << prefix;
    size_t begin = line;
    for (int f = 0; f < field; ++f) begin = corrupt.find(' ', begin) + 1;
    const size_t end = corrupt.find_first_of(" \n", begin);
    return corrupt.replace(begin, end - begin, huge);
  };
  for (const auto& [prefix, field] :
       std::vector<std::pair<std::string, int>>{{"catalog ", 1},
                                                {"tracked ", 1},
                                                {"warmseed ", 1},
                                                {"warmseed ", 2},
                                                {"cust ", 3},
                                                {"cust ", 4}}) {
    SCOPED_TRACE(prefix + "field " + std::to_string(field));
    WriteFile(mutated, replace_field(prefix, field));
    const StatusOr<ServiceCheckpoint> loaded = ReadServiceCheckpoint(mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }

  // Seed node ids outside the service graph: a checksum-valid file that
  // restore must reject before ResolveTracked indexes with them.
  const NodeId outside = static_cast<NodeId>(fx.graph.NumNodes() + 3);
  const uint64_t epoch_before = service->epoch();
  const auto mutations =
      std::vector<std::function<void(WarmSeed&)>>{
          [&](WarmSeed& seed) { seed.customers.front().node = outside; },
          [&](WarmSeed& seed) {
            seed.customers.front().edges.front().facility_node = outside;
          },
          [&](WarmSeed& seed) { seed.facility_nodes.front() = outside; }};
  for (size_t i = 0; i < mutations.size(); ++i) {
    SCOPED_TRACE("seed node mutation " + std::to_string(i));
    ServiceCheckpoint checkpoint = ReadServiceCheckpoint(path).value();
    ASSERT_TRUE(checkpoint.has_seed);
    ASSERT_FALSE(checkpoint.seed.trajectory.customers.empty());
    ASSERT_FALSE(checkpoint.seed.trajectory.customers.front().edges.empty());
    mutations[i](checkpoint.seed.trajectory);
    ASSERT_TRUE(WriteServiceCheckpoint(checkpoint, mutated).ok());
    const Status restored = service->RestoreFrom(mutated);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.code(), StatusCode::kIoError);
    EXPECT_NE(restored.message().find("does not match the service graph"),
              std::string::npos)
        << restored.message();
    EXPECT_EQ(service->epoch(), epoch_before);
  }
  EXPECT_TRUE(service->ResolveTracked(6).status.ok());
}

TEST(CheckpointService, RestoreContinuesTheEpochWithByteIdenticalAnswers) {
  CheckpointFixture fx(43);
  ServiceOptions options;
  options.verify = true;
  auto before = fx.MakeService(options);

  // Advance past epoch 0 so continuity is a real assertion, then seed
  // the warm state with one resolve.
  UpdateRequest grow;
  grow.ops.push_back({UpdateKind::kCapacityDelta, fx.facility_nodes[0], 1});
  ASSERT_TRUE(before->ApplyUpdate(grow).ok());
  const int k = 6;
  const SolveResponse seeding = before->ResolveTracked(k);
  ASSERT_TRUE(seeding.status.ok()) << seeding.status.message();

  const std::string path = TempPath("ckpt_roundtrip.mcfsckpt");
  ASSERT_TRUE(before->CheckpointTo(path).ok());
  const uint64_t epoch_at_checkpoint = before->epoch();

  // Reference: the pre-restart service's empty-delta warm resolve is
  // bit-identical in solution bytes (resolve_test contract).
  const SolveResponse reference = before->ResolveTracked(k);
  ASSERT_TRUE(reference.status.ok());

  // "Restart": a fresh process = a fresh service on the same graph and
  // boot catalog, which then restores the checkpoint.
  auto after = fx.MakeService(options);
  ASSERT_TRUE(after->RestoreFrom(path).ok());
  EXPECT_EQ(after->epoch(), epoch_at_checkpoint);
  EXPECT_EQ(after->tracked_customer_count(), fx.customers.size());

  const SolveResponse restored = after->ResolveTracked(k);
  ASSERT_TRUE(restored.status.ok()) << restored.status.message();
  EXPECT_TRUE(restored.verify_ok);
  EXPECT_TRUE(restored.warm_served);
  // Byte-identical warm answer across the restart.
  EXPECT_EQ(restored.solution.selected, reference.solution.selected);
  EXPECT_EQ(restored.solution.assignment, reference.solution.assignment);
  EXPECT_EQ(restored.solution.distances, reference.solution.distances);
  EXPECT_EQ(restored.solution.objective, reference.solution.objective);

  const ServiceReport before_report = before->Report();
  const ServiceReport after_report = after->Report();
  EXPECT_EQ(before_report.checkpoints_saved, 1);
  EXPECT_EQ(after_report.checkpoints_restored, 1);
  EXPECT_NE(after_report.Json().find("\"checkpoints\": {\"saved\": 0, "
                                     "\"restored\": 1"),
            std::string::npos)
      << after_report.Json();
}

TEST(CheckpointService, RestoreFailureLeavesTheServiceServingCold) {
  CheckpointFixture fx(47);
  auto service = fx.MakeService();
  const uint64_t epoch0 = service->epoch();

  // A checkpoint that cannot belong to this graph: facility node out of
  // range. Structurally valid file, semantically incompatible.
  ServiceCheckpoint foreign;
  foreign.epoch = 9;
  foreign.facility_nodes = {static_cast<NodeId>(fx.graph.NumNodes() + 5)};
  foreign.capacities = {3};
  const std::string path = TempPath("ckpt_foreign.mcfsckpt");
  ASSERT_TRUE(WriteServiceCheckpoint(foreign, path).ok());

  const Status status = service->RestoreFrom(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(service->epoch(), epoch0);
  EXPECT_EQ(service->tracked_customer_count(), fx.customers.size());

  // Still serving, cold.
  const SolveResponse response =
      service->SolveSync({fx.customers, 6, {}, 0, nullptr});
  EXPECT_TRUE(response.status.ok()) << response.status.message();
  const ServiceReport report = service->Report();
  EXPECT_EQ(report.checkpoints_restored, 0);
  EXPECT_GE(report.checkpoint_failures, 1);
}

TEST(CheckpointService, CorruptedFileIsRejectedOnRestore) {
  CheckpointFixture fx(53);
  auto service = fx.MakeService();
  ASSERT_TRUE(service->ResolveTracked(5).status.ok());
  const std::string path = TempPath("ckpt_corrupt_restore.mcfsckpt");
  ASSERT_TRUE(service->CheckpointTo(path).ok());

  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] ^= 0x20;
  WriteFile(path, bytes);

  const Status status = service->RestoreFrom(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(service->SolveSync({fx.customers, 5, {}, 0, nullptr}).status.ok());
}

TEST(CheckpointService, FaultInjectedWriteFailsTypedThenRecovers) {
  CheckpointFixture fx(59);
  ServiceOptions options;
  FaultPlanSpec spec;
  spec.rate[static_cast<int>(FaultKind::kCheckpointIo)] = 1.0;
  spec.max_fires[static_cast<int>(FaultKind::kCheckpointIo)] = 1;
  options.fault_plan = std::make_shared<FaultPlan>(spec);
  auto service = fx.MakeService(options);

  const std::string path = TempPath("ckpt_faulted.mcfsckpt");
  const Status first = service->CheckpointTo(path);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_NE(first.message().find("fault-injected"), std::string::npos);

  // The budget is spent: the retry goes through and the file is valid.
  ASSERT_TRUE(service->CheckpointTo(path).ok());
  EXPECT_TRUE(ReadServiceCheckpoint(path).ok());

  const ServiceReport report = service->Report();
  EXPECT_EQ(report.checkpoints_saved, 1);
  EXPECT_EQ(report.checkpoint_failures, 1);
  EXPECT_GE(report.faults_injected, 1);
}

}  // namespace
}  // namespace mcfs
