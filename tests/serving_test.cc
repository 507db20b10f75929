// Tests for deployments, the reconfiguration planner, and the live serving
// path's virtual-time dispatch (VirtualExecutor).
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/units.h"
#include "perf/perf_model.h"
#include "serving/deployment.h"
#include "serving/reconfig_planner.h"
#include "serving/virtual_executor.h"

namespace clover::serving {
namespace {

using models::Application;
using models::DefaultZoo;

TEST(Deployment, BaseHostsLargestVariantUnpartitioned) {
  const Deployment base = MakeBase(Application::kClassification, 10);
  base.Validate(DefaultZoo());
  EXPECT_EQ(base.NumGpus(), 10);
  EXPECT_EQ(base.NumInstances(), 10);
  for (const GpuAssignment& gpu : base.gpus) {
    EXPECT_EQ(gpu.layout_id, 1);
    EXPECT_EQ(gpu.variant_ordinals.size(), 1u);
    EXPECT_EQ(gpu.variant_ordinals[0], 3);  // EfficientNet-B7
  }
}

TEST(Deployment, Co2OptHostsSmallestOnFinestPartition) {
  const Deployment co2 = MakeCo2Opt(Application::kDetection, 10, DefaultZoo());
  co2.Validate(DefaultZoo());
  EXPECT_EQ(co2.NumInstances(), 70);
  for (const GpuAssignment& gpu : co2.gpus) {
    EXPECT_EQ(gpu.layout_id, 19);
    for (int ordinal : gpu.variant_ordinals) EXPECT_EQ(ordinal, 0);
  }
}

TEST(Deployment, ValidateRejectsOomPlacement) {
  // EfficientNet-B7 (needs >5 GB) on a 1g slice must fail validation.
  Deployment bad = MakeUniform(Application::kClassification, 1, 19, 3);
  EXPECT_THROW(bad.Validate(DefaultZoo()), CheckError);
  EXPECT_FALSE(bad.IsFeasible(DefaultZoo()));
}

TEST(Deployment, ValidateRejectsArityMismatch) {
  Deployment d = MakeBase(Application::kLanguage, 2);
  d.gpus[0].variant_ordinals.push_back(0);  // layout 1 has a single slice
  EXPECT_THROW(d.Validate(DefaultZoo()), CheckError);
}

TEST(Deployment, EmptySlicesAreNotInstances) {
  Deployment d = MakeUniform(Application::kLanguage, 1, 19, 0);
  d.gpus[0].variant_ordinals[3] = kEmptySlice;
  d.gpus[0].variant_ordinals[5] = kEmptySlice;
  EXPECT_EQ(d.NumInstances(), 5);
  EXPECT_EQ(d.Instances().size(), 5u);
  d.Validate(DefaultZoo());
}

TEST(Deployment, AllEmptyIsInvalid) {
  Deployment d = MakeUniform(Application::kLanguage, 1, 1, 0);
  d.gpus[0].variant_ordinals[0] = kEmptySlice;
  EXPECT_THROW(d.Validate(DefaultZoo()), CheckError);
}

TEST(ReconfigPlanner, NoChangeNoCost) {
  const Deployment d = MakeBase(Application::kDetection, 4);
  const ReconfigPlan plan = PlanReconfiguration(d, d, DefaultZoo());
  EXPECT_TRUE(plan.Empty());
  EXPECT_DOUBLE_EQ(plan.MaxOfflineSeconds(), 0.0);
}

TEST(ReconfigPlanner, VariantSwapTouchesOnlyChangedGpu) {
  const Deployment from = MakeBase(Application::kClassification, 4);
  Deployment to = from;
  to.gpus[2].variant_ordinals[0] = 1;  // B7 -> B3 on gpu2 only
  const ReconfigPlan plan = PlanReconfiguration(from, to, DefaultZoo());
  ASSERT_EQ(plan.gpus.size(), 1u);
  EXPECT_EQ(plan.gpus[0].gpu_index, 2);
  EXPECT_FALSE(plan.gpus[0].layout_changed);
  EXPECT_EQ(plan.gpus[0].instances_restarted, 1);
  EXPECT_GT(plan.gpus[0].offline_seconds, 0.0);
}

TEST(ReconfigPlanner, LayoutChangeRestartsEverything) {
  const Deployment from = MakeBase(Application::kClassification, 2);
  const Deployment to =
      MakeCo2Opt(Application::kClassification, 2, DefaultZoo());
  const ReconfigPlan plan = PlanReconfiguration(from, to, DefaultZoo());
  ASSERT_EQ(plan.gpus.size(), 2u);
  for (const GpuReconfigPlan& gpu : plan.gpus) {
    EXPECT_TRUE(gpu.layout_changed);
    EXPECT_EQ(gpu.instances_restarted, 7);
  }
  // Larger models load slower: repartitioning to BASE (B7) costs more than
  // to CO2OPT (B1).
  const ReconfigPlan back = PlanReconfiguration(to, from, DefaultZoo());
  EXPECT_GT(back.MaxOfflineSeconds(), plan.MaxOfflineSeconds());
}

TEST(ReconfigPlanner, MismatchedClustersRejected) {
  const Deployment a = MakeBase(Application::kDetection, 2);
  const Deployment b = MakeBase(Application::kDetection, 3);
  EXPECT_THROW(PlanReconfiguration(a, b, DefaultZoo()), CheckError);
}

// --- VirtualExecutor: accuracy-greedy dispatch in virtual time ---

// Perf-model service time of EfficientNet variant `ordinal` on `slice`.
double ServiceMs(int ordinal, mig::SliceType slice) {
  const models::ModelFamily& family =
      DefaultZoo().ForApplication(Application::kClassification);
  return perf::PerfModel::LatencyMs(family, family.Variant(ordinal), slice);
}

// One B7 instance on an unpartitioned GPU plus seven B1 instances on a
// 1g-partitioned one.
Deployment OneB7AndSevenB1() {
  Deployment d;
  d.app = Application::kClassification;
  GpuAssignment big;
  big.layout_id = 1;
  big.variant_ordinals = {3};  // B7
  d.gpus.push_back(big);
  GpuAssignment small;
  small.layout_id = 19;
  small.variant_ordinals.assign(7, 0);  // B1
  d.gpus.push_back(small);
  return d;
}

TEST(VirtualExecutor, IdleClusterDispatchesToTheMostAccurateInstance) {
  const models::ModelFamily& family =
      DefaultZoo().ForApplication(Application::kClassification);
  VirtualExecutor executor(OneB7AndSevenB1(), DefaultZoo());
  ASSERT_EQ(executor.num_instances(), 8u);

  const VirtualExecutor::Outcome first = executor.Execute(0.0);
  EXPECT_EQ(first.accuracy, family.Variant(3).accuracy);
  EXPECT_DOUBLE_EQ(first.latency_virtual_ms,
                   ServiceMs(3, mig::SliceType::k7g));

  // The B7 instance is now busy: a simultaneous arrival goes to a B1.
  const VirtualExecutor::Outcome second = executor.Execute(0.0);
  EXPECT_EQ(second.accuracy, family.Variant(0).accuracy);
  EXPECT_DOUBLE_EQ(second.latency_virtual_ms,
                   ServiceMs(0, mig::SliceType::k1g));
  EXPECT_EQ(executor.executed(), 2u);
}

TEST(VirtualExecutor, ArrivalAtABusyInstanceWaitsUntilItFrees) {
  VirtualExecutor executor(MakeBase(Application::kClassification, 1),
                           DefaultZoo());
  ASSERT_EQ(executor.num_instances(), 1u);
  const double service_s = MsToSeconds(ServiceMs(3, mig::SliceType::k7g));

  const VirtualExecutor::Outcome first = executor.Execute(0.0);
  const double arrival_s = 0.5 * first.completion_s;
  const VirtualExecutor::Outcome second = executor.Execute(arrival_s);
  EXPECT_EQ(second.completion_s, first.completion_s + service_s);
  EXPECT_DOUBLE_EQ(second.latency_virtual_ms,
                   SecondsToMs(second.completion_s - arrival_s));
  EXPECT_GT(second.latency_virtual_ms, first.latency_virtual_ms);
}

}  // namespace
}  // namespace clover::serving
