#include "src/runtime/scheduler.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/operators/split.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::A;
using ::stateslice::testing::TupleCounter;

// A pass-through operator that counts how many events it handled.
class CountingPass : public Operator {
 public:
  explicit CountingPass(std::string name) : Operator(std::move(name)) {}
  void Process(Event event, int) override {
    ++processed;
    Emit(0, event);
  }
  int processed = 0;
};

struct PipelinePlan {
  QueryPlan plan;
  EventQueue* entry = nullptr;
  CountingPass* first = nullptr;
  CountingPass* second = nullptr;
  TupleCounter* sink = nullptr;
};

std::unique_ptr<PipelinePlan> MakePipeline() {
  auto p = std::make_unique<PipelinePlan>();
  p->first = p->plan.AddOperator(std::make_unique<CountingPass>("p1"));
  p->second = p->plan.AddOperator(std::make_unique<CountingPass>("p2"));
  p->sink = p->plan.AddOperator(std::make_unique<TupleCounter>("sink"));
  p->entry = p->plan.AddEntryQueue("entry", p->first, 0);
  p->plan.Connect(p->first, 0, p->second, 0);
  p->plan.Connect(p->second, 0, p->sink, 0);
  p->plan.Start();
  return p;
}

TEST(SchedulerTest, DrainsPipelineToQuiescence) {
  auto p = MakePipeline();
  for (int i = 0; i < 10; ++i) p->entry->Push(A(i, i));
  RoundRobinScheduler scheduler(&p->plan);
  const uint64_t events = scheduler.RunUntilQuiescent();
  // 10 events through 3 consumer edges.
  EXPECT_EQ(events, 30u);
  EXPECT_EQ(p->sink->tuple_count(), 10u);
  EXPECT_EQ(p->plan.TotalQueueSize(), 0u);
}

TEST(SchedulerTest, RunSomeRespectsBudget) {
  auto p = MakePipeline();
  for (int i = 0; i < 10; ++i) p->entry->Push(A(i, i));
  RoundRobinScheduler scheduler(&p->plan, /*quantum=*/2);
  const uint64_t n = scheduler.RunSome(5);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(scheduler.total_processed(), 5u);
  scheduler.RunUntilQuiescent();
  EXPECT_EQ(p->sink->tuple_count(), 10u);
}

TEST(SchedulerTest, QuiescentReturnsZeroWithoutInput) {
  auto p = MakePipeline();
  RoundRobinScheduler scheduler(&p->plan);
  EXPECT_EQ(scheduler.RunUntilQuiescent(), 0u);
}

TEST(SchedulerTest, QuantumLimitsPerVisitConsumption) {
  auto p = MakePipeline();
  for (int i = 0; i < 8; ++i) p->entry->Push(A(i, i));
  RoundRobinScheduler scheduler(&p->plan, /*quantum=*/3);
  // First visit takes at most 3 events from the entry edge.
  scheduler.RunSome(3);
  EXPECT_EQ(p->first->processed, 3);
  scheduler.RunUntilQuiescent();
  EXPECT_EQ(p->first->processed, 8);
  EXPECT_EQ(p->second->processed, 8);
}

TEST(SchedulerTest, TotalProcessedAccumulatesAcrossCalls) {
  auto p = MakePipeline();
  RoundRobinScheduler scheduler(&p->plan);
  p->entry->Push(A(1, 1.0));
  scheduler.RunUntilQuiescent();
  p->entry->Push(A(2, 2.0));
  scheduler.RunUntilQuiescent();
  EXPECT_EQ(scheduler.total_processed(), 6u);
}

}  // namespace
}  // namespace stateslice
