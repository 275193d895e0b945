#include "src/runtime/plan.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/operators/split.h"
#include "src/runtime/scheduler.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::A;
using ::stateslice::testing::TupleCounter;

TEST(QueryPlanTest, WiresEntryToSink) {
  QueryPlan plan;
  auto* fanout = plan.AddOperator(std::make_unique<Fanout>("f"));
  auto* sink = plan.AddOperator(std::make_unique<TupleCounter>("s"));
  EventQueue* entry = plan.AddEntryQueue("entry", fanout, 0);
  plan.Connect(fanout, Fanout::kOutPort, sink, 0);
  plan.Start();

  entry->Push(A(1, 1.0));
  RoundRobinScheduler scheduler(&plan);
  scheduler.RunUntilQuiescent();
  EXPECT_EQ(sink->tuple_count(), 1u);
}

TEST(QueryPlanTest, OutputPortBroadcasts) {
  QueryPlan plan;
  auto* fanout = plan.AddOperator(std::make_unique<Fanout>("f"));
  auto* s1 = plan.AddOperator(std::make_unique<TupleCounter>("s1"));
  auto* s2 = plan.AddOperator(std::make_unique<TupleCounter>("s2"));
  EventQueue* entry = plan.AddEntryQueue("entry", fanout, 0);
  plan.Connect(fanout, Fanout::kOutPort, s1, 0);
  plan.Connect(fanout, Fanout::kOutPort, s2, 0);
  plan.Start();

  entry->Push(A(1, 1.0));
  entry->Push(A(2, 2.0));
  RoundRobinScheduler scheduler(&plan);
  scheduler.RunUntilQuiescent();
  EXPECT_EQ(s1->tuple_count(), 2u);
  EXPECT_EQ(s2->tuple_count(), 2u);
}

TEST(QueryPlanTest, TotalStateAndQueueSizes) {
  QueryPlan plan;
  auto* fanout = plan.AddOperator(std::make_unique<Fanout>("f"));
  auto* sink = plan.AddOperator(std::make_unique<TupleCounter>("s"));
  EventQueue* entry = plan.AddEntryQueue("entry", fanout, 0);
  plan.Connect(fanout, Fanout::kOutPort, sink, 0);
  plan.Start();
  entry->Push(A(1, 1.0));
  EXPECT_EQ(plan.TotalQueueSize(), 1u);
  EXPECT_EQ(plan.TotalStateSize(), 0u);  // sinks/fanouts are stateless
}

TEST(QueryPlanTest, ToDotMentionsOperatorsAndEdges) {
  QueryPlan plan;
  auto* fanout = plan.AddOperator(std::make_unique<Fanout>("fan"));
  auto* sink = plan.AddOperator(std::make_unique<TupleCounter>("snk"));
  plan.AddEntryQueue("entry", fanout, 0);
  plan.Connect(fanout, Fanout::kOutPort, sink, 0);
  const std::string dot = plan.ToDot();
  EXPECT_NE(dot.find("\"fan\""), std::string::npos);
  EXPECT_NE(dot.find("\"snk\""), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(QueryPlanDeathTest, DoubleStartAborts) {
  QueryPlan plan;
  plan.AddOperator(std::make_unique<Fanout>("f"));
  plan.Start();
  EXPECT_DEATH(plan.Start(), "CHECK failed");
}

TEST(QueryPlanTest, ExitQueueReceivesEvents) {
  QueryPlan plan;
  auto* fanout = plan.AddOperator(std::make_unique<Fanout>("f"));
  EventQueue* entry = plan.AddEntryQueue("entry", fanout, 0);
  EventQueue* exit = plan.AddExitQueue("exit", fanout, Fanout::kOutPort);
  plan.Start();
  entry->Push(A(1, 1.0));
  RoundRobinScheduler scheduler(&plan);
  scheduler.RunUntilQuiescent();
  EXPECT_EQ(exit->size(), 1u);  // exit queues are not drained by scheduler
}

TEST(QueryPlanTest, RemoveOperatorWhileRunning) {
  QueryPlan plan;
  auto* fanout = plan.AddOperator(std::make_unique<Fanout>("f"));
  auto* sink = plan.AddOperator(std::make_unique<TupleCounter>("s"));
  EventQueue* entry = plan.AddEntryQueue("entry", fanout, 0);
  EventQueue* mid = plan.Connect(fanout, Fanout::kOutPort, sink, 0);
  plan.Start();
  entry->Push(A(1, 1.0));
  RoundRobinScheduler scheduler(&plan);
  scheduler.RunUntilQuiescent();
  // Quiescent: remove the sink; its input queue must be drained first.
  EXPECT_TRUE(mid->empty());
  // Single-threaded test, deterministic scheduler quiescent: this thread
  // owns the plan structure.
  plan.AssertSurgeryExclusive();
  fanout->DetachOutput(Fanout::kOutPort, mid);
  plan.RetireQueue(mid);
  plan.RemoveOperatorWhileRunning(sink);
  EXPECT_EQ(plan.operators().size(), 1u);
  // Further traffic just flows to nowhere.
  entry->Push(A(2, 2.0));
  scheduler.RunUntilQuiescent();
}

}  // namespace
}  // namespace stateslice
