// Fault-injection instrumentation, in the style of sync_point.h.
//
// Crash-recovery correctness (checkpoint → kill → restore → replay) can
// only be proven if tests can die *at* the failure-prone seams, not just
// between API calls. STATESLICE_FAULT_POINT(site) marks those seams —
// ingestion, ring-full backpressure, the middle of a checkpoint write,
// migration surgery, shard worker runs — with a stable site name.
//
// In normal builds the macro expands to nothing: zero overhead,
// byte-identical codegen (bench_checkpoint gates this against
// baseline.json). Under the STATESLICE_FAULT_TEST CMake option it routes
// to a test-owned FaultInjector; with no injector installed it is a null
// check and a fall-through, so ordinary tests still pass in a fault-test
// build.
//
// Crash model: the injector may throw from OnFaultPoint to simulate
// process death at the site — but only at sites reached on the *caller's*
// thread (Push/Checkpoint/surgery paths). Sites reached on runtime worker
// threads must only be counted (throwing through a worker's run loop is
// std::terminate); tests kill at caller-thread sites and use worker-site
// counts to steer scheduling.
#ifndef STATESLICE_COMMON_FAULT_POINT_H_
#define STATESLICE_COMMON_FAULT_POINT_H_

#if defined(STATESLICE_FAULT_TEST)

namespace stateslice::faulttest {

// Test-owned callback. Invoked from the instrumented thread at the
// instrumented site; `site` is a stable label (string literal).
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual void OnFaultPoint(const char* site) = 0;
};

// Installed injector, or nullptr (passthrough). Tests install before
// driving the engine and uninstall after quiescing it, so the pointer is
// stable for the lifetime of any instrumented operation.
FaultInjector* Injector();
void InstallInjector(FaultInjector* injector);

inline void ModelFaultPoint(const char* site) {
  if (FaultInjector* injector = Injector()) injector->OnFaultPoint(site);
}

}  // namespace stateslice::faulttest

#define STATESLICE_FAULT_POINT(site) \
  ::stateslice::faulttest::ModelFaultPoint(site)

#else  // !STATESLICE_FAULT_TEST

#define STATESLICE_FAULT_POINT(site) ((void)0)

#endif  // STATESLICE_FAULT_TEST

#endif  // STATESLICE_COMMON_FAULT_POINT_H_
