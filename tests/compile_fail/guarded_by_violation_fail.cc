// MUST NOT COMPILE under Clang -Wthread-safety -Werror: a scheduler-shaped
// worker counter is GUARDED_BY a thread role, and Touch() writes it
// without holding the role.
#include "src/common/thread_annotations.h"

namespace {

class MiniScheduler {
 public:
  void Touch() {
    ++processed_;  // seeded violation: no role assertion in scope
  }

 private:
  stateslice::ThreadRole role_;
  unsigned long processed_ STATESLICE_GUARDED_BY(role_) = 0;
};

}  // namespace

int main() {
  MiniScheduler scheduler;
  scheduler.Touch();
  return 0;
}
