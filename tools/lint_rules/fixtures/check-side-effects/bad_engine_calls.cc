// Fixture: Engine calls that change the session must not hide inside
// SLICE_CHECK — a stripped build would skip the registration, checkpoint
// or restore altogether.
#include "src/common/check.h"

void Setup(Engine* engine, const ContinuousQuery& q, std::string* bytes) {
  SLICE_CHECK(engine->RegisterQuery(q).valid());
  SLICE_CHECK(engine->Checkpoint(bytes));
}
