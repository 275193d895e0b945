// libFuzzer harness for Engine::Restore.
//
// Contract under test (src/api/engine.h): Restore never aborts on a corrupt
// snapshot. It either rebuilds a usable engine or returns false with a
// diagnostic in last_error() and leaves the engine poisoned(); it must not
// trip a SLICE_CHECK or invoke UB. A random byte string dies at the
// trailing CRC-32, so the harness does not feed raw input to Restore: it
// takes a valid snapshot of a churned session (in-place and drain-rebuild
// churn, so it carries active records, fresh-start gates, retired entries,
// rebuild cutoffs and live join state), applies the edit script the input
// encodes, and reseals the CRC so every mutation reaches the decoder.
//
// Input layout: byte 0 picks the base snapshot (bit 0: collect_results),
// then each 4-byte group is one edit {op, pos_lo, pos_hi, arg}, where pos
// is taken modulo the current body size:
//   op % 4 == 0  XOR the byte at pos with arg (arg 0 means 0x01)
//   op % 4 == 1  overwrite the 8 bytes at pos with a little-endian value
//                picked by arg (0, 1, small counts, all-ones, ...)
//   op % 4 == 2  truncate the body at pos
//   op % 4 == 3  insert byte arg at pos (arg odd) or erase the byte at pos
//
// A mutation that lands on a free-valued field (a counter, a tuple value)
// can still decode. Then the restored engine must answer Snapshot(),
// checkpoint itself, and that fresh snapshot must restore again.
//
// Two build modes share this file (as fuzz/parser_fuzz.cc):
//  - STATESLICE_FUZZ_STANDALONE: replays every file named on the command
//    line, and with --random=N --seed=S also N seeded random edit scripts.
//    Portable to any compiler; registered as the restore_fuzz_corpus CTest.
//  - otherwise: LLVMFuzzerTestOneInput, linked with -fsanitize=fuzzer by
//    the Clang-only `fuzz` preset.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/api/engine.h"
#include "src/common/serde.h"

namespace {

using stateslice::Engine;
using stateslice::QueryHandle;
using stateslice::SecondsToTicks;
using stateslice::StreamSide;
using stateslice::Tuple;

[[noreturn]] void Fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "restore_fuzz: %s: %s\n", what, detail.c_str());
  __builtin_trap();
}

Engine::Options BaseOptions(bool collect) {
  Engine::Options options;
  options.collect_results = collect;
  return options;
}

// A deterministic churned session, checkpointed mid-stream.
std::string MakeBaseSnapshot(bool collect) {
  Engine engine(BaseOptions(collect));
  int64_t t = 0;
  uint32_t seq = 0;
  const auto push_burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      t += SecondsToTicks(0.1);
      Tuple a;
      a.timestamp = t;
      a.seq = seq++;
      a.key = i % 3;
      a.value = (i % 5) * 0.25;
      Tuple b = a;
      b.seq = seq++;
      engine.Push(StreamSide::kA, a);
      engine.Push(StreamSide::kB, b);
    }
  };
  const QueryHandle q1 = engine.RegisterQuery(
      "SELECT A.* FROM A A, B B WHERE A.key = B.key WINDOW 2 s");
  engine.RegisterQuery(
      "SELECT A.* FROM A A, B B WHERE A.key = B.key WINDOW 4 s");
  push_burst(30);
  // In-place churn: registrations behind fresh-start gates, removals.
  for (int i = 0; i < 6; ++i) {
    const QueryHandle h = engine.RegisterQuery(
        "SELECT A.* FROM A A, B B WHERE A.key = B.key WINDOW 1 s");
    push_burst(5);
    if (i % 2 == 0) engine.UnregisterQuery(h);
  }
  // Drain-rebuild churn (a filtered query), leaving a rebuild cutoff.
  const QueryHandle filtered = engine.RegisterQuery(
      "SELECT A.* FROM A A, B B WHERE A.key = B.key AND A.value > 0.4 "
      "WINDOW 3 s");
  push_burst(10);
  engine.UnregisterQuery(filtered);
  engine.UnregisterQuery(q1);
  push_burst(10);
  // A last in-place registration keeps a gate on the live plan.
  engine.RegisterQuery(
      "SELECT A.* FROM A A, B B WHERE A.key = B.key WINDOW 3 s");
  push_burst(3);
  std::string snapshot;
  if (!engine.Checkpoint(&snapshot)) {
    Fail("base checkpoint failed", engine.last_error());
  }
  return snapshot;
}

const std::string& BaseSnapshot(bool collect) {
  static const std::string plain = MakeBaseSnapshot(false);
  static const std::string collecting = MakeBaseSnapshot(true);
  return collect ? collecting : plain;
}

uint64_t EditValue(uint8_t arg) {
  switch (arg % 6) {
    case 0: return 0;
    case 1: return 1;
    case 2: return arg;  // a small count or token
    case 3: return ~uint64_t{0};
    case 4: return uint64_t{1} << 31;
    default: return uint64_t{arg} << 56;
  }
}

std::string Mutate(std::string body, const uint8_t* data, size_t size) {
  for (size_t i = 1; i + 4 <= size && !body.empty(); i += 4) {
    const uint8_t op = data[i];
    const size_t pos =
        (static_cast<size_t>(data[i + 1]) | data[i + 2] << 8) % body.size();
    const uint8_t arg = data[i + 3];
    switch (op % 4) {
      case 0:
        body[pos] = static_cast<char>(body[pos] ^ (arg != 0 ? arg : 1));
        break;
      case 1: {
        stateslice::StateWriter w;
        w.U64(EditValue(arg));
        body.replace(pos, w.data().size(), w.data());
        break;
      }
      case 2:
        body.resize(pos);
        break;
      default:
        if (arg % 2 == 1) {
          body.insert(pos, 1, static_cast<char>(arg));
        } else {
          body.erase(pos, 1);
        }
        break;
    }
  }
  return body;
}

std::string Resealed(std::string body) {
  stateslice::StateWriter w;
  w.U32(stateslice::Crc32(body));
  return body + w.data();
}

int RunOne(const uint8_t* data, size_t size) {
  const bool collect = size > 0 && (data[0] & 1) != 0;
  const std::string& base = BaseSnapshot(collect);
  const std::string body = Mutate(base.substr(0, base.size() - 4), data, size);
  const std::string snapshot = Resealed(body);

  Engine engine(BaseOptions(collect));
  if (!engine.Restore(snapshot)) {
    if (!engine.poisoned() || engine.last_error().empty()) {
      Fail("rejected without poison or diagnostic", engine.last_error());
    }
    engine.Snapshot();
    return 0;
  }
  // Decoded: the engine must be consistent enough to describe and
  // re-checkpoint itself, and its own snapshot must restore.
  engine.Snapshot();
  std::string again;
  if (!engine.Checkpoint(&again)) {
    Fail("restored engine cannot checkpoint", engine.last_error());
  }
  Engine twin(BaseOptions(collect));
  if (!twin.Restore(again)) {
    Fail("re-checkpointed snapshot does not restore", twin.last_error());
  }
  return 0;
}

}  // namespace

#if defined(STATESLICE_FUZZ_STANDALONE)

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include "src/common/random.h"

int main(int argc, char** argv) {
  int replayed = 0;
  long random_runs = 0;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--random=", 9) == 0) {
      random_runs = std::strtol(argv[i] + 9, nullptr, 10);
      continue;
    }
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
      continue;
    }
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "restore_fuzz: cannot open %s\n", argv[i]);
      return 2;
    }
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    RunOne(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    ++replayed;
  }
  // Seeded random edit scripts of 1-4 edits.
  stateslice::Rng rng(seed);
  for (long run = 0; run < random_runs; ++run) {
    std::vector<uint8_t> input(1 + 4 * (1 + rng.NextBounded(4)));
    for (uint8_t& b : input) b = static_cast<uint8_t>(rng.NextU64());
    RunOne(input.data(), input.size());
  }
  std::printf("restore_fuzz: replayed %d corpus file(s), %ld random run(s)\n",
              replayed, random_runs);
  return 0;
}

#else  // libFuzzer build

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return RunOne(data, size);
}

#endif  // STATESLICE_FUZZ_STANDALONE
