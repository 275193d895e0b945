"""Rule: hot-path-alloc.

The per-event hot path — join-state probes/purges, the slot ring, the event
and SPSC rings, the schedulers' run loops, the arena, the tuple tail, and
the window-join Process paths — must not heap-allocate per event:
ad-hoc new/make_unique there turns the O(matches) probe work into allocator
traffic and wrecks the sharded workers' latency. Amortized container
growth (vector::push_back into pre-sized storage) is the sanctioned
mechanism and is not flagged. Genuinely needed allocations take an explicit
`// lint: allow(hot-path-alloc) -- <reason>` suppression.
"""

import re

from . import common

NAME = "hot-path-alloc"
FIXTURE_RELPATH = "src/operators/join_state.h"

HOT_FILES = {
    "src/operators/join_state.h",
    "src/common/arena.cc",
    "src/common/arena.h",
    "src/common/slot_ring.h",
    "src/common/tuple.cc",
    "src/common/tuple.h",
    "src/runtime/queue.cc",
    "src/runtime/queue.h",
    "src/runtime/scheduler.cc",
    "src/runtime/spsc_queue.h",
    "src/runtime/shard_router.h",
    "src/runtime/shard_router.cc",
    "src/runtime/sharded_scheduler.cc",
    "src/operators/sliced_window_join.cc",
    "src/operators/sliding_window_join.cc",
}

_PATTERNS = [
    (re.compile(r"\bnew\s+[A-Za-z_:<(]"), "operator new"),
    (re.compile(r"\bstd::make_unique\b"), "std::make_unique"),
    (re.compile(r"\bstd::make_shared\b"), "std::make_shared"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "C allocation"),
]


def applies(relpath):
    return relpath in HOT_FILES


def check(relpath, text):
    findings = []
    stripped = common.strip_comments_and_strings(text)
    original_lines = text.splitlines()
    for i, line in enumerate(stripped.splitlines()):
        for pattern, what in _PATTERNS:
            if pattern.search(line) and not common.allowed(
                    original_lines, i, NAME):
                findings.append(common.Finding(
                    NAME, relpath, i + 1,
                    f"{what} in a per-event hot-path file; allocate at "
                    "setup time or justify with a lint: allow comment"))
    return findings
