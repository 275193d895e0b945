"""Rule: sync-point-coverage.

The interleave explorer (tests/interleave/) can only verify atomic sites it
can see: every cross-thread atomic operation in the lock-free runtime
files must be routed through a STATESLICE_ATOMIC_* macro from
src/runtime/sync_point.h (each of which IS a schedule/sync point and
carries a stable trace tag). A raw .load()/.store()/RMW call in these
files is invisible to the model checker — the schedules it explores no
longer cover the real protocol, which is precisely how ordering bugs slip
back in. Sites that are deliberately unmodeled still go through the
_OWNER/_ACCOUNTING macro variants, so a literal raw call is always a
finding unless justified with
`// lint: allow(sync-point-coverage) -- <why>`.
"""

import re

from . import common

NAME = "sync-point-coverage"
FIXTURE_RELPATH = "src/runtime/spsc_queue.h"

LOCKFREE_FILES = {
    "src/common/fault_point.h",
    "src/runtime/spsc_queue.h",
    "src/runtime/shard_router.h",
    "src/runtime/shard_router.cc",
    "src/runtime/sharded_scheduler.h",
    "src/runtime/sharded_scheduler.cc",
}

_ATOMIC_OP_RE = re.compile(
    r"[.>]\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"test_and_set)\s*\(")


def applies(relpath):
    return relpath in LOCKFREE_FILES


def check(relpath, text):
    findings = []
    stripped = common.strip_comments_and_strings(text)
    original_lines = text.splitlines()
    for m in _ATOMIC_OP_RE.finditer(stripped):
        if common.allowed_statement(original_lines, stripped, m.start(),
                                    NAME):
            continue
        line = common.statement_start_line(stripped, m.start())
        findings.append(common.Finding(
            NAME, relpath, line + 1,
            f"raw atomic {m.group(1)}() bypasses the sync-point "
            "instrumentation; use the STATESLICE_ATOMIC_* macros "
            "(src/runtime/sync_point.h) so the interleave explorer can "
            "drive this site"))
    return findings
