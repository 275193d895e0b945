"""Rule: atomic-memory-order.

In the lock-free runtime files every std::atomic operation must name an
explicit memory order — a defaulted seq_cst hides the author's intent and
silently overpays, and an accidental default is indistinguishable from a
considered one. Conversely, every memory_order_relaxed is a claim that the
operation carries no synchronization, which must be justified with a
`// lint: allow(atomic-memory-order) -- <why>` comment on the statement
(single-writer self-reads, commutative accounting, seeded-bug constants).

Order arguments are accepted either as a std::memory_order_* literal or as
a named constant ending in `Order` (the spsc_internal publication-order
constants that the seeded-violation builds weaken).
"""

import re

from . import common

NAME = "atomic-memory-order"
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

_EXPLICIT_ORDER_RE = re.compile(r"\bstd::memory_order_\w+|\b\w*Order\b")

_RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")


def applies(relpath):
    return relpath in LOCKFREE_FILES


def check(relpath, text):
    findings = []
    stripped = common.strip_comments_and_strings(text)
    original_lines = text.splitlines()

    for m in _ATOMIC_OP_RE.finditer(stripped):
        op = m.group(1)
        arg, _ = common.balanced_argument(stripped, m.end() - 1)
        if arg is None or _EXPLICIT_ORDER_RE.search(arg):
            continue
        if common.allowed_statement(original_lines, stripped, m.start(),
                                    NAME):
            continue
        line = common.statement_start_line(stripped, m.start())
        findings.append(common.Finding(
            NAME, relpath, line + 1,
            f"atomic {op}() without an explicit memory order in a "
            "lock-free file; spell out the order (or justify with a "
            "lint: allow comment)"))

    for m in _RELAXED_RE.finditer(stripped):
        if common.allowed_statement(original_lines, stripped, m.start(),
                                    NAME):
            continue
        line = common.statement_start_line(stripped, m.start())
        findings.append(common.Finding(
            NAME, relpath, line + 1,
            "memory_order_relaxed without a justification; relaxed claims "
            "the op carries no synchronization — say why with "
            "// lint: allow(atomic-memory-order) -- <reason>"))
    return findings
