"""Rule: check-side-effects.

SLICE_CHECK expressions must be side-effect-free: the STATESLICE_STRIP_CHECKS
build compiles the expression unevaluated (src/common/check.h), so a check
like SLICE_CHECK(q.Pop()) would silently change program behaviour between
checked and stripped builds. Flags increments/decrements, assignments, and
calls to known mutating members (container and queue mutators, and the
Engine calls that change a session) inside any SLICE_CHECK* argument list.
"""

import re

from . import common

NAME = "check-side-effects"
FIXTURE_RELPATH = "src/runtime/example.cc"

_EXEMPT = {"src/common/check.h"}

_CHECK_RE = re.compile(r"\bSLICE_CHECK(?:_EQ|_NE|_LT|_LE|_GT|_GE)?\s*\(")

# Assignment: '=' not preceded by a comparison/compound-operator character
# and not followed by '=' (so ==, !=, <=, >=, +=, ... don't match).
_SIDE_EFFECTS = [
    (re.compile(r"\+\+|--"), "increment/decrement"),
    (re.compile(r"(?<![=!<>+\-*/%&|^])=(?!=)"), "assignment"),
    (re.compile(
        r"(?:\.|->)(?:push_back|push_front|pop_back|pop_front|emplace\w*|"
        r"insert|erase|clear|reset|release|Push|Pop|Take\w*|"
        r"RegisterQuery|UnregisterQuery|Checkpoint|Restore|Subscribe|"
        r"Unsubscribe|PushBatch)\s*\("),
     "mutating call"),
]


def applies(relpath):
    return (relpath.startswith(("src/", "tests/", "examples/", "bench/"))
            and relpath.endswith((".h", ".cc"))
            and relpath not in _EXEMPT)


def check(relpath, text):
    findings = []
    stripped = common.strip_comments_and_strings(text)
    original_lines = text.splitlines()
    for match in _CHECK_RE.finditer(stripped):
        open_paren = match.end() - 1
        arg, _ = common.balanced_argument(stripped, open_paren)
        if arg is None:
            continue
        line_index = stripped.count("\n", 0, match.start())
        if common.allowed(original_lines, line_index, NAME):
            continue
        for pattern, what in _SIDE_EFFECTS:
            if pattern.search(arg):
                findings.append(common.Finding(
                    NAME, relpath, line_index + 1,
                    f"{what} inside SLICE_CHECK; the expression is "
                    "unevaluated under STATESLICE_STRIP_CHECKS"))
                break
    return findings
