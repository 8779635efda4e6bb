"""Mutation smoke: each mutant must make the test suite fail.

Run from the repository root as ``python tests/mutants.py [NAME ...]``; with
no names it runs every mutant.  Each entry of MUTANTS is (name, file, old
text, new text, reason): the old text must occur exactly once in the file,
and ``reason`` is None, or one line saying why the mutant is equivalent to
the code it changes.  Every mutant runs in its own temporary copy of
``src``, ``tests`` and ``pyproject.toml`` under ``python -m pytest -q -x``,
with at most MEMORY_LIMIT bytes of address space; the script prints the
first failing test and the wall time of each.  It
exits 1 when a mutant with no reason survives, and 2 when a name is unknown
or an old text does not occur exactly once.  It uses only the standard
library, and pytest does not collect it (its name does not start with
``test_``).
"""

from __future__ import annotations

import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAGMA = "src/locsemi/magma.py"
CHECKS = "src/locsemi/checks.py"
QUIVER = "src/locsemi/quiver.py"
CLI = "src/locsemi/cli.py"
ENUMERATION = "src/locsemi/enumeration.py"
CONSTRUCTIONS = "src/locsemi/constructions.py"
PREDICATES = "src/locsemi/predicates.py"
# a run past this is reported as killed by the timeout, as CI's job timeout would
TIMEOUT_S = 900
# the address space each run may map: a mutant that drops a capacity check
# then dies of MemoryError, not of the machine's memory running out
MEMORY_LIMIT = 2 * 2 ** 30

MUTANTS = [
    # the text reader: each of its rules dropped in turn
    ("reader: no comment cut", MAGMA,
     'line = raw.partition("#")[0].strip()', "line = raw.strip()", None),
    ("reader: blank lines not skipped", MAGMA,
     "        if not line:\n            continue\n", "", None),
    ("reader: a kind needs no colon", MAGMA,
     "rule = rules.get(kind) if colon else None", "rule = rules.get(kind)", None),
    ("reader: unrecognized lines skipped", MAGMA,
     'raise ParseError(f"line {lineno}: unrecognized line {line!r}")', "continue", None),
    ("reader: headers may repeat", MAGMA,
     "            if kind in values:\n"
     '                raise ParseError(f"line {lineno}: repeated {kind} line")\n', "", None),
    ("reader: a label line may list no labels", MAGMA,
     "            if not (size or toks):\n"
     '                raise ParseError(f"line {lineno}: {kind} line lists no labels")\n', "", None),
    ("reader: no missing-header check", MAGMA,
     "        if kind not in values:\n", "        if False:\n", None),
    ("reader: no token count", MAGMA,
     "if size and len(toks) != size or keyed and", "if keyed and", None),
    ("reader: no '->' literal", MAGMA,
     'or keyed and toks[-2] != "->"', "", None),
    ("reader: keys may repeat", MAGMA,
     "            if key in items:\n", "            if False:\n", None),
    ("reader: DomainError not wrapped", MAGMA,
     "    except DomainError as exc:\n        raise ParseError(str(exc)) from exc\n",
     "    except ParseError:\n        raise\n", None),
    # the flat-table kernel's masks
    ("kernel: C read at stride n", CHECKS,
     "C = [_defined_mask(t[y::m]) for y in range(m)]",
     "C = [_defined_mask(t[y::n]) for y in range(m)]", None),
    ("kernel: R read from t", CHECKS,
     "R = [_defined_mask(left[x * n:x * n + n]) for x in range(m)]",
     "R = [_defined_mask(t[x * n:x * n + n]) for x in range(m)]", None),
    ("kernel: masks over range(n)", CHECKS,
     "R = [_defined_mask(left[x * n:x * n + n]) for x in range(m)]\n"
     "    C = [_defined_mask(t[y::m]) for y in range(m)]",
     "R = [_defined_mask(left[x * n:x * n + n]) for x in range(n)]\n"
     "    C = [_defined_mask(t[y::m]) for y in range(n)]", None),
    ("kernel: refined structures not checked to be strong", CHECKS,
     '((refined, strong, ("refined", "strong")),\n                            (strong,',
     "((strong,", None),
    # the sampled census: its draw and its witnesses
    ("sampler: a rejected value kept as digit 0", ENUMERATION,
     "                pending ^= held\n",
     "                pending ^= held\n            sets[0] |= pending\n            pending = 0\n", None),
    ("sampler: one bit plane too few", ENUMERATION,
     "bits = n.bit_length()", "bits = n.bit_length() - 1", None),
    ("sampler: least code read from the least significant cell", ENUMERATION,
     "for sets in reversed(digits):", "for sets in digits:", None),
    # constructions
    ("strong zero: the two-sided test", CONSTRUCTIONS,
     "if abc == zero and ab != zero and bc != zero:",
     "if (abc != zero) != (ab != zero and bc != zero):",
     "with zero absorbing, ab = 0 or bc = 0 gives abc = 0, so the nonzero side never fires"),
    # the free extension: each of its rules dropped in turn
    ("free-ext: map names that are no arrow dropped", QUIVER,
     "        if name not in q._endpoints:\n", "        if False:\n", None),
    ("free-ext: colliding labels walked", QUIVER,
     "    starting = _starting_at(paths)\n    value =",
     "    starting = {}\n    for r in paths:\n        starting.setdefault(r.source, []).append(r)\n"
     "    value =", None),
    ("free-ext: a sparse target passed unchecked", QUIVER,
     "refined = OK if flags and flags[2] else", "refined = OK if not flags or flags[2] else", None),
    ("paths and free-ext: colliding labels walked", QUIVER,
     "    if len({r.label for r in paths}) != len(paths):\n", "    if False:\n", None),
    # limits and the command line
    ("paths_upto: counting runs past the capacity", QUIVER,
     "if total > PATH_CAPACITY or not count:", "if not count:", None),
    ("path pairs: no capacity", QUIVER,
     "    if count > PAIR_CAPACITY:\n", "    if False:\n", None),
    ("slices: no bound check before the slicer", PREDICATES,
     "    if bound > MAX_SLICE:\n        raise CapacityError(f\"bound {bound} exceeds the slice",
     "    if False:\n        raise CapacityError(f\"bound {bound} exceeds the slice", None),
    ("enumeration: no exhaustive size cap", ENUMERATION,
     "    if n > EXHAUSTIVE_MAX:\n", "    if False:\n", None),
    ("cli: errors exit 1", CLI,
     '        print(f"error: {exc}", file=sys.stderr)\n        return 2\n',
     '        print(f"error: {exc}", file=sys.stderr)\n        return 1\n', None),
    ("--set: no whole-label pieces", CLI,
     "piece in carrier and not carrier.issuperset(parts)", "False", None),
    ("--map: no whole-label pieces", CLI,
     'lambda piece, parts: piece.partition("=")[2] in labels', "lambda piece, parts: False", None),
    ("--map and --flags: a repeated name overwrites", CLI,
     "        if name in out:\n", "        if False:\n", None),
]


def _first_failure(output: str) -> str:
    found = re.search(r"^((?:FAILED|ERROR) .+?)(?: - |$)", output, re.M)
    return found.group(1) if found else output.strip().splitlines()[-1]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run(name: str, file: str, old: str, new: str) -> tuple[bool, str, float]:
    """(killed, what killed it, seconds) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="locsemi-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / file
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                cwd=copy, capture_output=True, text=True, timeout=TIMEOUT_S,
                preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return True, f"timeout after {TIMEOUT_S} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if done.returncode == 0:
            return False, "survived", seconds
        return True, _first_failure(done.stdout + done.stderr), seconds


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if len(chosen) != len(names or MUTANTS):
        known = {m[0] for m in MUTANTS}
        print(f"unknown mutants: {sorted(set(names) - known)}", file=sys.stderr)
        return 2
    for name, file, old, new, _ in chosen:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"{name}: the old text occurs {count} times in {file}, not once", file=sys.stderr)
            return 2
    bad = 0
    killed_count = 0
    start = time.perf_counter()
    for name, file, old, new, reason in chosen:
        killed, by, seconds = run(name, file, old, new)
        killed_count += killed
        if killed:
            verdict = f"killed: {by}"
        elif reason:
            verdict = f"survived, equivalent: {reason}"
        else:
            verdict = "SURVIVED"
            bad += 1
        print(f"{name}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{killed_count} of {len(chosen)} killed, {bad} unexplained survivors, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
