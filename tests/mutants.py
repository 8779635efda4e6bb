"""Mutation smoke: each mutant must make the test suite fail.

Run from the repository root as ``python tests/mutants.py [NAME ...]``; with
no names it runs every mutant.  Each entry of MUTANTS is (name, file, old
text, new text, reason): the old text must occur exactly once in the file,
and ``reason`` is None, or one line saying why the mutant is equivalent to
the code it changes.  Every mutant runs in its own temporary copy of
``src``, ``tests`` and ``pyproject.toml`` under ``python -m pytest -q -x``,
with at most MEMORY_LIMIT bytes of address space: first on the test module
of the file it mutates (``tests/test_checks.py`` for ``checks.py``), and on
the whole suite only if that module passes, so a survivor still meets every
test.  The script prints the first failing test and the wall time of each.
It exits 1 when a mutant with no reason survives, and 2 when a name is
unknown or an old text does not occur exactly once.  It uses only the
standard library, and pytest does not collect it (its name does not start
with ``test_``).
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
    # the walk's clause masks, each stated once in _masks: each dropped or misread in turn
    ("masks: left polar closure dropped", CHECKS,
     "return (left ^ (left & Rab),", "return (left ^ left,", None),
    ("masks: right polar closure dropped", CHECKS,
     "right ^ (right & Cab), Ra & DIFF,", "right ^ right, Ra & DIFF,", None),
    ("masks: locality-assoc without its (a,c) guard", CHECKS,
     "right ^ (right & Cab), Ra & DIFF,", "right ^ (right & Cab), Rb & DIFF,", None),
    ("masks: strong-left read from a's row", CHECKS,
     "SL = Rb ^ (Rb & Rab)", "SL = Rb ^ (Rb & Ra)", None),
    ("masks: strong-right read as strong-left", CHECKS,
     "            SL, SR, DIFF,\n", "            SL, SL, DIFF,\n", None),
    ("masks: strong-assoc dropped", CHECKS,
     "            SL, SR, DIFF,\n", "            SL, SR, DIFF ^ DIFF,\n", None),
    ("masks: refined-left dropped", CHECKS,
     "            Rb ^ Rab, Ca ^ Cab, DIFF,\n", "            Rb ^ Rb, Ca ^ Cab, DIFF,\n", None),
    ("masks: refined-right dropped", CHECKS,
     "            Rb ^ Rab, Ca ^ Cab, DIFF,\n", "            Rb ^ Rab, Ca ^ Ca, DIFF,\n", None),
    ("masks: refined-assoc dropped", CHECKS,
     "            Rb ^ Rab, Ca ^ Cab, DIFF,\n", "            Rb ^ Rab, Ca ^ Cab, DIFF ^ DIFF,\n", None),
    ("masks: partial-assoc dropped", CHECKS,
     "            DIFF, SL ^ SR,\n", "            DIFF ^ DIFF, SL ^ SR,\n", None),
    ("masks: partial-membership without the other side", CHECKS,
     "            DIFF, SL ^ SR,\n", "            DIFF, SL,\n", None),
    ("masks: transitivity read from ab's row", CHECKS,
     "            Rb ^ (Rb & Ra))", "            Rb ^ (Rb & Rab))", None),
    # the walk: its early stop and the witnesses it keeps
    ("walk: a witness that is not increasing taken as final", CHECKS,
     "non[i] = (a, b, c)\n                            seen[i] = 1",
     "non[i] = (a, b, c)\n                            seen[i] = 2", None),
    ("walk: refined-right keeps its first increasing candidate, not its least", CHECKS,
     "if inc[i] is None or w < inc[i]:", "if inc[i] is None:", None),
    # the backends: the flat masks and regroupings, the lazy regroupings, and
    # the table feed of the lazy backend
    ("flat: C read at stride n", CHECKS,
     "C = [int(signs[m - 1 - y::m], 2) for y in range(m)]",
     "C = [int(signs[m - 1 - y::n], 2) for y in range(m)]", None),
    ("flat: R read from t", CHECKS,
     "    signs = _signs(left)\n", "    signs = _signs(t)\n", None),
    ("flat: masks over range(n)", CHECKS,
     "R = [int(signs[(m - 1 - x) * n:(m - x) * n], 2) for x in range(m)]",
     "R = [int(signs[(m - 1 - x) * n:(m - x) * n], 2) for x in range(n)]", None),
    ("flat: equal regroupings taken as defined", CHECKS,
     "return Rb ^ (Rb & Rab), 0", "return 0, 0", None),
    ("table feed: a column bit set at the column's own position", CHECKS,
     "columns[j].append(i)", "columns[j].append(j)", None),
    ("table feed: rows read in descending key order", CHECKS,
     "    for (a, b), c in m.table.items():\n        i, j = index[a], index[b]",
     "    for (a, b), c in reversed(m.table.items()):\n        i, j = index[a], index[b]", None),
    ("table feed: the relation read transposed", CHECKS,
     "lambda i, j: j in products[i]", "lambda i, j: i in products[j]", None),
    ("open sides: rows read at stride n", CHECKS,
     "row = t[e * m:e * m + n]", "row = t[e * n:e * n + n]", None),
    ("open sides: columns read at stride n", CHECKS,
     "column = t[e::m]", "column = t[e::n]", None),
    ("lazy rows: an unrelated (ab,c) regrouped", CHECKS,
     "elif Rab >> c & 1 and mul(vab, e) != mul(va, bc):", "elif mul(vab, e) != mul(va, bc):", None),
    ("class chain: refined structures not checked to be strong", CHECKS,
     '((refined, strong, ("refined", "strong")),\n                            (strong,',
     "((strong,", None),
    ("block kernel: refined-right membership dropped", CHECKS,
     "refined_bad |= (both ^ left_in) | (both ^ right_in)", "refined_bad |= both ^ left_in", None),
    ("class chain: strong structures not checked to be locality and partial", CHECKS,
     '                            (strong, loc & partial, ("strong", "both locality and partial")),\n',
     "", None),
    ("class chain: transitive locality structures not checked to be partial", CHECKS,
     ',\n                            (trans & loc, partial, ("transitive locality", "partial"))):',
     ",):", None),
    # the sampled census: its draw and its witnesses
    ("sampler: a rejected value kept as digit 0", ENUMERATION,
     "                pending ^= held\n",
     "                pending ^= held\n            sets[0] |= pending\n            pending = 0\n", None),
    ("sampler: one bit plane too few", ENUMERATION,
     "bits = n.bit_length()", "bits = n.bit_length() - 1", None),
    ("sampler: least code read from the least significant cell", ENUMERATION,
     "for sets in reversed(digits):", "for sets in digits:", None),
    # constructions: the zero-completion's one regrouping walk and its readers
    ("strong zero: the two-sided test", CONSTRUCTIONS,
     "if abc == zero and ab != zero and bc != zero and verdict:",
     "if (abc != zero) != (ab != zero and bc != zero) and verdict:",
     "with zero absorbing, ab = 0 or bc = 0 gives abc = 0, so the nonzero side never fires"),
    ("zero walk: only the z with yz nonzero after a nonzero xy", CONSTRUCTIONS,
     "for z in nonzero[y] if xy == zero else ry:", "for z in nonzero[y]:", None),
    ("zero walk: every z after a zero xy", CONSTRUCTIONS,
     "for z in nonzero[y] if xy == zero else ry:", "for z in ry:",
     "with xy and yz both zero, (xy)z and x(yz) are both the absorbing zero"),
    ("strong zero: a regrouping that does not associate let through", CONSTRUCTIONS,
     "raise _not_associative(triple, abc, rhs)", "pass", None),
    ("strong zero: the absorb fault named before associativity", CONSTRUCTIONS,
     "        _require_semigroup(m)  #", "        #", None),
    ("complete: the zero label checked after the walk", CONSTRUCTIONS,
     "    total = FinitePartialMagma(elements, {(a, b): m.table.get((a, b), zero)\n"
     "                                          for a in elements for b in elements})\n"
     "    broken = _associativity_violation(total, zero)\n"
     "    if broken is not None:\n        raise NotAssociative(*broken)\n",
     "    table = {(a, b): m.table.get((a, b), zero) for a in elements for b in elements}\n"
     "    unchecked = object.__new__(FinitePartialMagma)\n"
     "    object.__setattr__(unchecked, 'elements', tuple(sorted(elements)))\n"
     "    object.__setattr__(unchecked, 'table', table)\n"
     "    broken = _associativity_violation(unchecked, zero)\n"
     "    if broken is not None:\n        raise NotAssociative(*broken)\n"
     "    total = FinitePartialMagma(elements, table)\n", None),
    # the free extension: each of its rules dropped in turn
    ("free-ext: map names that are no arrow dropped", QUIVER,
     "        if name not in q._endpoints:\n", "        if False:\n", None),
    ("free-ext: colliding labels walked", QUIVER,
     "    starting = _starting_at(paths)\n    value =",
     "    starting = {}\n    for r in paths:\n        starting.setdefault(r.source, []).append(r)\n"
     "    value =", None),
    ("free-ext: the target's refined check dropped", QUIVER,
     "refined = is_refined_locality_semigroup(s)", "refined = OK", None),
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
    ("polar closure: no 16-element subset cap", CHECKS,
     "    if n > 16:\n", "    if False:\n", None),
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
    """(killed, what killed it, seconds) for one mutant: its file's test
    module first, then the whole suite."""
    with tempfile.TemporaryDirectory(prefix="locsemi-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / file
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        start = time.perf_counter()
        for scope in ([f"tests/test_{Path(file).stem}.py"], []):
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *scope],
                    cwd=copy, capture_output=True, text=True, errors="replace", timeout=TIMEOUT_S,
                    preexec_fn=_cap_memory)
            except subprocess.TimeoutExpired:
                return True, f"timeout after {TIMEOUT_S} s", time.perf_counter() - start
            if done.returncode:
                return True, _first_failure(done.stdout + done.stderr), time.perf_counter() - start
        return False, "survived", time.perf_counter() - start


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
