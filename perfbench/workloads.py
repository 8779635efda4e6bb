"""The four workloads: seeded inputs, the ops of one pass, and their oracles.

Constructing a workload is its set-up: it generates the inputs from the
seed and writes the files the command line will read.  A pass runs the ops
that ``ops(outputs)`` yields, in order, each after the previous one returned
(a closed loop with one client).  ``outputs`` maps the names of ops already
run in the pass to their results, so later ops may depend on earlier ones.
Every op has an oracle: it returns None when the output is right and a
one-line reason otherwise.  ``finish`` checks what only the whole pass shows.

Inputs reach the program only as files, argv or structures.  What sets an
op's cost is fixed: sizes and bounds, and the shapes of the structures
whose first witness or full scan decides the cost.  The seed picks the
rest (labels, the bounds of the cheap ops, sample seeds, the order of
ops), so every seed does the same amount of work.  README.md gives each
workload's rationale.
"""

from __future__ import annotations

import math
import random
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from loader import call_cli

FLAGS = ("locality", "strong", "refined", "partial", "transitive")
LETTERS = "LSRPT"
PAIR_SHAPED = frozenset({
    "strong-left", "strong-right", "strong-assoc", "partial-membership", "partial-assoc",
    "refined-left", "refined-right", "refined-assoc", "transitivity"})
POLAR = frozenset({"left-polar-closure", "right-polar-closure"})
CLASS_LINE = re.compile(r"CLASS (?:bound=\d+ )?locality=(.*) strong=(.*) refined=(.*) "
                        r"partial=(.*) transitive=(.*) identities=.* zeros=.*")


@dataclass
class Op:
    name: str  # unique within a pass
    kind: str  # ops of one kind are summarised together in the results file
    fn: Callable[[], object]
    check: Callable[[object], "str | None"]
    parallel: bool = False  # the op runs worker processes on the other cores
    keep: Callable[[object], object] | None = None  # what of the output the pass keeps


def cli_op(api, argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    return partial(call_cli, api, argv)


def pattern(flags) -> str:
    return "".join(l if f else "-" for l, f in zip(LETTERS, flags))


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class Workload:
    """Interface of a workload; the constructor is its set-up."""

    name = ""
    jobs: tuple[int, ...] = ()  # --jobs values its census ops pass
    min_passes = 1  # passes every untraced run makes, whatever --seconds says

    def ops(self, outputs) -> Iterator[Op]:
        raise NotImplementedError

    def finish(self, outputs) -> list[str]:
        """Failures that only the whole pass shows."""
        return []

    def info(self, times: dict[str, list[float]]) -> dict:
        """Workload-specific details from the op times by kind."""
        return {}


# ---------------------------------------------------------------------------
# oracles shared by several workloads

def sided(m, want) -> tuple[tuple, tuple, tuple]:
    """(left, right, two-sided) elements e with e*a == want(e, a) for all a."""
    t, el = m.table, m.elements
    left = tuple(e for e in el if all(t.get((e, a)) == want(e, a) for a in el))
    right = tuple(e for e in el if all(t.get((a, e)) == want(e, a) for a in el))
    return left, right, tuple(e for e in left if e in right)


def split_labels(text: str, labels, count: int):
    """Split ``text`` into ``count`` comma-joined labels (labels may hold commas)."""
    if count == 0:
        return () if text == "" else None
    for lab in labels:
        if text.startswith(lab):
            rest = text[len(lab):]
            if count == 1:
                if rest == "":
                    return (lab,)
            elif rest.startswith(","):
                tail = split_labels(rest[1:], labels, count - 1)
                if tail is not None:
                    return (lab,) + tail
    return None


def witness_elements(axiom: str, body: str, labels):
    """The three labels of a rendered witness, or None if it does not parse."""
    if axiom in POLAR:
        inner = body.rsplit(" via ", 1)[-1]
        return split_labels(inner[1:-1], labels, 3)
    if axiom in PAIR_SHAPED:
        first, _, second = body[1:-1].partition("),(")
        ab, bc = split_labels(first, labels, 2), split_labels(second, labels, 2)
        if ab is None or bc is None or ab[1] != bc[0]:
            return None
        return ab + bc[1:]
    return split_labels(body[1:body.find(")")], labels, 3)


def check_report(api, m, stdout: str, expect=None) -> "str | None":
    """Oracle for the seven-line ``classify`` report of structure ``m``.

    Every failing verdict's witness must replay on ``m``, the flags must
    respect the class inclusions, the identity and zero lists must equal a
    direct recomputation, and each flag must equal ``expect``'s entry where
    that entry is not None.
    """
    lines = stdout.splitlines()
    match = CLASS_LINE.fullmatch(lines[0]) if len(lines) == 7 else None
    if match is None:
        return f"unreadable report: {stdout[:80]!r}"
    labels = sorted(m.elements, key=len, reverse=True)
    flags = []
    for name, value in zip(FLAGS, match.groups()):
        flags.append(value == "yes")
        if value == "yes":
            continue
        if not (value.startswith("no[witness: ") and value.endswith("]")):
            return f"{name} verdict unreadable: {value}"
        axiom, _, body = value[len("no[witness: "):-1].partition(" ")
        elems = witness_elements(axiom, body, labels)
        if elems is None:
            return f"{name} witness unreadable: {value}"
        if not api.replay_witness(m, api.Witness(axiom, elems)):
            return f"{name} witness does not replay: {value}"
    L, S, R, P, T = flags
    if (R and not S) or (S and not (L and P)) or (T and L and not P):
        return f"flags {pattern(flags)} break the class inclusions"
    if expect is not None and any(e is not None and e != f for e, f in zip(expect, flags)):
        return f"flags {pattern(flags)}, expected {pattern(expect)}"
    lists = sided(m, lambda e, a: a) + sided(m, lambda e, a: e)
    names = ("left_identities", "right_identities", "identities",
             "left_zeros", "right_zeros", "zeros")
    for line, name, want in zip(lines[1:], names, lists):
        head, _, got = line.partition(": ")
        if head != name or tuple(got.split()) != want:
            return f"{name} is {got!r}, expected {' '.join(want)!r}"
    return None


def completion_of(api, m, zero: str = "0"):
    """The zero-completion of ``m``, built directly from its table."""
    el = m.elements + (zero,)
    return api.FinitePartialMagma(el, {(a, b): m.table.get((a, b), zero) for a in el for b in el})


def first_non_associative(m):
    t = m.table
    for x in m.elements:
        for y in m.elements:
            for z in m.elements:
                if t[(t[(x, y)], z)] != t[(x, t[(y, z)])]:
                    return x, y, z
    return None


# ---------------------------------------------------------------------------
# census_n3

SAMPLE_CHUNKS = 30
SAMPLE_TABLES = 4000
UNSAT = "refined=yes,strong=no"
SAT_PATTERNS = (
    "locality=yes,refined=yes,transitive=no",
    "partial=yes,locality=no,transitive=no",
    "strong=yes,transitive=no",
    "locality=yes,partial=no",
    "transitive=yes,partial=no",
    "refined=yes",
)
CENSUS_TOTAL = 262144
CLASS_TOTALS = {"locality": 7006, "strong": 1825, "refined": 277,
                "partial": 3636, "transitive": 53191}
DEDUP_TOTAL = 43968


def parse_census(stdout: str) -> tuple[str, dict[str, tuple[int, int]], int]:
    """(header line, {pattern: (count, witness code)}, printed total)."""
    lines = stdout.splitlines()
    rows = {}
    total = -1
    for line in lines[1:]:
        if line.startswith("pattern="):
            p, c, w = (part.split("=", 1)[1] for part in line.split())
            rows[p] = (int(c), int(w))
        elif line.startswith("total"):
            total = int(line.split()[1])
    return (lines[0] if lines else ""), rows, total


class CensusN3(Workload):
    name = "census_n3"
    jobs = (1, 2)
    min_passes = 2

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        rng = random.Random(seed)
        self.sample_seeds = [rng.randrange(1 << 31) for _ in range(SAMPLE_CHUNKS)]
        self.order = rng.randrange(1 << 30)

    def ops(self, outputs) -> Iterator[Op]:
        ops = list(self._ops())
        random.Random(self.order).shuffle(ops)
        yield from ops

    def _ops(self) -> Iterator[Op]:
        api = self.api
        yield Op("scan", "scan_flags(3)",
                 lambda: Counter(flags for _, flags in api.scan_flags(3)), self._check_scan)
        for name, extra in (("census-raw-j1", ["--jobs", "1"]), ("census-raw-j2", ["--jobs", "2"]),
                            ("census-dedup", ["--jobs", "1", "--dedup"])):
            yield Op(name, name, cli_op(api, ["enumerate", "census", "--size", "3"] + extra),
                     partial(self._check_census, dedup="--dedup" in extra),
                     parallel=extra[1] != "1")
        yield Op("find-unsat", "find-unsat",
                 cli_op(api, ["enumerate", "find", "--size", "3", "--flags", UNSAT]),
                 lambda out: None if out == (1, "not found\n", "") else f"got {out!r}")
        for flags in SAT_PATTERNS:
            yield Op(f"find {flags}", "find-sat",
                     cli_op(api, ["enumerate", "find", "--size", "3", "--flags", flags]),
                     partial(self._check_find, flags))
        for i, seed in enumerate(self.sample_seeds):
            argv = ["enumerate", "census", "--size", "4", "--sample", str(SAMPLE_TABLES),
                    "--seed", str(seed), "--jobs", "1"]
            yield Op(f"sample4-{i}", "sample4", cli_op(api, argv), partial(self._check_sample, seed))

    def _witness_pattern(self, n: int, code: int) -> str:
        return pattern(self.api.classify(self.api.decode_magma(n, code)).flags())

    def _check_scan(self, tally) -> "str | None":
        if sum(tally.values()) != CENSUS_TOTAL:
            return f"scanned {sum(tally.values())} tables"
        for i, name in enumerate(FLAGS):
            got = sum(c for flags, c in tally.items() if flags[i])
            if got != CLASS_TOTALS[name]:
                return f"{name} total {got}, expected {CLASS_TOTALS[name]}"
        return None

    def _check_census(self, out, dedup: bool) -> "str | None":
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        header, rows, total = parse_census(stdout)
        want_header = f"census size=3 mode={'dedup' if dedup else 'raw'}"
        if header != want_header or total != sum(c for c, _ in rows.values()):
            return f"header {header!r}, total {total}"
        if dedup:
            if total != DEDUP_TOTAL:
                return f"dedup total {total}, expected {DEDUP_TOTAL}"
        else:
            if total != CENSUS_TOTAL:
                return f"raw total {total}, expected {CENSUS_TOTAL}"
            for i, name in enumerate(FLAGS):
                got = sum(c for p, (c, _) in rows.items() if p[i] != "-")
                if got != CLASS_TOTALS[name]:
                    return f"{name} total {got}, expected {CLASS_TOTALS[name]}"
        for p, (_, w) in rows.items():
            if self._witness_pattern(3, w) != p:
                return f"witness {w} of {p} classifies as {self._witness_pattern(3, w)}"
        return None

    def _check_find(self, flags: str, out) -> "str | None":
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        m = self.api.parse_magma(stdout)
        got = dict(zip(FLAGS, self.api.classify(m).flags()))
        wrong = [k for k, v in (kv.split("=") for kv in flags.split(",")) if got[k] != (v == "yes")]
        return f"result breaks {wrong}" if wrong or len(m.elements) != 3 else None

    def _check_sample(self, seed: int, out) -> "str | None":
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        header, rows, total = parse_census(stdout)
        if header != f"sampled census size=4 count={SAMPLE_TABLES} seed={seed}":
            return f"header {header!r}"
        if total != SAMPLE_TABLES or sum(c for c, _ in rows.values()) != total:
            return f"sample total {total}"
        for p, (_, w) in rows.items():
            if self._witness_pattern(4, w) != p:
                return f"witness {w} of {p} classifies as {self._witness_pattern(4, w)}"
        return None

    def finish(self, outputs) -> list[str]:
        errors = []
        j1, j2, scan = (outputs.get(k) for k in ("census-raw-j1", "census-raw-j2", "scan"))
        if j1 is not None and j2 is not None and j1 != j2:
            errors.append("census --jobs 2 output differs from --jobs 1")
        if j1 is not None and scan is not None:
            rows = parse_census(j1[1])[1]
            if {pattern(f): c for f, c in scan.items()} != {p: c for p, (c, _) in rows.items()}:
                errors.append("scan_flags tally differs from the census rows")
        return errors

    def info(self, times: dict[str, list[float]]) -> dict:
        med = lambda k: statistics.median(times[k]) if times.get(k) else None
        sample_s = sum(times.get("sample4", []))
        return {
            "census_raw_s": med("census-raw-j1"),
            "census_jobs2_s": med("census-raw-j2"),
            "census_dedup_s": med("census-dedup"),
            "find_unsat_s": med("find-unsat"),
            "sample4_tables_per_s":
                SAMPLE_TABLES * len(times.get("sample4", [])) / sample_s if sample_s else None,
        }


# ---------------------------------------------------------------------------
# classify_files

PATH_SIZES = (8, 12, 18, 24, 32, 40, 50, 60)
COMPLETION_OF = (12, 24, 40)
RANDOM_SIZES = (3, 6, 12, 24, 48, 60)
DENSITIES = (0.1, 0.4, 0.7, 0.95)
COMPLETE_OPS = ("path-18", "path-40", "random-6-0.7", "random-24-0.7")
FREE_EXT_OF = (12, 32)
# Where the first witness lies, and so what classify costs, depends on the
# structure: quiver shapes and random tables are fixed per size (and
# density), and the run's seed picks their labels.  Random tables keep
# their label order, so that every seed meets the same early exits.
SHAPE_SEED = 1000
POWERSET_FLAGS = (True, True, False, True, True)
# Classes of the bundled examples: the flags the test suite pins, completed
# from the reports of the library the benchmark was written against.
FIXTURE_FLAGS = {
    "ex3_6": (True, False, False, True, False),
    "ex3_8": (True, False, False, False, False),
    "ex3_psg_not_lsg": (False, False, False, True, True),
    "ex4_3": (True, True, False, True, True),
    "ex2_5_powerset": (True, True, False, True, True),
}


def random_quiver(api, shape_rng: random.Random, label_rng: random.Random, paths: int):
    """An acyclic quiver with exactly ``paths`` paths, trivial ones included.

    ``shape_rng`` draws the shape: arrows run from lower to higher vertex
    index, random arrows are kept while the path count stays within the
    target, and isolated vertices (one trivial path each) make up any
    remainder.  ``label_rng`` names the vertices and arrows.  A path
    semigroup's classify cost depends on its shape, which is why callers
    fix the shape per size and let the run's seed pick only the labels.
    """
    nv = max(2, paths // 3)
    arrows: list[tuple[int, int]] = []

    def count(arrs) -> int:
        succ: dict[int, list[int]] = {}
        for s, t in arrs:
            succ.setdefault(s, []).append(t)
        start = [1] * nv
        for v in reversed(range(nv)):
            start[v] += sum(start[w] for w in succ.get(v, ()))
        return sum(start)

    total = nv
    for _ in range(400):
        if total == paths:
            break
        s = shape_rng.randrange(nv - 1)
        cand = arrows + [(s, shape_rng.randrange(s + 1, nv))]
        c = count(cand)
        if c <= paths:
            arrows, total = cand, c
    vnames = [f"v{i}" for i in label_rng.sample(range(1000), nv + paths - total)]
    anames = [f"a{i}" for i in label_rng.sample(range(1000), len(arrows))]
    return api.Quiver(tuple(vnames),
                      tuple((anames[k], vnames[s], vnames[t]) for k, (s, t) in enumerate(arrows)))


class ClassifyFiles(Workload):
    name = "classify_files"
    min_passes = 8

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, tuple[str, object, object]] = {}  # name -> (path, magma, expected flags)
        self.quivers = {}
        for n in PATH_SIZES:
            q = random_quiver(api, random.Random(SHAPE_SEED + n), rng, n)
            m, boundary = api.materialize_path_magma(q, q.longest_path_length())
            if boundary or len(m.elements) != n:
                raise ValueError(f"path magma of size {len(m.elements)}, boundary {len(boundary)}")
            name = f"path-{n}"
            self.quivers[name] = (write(workdir / f"{name}.quiver", api.serialize_quiver(q)), q)
            self.files[name] = (write(workdir / f"{name}.magma", api.serialize_magma(m)), m,
                                (True, True, True, True, None))
            if n in COMPLETION_OF:
                total = api.complete_to_semigroup_with_zero(m, "0").magma
                self.files[f"completion-{n}"] = (
                    write(workdir / f"completion-{n}.magma", api.serialize_magma(total)),
                    total, (True,) * 5)
        prefix = rng.choice("kmpqxyz")
        for n in RANDOM_SIZES:
            labels = tuple(f"{prefix}{i:02d}" for i in range(n))
            for d in DENSITIES:
                content = random.Random(SHAPE_SEED + 100 * n + round(100 * d))
                table = {(a, b): content.choice(labels) for a in labels for b in labels
                         if content.random() < d}
                m = api.FinitePartialMagma(labels, table)
                name = f"random-{n}-{d}"
                self.files[name] = (write(workdir / f"{name}.magma", api.serialize_magma(m)), m, None)
        for name in api.fixture_names():
            if api.fixture_kind(name) == "magma":
                text = api.fixture_text(name)
                self.files[name] = (write(workdir / f"{name}.magma", text), api.parse_magma(text),
                                    FIXTURE_FLAGS.get(name))
        self.powersets = {op: api.powerset_magma({1, 2, 3, 4}, op) for op in ("union", "intersection")}
        self.order = rng.randrange(1 << 30)

    def ops(self, outputs) -> Iterator[Op]:
        api = self.api
        ops = []
        for name, (path, m, expect) in self.files.items():
            ops.append(Op(f"classify {name}", f"classify {name}", cli_op(api, ["classify", path]),
                          partial(self._check_classify, m, expect)))
        for op, m in self.powersets.items():
            ops.append(Op(f"powerset {op}", "builtin powerset",
                          cli_op(api, ["builtin", "powerset", "--size", "4", "--op", op]),
                          partial(self._check_classify, m, POWERSET_FLAGS)))
        for name in COMPLETE_OPS:
            path, m, _ = self.files[name]
            ops.append(Op(f"complete {name}", "complete", cli_op(api, ["complete", path]),
                          partial(self._check_complete, m, name.startswith("path-"))))
        for n in FREE_EXT_OF:
            qpath, q = self.quivers[f"path-{n}"]
            mapping = ",".join(f"{a}={a}" for a, _, _ in q.arrows)
            argv = ["quiver", "free-ext", qpath, "--target", self.files[f"path-{n}"][0],
                    "--map", mapping, "--max-len", str(q.longest_path_length())]
            ops.append(Op(f"free-ext path-{n}", "free-ext", cli_op(api, argv),
                          partial(self._check_free_ext, q)))
        random.Random(self.order).shuffle(ops)
        yield from ops

    def _check_classify(self, m, expect, out) -> "str | None":
        code, stdout, _ = out
        return f"exit {code}" if code != 0 else check_report(self.api, m, stdout, expect)

    def _check_complete(self, m, refined: bool, out) -> "str | None":
        code, stdout, _ = out
        want = completion_of(self.api, m)
        if code == 1 and not refined and stdout.startswith("NOT-ASSOCIATIVE ("):
            triple = stdout[len("NOT-ASSOCIATIVE ("):stdout.index(")")].split(",")
            x, y, z = triple
            t = want.table
            ok = t[(t[(x, y)], z)] != t[(x, t[(y, z)])] and triple == list(first_non_associative(want))
            return None if ok else f"reported triple {triple} is not the first failing one"
        if code != 0:
            return f"exit {code}: {stdout[:80]!r}"
        got = self.api.parse_semigroup_with_zero(stdout)
        if got.zero != "0" or got.magma != want:
            return "completion differs from the zero-completion of the input"
        if not refined and first_non_associative(want) is not None:
            return "completed a table whose zero-completion is not associative"
        return None

    def _check_free_ext(self, q, out) -> "str | None":
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        lines = stdout.splitlines()
        nonempty = [p for p in q.paths_upto(q.longest_path_length()) if p.length > 0]
        if lines[-1:] != ["free_property=yes"] or len(lines) != len(nonempty) + 1:
            return f"{len(lines)} lines, last {lines[-1:]}"
        for line in lines[:-1]:
            _, path, _, value = line.split()
            if path != value:
                return f"identity extension maps {path} to {value}"
        return None


# ---------------------------------------------------------------------------
# adjoin_n3

CLI_SAMPLE = 7
# Seed output of the adjunction sweep over the 7,006 locality structures of
# size 3: class -> (preserved, broken) among structures in the class before.
ADJOIN_TALLY = {
    "identity": {"locality": (7006, 0), "strong": (113, 1712), "refined": (113, 164),
                 "partial": (2880, 0), "transitive": (113, 1160)},
    "zero": {"locality": (7006, 0), "strong": (1825, 0), "refined": (113, 164),
             "partial": (2880, 0), "transitive": (113, 1160)},
}
REFINED_N3 = 277


class AdjoinN3(Workload):
    name = "adjoin_n3"

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        self.seed = seed
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.cli_files = []  # (path, expected stdout with identity e, with zero z)
        space = api.search_space_size(3)
        while len(self.cli_files) < CLI_SAMPLE:
            m = api.decode_magma(3, rng.randrange(space))
            if not api.is_locality_semigroup(m):
                continue
            with_e, with_z = dict(m.table), dict(m.table)
            for a in m.elements + ("e",):
                with_e[("e", a)] = with_e[(a, "e")] = a
            for a in m.elements + ("z",):
                with_z[("z", a)] = with_z[(a, "z")] = "z"
            el = m.elements
            self.cli_files.append((
                write(workdir / f"loc-{len(self.cli_files)}.magma", api.serialize_magma(m)),
                api.serialize_magma(api.FinitePartialMagma(el + ("e",), with_e)),
                api.serialize_magma(api.FinitePartialMagma(el + ("z",), with_z))))

    def ops(self, outputs) -> Iterator[Op]:
        api = self.api

        def scan():
            total, kept = 0, []
            for code, flags in api.scan_flags(3):
                total += 1
                if flags[0]:
                    kept.append((code, flags))
            return total, kept

        yield Op("scan", "scan_flags(3)", scan, self._check_scan)
        kept = list(outputs["scan"][1]) if outputs.get("scan") else []
        random.Random(self.seed).shuffle(kept)
        for code, before in kept:
            yield Op(f"structure {code}", "structure", partial(self._adjoin, code, before[2]),
                     self._check_structure, keep=self._digest)
        for i, (path, with_e, with_z) in enumerate(self.cli_files):
            yield Op(f"cli adjoin identity {i}", "cli adjoin",
                     cli_op(api, ["adjoin", path, "--identity", "e"]),
                     lambda out, want=with_e: None if out == (0, want, "") else f"got {out!r}")
            yield Op(f"cli adjoin zero {i}", "cli adjoin",
                     cli_op(api, ["adjoin", path, "--zero", "z"]),
                     lambda out, want=with_z: None if out == (0, want, "") else f"got {out!r}")

    def _adjoin(self, code: int, refined: bool):
        api = self.api
        m = api.decode_magma(3, code)
        with_e, with_z = api.adjoin_identity(m, "e"), api.adjoin_zero(m, "z")
        strong_zero = None
        rep_e, rep_z = api.classify(with_e), api.classify(with_z)
        if refined:
            strong_zero = api.is_strong_semigroup_with_zero(api.complete_to_semigroup_with_zero(m))
        return code, m, with_e, with_z, rep_e, rep_z, strong_zero

    @staticmethod
    def _digest(out):
        """Flags and rendered reports: enough for the tally and the traced comparison.

        Keeping the structures themselves for a whole pass would leave the
        garbage collector 200,000 more objects to walk inside the ops.
        """
        code, _, _, _, rep_e, rep_z, strong_zero = out
        return (code, rep_e.flags(), rep_z.flags(), rep_e.render(), rep_z.render(),
                None if strong_zero is None else strong_zero.ok)

    def _check_scan(self, out) -> "str | None":
        total, kept = out
        if total != CENSUS_TOTAL or len(kept) != CLASS_TOTALS["locality"]:
            return f"scanned {total} tables, kept {len(kept)}"
        return None

    def _check_structure(self, out) -> "str | None":
        code, m, with_e, with_z, rep_e, rep_z, strong_zero = out
        if self.api.encode_magma(m) != code:
            return "decode_magma does not invert encode_magma"
        if "e" not in rep_e.identities or "z" not in rep_z.zeros:
            return "adjoined element missing from the identity or zero list"
        for adj, rep in ((with_e, rep_e), (with_z, rep_z)):
            if not rep.locality:
                return "adjunction broke locality"
            for v in (rep.locality, rep.strong, rep.refined, rep.partial, rep.transitive):
                if not v and not self.api.replay_witness(adj, v.witness):
                    return f"witness {v.witness} does not replay"
        return None

    def finish(self, outputs) -> list[str]:
        scan = outputs.get("scan")
        if scan is None:
            return []
        before = dict(scan[1])
        tally = {kind: {n: [0, 0] for n in FLAGS} for kind in ADJOIN_TALLY}
        strong_zero = 0
        for name, out in outputs.items():
            if not name.startswith("structure ") or out is None:
                continue
            code, flags_e, flags_z, _, _, sz = out
            for kind, flags in (("identity", flags_e), ("zero", flags_z)):
                for i, (flag, after) in enumerate(zip(before[code], flags)):
                    if flag:
                        tally[kind][FLAGS[i]][0 if after else 1] += 1
            strong_zero += bool(sz)
        errors = []
        got = {k: {n: tuple(v) for n, v in d.items()} for k, d in tally.items()}
        if got != ADJOIN_TALLY:
            errors.append(f"adjunction tally {got} differs from the reference")
        if strong_zero != REFINED_N3:
            errors.append(f"{strong_zero} refined completions are strong with zero, expected {REFINED_N3}")
        return errors


# ---------------------------------------------------------------------------
# bounded_scan

# Op counts are chosen so that, sorted by cost, the ops at the median and at
# p75 of a pass are the two coprime ops (with and without --check strong,
# equal cost) at one bound: those percentiles then sit inside a cluster of
# like ops instead of on the gap between two bounds.
BOUNDS = (30, 40, 50, 60, 70)
WITH_ZERO_AT = (30, 60)
NATURAL_AT = (40,)
TOTIENT_OPS = 6
SLICE_OPS = 5
COPRIME_WITNESS = "(2,3),(3,4)"


def coprime_report(bound: int) -> str:
    return (f"CLASS bound={bound} locality=yes strong=no[witness: strong-left {COPRIME_WITNESS}] "
            f"refined=no[witness: refined-left {COPRIME_WITNESS}] partial=yes "
            f"transitive=no[witness: transitivity {COPRIME_WITNESS}] identities=1 zeros=")


def with_zero_report(bound: int) -> str:
    return (f"CLASS bound={bound} locality=yes strong=no[witness: strong-left {COPRIME_WITNESS}] "
            f"refined=no[witness: refined-left (0,2),(2,4)] partial=yes "
            f"transitive=no[witness: transitivity {COPRIME_WITNESS}] identities=1 zeros=0")


def natural_report(bound: int) -> str:
    return (f"CLASS bound={bound} locality=yes strong=yes refined=yes partial=yes "
            f"transitive=yes identities=1 zeros=")


class BoundedScan(Workload):
    name = "bounded_scan"
    min_passes = 2

    def __init__(self, api, seed: int, workdir: Path):
        self.api = api
        rng = random.Random(seed)
        self.totient_bounds = [rng.randint(BOUNDS[0], BOUNDS[-1]) for _ in range(TOTIENT_OPS)]
        self.slice_bounds = [rng.randint(BOUNDS[0], BOUNDS[-1]) for _ in range(SLICE_OPS)]
        self.order = rng.randrange(1 << 30)

    def ops(self, outputs) -> Iterator[Op]:
        api = self.api
        ops = []
        for b in BOUNDS:
            full = coprime_report(b) + "\nleft_identities: 1\nright_identities: 1\nidentities: 1\n" \
                "left_zeros: \nright_zeros: \nzeros: \n"
            ops.append(Op(f"coprime {b}", "builtin coprime",
                          cli_op(api, ["builtin", "coprime", "--bound", str(b)]),
                          lambda out, want=full: None if out == (0, want, "") else f"got {out!r}"))
            strong = f"strong=no[witness: strong-left {COPRIME_WITNESS}] within bound {b}\n"
            ops.append(Op(f"coprime {b} --check strong", "builtin coprime --check strong",
                          cli_op(api, ["builtin", "coprime", "--bound", str(b), "--check", "strong"]),
                          lambda out, want=strong: None if out == (1, want, "") else f"got {out!r}"))
        for b in WITH_ZERO_AT:
            ops.append(Op(f"sampled coprime_with_zero {b}", "sampled_classify",
                          lambda b=b: api.sampled_classify(api.coprime_with_zero(), b),
                          partial(self._check_report, with_zero_report(b))))
        for b in NATURAL_AT:
            ops.append(Op(f"sampled natural {b}", "sampled_classify",
                          lambda b=b: api.sampled_classify(api.natural_multiplication(), b),
                          partial(self._check_report, natural_report(b))))
        for i, b in enumerate(self.totient_bounds):
            ops.append(Op(f"totient {i}", "builtin totient",
                          cli_op(api, ["builtin", "totient", "--bound", str(b)]),
                          lambda out, b=b: None if out == (0, f"totient_hom=yes bound={b}\n", "")
                          else f"got {out!r}"))
        for i, b in enumerate(self.slice_bounds):
            ops.append(Op(f"bounded_magma {i}", "bounded_magma",
                          lambda b=b: self._slice(b), partial(self._check_slice, b)))
        random.Random(self.order).shuffle(ops)
        yield from ops

    def _slice(self, bound: int):
        m = self.api.bounded_magma(self.api.coprime_magma(), bound)
        return m, len(m.escapes)

    def _check_report(self, want: str, report) -> "str | None":
        return None if report.render() == want else f"got {report.render()!r}"

    def _check_slice(self, bound: int, out) -> "str | None":
        m, escapes = out
        pairs = [(a, b) for a in range(1, bound + 1) for b in range(1, bound + 1)
                 if math.gcd(a, b) == 1]
        kept = {(str(a), str(b)): str(a * b) for a, b in pairs if a * b <= bound}
        if m.table != kept or escapes != len(pairs) - len(kept):
            return f"slice has {len(m.table)} products and {escapes} escapes"
        return None


WORKLOADS = {w.name: w for w in (CensusN3, ClassifyFiles, AdjoinN3, BoundedScan)}
