"""Directed multigraphs, path enumeration and composition, and the free
extension of arrow maps into refined targets.

A path carries its own source, target and arrow-label sequence, so
composition needs no quiver context.  Trivial paths (one per vertex, length
zero) compose as neutral elements on matching endpoints.  Path labels are
``e_<vertex>`` for trivial paths and the ``*``-joined arrow names otherwise.
``verify_free_property`` and ``quiver free-ext`` share one walk-fold-verify,
and every rule the command applies to its quiver, map and target is applied
here.

Quiver text format, read by ``magma._parse`` under a magma file's rules:

    vertices: x y z
    arrow: alpha x y
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (CapacityError, CompositionUndefined, DomainError,
                     InvariantError, PreconditionError)
from .magma import (OK, FinitePartialMagma, LocalitySet, Verdict, fail, _check_label, _format,
                    _parse, _sorted_labels)
from .checks import _first, _kernel_flags, _refined_violation, is_locality_map

Arrow = tuple[str, str, str]  # (name, source vertex, target vertex)

# paths one walk may build; each walk counts its paths first and raises past this
PATH_CAPACITY = 10 ** 4
# composable path pairs a path table may hold.  The most that a test, a CI
# step or a benchmark op builds is 20,000, for CI's 10,000 paths on 1,000
# chains; the benchmark's path semigroups hold at most 138 (60 paths).  Two
# loops at max-len 12, 67,092,481 pairs, are refused.
PAIR_CAPACITY = 10 ** 6


@dataclass(frozen=True)
class Path:
    """Trivial path at a vertex (no arrows) or a chain of composable arrows."""

    source: str
    target: str
    arrows: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.arrows and self.source != self.target:
            raise DomainError("trivial path must start and end at the same vertex")

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def label(self) -> str:
        return f"e_{self.source}" if not self.arrows else "*".join(self.arrows)


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", _sorted_labels(self.vertices, "vertex"))
        vset = set(self.vertices)
        names = set()
        arrows = []
        for name, s, t in self.arrows:
            _check_label(name)
            if name in names:
                raise DomainError(f"duplicate arrow label {name!r}")
            names.add(name)
            if s not in vset or t not in vset:
                raise DomainError(f"arrow {name}: endpoint not a declared vertex")
            arrows.append((name, s, t))
        object.__setattr__(self, "arrows", tuple(sorted(arrows)))
        object.__setattr__(self, "_endpoints", {a[0]: (a[1], a[2]) for a in arrows})
        leaving: dict[str, list[Arrow]] = {v: [] for v in self.vertices}  # in self.arrows order
        for arrow in self.arrows:
            leaving[arrow[1]].append(arrow)
        object.__setattr__(self, "_leaving", leaving)

    def source(self, arrow: str) -> str:
        return self._endpoints[arrow][0]

    def target(self, arrow: str) -> str:
        return self._endpoints[arrow][1]

    def trivial_path(self, vertex: str) -> Path:
        if vertex not in self.vertices:
            raise DomainError(f"unknown vertex {vertex!r}")
        return Path(vertex, vertex)

    def path(self, arrow_labels: Iterable[str]) -> Path:
        """Build a nonempty path from arrow labels, validating the chain."""
        labels = tuple(arrow_labels)
        if not labels:
            raise DomainError("use trivial_path for length-zero paths")
        for name in labels:
            if name not in self._endpoints:
                raise DomainError(f"unknown arrow {name!r}")
        for prev, nxt in zip(labels, labels[1:]):
            if self.target(prev) != self.source(nxt):
                raise CompositionUndefined(
                    f"arrows {prev},{nxt} do not chain: "
                    f"{self.target(prev)} != {self.source(nxt)}")
        return Path(self.source(labels[0]), self.target(labels[-1]), labels)

    def _paths_by_length(self) -> Iterator[list[Path]]:
        """Each length's paths, unsorted, from length 0 up to the last nonempty one.

        Length k+1 extends length k in order, each path by the arrows leaving
        its target in ``self.arrows`` order, so tied labels keep one order.
        """
        yield [self.trivial_path(v) for v in self.vertices]
        paths = [Path(s, t, (name,)) for name, s, t in self.arrows]
        while paths:
            yield paths
            paths = [Path(p.source, t, p.arrows + (name,))
                     for p in paths for name, _, t in self._leaving[p.target]]

    def paths_of_length(self, n: int) -> list[Path]:
        """All paths of exactly length n, label-sorted, from the walk of paths_upto(n)."""
        if n < 0:
            raise DomainError("length must be nonnegative")
        return [p for p in self.paths_upto(n) if p.length == n]

    def paths_upto(self, max_len: int) -> list[Path]:
        """All paths up to max_len, by length, each length label-sorted.

        The paths are counted first, per length and end vertex, so more than
        PATH_CAPACITY of them raise before any is built.
        """
        if max_len < 0:
            raise DomainError("max_len must be nonnegative")
        ending = dict.fromkeys(self.vertices, 1)
        total = count = len(self.vertices)
        for _ in range(max_len):
            if total > PATH_CAPACITY or not count:
                break
            longer = dict.fromkeys(self.vertices, 0)
            for _, s, t in self.arrows:
                longer[t] += ending[s]
            ending = longer
            count = sum(ending.values())
            total += count
        if total > PATH_CAPACITY:
            raise CapacityError(f"more than {PATH_CAPACITY} paths up to length {max_len}")
        layers = itertools.islice(self._paths_by_length(), max_len + 1)
        return [p for paths in layers for p in sorted(paths, key=lambda path: path.label)]

    def arrow_locality_set(self) -> LocalitySet:
        """The arrows, related when the first one's target meets the second one's source."""
        rel = frozenset((x, y) for x, _, t in self.arrows for y, _, _ in self._leaving[t])
        return LocalitySet(tuple(a[0] for a in self.arrows), rel)

    def is_acyclic(self) -> bool:
        """True when no oriented cycle exists (multi-edges are irrelevant here)."""
        return self.longest_path_length() is not None

    def longest_path_length(self) -> int | None:
        """Length of the longest path, or None for cyclic quivers.

        One walk in topological order (Kahn), which never takes a vertex on a cycle.
        """
        waiting = dict.fromkeys(self.vertices, 0)  # arrows into v not yet taken
        for _, _, t in self.arrows:
            waiting[t] += 1
        depth = dict.fromkeys(self.vertices, 0)  # longest path ending at v
        # taken grows while it is walked and ends as a topological order
        taken = [v for v in self.vertices if not waiting[v]]
        for v in taken:
            for _, _, w in self._leaving[v]:
                depth[w] = max(depth[w], depth[v] + 1)
                waiting[w] -= 1
                if not waiting[w]:
                    taken.append(w)
        return max(depth.values(), default=0) if len(taken) == len(self.vertices) else None


def compose(p: Path, q: Path) -> Path:
    """Concatenate two paths when the first one ends where the second starts."""
    if p.target != q.source:
        raise CompositionUndefined(
            f"target {p.target} of {p.label} != source {q.source} of {q.label}")
    return Path(p.source, q.target, p.arrows + q.arrows)


def _starting_at(paths: list[Path]) -> dict[str, list[Path]]:
    """The paths grouped by source vertex, each group in the given order.

    Both path walks, ``_composable_pairs`` and ``_free_property``, group their
    paths here, and each names a path by its label, so labels must not collide.
    """
    if len({r.label for r in paths}) != len(paths):
        raise DomainError("path labels collide; rename arrows or vertices")
    starting: dict[str, list[Path]] = {}
    for r in paths:
        starting.setdefault(r.source, []).append(r)
    return starting


def _composable_pairs(q: Quiver, max_len: int):
    """(paths, pairs): the paths up to max_len in paths_upto order, and (p, r)
    for each pair of them where p ends at r's start, in that order.

    Labels must not collide (``_starting_at``).  The pairs are counted from the
    paths starting at each vertex, in O(len(paths)), and more than
    PAIR_CAPACITY of them raise before any is built.
    """
    paths = q.paths_upto(max_len)
    starting = _starting_at(paths)
    count = sum(len(starting.get(p.target, ())) for p in paths)
    if count > PAIR_CAPACITY:
        raise CapacityError(f"{count} composable path pairs up to length {max_len}, "
                            f"more than {PAIR_CAPACITY}")
    return paths, ((p, r) for p in paths for r in starting.get(p.target, ()))


def materialize_path_magma(q: Quiver,
                           max_len: int) -> tuple[FinitePartialMagma, list[tuple[str, str]]]:
    """All paths up to max_len as a finite structure under composition.

    Pairs with matching endpoints whose composite would exceed max_len are
    excluded from the relation and returned as the boundary list; when the
    boundary is empty the structure is the exact path semigroup of the
    quiver.  Class verdicts on truncations with a nonempty boundary are
    advisory only.
    """
    paths, pairs = _composable_pairs(q, max_len)
    table: dict[tuple[str, str], str] = {}
    boundary: list[tuple[str, str]] = []
    for p, r in pairs:
        if p.length + r.length <= max_len:
            table[(p.label, r.label)] = compose(p, r).label
        else:
            boundary.append((p.label, r.label))
    return FinitePartialMagma(tuple(p.label for p in paths), table), sorted(boundary)


def path_boundary(q: Quiver, max_len: int) -> tuple[list[Path], list[tuple[str, str]]]:
    """The paths and the boundary list of materialize_path_magma, without
    building its table; the paths are in paths_upto order."""
    paths, pairs = _composable_pairs(q, max_len)
    return paths, sorted((p.label, r.label) for p, r in pairs if p.length + r.length > max_len)


def _check_arrow_map(q: Quiver, s: FinitePartialMagma, f: Mapping[str, str]) -> None:
    """Raise unless f names only arrows of q, s is refined and f is a locality map.

    A dense s takes its refined verdict from the kernel, as ``classify`` does,
    and runs the refined scan only for the witness; a sparse s runs the scan.
    """
    for name in f:
        if name not in q._endpoints:
            raise DomainError(f"map entry {name + '=' + f[name]!r} names no arrow of the quiver")
    flags, rows = _kernel_flags(s)
    refined = OK if flags and flags[2] else _first(_refined_violation, s, rows)
    if not refined:
        w = refined.witness
        raise PreconditionError(
            f"target is not refined: {w.axiom} at ({','.join(w.elements)})")
    local = is_locality_map(q.arrow_locality_set(), s, f)
    if not local:
        x, y = local.witness.elements
        raise PreconditionError(f"not a locality map: arrows ({x},{y}) land on "
                                f"unrelated pair ({f[x]},{f[y]})")


def free_extension(q: Quiver, s: FinitePartialMagma,
                   f: Mapping[str, str]) -> Callable[[Path], str]:
    """Extend an arrow map into a refined target over all nonempty paths.

    The checks run here, so the library and ``quiver free-ext`` refuse the
    same maps with the same text, in this order: a name in f that is no
    arrow of q (DomainError), a target s that is not refined
    (PreconditionError), an arrow f leaves out or maps outside s's carrier
    (DomainError), and an f that is no locality map on the arrows
    (PreconditionError).

    The extension folds the arrow decomposition left to right; every
    intermediate pair is related because the target is refined and f is a
    locality map on the arrows, which is checked as the fold runs.  Trivial
    paths are outside the extension's domain.
    """
    _check_arrow_map(q, s, f)
    table = s.table

    def fbar(p: Path) -> str:
        if p.length == 0:
            raise DomainError("extension undefined on trivial paths")
        unknown = [a for a in p.arrows if a not in f]
        if unknown:
            raise DomainError(f"path uses arrows outside the map: {unknown}")
        acc = f[p.arrows[0]]
        for name in p.arrows[1:]:
            nxt = f[name]
            if (acc, nxt) not in table:
                raise InvariantError(
                    f"intermediate pair ({acc},{nxt}) unrelated in refined target")
            acc = table[(acc, nxt)]
        return acc

    return fbar


def verify_free_property(q: Quiver, s: FinitePartialMagma, f: Mapping[str, str],
                         max_len: int) -> Verdict:
    """Check the extension behaves as the unique homomorphism up to max_len.

    (a) It restricts to f on the arrows, and (b) it is a locality
    homomorphism on every composable pair (p, r) of nonempty paths whose
    composite stays within max_len, visited in paths_upto order, p before r.
    Then every bracketing of a path P's arrow values gives P's value, so any
    homomorphism agreeing with f on arrows agrees with the extension.  By
    induction on length: a bracketing splits at the top into bracketings of
    P[:i] and P[i:], which give their values, and (b) on (P[:i], P[i:]) says
    these are related and multiply to P's value.

    free_extension's checks run first.  Then the nonempty paths are walked,
    and labels that collide among them raise DomainError, as labels that
    collide among all paths do in ``materialize_path_magma``.
    """
    return _free_property(q, s, f, max_len)[2]


def _free_property(q: Quiver, s: FinitePartialMagma, f: Mapping[str, str], max_len: int):
    """(paths, value, verdict): the nonempty paths up to max_len, in paths_upto order,
    walked and folded once into value, and verify_free_property's verdict on them."""
    fbar = free_extension(q, s, f)
    paths = [p for p in q.paths_upto(max_len) if p.length > 0]
    starting = _starting_at(paths)
    value = {p.arrows: fbar(p) for p in paths}
    for p in paths:
        if p.length == 1 and value[p.arrows] != f[p.arrows[0]]:
            return paths, value, fail("free-arrow-restriction", (p.label,),
                                      f"{value[p.arrows]}!={f[p.arrows[0]]}")
    for p in paths:
        u = value[p.arrows]
        # each group runs in length order, so the first long partner ends it
        for r in starting.get(p.target, ()):
            if p.length + r.length > max_len:
                break
            v = value[r.arrows]
            if (u, v) not in s.table:
                return paths, value, fail("free-hom-relation", (p.label, r.label),
                                          f"({u},{v}) undefined")
            uv, w = s.table[(u, v)], value[p.arrows + r.arrows]
            if uv != w:
                return paths, value, fail("free-hom-product", (p.label, r.label), f"{uv}!={w}")
    return paths, value, OK


_QUIVER = _format({"vertices": "<labels>", "arrow": "name source target"})


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver text format."""
    return _parse(text, _QUIVER, Quiver)


def serialize_quiver(q: Quiver) -> str:
    lines = ["vertices: " + " ".join(q.vertices)]
    for name, s, t in q.arrows:
        lines.append(f"arrow: {name} {s} {t}")
    return "\n".join(lines) + "\n"
