"""Bundled example structures, available by name through the CLI.

Each entry is the text of a magma or quiver file; names are stable API.
"""

from __future__ import annotations

from .errors import DomainError
from .magma import FinitePartialMagma, parse_magma, serialize_magma
from .quiver import Quiver, parse_quiver
from .predicates import powerset_magma

_EX3_6 = """\
# partial addition on {0,1}: defined except on (1,1)
elements: 0 1
op: 0 0 -> 0
op: 0 1 -> 1
op: 1 0 -> 1
"""

_EX3_8 = """\
# same relation as ex3_6 but with products 0*1=0, 1*0=1
elements: 0 1
op: 0 0 -> 0
op: 0 1 -> 0
op: 1 0 -> 1
"""

_EX3_PSG_NOT_LSG = """\
# diagonal relation with b*b escaping the polar of {b}
elements: a b
op: a a -> a
op: b b -> a
"""

_EX4_3 = """\
# strong but not refined: (a,b) related, a*b=a, (b,a) unrelated
elements: a b
op: a a -> a
op: a b -> a
"""

_EX2_17_QUIVER = """\
# two composable arrows: x --alpha--> y --beta--> z
vertices: x y z
arrow: alpha x y
arrow: beta y z
"""

_EX2_5_POWERSET = (
    "# subsets of {1,2} under union, related when left is contained in right\n"
    + serialize_magma(powerset_magma({1, 2}, "union")))

# fixture_names() lists these in this order
_REGISTRY: dict[str, tuple[str, str]] = {
    "ex2_17_quiver": ("quiver", _EX2_17_QUIVER),
    "ex3_6": ("magma", _EX3_6),
    "ex3_8": ("magma", _EX3_8),
    "ex3_psg_not_lsg": ("magma", _EX3_PSG_NOT_LSG),
    "ex4_3": ("magma", _EX4_3),
    "ex2_5_powerset": ("magma", _EX2_5_POWERSET),
}


def fixture_names() -> list[str]:
    return list(_REGISTRY)


def _entry(name: str) -> tuple[str, str]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DomainError(f"unknown fixture {name!r}; names: {', '.join(fixture_names())}")


def fixture_kind(name: str) -> str:
    return _entry(name)[0]


def fixture_text(name: str) -> str:
    return _entry(name)[1]


def fixture_magma(name: str) -> FinitePartialMagma:
    if fixture_kind(name) != "magma":
        raise DomainError(f"fixture {name!r} is not a magma")
    return parse_magma(fixture_text(name))


def fixture_quiver(name: str) -> Quiver:
    if fixture_kind(name) != "quiver":
        raise DomainError(f"fixture {name!r} is not a quiver")
    return parse_quiver(fixture_text(name))
