"""Workspace files: the JSON surface for fans, named divisors, and queries.

A workspace parses to a validated fan plus named divisors. Divisor vectors
always list the coefficients of sum a_rho * F_rho in ray order; the
sign_convention tag records how piecewise-linear values are reported
("paper": psi(u_rho) = +a_rho, "internal": psi(u_rho) = -a_rho) and is
stamped on every report. Unknown fields are rejected.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple

from .divisor import ToricDivisor
from .errors import InvalidFan, WorkspaceError
from .fan import Fan

SCHEMA = "toricpos-workspace/1"
CONVENTIONS = ("paper", "internal")

_FAN_FIELDS = {"lattice_rank", "rays", "max_cones", "complete"}
_TOP_FIELDS = {"schema", "name", "sign_convention", "fan", "divisors", "queries"}
_QUERY_FIELDS = {"name", "command", "divisor", "q", "cone", "args"}


class Workspace(NamedTuple):
    name: str
    sign_convention: str
    fan: Fan
    divisors: dict
    queries: tuple = ()

    def divisor(self, expression: str) -> ToricDivisor:
        return parse_divisor_expression(self, expression)


def _require_fields(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise WorkspaceError(f"unknown field(s) {sorted(unknown)} in {where}")


def _integers(values, what: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple; a float, a string or a bool in it
    is refused, as int() would round or parse it."""
    if not isinstance(values, list) or not all(type(x) is int for x in values):
        raise WorkspaceError(f"malformed fan block: {what} must be a list of integers, got {values!r}")
    return tuple(values)


def parse_workspace(text: str) -> Workspace:
    """Parse and validate a workspace. A complete fan is checked by its walls
    with no LP (see ``fan``), so parsing a fan again is cheap."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise WorkspaceError("workspace must be a JSON object")
    _require_fields(data, _TOP_FIELDS, "workspace")
    if data.get("schema") != SCHEMA:
        raise WorkspaceError(f"schema must be {SCHEMA!r}, got {data.get('schema')!r}")
    convention = data.get("sign_convention", "internal")
    if convention not in CONVENTIONS:
        raise WorkspaceError(f"sign_convention must be one of {CONVENTIONS}")
    fan_block = data.get("fan")
    if not isinstance(fan_block, dict):
        raise WorkspaceError("missing fan block")
    _require_fields(fan_block, _FAN_FIELDS, "fan")
    for key in ("lattice_rank", "rays", "max_cones"):
        if key not in fan_block:
            raise WorkspaceError(f"fan block needs field {key!r}")
    complete = fan_block.get("complete", False)
    if not isinstance(complete, bool):
        raise WorkspaceError(f"malformed fan block: complete must be true or false, got {complete!r}")
    rank, rays, cones = (fan_block[key] for key in ("lattice_rank", "rays", "max_cones"))
    if type(rank) is not int:
        raise WorkspaceError(f"malformed fan block: lattice_rank must be an integer, got {rank!r}")
    if not isinstance(rays, list) or not isinstance(cones, list):
        raise WorkspaceError("malformed fan block: rays and max_cones must be lists")
    rays = tuple(_integers(r, "a ray") for r in rays)
    max_cones = tuple(_integers(c, "a maximal cone") for c in cones)
    try:
        fan = Fan(rank=rank, rays=rays, max_cones=max_cones, name=str(data.get("name", "")))
        if complete and fan.incompleteness:
            raise InvalidFan(fan.incompleteness)
    except InvalidFan as exc:
        raise WorkspaceError(f"fan validation failed: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise WorkspaceError(f"malformed fan block: {exc}") from exc
    divisors = {}
    raw_divisors = data.get("divisors", {})
    if not isinstance(raw_divisors, dict):
        raise WorkspaceError("divisors must map names to coefficient vectors")
    for name, vec in raw_divisors.items():
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise WorkspaceError(f"divisor name {name!r} is not an identifier")
        if not isinstance(vec, list) or len(vec) != fan.n_rays:
            raise WorkspaceError(
                f"divisor {name!r} needs {fan.n_rays} coefficients, got "
                f"{len(vec) if isinstance(vec, list) else type(vec).__name__}"
            )
        try:
            coeffs = tuple(Fraction(str(x)) for x in vec)
        except (ValueError, ZeroDivisionError) as exc:
            raise WorkspaceError(f"divisor {name!r}: bad coefficient ({exc})") from exc
        divisors[name] = ToricDivisor(fan, coeffs)
    queries = data.get("queries", [])
    if not isinstance(queries, list):
        raise WorkspaceError("queries must be a list")
    for q in queries:
        if not isinstance(q, dict):
            raise WorkspaceError("each query must be an object")
        _require_fields(q, _QUERY_FIELDS, f"query {q.get('name', '?')!r}")
    return Workspace(
        name=str(data.get("name", "")),
        sign_convention=convention,
        fan=fan,
        divisors=divisors,
        queries=tuple(json.dumps(q, sort_keys=True) for q in queries),
    )


def serialize_workspace(ws: Workspace) -> str:
    def coeff(c: Fraction):
        return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    data = {
        "schema": SCHEMA,
        "name": ws.name,
        "sign_convention": ws.sign_convention,
        "fan": {
            "lattice_rank": ws.fan.rank,
            "rays": [list(r) for r in ws.fan.rays],
            "max_cones": [list(c) for c in ws.fan.max_cones],
            "complete": ws.fan.incompleteness is None,
        },
        "divisors": {
            name: [coeff(c) for c in d.coeffs] for name, d in sorted(ws.divisors.items())
        },
        "queries": [json.loads(q) for q in ws.queries],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)?\s*"
)


def parse_divisor_expression(ws: Workspace, expression: str) -> ToricDivisor:
    """Linear combinations of named divisors: 'L', '-4H', 'F1+F2-2F3', '1/2H'."""
    text = expression.strip()
    if not text:
        raise WorkspaceError("empty divisor expression")
    total = ToricDivisor(ws.fan, (Fraction(0),) * ws.fan.n_rays)
    pos = 0
    seen_term = False
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise WorkspaceError(f"cannot parse divisor expression at {text[pos:]!r}")
        sign, coeff, name = match.group("sign"), match.group("coeff"), match.group("name")
        if name is None:
            raise WorkspaceError(f"term without a divisor name in {expression!r}")
        if name not in ws.divisors:
            raise WorkspaceError(
                f"unknown divisor {name!r}; workspace has {sorted(ws.divisors)}"
            )
        if seen_term and sign is None:
            raise WorkspaceError(f"missing +/- between terms in {expression!r}")
        try:
            k = Fraction(coeff) if coeff else Fraction(1)
        except ZeroDivisionError as exc:
            raise WorkspaceError(f"coefficient {coeff!r} in {expression!r} has denominator 0") from exc
        if sign == "-":
            k = -k
        total = total + k * ws.divisors[name]
        seen_term = True
        pos = match.end()
    return total


# ---------------------------------------------------------------------------
# built-in example workspaces
# ---------------------------------------------------------------------------


def _builtin(name, convention, rank, rays, cones, divisors):
    return {
        "schema": SCHEMA,
        "name": name,
        "sign_convention": convention,
        "fan": {
            "lattice_rank": rank,
            "rays": rays,
            "max_cones": cones,
            "complete": True,
        },
        "divisors": divisors,
        "queries": [],
    }


BUILTIN_WORKSPACES = {
    "p1": _builtin(
        "p1", "paper", 1,
        [[1], [-1]], [[0], [1]],
        {"F1": [1, 0], "F2": [0, 1], "H": [1, 1]},
    ),
    "p2": _builtin(
        "p2", "paper", 2,
        [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]],
        {"F1": [1, 0, 0], "F2": [0, 1, 0], "F3": [0, 0, 1], "H": [1, 0, 0]},
    ),
    "p1xp1": _builtin(
        "p1xp1", "paper", 2,
        [[1, 0], [0, 1], [-1, 0], [0, -1]],
        [[0, 1], [1, 2], [2, 3], [0, 3]],
        {
            "F1": [1, 0, 0, 0], "F2": [0, 1, 0, 0],
            "F3": [0, 0, 1, 0], "F4": [0, 0, 0, 1],
            "H": [1, 1, 1, 1],
        },
    ),
    # Totaro's smooth toric Fano 3-fold P(O + O(1,-1)) over P1 x P1. The
    # literature prints maximal cones (134),(136),(145),(146),(234),(236),
    # (245),(246); the triples (146),(246) are degenerate with these rays, so
    # the bundle structure forces (156),(256) instead (machine-checked).
    "totaro-x": _builtin(
        "totaro-x", "paper", 3,
        [[0, 0, -1], [0, 0, 1], [1, 0, 1], [0, 1, -1], [-1, 0, 0], [0, -1, 0]],
        [[0, 2, 3], [0, 2, 5], [0, 3, 4], [0, 4, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [1, 4, 5]],
        {
            "F1": [1, 0, 0, 0, 0, 0], "F2": [0, 1, 0, 0, 0, 0],
            "F3": [0, 0, 1, 0, 0, 0], "F4": [0, 0, 0, 1, 0, 0],
            "F5": [0, 0, 0, 0, 1, 0], "F6": [0, 0, 0, 0, 0, 1],
            "H": [1, 1, 1, 1, 1, 1],
            "L": [3, 3, -1, -1, -1, -1],
        },
    ),
}


def load_workspace(ref: str) -> Workspace:
    """A built-in name or a path to a workspace JSON file."""
    if ref in BUILTIN_WORKSPACES:
        return parse_workspace(json.dumps(BUILTIN_WORKSPACES[ref]))
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise WorkspaceError(
            f"{ref!r} is neither a built-in workspace "
            f"({sorted(BUILTIN_WORKSPACES)}) nor a readable file: {exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"workspace file {ref!r} is not UTF-8 text: {exc}") from exc
    return parse_workspace(text)
