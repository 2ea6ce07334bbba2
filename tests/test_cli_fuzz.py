"""A seeded fuzz of the command line: mutated workspace files and divisor
strings must end in a report or a JSON error with a documented exit code
(0, 1, 2 or 3), never in an exception that escapes ``main``."""

import copy
import json
import random
from collections import Counter

from toricpos.workspace import BUILTIN_WORKSPACES

from .conftest import run_cli

# what a retyped field becomes: wrong JSON types, and the numbers and
# strings int() and bool() would once round, parse or overflow on
ODD_VALUES = (None, True, False, "10", "no", "", 1.9, 3.7, -1, 0, 2**70, float("inf"),
              [], [1.9, 0], [[]], {}, {"a": 1})
EXPRESSION_CHARS = "FHL0123456789+-*/. ()"


def _paths(node, path=()):
    """The path (a tuple of keys) of every node of a JSON tree, the root's ()
    first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(data, rng):
    """One drop, retype or perturbation at a random place of a workspace, in
    its fan block half the time."""
    paths = list(_paths(data))[1:]
    if rng.random() < 0.5:
        paths = [p for p in paths if p[0] == "fan"]
    path = rng.choice(paths)
    *parent_path, key = path
    parent = data
    for step in parent_path:
        parent = parent[step]
    value, kind = parent[key], rng.choice(("drop", "retype", "perturb"))
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    elif type(value) is int:
        parent[key] = value + rng.choice((-2, -1, 1, 2, 5))
    elif isinstance(value, list) and value:
        parent[key] = value[:-1] if rng.random() < 0.5 else value + [copy.deepcopy(value[-1])]
    else:
        parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return kind


def _expression(rng, names):
    """A divisor expression with a few random edits."""
    text = "".join(rng.choice(("+", "-")) + rng.choice(("", "2", "1/2", "3*")) + rng.choice(names)
                   for _ in range(rng.randint(1, 3))).lstrip("+")
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(EXPRESSION_CHARS) + text[at + rng.randint(0, 1):]
    return text


def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path):
    rng = random.Random(20267)
    codes, kinds = Counter(), Counter()
    path = tmp_path / "fuzzed.json"
    for _ in range(300):
        name = rng.choice(("p1", "p2", "p1xp1"))
        data = copy.deepcopy(BUILTIN_WORKSPACES[name])
        kinds[_mutate(data, rng)] += 1
        path.write_text(json.dumps(data))
        args = ("validate", "-w", str(path))
        if rng.random() < 0.3:
            args = ("classify", "-w", str(path), "-d", "H")
        result = run_cli(*args)
        assert result.exit_code in (0, 1, 2, 3), (data, result)
        json.loads(result.output)
        codes[result.exit_code] += 1
    for _ in range(100):
        name = rng.choice(("p2", "p1xp1", "totaro-x"))
        expression = _expression(rng, sorted(BUILTIN_WORKSPACES[name]["divisors"]))
        command = rng.choice(("classify", "cohomology"))
        result = run_cli(command, "-w", name, "-d", expression)
        assert result.exit_code in (0, 1, 2, 3), (name, expression, result)
        json.loads(result.output)
        codes[result.exit_code] += 1
    assert codes[0] >= 20 and codes[2] >= 20, codes
    assert min(kinds.values()) >= 20, kinds
