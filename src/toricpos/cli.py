"""Command-line surface: JSON reports over the built-in or user workspaces.

Exit codes: 0 success, 1 expected-verdict mismatch (replicate-paper),
2 input error or an unwritable report, 3 internal consistency failure.
Reports are byte-stable for identical inputs and tool version; wall-clock
timings only appear under --timings and are explicitly excluded from the
stability contract.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import NamedTuple, NoReturn

from . import __version__
from .cohomology import asymptotic_nonvanishing, bad_subsets, cohomology_dims
from .divisor import (
    ToricDivisor,
    class_of,
    is_ample,
    is_linearly_equivalent,
    picard_rank,
    restrict,
)
from .errors import (
    InternalInconsistency,
    NoStabilizationDetected,
    OutputError,
    ToricError,
    UnboundedRegion,
    WorkspaceError,
)
from .positivity import (
    _face_nonempty,
    augmented_base_locus,
    augmented_base_locus_exact,
    base_locus,
    chamber_scan,
    check_mode_agreement,
    classify_cones,
    decide_qample,
    disconnected_section_criterion,
    is_big,
    is_qnef,
    scan_qample,
    smallest_qample,
    stable_base_locus,
)
from .workspace import (
    BUILTIN_WORKSPACES,
    Workspace,
    load_workspace,
    parse_workspace,
    serialize_workspace,
)


def _jsonable(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _ray_names(ws: Workspace, indices):
    return [ws.fan.ray_name(i) for i in indices]


def _report(ws: Workspace, command: str, args: dict, result) -> dict:
    return {
        "tool": "toricpos",
        "version": __version__,
        "command": command,
        "sign_convention": ws.sign_convention,
        "workspace": ws.name,
        "args": args,
        "result": result,
    }


def _locus_json(ws: Workspace, report) -> dict:
    cones = [
        {"rays": _ray_names(ws, t), "orbit_closure_dim": ws.fan.rank - len(t)}
        if t
        else {"rays": [], "orbit_closure_dim": ws.fan.rank, "whole_variety": True}
        for t in report.minimal_cones
    ]
    return {
        "minimal_cones": cones,
        "empty": report.is_empty,
        "whole_variety": report.is_everything,
        "no_sections": report.no_sections,
        "dimension": report.dimension(ws.fan),
        "multiple": report.multiple,
        "horizon": report.horizon,
    }


def _parse_cone(ws: Workspace, text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if part.lower().startswith("f"):
            part = part[1:]
        try:
            idx = int(part) - 1
        except ValueError as exc:
            raise WorkspaceError(f"bad ray name {part!r} in cone spec") from exc
        if idx < 0 or idx >= ws.fan.n_rays:
            raise WorkspaceError(f"ray {part!r} out of range")
        out.append(idx)
    return tuple(sorted(out))


def _fail(code: int, kind: str, message) -> NoReturn:
    _emit(json.dumps({"error": {"kind": kind, "message": str(message)}}, indent=2), code)


def _write(stream, text: str) -> OSError | None:
    """Print text to stream; return the error of a failed write. Nothing
    more can reach that stream then, so it is pointed at devnull, and the
    interpreter's last flush does not raise again (see the note on SIGPIPE in
    the docs of ``signal``)."""
    try:
        print(text, file=stream, flush=True)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


def _emit(text: str, code: int) -> None:
    """Print a report, an error or help to stdout and end with ``code``
    (return when it is 0). A reader that closed the pipe ends the run
    quietly with the same code; any other failed write exits 2 with one line
    on stderr, if stderr takes it, as a failed ``--emit-plot`` write
    (``OutputError``) exits 2."""
    exc = _write(sys.stdout, text)
    if exc is not None and not isinstance(exc, BrokenPipeError):
        _write(sys.stderr, f"error: cannot write to stdout: {exc}")
        code = 2
    if code:
        sys.exit(code)


class Option(NamedTuple):
    names: tuple[str, ...]
    dest: str
    type: type = str  # int, str or bool (a flag)
    default: object = None  # None: the option is required
    choices: tuple = ()
    help: str = ""


COMMANDS = {}  # name -> (body, options), in the order of --help
WORKSPACE = Option(("--workspace", "-w"), "workspace_ref", str, "totaro-x",
                   help=f"built-in name ({', '.join(sorted(BUILTIN_WORKSPACES))}) or JSON path")
TIMINGS = Option(("--timings",), "timings", bool, False,
                 help="append wall-clock timing (not byte-stable)")
DIVISOR = Option(("--divisor", "-d"), "divisor", help="divisor expression, e.g. 'L' or 'F1+F2'")
Q = Option(("--q",), "q", int)


def command(name: str, *options: Option):
    """Register ``body(ws, workspace_ref, **options) -> (args, result)`` as a
    command taking --workspace, the options and --timings. A body may return
    a third item: the exit code to end with once the report is printed."""

    def register(body):
        COMMANDS[name] = body, (WORKSPACE, *options, TIMINGS)
        return body

    return register


def _usage(prog: str, message: str) -> NoReturn:
    _write(sys.stderr,
           f"usage: {prog} [--version] COMMAND [OPTIONS]; see {prog} --help\nerror: {message}")
    sys.exit(2)


def _help(prog: str, name=None) -> NoReturn:
    """Print the commands, or one command's doc and options, and exit 0."""
    if name is None:
        lines = [f"usage: {prog} [--version] COMMAND [OPTIONS]\n\n{__doc__}\ncommands:"]
        for n, (body, _) in COMMANDS.items():
            summary = " ".join(body.__doc__.partition("\n\n")[0].split())
            lines.append(f"  {n:<17}{summary}")
    else:
        body, options = COMMANDS[name]
        doc = "\n".join(map(str.strip, body.__doc__.splitlines()))
        lines = [f"usage: {prog} {name} [OPTIONS]\n\n{doc}\n\noptions:"]
        for o in options:
            arg = "" if o.type is bool else " " + ("|".join(o.choices) or o.type.__name__.upper())
            note = "required" if o.default is None else o.default and f"default: {o.default}"
            lines.append(f"  {', '.join(o.names)}{arg}\n      {'; '.join(filter(None, (o.help, note)))}")
    _emit("\n".join(lines), 0)
    sys.exit(0)


def _parse(prog: str, argv: list[str]):
    """(command, option values). A value option takes the next token
    verbatim, even one that starts with '-' (``-d -H``, ``--q -1``), or its
    value after '=' (``--divisor=-H``) or attached to a short name (``-dL``).
    Names are never abbreviated, and a token that fits no rule exits 2."""
    name = argv[0] if argv else None
    if name == "--version":
        _emit(f"toricpos, version {__version__}", 0)
        sys.exit(0)
    if name == "--help":
        _help(prog)
    if name not in COMMANDS:
        _usage(prog, f"no such command {name!r}" if name else "missing command")
    options = COMMANDS[name][1]
    by_name = {n: o for o in options for n in o.names}
    values = {o.dest: o.default for o in options}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--help":
            _help(prog, name)
        # attached: the '=' of a long name, or the value glued to a short one
        long = token[:2] == "--"
        key, attached, value = token.partition("=") if long else (token[:2], token[2:], token[2:])
        opt = by_name.get(key) or _usage(prog, f"no such option {token!r} for {name}")
        if opt.type is bool:
            if attached:
                _usage(prog, f"option {key} takes no value")
            values[opt.dest] = True
            continue
        if not attached and (value := next(tokens, None)) is None:
            _usage(prog, f"option {key} needs a value")
        if opt.choices and value not in opt.choices:
            _usage(prog, f"option {key}: {value!r} is not one of {', '.join(opt.choices)}")
        try:
            values[opt.dest] = opt.type(value)
        except ValueError:
            _usage(prog, f"option {key}: {value!r} is not an integer")
    missing = [o.names[0] for o in options if values[o.dest] is None]
    if missing:
        _usage(prog, f"missing option {', '.join(missing)} for {name}")
    return name, values


def main(argv=None, prog_name: str = "toricpos") -> None:
    """Run the command argv (default ``sys.argv[1:]``) names and print its
    report; a nonzero exit code, a usage error's 2 included, leaves through
    SystemExit."""
    name, options = _parse(prog_name, sys.argv[1:] if argv is None else list(argv))
    workspace_ref, timings = options.pop("workspace_ref"), options.pop("timings")
    start = time.monotonic()
    try:
        ws = load_workspace(workspace_ref)
        args, result, *exit_code = COMMANDS[name][0](ws, workspace_ref, **options)
    except (InternalInconsistency, UnboundedRegion) as exc:
        _fail(3, "internal-consistency", exc)
    except NoStabilizationDetected as exc:
        _fail(2, "input", f"no stabilization within horizon {exc.horizon}; "
              f"partial chain {exc.chain} (raise --horizon)")
    except ToricError as exc:
        _fail(2, "input", exc)
    report = _report(ws, name, args, result)
    if timings:
        report["timings"] = {"wall_seconds": round(time.monotonic() - start, 3),
                             "byte_stable": False}
    _emit(json.dumps(_jsonable(report), indent=2, sort_keys=True), exit_code[0] if exit_code else 0)


@command("validate")
def validate_cmd(ws, workspace_ref):
    """Validate a workspace: fan structure, completeness, smoothness."""
    props = ws.fan.properties
    text = serialize_workspace(ws)
    return {"workspace": workspace_ref}, {
        "simplicial": props.simplicial,
        "complete": props.complete,
        "smooth": props.smooth,
        "rays": len(ws.fan.rays),
        "maximal_cones": len(ws.fan.max_cones),
        "picard_rank": picard_rank(ws.fan),
        "divisors": sorted(ws.divisors),
        "roundtrip": serialize_workspace(parse_workspace(text)) == text,
    }


@command("cohomology", DIVISOR,
         Option(("--weights",), "weights", bool, False, help="include contributing weight vectors"))
def cohomology(ws, workspace_ref, divisor, weights):
    """Dimensions of H^0..H^n(X, O(D))."""
    d = ws.divisor(divisor)
    table = cohomology_dims(d)
    index = bad_subsets(ws.fan)
    by_subset = {s: p for p in range(ws.fan.rank + 1) for s, _ in index[p]}
    witness_rows = [
        {
            "degree": by_subset[s],
            "subset": _ray_names(ws, s),
            "weight_count": len(pts),
            "complex_dim": dim,
            **({"weights": [list(m) for m in pts]} if weights else {}),
        }
        for s, pts, dim in table.witnesses
    ]
    return {"divisor": divisor}, {
        "coefficients": list(d.coeffs),
        "dims": list(table.dims),
        "euler_characteristic": table.euler_characteristic,
        "witnesses": witness_rows,
    }


@command("classify", DIVISOR)
def classify(ws, workspace_ref, divisor):
    """Nef/ample/effective/big/pseudoeffective flags."""
    d = ws.divisor(divisor)
    flags = classify_cones(d)
    result = {
        "coefficients": list(d.coeffs),
        "class": list(class_of(d).coords),
        "class_basis": _ray_names(ws, class_of(d).basis_rays),
        "nef": flags.nef,
        "ample": flags.ample,
        "effective": flags.effective,
        "big": flags.big,
        "pseudoeffective": flags.pseudoeffective,
    }
    if flags.negative_wall is not None:
        result["negative_wall"] = _ray_names(ws, flags.negative_wall)
    return {"divisor": divisor}, result


@command("qample", DIVISOR, Q,
         Option(("--mode",), "mode", str, "asymptotic", ("asymptotic", "scan", "both")),
         Option(("--scan-max-n",), "scan_max_n", int, 12),
         Option(("--scan-twists",), "scan_twists", int, 4))
def qample(ws, workspace_ref, divisor, q, mode, scan_max_n, scan_twists):
    """Decide q-amplitude (asymptotic mode is authoritative; scan is an oracle)."""
    d = ws.divisor(divisor)
    multiples = tuple(range(1, scan_max_n + 1))
    args = {"divisor": divisor, "q": q, "mode": mode}
    result: dict = {"coefficients": list(d.coeffs), "q": q, "mode": mode}
    if mode == "scan":
        scan = scan_qample(d, q, multiples=multiples, twists=scan_twists)
        result["scan"] = {
            "obstructed_pattern": scan.obstructed,
            "clean_multiple": scan.clean_n,
            "nonvanishing": [list(x) for x in scan.nonvanishing],
            "note": scan.note,
        }
        return args, result
    if mode == "both":
        agreement = check_mode_agreement(d, q, multiples=multiples, twists=scan_twists)
        res = agreement["asymptotic"]
        result["scan"] = {
            "obstructed_pattern": agreement["scan"].obstructed,
            "clean_multiple": agreement["scan"].clean_n,
            "realized": agreement["realized"],
        }
    else:
        res = decide_qample(d, q)
    result["verdict"] = res.verdict
    # B+ is invariant under positive scaling, so the class need not be primitive
    result["kuronya_dim_b_plus"] = (
        augmented_base_locus_exact(d).dimension(ws.fan) if res.verdict else None
    )
    if res.certificate:
        cert = res.certificate
        result["certificate"] = {
            "degree": cert.degree,
            "subset": _ray_names(ws, cert.subset),
            "epsilon": cert.epsilon,
            "direction": list(cert.direction),
        }
    return args, result


@command("qnef", DIVISOR, Q)
def qnef(ws, workspace_ref, divisor, q):
    """Torus-invariant q-nef test: -D restricted to every (q+1)-dimensional
    orbit closure must not be big."""
    d = ws.divisor(divisor)
    res = is_qnef(d, q)
    return {"divisor": divisor, "q": q}, {
        "coefficients": list(d.coeffs),
        "q": q,
        "verdict": res.verdict,
        "scope": res.scope,
        "witness": _ray_names(ws, res.witness_tau) if res.witness_tau is not None else None,
        "restrictions": [
            {"cone": _ray_names(ws, t), "negative_restriction_big": big}
            for t, big in res.restrictions
        ],
    }


@command("baselocus", DIVISOR,
         Option(("--kind",), "kind", str, "stable", ("bs", "stable", "augmented")),
         Option(("--horizon",), "horizon", int, 24))
def baselocus(ws, workspace_ref, divisor, kind, horizon):
    """Base locus of |D|, the stable base locus, or the augmented one."""
    d = ws.divisor(divisor)
    if kind == "bs":
        rep = base_locus(d)
    elif kind == "stable":
        rep = stable_base_locus(d, horizon=horizon)
    else:
        rep = augmented_base_locus(d)
    return {"divisor": divisor, "kind": kind, "horizon": horizon}, _locus_json(ws, rep)


@command("restrict", DIVISOR,
         Option(("--cone", "-c"), "cone", help="comma list of rays, e.g. 'f1' or 'f1,f3'"))
def restrict_cmd(ws, workspace_ref, divisor, cone):
    """Restrict O(D) to the orbit closure of a cone."""
    d = ws.divisor(divisor)
    tau = _parse_cone(ws, cone)
    res = restrict(d, tau)
    quot = res.divisor.fan
    return {"divisor": divisor, "cone": cone}, {
        "cone": _ray_names(ws, tau),
        "witness_m": list(res.witness_m),
        "quotient_fan": {
            "lattice_rank": quot.rank,
            "rays": [list(r) for r in quot.rays],
            "max_cones": [list(c) for c in quot.max_cones],
        },
        "ray_images": {
            ws.fan.ray_name(i): {"image": idx, "multiplicity": mult}
            for i, (idx, mult) in sorted(res.ray_map.items())
        },
        "coefficients": list(res.divisor.coeffs),
        "psi_values": list(res.divisor.psi_values(ws.sign_convention)),
        "class": list(class_of(res.divisor).coords),
        "negative_restriction_big": is_big(-res.divisor),
    }


@command("connectivity", DIVISOR)
def connectivity(ws, workspace_ref, divisor):
    """Disconnected-section criterion for effective torus-invariant divisors."""
    d = ws.divisor(divisor)
    res = disconnected_section_criterion(d)
    return {"divisor": divisor}, {
        "coefficients": list(d.coeffs),
        "support": _ray_names(ws, res.support),
        "support_connected": not res.applies,
        "applies": res.applies,
        "conclusion": res.conclusion,
        "h1_of_negative_multiples": list(res.h1_of_negatives),
    }


_SVG_COLORS = {0: "#2e7d32", 1: "#f9a825", 2: "#ef6c00", 3: "#c62828"}


@contextlib.contextmanager
def _plot_file(path: str):
    """The --emit-plot file (None without a path), opened before the scan so
    that a bad path fails fast."""
    try:
        with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext() as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"cannot write plot to {path!r}: {exc}") from exc


def _svg(chamber_map) -> str:
    res = chamber_map.resolution
    cell = 40
    size = (2 * res + 1) * cell
    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 20}">'
    ]
    for s in chamber_map.samples:
        i, j = s.coords
        x = (i + res) * cell
        y = (res - j) * cell
        color = _SVG_COLORS.get(s.smallest_q, "#6a1b9a")
        opacity = "1.0" if s.pseudoeffective else "0.25"
        rows.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="{color}" fill-opacity="{opacity}" stroke="#333"/>'
        )
        rows.append(
            f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" text-anchor="middle" '
            f'font-size="12">{s.smallest_q}</text>'
        )
    rows.append(
        f'<text x="2" y="{size + 14}" font-size="10">cell label: smallest q; '
        f"solid fill: pseudoeffective</text>"
    )
    rows.append("</svg>")
    return "\n".join(rows) + "\n"


@command(
    "chambers",
    Option(("--dir1",), "dir1", help="first direction divisor expression"),
    Option(("--dir2",), "dir2", help="second direction divisor expression"),
    Option(("--origin",), "origin", str, "", help="origin divisor expression (default 0)"),
    Option(("--resolution",), "resolution", int, 2),
    Option(("--emit-plot",), "plot_path", str, "", help="write an SVG raster here"),
)
def chambers(ws, workspace_ref, dir1, dir2, origin, resolution, plot_path):
    """Sample a plane in N^1 and label each class with its smallest q."""
    d1 = ws.divisor(dir1)
    d2 = ws.divisor(dir2)
    base = ws.divisor(origin) if origin else ToricDivisor(
        ws.fan, (Fraction(0),) * ws.fan.n_rays
    )
    with _plot_file(plot_path) as plot:
        cmap = chamber_scan(base, d1, d2, resolution=resolution)
        if plot:
            plot.write(_svg(cmap))
    args = {"dir1": dir1, "dir2": dir2, "origin": origin, "resolution": resolution}
    return args, {
        "samples": [
            {
                "coords": list(s.coords),
                "smallest_q": s.smallest_q,
                "pseudoeffective": s.pseudoeffective,
                "big": s.big,
            }
            for s in cmap.samples
        ],
        "plot": plot_path or None,
    }


@command("replicate-paper")
def replicate_paper(ws, workspace_ref):
    """Replay the bundled reference example end to end.

    Runs the full verdict suite on Totaro's 3-fold (1-nef checks, the failed
    1-amplitude with its certificate, the restriction computation, the
    disconnected-section divisor, chamber labels) and exits 0 only when
    every expected verdict holds.
    """
    fan = ws.fan
    L, H, F1, F2 = (ws.divisor(name) for name in ("L", "H", "F1", "F2"))
    checks = []

    def check(name, expected, actual):
        checks.append(
            {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}
        )

    props = fan.properties
    check("fan smooth+complete+simplicial", (True, True, True),
          (props.smooth, props.complete, props.simplicial))
    check("picard rank", 3, picard_rank(fan))
    check("H ample", True, is_ample(H))
    q1 = decide_qample(L, 1)
    check("L not 1-ample", False, q1.verdict)
    check(
        "1-ample obstruction certificate",
        {"degree": 2, "subset": ["f3", "f4", "f5", "f6"]},
        {
            "degree": q1.certificate.degree,
            "subset": _ray_names(ws, q1.certificate.subset),
        }
        if q1.certificate
        else None,
    )
    check("positive twist L+H/2 still not 1-ample", False,
          decide_qample(L + Fraction(1, 2) * H, 1).verdict)
    asym = asymptotic_nonvanishing(L - Fraction(1, 100) * H, 2)
    check("H^2 of multiples of L - eps*H nonvanishing", True, asym[0])
    qn = is_qnef(L, 1)
    check("L 1-nef (torus-invariant)", True, qn.verdict)
    check("all six surface restrictions pass", 6,
          sum(1 for _, big in qn.restrictions if not big))
    res = restrict(L, (0,))
    cls = class_of(res.divisor)
    check("restriction witness m", [0, 0, -3], [int(x) for x in res.witness_m])
    check("L|F1 class", [1, -5], [int(x) for x in cls.coords])
    check("-L|F1 not big", False, is_big(-res.divisor))
    stated = ToricDivisor(fan, (0, 6, -4, 2, -1, -1))
    check("printed twisted representative not equivalent to L", False,
          is_linearly_equivalent(L, stated)[0])
    corrected = ToricDivisor(fan, (0, 6, 2, -4, -1, -1))
    eq, witness, integral = is_linearly_equivalent(L, corrected)
    check("corrected representative equivalent with integral witness",
          (True, True), (eq, integral))
    dsc = disconnected_section_criterion(F1 + F2)
    check("F1+F2 has disconnected invariant section", True, dsc.applies)
    check("h1(-m(F1+F2)) positive, m=1..4", True, all(h >= 1 for h in dsc.h1_of_negatives))
    check("F1+F2 not 1-ample", False, decide_qample(F1 + F2, 1).verdict)
    check("chamber label at H", 0, smallest_qample(H))
    check("chamber label at L", 2, smallest_qample(L))
    check("chamber label at -H", 3, smallest_qample(-H))
    check(
        "pseudoeffective flags (H, L, -H)",
        (True, False, False),
        tuple(_face_nonempty(d, ()) for d in (H, L, -H)),
    )
    all_pass = all(c["pass"] for c in checks)
    return {"workspace": workspace_ref}, {"checks": checks, "all_pass": all_pass}, int(not all_pass)


if __name__ == "__main__":
    main()
