"""Batch front door: rig generation, projection, triangulation, condition
numbers, sweeps/validation runs, and a minimal SVG plotter.

Exit codes: 0 success, 1 domain errors (ill-posed result requested as a
finite number, degenerate geometry), 2 I/O or parse errors, including
non-finite input numbers. Diagnostics go to stderr; bulk data is written to files atomically.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from .condition import ill_posedness_certificate, kappa_cpp_from_weingarten
from .curvature import weingarten_data
from .errors import NonFinite, RiemcondError, _require_finite_setting
from .experiments import (
    PERTURB_REL,
    RigSpec,
    experiment_sweep,
    experiment_validate,
    gen_rig,
    log_grid,
    random_unit_normal,
    ratio_stats,
    records_to_csv,
)
from .manifold import builtin, codim1_unit_normal, tangent_frame
from .multiview import _jet, mv_kappa, mv_project, rig_from_dict, rig_to_dict
from .solver import SolverOptions, project_point, triangulate


class CliInputError(Exception):
    """Malformed file contents or command arguments (exit code 2)."""


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory and atomic rename; an OSError names
    path, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".riemcond-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _parse_json(text: str, where: str):
    """The JSON value of text, else a CliInputError naming where: text that is not JSON,
    nests past the parser's recursion limit or holds an integer past the digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CliInputError(f"{where}: invalid JSON: {exc}") from exc


def _load_json(path: str):
    with open(path) as handle:
        return _parse_json(handle.read(), path)


def _load_rig(path: str):
    data = _load_json(path)
    try:
        return rig_from_dict(data)
    except (ValueError, NonFinite) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _as_vector(value, where: str, length: int):
    """The parsed JSON value as a float vector of the given length, else CliInputError."""
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliInputError(f"{where}: expected a list of numbers: {exc}") from exc
    if vec.shape != (length,):
        raise CliInputError(f"{where}: expected a list of {length} numbers, got shape {vec.shape}")
    return vec


def _load_vector(path: str, field: str, length: int):
    data = _load_json(path)
    if not isinstance(data, dict) or field not in data:
        raise CliInputError(f'{path}: expected a JSON object with a "{field}" field')
    return _as_vector(data[field], f'{path}: "{field}"', length)


def _parse_inline_vector(text: str, name: str, length: int):
    return _as_vector(_parse_json(text, name), name, length)


def _triple(text: str):
    try:
        x, y, z = (float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}") from None
    return x, y, z


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise CliInputError(f"--grid: expected lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliInputError(f"--grid: {exc}") from exc
    return lo, hi, count


def _from_field_args(cls, args):
    """The dataclass cls built from the flags _add_field_args made for it."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _result_dict(result, point_key: str, x) -> dict:
    return {
        point_key: [float(v) for v in result.u_star],
        "residual_norm": result.residual_norm,
        "first_order_norm": result.first_order_norm,
        "status": result.status.value,
        "iterations": result.iterations,
        "x": [float(v) for v in x],
    }


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        _atomic_write(out, text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_rig(args) -> int:
    spec = _from_field_args(RigSpec, args)
    # shortest repr per float: the load round trip is bit-exact
    _atomic_write(args.out, json.dumps(rig_to_dict(gen_rig(spec))) + "\n")
    print(f"wrote {args.out} ({spec.k} cameras)", file=sys.stderr)
    return 0


def _builtin_from_args(args):
    params = _parse_json(args.manifold_params, "--manifold-params") if args.manifold_params else {}
    if not isinstance(params, dict):
        raise CliInputError("--manifold-params must be a JSON object")
    try:
        return builtin(args.manifold, **params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliInputError(f"--manifold-params: {exc}") from exc


def cmd_kappa(args) -> int:
    _require_finite_setting(args.eta_scale, "--eta-scale")
    if args.rig is not None:
        if args.point is None:
            raise CliInputError("--rig needs --point (world-point JSON file)")
        rig = _load_rig(args.rig)
        y = _load_vector(args.point, "y", 3)
        # the rig keeps y's frame: one domain check and QR serve eta, kappa and Q @ u
        Q = _jet(rig, y, 5)[3]
        if args.eta:
            raw = _load_vector(args.eta, "eta", 2 * rig.r)
            eta = raw - Q @ (Q.T @ raw)  # project API input to the normal space
        else:
            unit = random_unit_normal(rig, y, args.seed)
            with np.errstate(over="ignore", invalid="ignore"):  # mv_kappa reports an inf norm
                eta = args.eta_scale * float(np.linalg.norm(mv_project(rig, y))) * unit
        report = mv_kappa(rig, y, eta)
        fields = {"bounds": [report.bounds_lo, report.bounds_hi]}
        if report.worst_input_direction is not None:
            fields["worst_ambient_direction"] = (Q @ report.worst_input_direction).tolist()
    else:
        param = _builtin_from_args(args)
        if args.u is None:
            raise CliInputError("--manifold needs --u (chart coordinates)")
        u = _parse_inline_vector(args.u, "--u", param.intrinsic_dim)
        frame = tangent_frame(param, u)
        if param.ambient_dim - param.intrinsic_dim != 1:
            raise CliInputError("--manifold needs a codimension-1 builtin; use --rig for multiview")
        normal = codim1_unit_normal(frame)
        report = kappa_cpp_from_weingarten(weingarten_data(param, u, args.eta_scale * normal))
        offsets = ill_posedness_certificate(weingarten_data(param, u, normal).curvatures)
        fields = {"singular_offsets": offsets.tolist()}
    payload = {"kappa": report.kappa, "ill_posed": report.ill_posed, **fields,
               "components": report.components}
    print(f"kappa = {report.kappa!r}")
    if report.worst_input_direction is not None:
        payload["worst_input_direction"] = report.worst_input_direction.tolist()
        print(f"worst input direction (tangent coords) = {payload['worst_input_direction']}")
    if "singular_offsets" in fields:
        print(f"singular offsets along unit normal = {fields['singular_offsets']}")
    if args.out:
        _emit_json(payload, args.out)
    if report.ill_posed:
        print("input is ill-posed: kappa is infinite", file=sys.stderr)
        return 1
    return 0


def cmd_project(args) -> int:
    opts = _from_field_args(SolverOptions, args)
    if args.rig is not None:
        if args.corr is None:
            raise CliInputError("--rig needs --corr (correspondence JSON file)")
        rig = _load_rig(args.rig)
        a = _load_vector(args.corr, "x", 2 * rig.r)
        result = triangulate(rig, a, opts=opts, minimal_init=args.minimal_init)
        _emit_json(_result_dict(result, "y", mv_project(rig, result.u_star)), args.out)
        return 0
    param = _builtin_from_args(args)
    if args.ambient is None or args.u0 is None:
        raise CliInputError("--manifold needs --ambient and --u0")
    a = _parse_inline_vector(args.ambient, "--ambient", param.ambient_dim)
    u0 = _parse_inline_vector(args.u0, "--u0", param.intrinsic_dim)
    result = project_point(param, a, u0, opts=opts)
    _emit_json(_result_dict(result, "u", param(result.u_star)), args.out)
    return 0


def _ray(args):
    """(Rig, point, seeded unit normal, grid) of a sweep or validation run; the rig keeps
    the point's frame, so one domain check and QR serve the normal and the run."""
    rig = _load_rig(args.rig)
    y = _load_vector(args.point, "y", 3)
    grid = log_grid(*_parse_grid(args.grid), two_sided=not args.one_sided)
    return rig, y, random_unit_normal(rig, y, args.seed), grid


def cmd_sweep(args) -> int:
    records = experiment_sweep(*_ray(args))
    _atomic_write(args.out, records_to_csv(records))
    print(f"wrote {args.out} ({len(records)} rows)", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    opts = _from_field_args(SolverOptions, args)
    records = experiment_validate(*_ray(args), args.perturb_rel, opts)
    _atomic_write(args.out, records_to_csv(records))
    arith, geo, excluded = ratio_stats(records)
    print(
        f"ratio means: arithmetic={arith:.6f} geometric={geo:.6f} "
        f"excluded={excluded}/{len(records)}"
    )
    print(f"wrote {args.out} ({len(records)} rows)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

_SVG_COLORS = ["#000000", "#cc2200", "#0066cc", "#009944"]


def _read_csv_columns(csv_path: str, columns):
    with open(csv_path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise CliInputError(f"{csv_path}: empty CSV")
        for col in ["t_rel", *columns]:
            if col not in reader.fieldnames:
                raise CliInputError(f"{csv_path}: missing column {col!r}")
        rows = list(reader)
    if not rows:
        raise CliInputError(f"{csv_path}: no data rows")
    return rows


def _csv_float(csv_path, n, column, text):
    try:
        return float(text)
    except ValueError:
        raise CliInputError(
            f"{csv_path}: data row {n}, column {column!r}: {text!r} is not a number") from None


def _series_segments(rows, column, csv_path):
    """Split one column into polyline segments in log-log coordinates.

    Gaps appear at missing/non-finite/non-positive values, at flagged
    rows, at a t_rel that is zero or not finite, and at sign changes of
    t_rel. A cell that is not a number raises CliInputError.
    """
    segments, current, positive = [], [], None
    for n, row in enumerate(rows, start=1):
        t_text, v_text = row.get("t_rel", ""), row.get(column, "")
        point = None
        if t_text and v_text and row.get("flagged", "false") != "true":
            t = _csv_float(csv_path, n, "t_rel", t_text)
            v = _csv_float(csv_path, n, column, v_text)
            if t != 0.0 and math.isfinite(t) and math.isfinite(v) and v > 0.0:
                point = (math.log10(abs(t)), math.log10(v))
        if current and (point is None or (t > 0) != positive):
            segments.append(current)
            current = []
        if point is not None:
            current.append(point)
            positive = t > 0
    if current:
        segments.append(current)
    return segments


def emit_svg(csv_path: str, columns, out_path: str) -> None:
    """Minimal log-log line plot of CSV columns against |t_rel|."""
    rows = _read_csv_columns(csv_path, columns)
    all_segments = {col: _series_segments(rows, col, csv_path) for col in columns}
    points = [p for segs in all_segments.values() for seg in segs for p in seg]
    if not points:
        raise CliInputError(f"{csv_path}: no plottable values in columns {columns}")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax - xmin < 1e-12:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax - ymin < 1e-12:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    width, height = 720.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0

    def px(x):
        return left + (x - xmin) / (xmax - xmin) * (width - left - right)

    def py(y):
        return height - bottom - (y - ymin) / (ymax - ymin) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="{left}" y="{top}" width="{width - left - right}" '
        f'height="{height - top - bottom}" fill="none" stroke="#888"/>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" '
        'text-anchor="middle" font-size="13">log10 |t| / ||x||</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" font-size="13" '
        f'transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})" '
        'text-anchor="middle">log10 value</text>',
        f'<text x="{left:.1f}" y="{height - bottom + 16:.1f}" font-size="11">{xmin:.2f}</text>',
        f'<text x="{width - right:.1f}" y="{height - bottom + 16:.1f}" '
        f'text-anchor="end" font-size="11">{xmax:.2f}</text>',
        f'<text x="{left - 6:.1f}" y="{height - bottom:.1f}" text-anchor="end" '
        f'font-size="11">{ymin:.2f}</text>',
        f'<text x="{left - 6:.1f}" y="{top + 10:.1f}" text-anchor="end" '
        f'font-size="11">{ymax:.2f}</text>',
    ]
    for idx, col in enumerate(columns):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        parts.append(
            f'<text x="{left + 10 + 110 * idx:.1f}" y="{top + 14:.1f}" '
            f'font-size="12" fill="{color}">{col}</text>'
        )
        for seg in all_segments[col]:
            if len(seg) == 1:
                x, y = seg[0]
                parts.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="1.5" fill="{color}"/>'
                )
            else:
                pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in seg)
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
                )
    parts.append("</svg>")
    _atomic_write(out_path, "\n".join(parts) + "\n")


def cmd_plot(args) -> int:
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if not columns:
        raise CliInputError("--columns must name at least one CSV column")
    emit_svg(args.csv, columns, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_field_args(p, cls):
    """One flag per field of the dataclass cls, defaulting to the field's default;
    a tuple field takes comma-separated numbers."""
    for f in fields(cls):
        kind = _triple if isinstance(f.default, tuple) else type(f.default)
        p.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemcond",
        description="Condition numbers of Riemannian least-squares problems "
        "and n-camera triangulation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-rig", help="generate a synthetic camera rig")
    _add_field_args(p, RigSpec)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_rig)

    p = sub.add_parser("kappa", help="condition number at a critical pair")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--rig")
    source.add_argument("--manifold", help="builtin manifold name (codimension 1)")
    p.add_argument("--point", help='world-point JSON file {"y": [3 numbers]}')
    p.add_argument("--eta", help='normal-vector JSON file {"eta": [2r numbers]}')
    p.add_argument("--eta-scale", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifold-params", help="JSON object of builtin parameters")
    p.add_argument("--u", help="chart coordinates as a JSON list")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("project", aliases=["triangulate"],
                       help="project a point onto a manifold (with --rig: triangulate)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--rig")
    source.add_argument("--manifold", help="builtin manifold name")
    p.add_argument("--corr", help='correspondence JSON file {"x": [2r numbers]}')
    p.add_argument("--manifold-params")
    p.add_argument("--ambient", help="ambient point as a JSON list")
    p.add_argument("--u0", help="chart start point as a JSON list")
    p.add_argument("--minimal-init", action="store_true",
                   help="initialize from the first-two-cameras DLT variant")
    p.add_argument("--out")
    _add_field_args(p, SolverOptions)
    p.set_defaults(func=cmd_project)

    for name, about, grid, func in (
            ("sweep", "condition-number sweep along a normal ray", "-3:4:400", cmd_sweep),
            ("validate", "theory-vs-experiment perturbation study", "-3:2:100", cmd_validate)):
        p = sub.add_parser(name, help=about)
        p.add_argument("--rig", required=True)
        p.add_argument("--point", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--grid", default=grid, help="lo:hi:count in log10 of t/||x||")
        p.add_argument("--one-sided", action="store_true")
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
    p.add_argument("--perturb-rel", type=float, default=PERTURB_REL)  # validate's own flags
    _add_field_args(p, SolverOptions)

    p = sub.add_parser("plot", help="emit a minimal SVG line plot from a sweep CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--columns", default="kappa", help="comma-separated CSV columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def _merge_grid_token(argv):
    """Allow `--grid -3:2:100`: argparse would read the value as a flag."""
    argv = list(argv)
    while "--grid" in argv[:-1]:
        i = argv.index("--grid")
        argv[i:i + 2] = [f"--grid={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    args = build_parser().parse_args(_merge_grid_token(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (CliInputError, OSError, csv.Error, UnicodeDecodeError, RiemcondError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RiemcondError) and not isinstance(exc, NonFinite) else 2


if __name__ == "__main__":
    sys.exit(main())
