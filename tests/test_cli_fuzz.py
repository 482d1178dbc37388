"""The command line never escapes with a traceback on bad input.

Hypothesis drives cli.main with random JSON for the rig, world-point,
normal and correspondence files (also valid files with one entry
replaced, and raw text that no JSON value serializes to), with builtin
manifold parameters that include NaN and infinities, with random
text cells in a plot CSV, and with random numeric flags of gen-rig and
--grid and --seed of sweep and validate. Every call must return one of the
documented exit codes 0, 1 or 2; any exception that escapes main fails the
test.

The draws replay: derandomize=True seeds each test from its source, and no
strategy iterates a set, whose order of strings follows the per-process
hash seed (PYTHONHASHSEED). Every run of the same source draws the same
examples, so a failure found once is found again.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import riemcond as rc
from riemcond.cli import main
from riemcond.experiments import CSV_HEADER

FUZZ_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

Y = [0.35, -0.2, 0.4]
RIG = rc.gen_rig(rc.RigSpec(k=3, seed=1))
CAMERAS = rc.rig_to_dict(RIG)["cameras"]
VALID = {"y": Y, "x": rc.mv_project(RIG, Y).tolist(), "eta": [0.01 * i for i in range(6)]}

# 10**400 parses as a Python int too large for a float
SPECIAL = st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1e308,
                           10**400, -10**400])
NUMBERS = st.floats(allow_nan=True, allow_infinity=True) | SPECIAL | st.integers()
LEAVES = st.none() | st.booleans() | NUMBERS | st.text(max_size=6)
JSON = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
TEXT = st.text(st.characters(codec="utf-8"), max_size=8)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _replace_one(draw, value):
    """value (a JSON list or object, possibly nested) with one entry, at any depth, replaced."""
    if isinstance(value, (list, dict)) and value and draw(st.integers(0, 3)):
        keys = list(range(len(value))) if isinstance(value, list) else list(value)
        key = draw(st.sampled_from(keys))
        copy = list(value) if isinstance(value, list) else dict(value)
        copy[key] = _replace_one(draw, value[key])
        return copy
    return draw(SPECIAL | JSON)


def _valid_files():
    return {"rig": {"cameras": CAMERAS}, **{field: {field: v} for field, v in VALID.items()}}


def _raw_payloads(valid):
    """File contents that json.dumps never writes: arrays nested past the parser's
    recursion limit, a 5,000-digit integer, the valid payload cut short, and the valid
    payload behind a byte that is not UTF-8."""
    text = json.dumps(valid).encode()
    return [b"[" * 100_000 + b"]" * 100_000, b"[" + b"7" * 5000 + b"]",
            text[: len(text) // 2], b"\xff" + text]


@st.composite
def input_files(draw):
    """Payloads of the rig file and of the point, normal and correspondence files: JSON
    values, or raw bytes from _raw_payloads."""
    files = _valid_files()
    # sorted: a set of strings iterates in an order that changes from process to process
    for name in sorted(draw(st.sets(st.sampled_from(sorted(files)), min_size=1))):
        how = draw(st.integers(0, 4))
        if how == 0:
            files[name] = draw(st.sampled_from(_raw_payloads(files[name])))
        else:
            files[name] = draw(JSON) if how % 2 else _replace_one(draw, files[name])
    return files


def _commands(workdir, files):
    """Write the payloads (JSON values through json.dumps, bytes as they are) and return
    each command's argv, by name, with the files it reads."""
    paths = {name: workdir / f"{name}.json" for name in files}
    for name, payload in files.items():
        raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        paths[name].write_bytes(raw)
    out = str(workdir / "out")
    commands = {
        "kappa": ["kappa", "--rig", paths["rig"], "--point", paths["y"], "--eta-scale", "0.1"],
        "kappa-eta": ["kappa", "--rig", paths["rig"], "--point", paths["y"], "--eta", paths["eta"]],
        "triangulate": ["triangulate", "--rig", paths["rig"], "--corr", paths["x"]],
        "sweep": ["sweep", "--rig", paths["rig"], "--point", paths["y"], "--grid=-1:1:2",
                  "--out", out],
        "validate": ["validate", "--rig", paths["rig"], "--point", paths["y"], "--grid=-1:1:2",
                     "--out", out],
    }
    return {name: [str(arg) for arg in argv] for name, argv in commands.items()}


@given(st.data())
@FUZZ_SETTINGS
def test_fuzzed_input_files_exit_0_1_or_2(workdir, data):
    commands = _commands(workdir, data.draw(input_files()))
    assert main(commands[data.draw(st.sampled_from(sorted(commands)))]) in (0, 1, 2)


@pytest.mark.parametrize("kind", range(4), ids=["deep", "digits", "truncated", "not-utf8"])
@pytest.mark.parametrize("name", ["rig", "y", "eta", "x"])
def test_raw_input_file_exits_2_with_one_error_line(workdir, capsys, name, kind):
    """A file holding one of _raw_payloads, the other files valid: every command that
    reads it exits 2 and writes one line, which starts with "error:"."""
    files = _valid_files()
    files[name] = _raw_payloads(files[name])[kind]
    commands = _commands(workdir, files)
    readers = [argv for argv in commands.values() if str(workdir / f"{name}.json") in argv]
    assert readers
    capsys.readouterr()
    for argv in readers:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and re.fullmatch(r"error: [^\n]*\n", captured.err)


def test_far_point_kappa_reports_an_error_not_a_warning(workdir, capsys):
    """At y = (1e308, -0.2, 0.4) the depths cube to inf in S_hat and the norm of x
    overflows: kappa exits with one error line (a normal that is not finite, a singular
    R) and no RuntimeWarning from the norm or from a**3."""
    commands = _commands(workdir, {**_valid_files(), "y": {"y": [1e308, -0.2, 0.4]}})
    capsys.readouterr()
    for name, code in (("kappa", 2), ("kappa-eta", 1)):
        assert main(commands[name]) == code
        assert re.fullmatch(r"error: [^\n]*\n", capsys.readouterr().err)


# a float flag's value: any float (repr parses back), or one at the edges of the range
FLAG_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [1e-300, -1e-300, 5e-324, 1e308, -1e308, 0.0])


@st.composite
def flag_args(draw):
    """A command and drawn flags: some of gen-rig's (a seed of any sign, a radius or focal
    length down to 1e-300, a look-at up to 1e308), or the seed and the --grid of sweep or
    validate, whose bounds may be infinite or NaN and whose count may be 0 or below."""
    command = draw(st.sampled_from(["gen-rig", "sweep", "validate"]))
    seed = draw(st.integers(0, 2**70) | st.integers(-3, 3))
    if command == "gen-rig":
        flags = {"k": str(draw(st.integers(-1, 12))), "seed": str(seed),
                 "radius": repr(draw(FLAG_FLOATS)), "arc-degrees": repr(draw(FLAG_FLOATS)),
                 "focal": repr(draw(FLAG_FLOATS)),
                 "look-at": ",".join(repr(draw(FLAG_FLOATS)) for _ in range(3))}
        return [command, *(f"--{name}={value}" for name, value in flags.items()
                           if draw(st.booleans()))]
    bound = FLAG_FLOATS.map(repr) | st.sampled_from(["inf", "-inf", "nan", "-3", "1"])
    grid = f"{draw(bound)}:{draw(bound)}:{draw(st.integers(-2, 3))}"
    return [command, f"--grid={grid}", f"--seed={seed}"]


@given(flag_args())
@settings(FUZZ_SETTINGS, max_examples=100)  # a call takes about 5 ms
def test_fuzzed_flags_exit_0_1_or_2_without_warnings(workdir, args):
    """A seed below 0 is InvalidGeometry (exit 1), not numpy's ValueError, and a spec whose
    camera frames are not finite is NonFinite (exit 2) with no numpy warning before it."""
    command, *flags = args
    if command == "gen-rig":
        argv = [command, "--out", str(workdir / "gen-rig.json")]
    else:  # the later --grid and --seed override the valid command's
        argv = _commands(workdir, _valid_files())[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, *flags]) in (0, 1, 2)
    assert [str(w.message) for w in caught] == []


BUILTIN_PARAMS = {
    "sphere": {"radius": 2.0, "center": [0.0, 1.0, -1.0]},
    "graph2d": {"coeff": 1.5},
    "paraboloid": {},
    "affine": {"basis": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], "offset": [1.0, 2.0, 3.0]},
}
CHART_POINTS = {"sphere": [0.3, -0.2], "graph2d": [0.2], "paraboloid": [0.1, 0.4],
                "affine": [0.1, 0.2]}


@st.composite
def manifold_params(draw):
    """A builtin name and its parameters, each kept, made special or fuzzed; or random JSON."""
    name = draw(st.sampled_from(sorted(BUILTIN_PARAMS)))
    params = {}
    for key, valid in BUILTIN_PARAMS[name].items():
        how = draw(st.sampled_from(["keep", "omit", "special", "replace"]))
        if how == "keep":
            params[key] = valid
        elif how == "special":
            params[key] = draw(SPECIAL)
        elif how == "replace":
            params[key] = _replace_one(draw, valid)
    if draw(st.integers(0, 9)) == 0:
        params = draw(JSON)
    return name, json.dumps(params)


@given(manifold_params(), st.sampled_from(["kappa", "project"]), SPECIAL | st.floats(-2, 2))
@settings(FUZZ_SETTINGS, max_examples=200)  # a call takes about 7 ms
def test_fuzzed_manifold_params_exit_0_1_or_2(workdir, case, command, scale):
    name, params = case
    u = json.dumps(CHART_POINTS[name])
    # --option=value: argparse would read a value such as "-inf" as an option
    argv = ["--manifold", name, f"--manifold-params={params}"]
    if command == "kappa":
        argv = ["kappa", *argv, "--u", u, f"--eta-scale={scale!r}"]
    else:
        ambient = json.dumps([scale, 0.5, 0.25][: 2 if name == "graph2d" else 3])
        argv = ["project", *argv, f"--ambient={ambient}", "--u0", u]
    assert main(argv) in (0, 1, 2)


CELLS = TEXT | SPECIAL.map(repr) | st.floats(1e-3, 1e3).map(repr) | st.sampled_from(
    ["", "nan", "inf", "-inf", "true", "false", "1e999", "0"])


CSV_ROWS = st.lists(st.tuples(CELLS, CELLS, CELLS), min_size=1, max_size=5)
COLUMNS = st.sampled_from(["kappa", "kappa,sigma3", "ratio"]) | TEXT


@given(CSV_ROWS, COLUMNS)
@FUZZ_SETTINGS
def test_fuzzed_plot_csv_cells_exit_0_1_or_2(workdir, rows, columns):
    path, out = workdir / "cells.csv", workdir / "cells.svg"
    header = CSV_HEADER.split(",")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t_rel, value, flagged in rows:
            cells = dict.fromkeys(header, "")
            cells.update(t_rel=t_rel, kappa=value, sigma3=value, ratio=value, flagged=flagged)
            writer.writerow(cells.values())
    code = main(["plot", "--csv", str(path), f"--columns={columns}", "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 0:  # every plotted coordinate is a finite number
        coords = re.findall(r'(?:cx|cy|points)="([^"]*)"', out.read_text())
        assert all(math.isfinite(float(v)) for c in coords for v in re.split("[ ,]", c))


STRATEGIES = {"input_files": input_files(), "manifold_params": manifold_params(),
              "csv_cells": st.tuples(CSV_ROWS, COLUMNS)}


def _examples(name, count=40):
    """repr of the first count examples that the fuzz settings draw from STRATEGIES[name]."""
    seen = []

    @given(STRATEGIES[name])
    @settings(FUZZ_SETTINGS, max_examples=count, phases=[Phase.generate])
    def record(value):
        seen.append(repr(value))

    record()
    return seen


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strategies_draw_the_same_examples_twice_in_one_process(name):
    first = _examples(name)
    assert len(first) == 40 and len(set(first)) > 1
    assert _examples(name) == first


def test_examples_do_not_depend_on_the_string_hash_seed():
    """Two processes with different PYTHONHASHSEED values draw the same examples."""
    here = Path(__file__).resolve().parent
    script = (f"import sys; sys.path.insert(0, {str(here)!r}); import test_cli_fuzz as f; "
              "print([f._examples(name) for name in sorted(f.STRATEGIES)])")
    path = os.pathsep.join([str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])
    runs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=120, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)).stdout
            for seed in ("1", "2")]
    assert runs[0] == runs[1] and runs[0].count("cameras") > 10
