"""Every CSV input through `main()`: one reader, one set of rules.

A valid trajectory, annotation, decisions or observations file is
mutated and run through `evaluate` or `select-features`. A run either
succeeds or exits 2 with one line naming the file and the line of the
first broken row, whatever the mutation.
"""

from __future__ import annotations

import ast
import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedspace.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "sharedspace"
SCENE = Path(__file__).resolve().parents[1] / "data" / "scene.json"

TRAJECTORIES = [["scenario_id", "frame", "agent_id", "kind", "x", "y"]] + [
    ["s1", str(f), agent, kind, repr(0.5 * f + dx), "0.0"]
    for f in range(5)
    for agent, kind, dx in (("p1", "ped", 0.0), ("c1", "car", 3.0))
]
ANNOTATIONS = [["scenario_id", "agent_id", "conflict_idx", "action"],
               ["s1", "c1", "0", "continue"], ["s1", "p1", "0", "deviate"]]
DECISIONS = [["scenario_id", "step", "conflict_id", "agent_id", "action"],
             ["s1", "3", "0", "c1", "continue"], ["s1", "3", "0", "p1", "deviate"]]
OBSERVATIONS = [["scenario_id", "kind", "f0", "f1", "action"]] + [
    ["s", "car", repr((i * 7 % 11) / 10 - 0.5), repr((i * 5 % 13) / 10 - 0.6),
     "decelerate" if i * 3 % 5 < 2 else "continue"]
    for i in range(30)
]

# For each format: its rows, and the columns a bad token breaks with the
# tokens that break them.
FORMATS = {
    "trajectories": (TRAJECTORIES, {1: ["zero", "1.5"], 3: ["bike"], 4: ["abc", "nan"], 5: ["", "-inf"]}),
    "annotations": (ANNOTATIONS, {2: ["first", "-1"], 3: ["fly"]}),
    "decisions": (DECISIONS, {4: ["fly", ""]}),
    "observations": (OBSERVATIONS, {2: ["two", "nan"], 3: ["inf"], 4: ["fly"]}),
}


def csv_line(fields: list[str]) -> str:
    return ",".join(f'"{f}"' if "\n" in f else f for f in fields)


@st.composite
def mutated_files(draw):
    """A format, its file's text with up to three mutated rows and LF or
    CRLF line ends, and the line main() must name: that of the first
    broken row, or None. Padded and quoted fields, blank rows and CRLF
    line ends break nothing."""
    name = draw(st.sampled_from(sorted(FORMATS)))
    rows, tokens = FORMATS[name]
    rows = [list(row) for row in rows]
    broken = set()
    if draw(st.booleans()) and draw(st.booleans()):
        j = draw(st.integers(1, len(rows[0]) - 1))
        rows[0][j] = rows[0][j - 1]  # a duplicate header column
        broken.add(0)
    blanks = {}
    for i in draw(st.sets(st.integers(1, len(rows) - 1), max_size=3)):
        mutation = draw(st.sampled_from(["drop", "add", "token", "blank", "quoted", "padded"]))
        if mutation == "drop":
            rows[i].pop()
        elif mutation == "add":
            rows[i].append("extra")
        elif mutation == "token":
            column = draw(st.sampled_from(sorted(tokens)))
            rows[i][column] = draw(st.sampled_from(tokens[column]))
        elif mutation == "blank":
            blanks[i] = draw(st.integers(1, 2))
        elif mutation == "quoted":
            # a field that spans two lines, still valid once stripped
            column = draw(st.sampled_from(sorted(tokens)))
            rows[i][column] += "\n"
        else:
            column = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][column] = f" {rows[i][column]}\t"
        if mutation in ("drop", "add", "token"):
            broken.add(i)
    records = []
    line_of = {}
    for i, row in enumerate(rows):
        records += [""] * blanks.get(i, 0)
        line_of[i] = len(records) + 1  # a record index: a two-line field is one line
        records.append(csv_line(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return name, end.join(records) + end, line_of[min(broken)] if broken else None


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def write(path: Path, rows: list[list[str]]) -> Path:
    path.write_text("\n".join(map(csv_line, rows)) + "\n")
    return path


@settings(max_examples=200, deadline=None)
@given(mutated_files())
def test_a_mutated_csv_exits_0_or_2_naming_its_first_bad_line(case) -> None:
    name, text, line = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        mutated = tmp / f"{name}.csv"
        mutated.write_text(text)
        if name == "observations":
            argv = ["select-features", "--observations", str(mutated), "--subject", "car",
                    "--out-dir", str(tmp / "out")]
        else:
            paths = {
                "trajectories": write(tmp / "real.csv", TRAJECTORIES),
                "annotations": write(tmp / "ann.csv", ANNOTATIONS),
                "decisions": write(tmp / "dec.csv", DECISIONS),
            }
            paths[name] = mutated
            argv = ["evaluate", "--real", str(paths["trajectories"]), "--sim", str(tmp / "real.csv"),
                    "--annotations", str(paths["annotations"]), "--sim-decisions", str(paths["decisions"]),
                    "--out", str(tmp / "out")]
        code, err = run(argv)
    if line is None:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err.startswith(f"error: {mutated}:{line}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["evaluate", "calibrate-sfm"])
@pytest.mark.parametrize("column, bad", [
    ("scenario_id", ""), ("scenario_id", "s,1"),
    ("agent_id", ""), ("agent_id", "a,b"), ("agent_id", 'a"b'),
    ("agent_id", "a\rb"), ("agent_id", "a\nb"), ("agent_id", "a\0b"),
])
def test_an_id_the_outputs_cannot_carry_exits_2_with_one_line(tmp_path, command, column, bad) -> None:
    # c1's rows from frame 1 on, the first of them on line 5; every field
    # quoted, so the file itself is well-formed CSV.
    rows = [list(row) for row in TRAJECTORIES]
    j = rows[0].index(column)
    for row in rows[4::2]:
        row[j] = bad
    path = tmp_path / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join('"' + f.replace('"', '""') + '"' for f in row) + "\n" for row in rows)
    if command == "evaluate":
        argv = ["evaluate", "--real", str(path), "--sim", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = ["calibrate-sfm", "--scene", str(SCENE), "--trajectories", str(path),
                "--out-dir", str(tmp_path / "out"), "--population", "4", "--generations", "1"]
    assert run(argv) == (2, (
        f"error: {path}:5: {column}: expected a nonempty id with no comma, quote, line break"
        f" or NUL, got {bad!r}\n"
    ))
    assert not (tmp_path / "out").exists()


def test_only_read_columns_parses_csv() -> None:
    """One CSV reader for every input table: no module calls csv.reader
    or csv.DictReader outside dataio.read_columns."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
                and node.attr in ("reader", "DictReader")
            ):
                found.append((path.name, owner.get(node), node.attr))
    assert found == [("dataio.py", "read_columns", "reader")]
