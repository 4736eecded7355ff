"""Every JSON input through `main()`: one reader, one set of rules.

The bundled scene, scenario and parameter set and a --config file are
mutated and run through `validate` or `simulate`. A run either succeeds,
rejects an unreachable goal (exit 3), or exits 2 with one line that
names the mutated file, whatever the mutation.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharedspace.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "sharedspace"
DATA = Path(__file__).resolve().parents[1] / "data"

DOCUMENTS = {
    "scene": json.loads((DATA / "scene.json").read_text()),
    "scenario": json.loads((DATA / "crossing.json").read_text()),
    "params": json.loads((DATA / "params_hbs.json").read_text()),
    "config": {"max_steps": 5, "dt": 0.5, "seed": 0, "regime": "hbs"},
}
REPLACEMENTS = [True, False, "text", "12", float("nan"), float("inf"), [1, 2, 3], [], {"x": 1}, None, 10**400]


def paths(node: object, at: tuple = ()) -> list[tuple]:
    """The path of every value inside `node`, as keys and indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, child in children:
        out += [(*at, key), *paths(child, (*at, key))]
    return out


def parent_of(doc: object, path: tuple) -> object:
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A document's name and its file's bytes after one mutation."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    mutation = draw(st.sampled_from(["drop", "add", "swap", "truncate", "byte"]))
    if mutation == "drop":
        path = draw(st.sampled_from([p for p in paths(doc) if isinstance(parent_of(doc, p), dict)]))
        del parent_of(doc, path)[path[-1]]
    elif mutation == "add":
        objects = [doc] + [parent_of(doc, (*p, 0)) for p in paths(doc)]
        draw(st.sampled_from([o for o in objects if isinstance(o, dict)]))["no_such_key"] = 1
    elif mutation == "swap":
        path = draw(st.sampled_from(paths(doc)))
        parent_of(doc, path)[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    text = json.dumps(doc, indent=1).encode()
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif mutation == "byte":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + text[at:]
    return name, text


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_a_mutated_json_input_exits_0_or_names_its_file(case) -> None:
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / f"{name}.json"
        mutated.write_bytes(text)
        inputs = {"scene": DATA / "scene.json", "scenario": DATA / "crossing.json", name: mutated}
        if name == "config":
            argv = ["simulate", "--scene", str(inputs["scene"]), "--scenario", str(inputs["scenario"]),
                    "--config", str(mutated), "--out-dir", str(Path(tmp) / "out")]
        else:
            argv = ["validate", "--scene", str(inputs["scene"]), "--scenario", str(inputs["scenario"])]
            argv += ["--params", str(mutated)] if name == "params" else []
        code, err = run(argv)
    assert code in (0, 2, 3), err
    if code == 0:
        assert err == ""
    else:
        start = f"error: {mutated}: " if code == 2 else "error: scenario rejected: "
        assert err.startswith(start) and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"bounds": [0, 0, 10, 10]\xff}', "not UTF-8 text (byte 25)"),
        (b'{"bounds": [0, 0, 10, 10]', "not valid JSON (Expecting ',' delimiter: line 1 column 26 (char 25))"),
        (b"[]", "expected an object"),
        (b'{"bounds": [NaN, 0, 10, 10]}', "bounds: expected a finite number, got NaN"),
        (b'{"bounds": [-Infinity, 0, 10, 10]}', "bounds: expected a finite number, got -Infinity"),
        (b'{"bounds": [1e400, 0, 10, 10]}', "bounds: expected a finite number, got Infinity"),
        (b'{"bounds": ["-60", 0, 10, 10]}', 'bounds: expected a number, got "-60"'),
        (b'{"bounds": [0, 0, 10, 10], "obstacles": [[[1, 1], [2], [1, 2]]]}', "obstacles[0]: expected [x, y], got [2]"),
    ],
)
def test_document_rules_name_the_file_and_the_field(tmp_path, capsys, text, message) -> None:
    path = tmp_path / "scene.json"
    path.write_bytes(text)
    assert main(["validate", "--scene", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("text", [b"[" * 100_000, b'{"bounds": [' + b"1" * 5000 + b", 0, 10, 10]}"])
def test_json_the_parser_refuses_exits_2_with_one_line(tmp_path, capsys, text) -> None:
    # nesting past the recursion limit, and an int past the digit limit
    path = tmp_path / "scene.json"
    path.write_bytes(text)
    assert main(["validate", "--scene", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (") and err.count("\n") == 1


def scenario_file(tmp_path: Path, scenario_id: object, agent_ids: list) -> Path:
    entries = [
        {"id": agent_ids[0], "kind": "car", "position": [-14.0, 0.0], "goal": [30.0, 0.0]},
        {"id": agent_ids[1], "kind": "ped", "position": [0.0, -8.0], "goal": [0.0, 8.0]},
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"scenario_id": scenario_id, "agents": entries}))
    return path


@pytest.mark.parametrize(
    "scenario_id, agent_id, field",
    [
        ("s1", "c1,x", "agents[0].id"), ("s1", 'c"1', "agents[0].id"), ("s1", "c\n1", "agents[0].id"),
        ("s1", "c\r1", "agents[0].id"), ("s1", " c1", "agents[0].id"), ("s1", "c1\t", "agents[0].id"),
        ("s1", "", "agents[0].id"), ("s1", 5, "agents[0].id"), ("s1", None, "agents[0].id"),
        ("s1", "c\0", "agents[0].id"), ("s1", "c\ud800", "agents[0].id"),
        ("s,1", "c1", "scenario_id"), ("", "c1", "scenario_id"), (7, "c1", "scenario_id"),
        (["s1"], "c1", "scenario_id"),
    ],
)
def test_ids_that_the_csv_outputs_cannot_carry_exit_2(tmp_path, capsys, scenario_id, agent_id, field) -> None:
    path = scenario_file(tmp_path, scenario_id, [agent_id, "p1"])
    assert main(["validate", "--scene", str(DATA / "scene.json"), "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: {field}: expected a nonempty string with no comma, quote, line break, NUL"
        f" or surrounding whitespace, got {json.dumps(agent_id if field != 'scenario_id' else scenario_id)}\n"
    )


id_texts = st.text(st.sampled_from("ab1é ,\"\t\r\n\0-_."), min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(id_texts, st.lists(id_texts, min_size=2, max_size=2, unique=True))
def test_any_scenario_that_loads_writes_a_trace_that_evaluate_reads_back(scenario_id, agent_ids) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario = scenario_file(tmp, scenario_id, agent_ids)
        code, err = run(["simulate", "--scene", str(DATA / "scene.json"), "--scenario", str(scenario),
                         "--max-steps", "3", "--out-dir", str(tmp / "run")])
        if code == 2:
            assert err.startswith(f"error: {scenario}: ") and err.count("\n") == 1, err
            return
        assert code == 0, err
        trace = str(tmp / "run" / "trace.csv")
        code, err = run(["evaluate", "--real", trace, "--sim", trace, "--out", str(tmp / "eval")])
        assert (code, err) == (0, "")
        with open(tmp / "eval" / "report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    assert sorted((row["scenario_id"], row["agent_id"]) for row in rows) == sorted(
        (scenario_id, agent_id) for agent_id in agent_ids
    )


def test_only_the_shared_reader_parses_json() -> None:
    """One JSON reader for every input document: no module calls
    json.loads or json.load outside jsonin.document."""
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
                and node.value.id == "json"
                and node.attr in ("load", "loads")
            ):
                found.append((path.name, owner.get(node), node.attr))
    assert found == [("jsonin.py", "document", "loads")]
