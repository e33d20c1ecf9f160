"""Property test of the document boundary: mutated input documents reach the
CLI and must end in a documented exit code, never in an escaped exception."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ddispatch.cli import main  # noqa: E402
from ddispatch.fileio import read_json, write_json  # noqa: E402

EXIT_CODES = {0, 2, 3, 4, 5}

# integers stay small: a mutated "steps" or "n" is run, not just parsed
values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.sampled_from([0.0, 0.5, -1.5, 1e-300, 1e300, float("nan"), float("inf")]),
    st.sampled_from(["", "abc", "nan", "inf", "1", "0.25", "fleet", "sine"]),
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "x"]), st.integers(0, 2), max_size=1),
)

cells = st.one_of(st.sampled_from(["abc", "", "nan", "inf", "1e400", "-0", "1,2"]),
                  st.floats(-10.0, 10.0).map(repr))

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    rng = np.random.default_rng(11)
    spec = {"entries": rng.dirichlet(np.ones(4) * 2.0, size=4).tolist(),
            "util": [0.5, 1.0, 1.5, 2.0], "gamma": 0.3, "units": "kW"}
    write_json(root / "spec.json", spec)
    assert run(["model", "--kind", "custom", "--spec", root / "spec.json",
                "--out", root / "model.json"]) == 0
    assert run(["design", "--model", root / "model.json", "--kind", "ipd",
                "--zeta-max", "0.2", "--step", "0.05",
                "--out", root / "family.json"]) == 0
    assert run(["model", "--kind", "tcl", "--samples", "1000",
                "--out", root / "tcl_model.json"]) == 0
    assert run(["design", "--model", root / "tcl_model.json", "--kind", "myopic",
                "--zeta-max", "0.2", "--step", "0.05",
                "--out", root / "tcl_family.json"]) == 0
    scenario = {"format_version": 1, "payload": "scenario", "family": "family.json",
                "steps": 20, "seed": 3, "n": 30, "zeta": 0.1, "period_s": 60.0}
    return {
        "root": root,
        "spec": spec,
        "model": read_json(root / "model.json"),
        "family": read_json(root / "family.json"),
        "scenarios": [
            dict(scenario, mode="constant", plant="fleet"),
            dict(scenario, mode="track", settle=5,
                 reference={"kind": "square", "amplitude": 0.02, "period_steps": 8},
                 controller={"kind": "pi", "anti_windup": True}),
            dict(scenario, mode="trajectory", family="tcl_family.json", steps=300,
                 tcl={"noise_var": 0.0}),
        ],
    }


def paths(doc, prefix=()):
    """Every key path into ``doc``, lists cut to their first two entries."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc[:2]):
            yield from paths(value, prefix + (i,))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three edits, each replacing a value, dropping a
    key or adding one."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        value = draw(values)
        if not path:
            if draw(st.booleans()):
                return value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "add" and isinstance(parent[path[-1]], dict):
            key = draw(st.sampled_from(["kind", "steps", "theta_a", "extra"]))
            parent[path[-1]][key] = value
        else:
            parent[path[-1]] = value
    return doc


def check(args, capsys):
    code = run(args)
    assert code in EXIT_CODES, capsys.readouterr().err


@SETTINGS
@given(data=st.data())
def test_custom_spec(docs, data, capsys):
    path = docs["root"] / "spec_m.json"
    write_json(path, data.draw(mutated(docs["spec"])))
    check(["model", "--kind", "custom", "--spec", path,
           "--out", docs["root"] / "model_m.json"], capsys)


@SETTINGS
@given(data=st.data())
def test_model(docs, data, capsys):
    path = docs["root"] / "model_m.json"
    write_json(path, data.draw(mutated(docs["model"])))
    check(["design", "--model", path, "--kind", "ipd", "--zeta-max", "0.2",
           "--step", "0.05", "--out", docs["root"] / "family_m.json"], capsys)


@SETTINGS
@given(data=st.data())
def test_family(docs, data, capsys):
    path = docs["root"] / "family_m.json"
    write_json(path, data.draw(mutated(docs["family"])))
    check(["analyze", "--family", path, "--zeta", "0", "0.1", "--theta-count", "8",
           "--out", docs["root"] / "bode.csv"], capsys)


@SETTINGS
@given(data=st.data())
def test_scenario(docs, data, capsys):
    doc = data.draw(st.sampled_from(docs["scenarios"]))
    path = docs["root"] / "scenario_m.json"
    write_json(path, data.draw(mutated(doc)))
    check(["simulate", "--scenario", path, "--out", docs["root"] / "signals.csv"],
          capsys)


@SETTINGS
@given(period=cells, header=st.sampled_from(["t_s,g", "t_s", "g,t_s", "t_s,g,h"]),
       rows=st.lists(st.lists(cells, min_size=1, max_size=3), min_size=0, max_size=6))
def test_signal(docs, capsys, period, header, rows):
    path = docs["root"] / "signal_m.csv"
    lines = [f"# period_s={period}", header] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    check(["decompose", "--signal", path, "--lp-cutoff", "1e-4", "--hp-cutoff", "1e-3",
           "--out", docs["root"] / "bands.csv"], capsys)
