"""Tests for the command line interface."""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from pipedreams import BumplessPipeDream, Permutation, PipeDream
from pipedreams.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_schubert_json(capsys):
    code, out, err = run(capsys, "schubert", "213")
    assert code == 0
    data = json.loads(out)
    assert data["display"] == "x1"
    assert data["polynomial"]["terms"] == [
        {"exponents": [1], "coefficient": 1}
    ]


def test_schubert_pretty(capsys):
    code, out, _ = run(capsys, "schubert", "132", "--pretty")
    assert code == 0
    assert out.strip() == "x1 + x2"


def test_schubert_rejects_bad_perm(capsys):
    code, _, err = run(capsys, "schubert", "1,1,2")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_enum_pd(capsys):
    code, out, _ = run(capsys, "enum", "321", "--model", "pd")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["diagrams"][0]["crosses"] == [[1, 2], [1, 1], [2, 1]]


def test_enum_bpd(capsys):
    code, out, _ = run(capsys, "enum", "321", "--model", "bpd")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["diagrams"][0]["tiles"] == [
        list("..r"),
        list(".r+"),
        list("r++"),
    ]


@pytest.mark.parametrize(
    "argv, size, bound",
    [
        (["enum", "1,3,2,9,8,7,6,5,4", "--model", "bpd"], 9, 8),
        (["enum", "987654321", "--model", "pd"], 9, 8),
        (["schubert", "1,3,2,10,9,8,7,6,5,4"], 10, 9),
    ],
    ids=["enum-bpd", "enum-pd", "schubert"],
)
def test_permutation_size_is_bounded(capsys, argv, size, bound):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: the permutation size {size} exceeds the bound {bound}\n"


def test_permutations_at_the_size_bound_are_accepted(capsys):
    assert run(capsys, "enum", "2,1,3,4,5,6,8,7", "--model", "bpd")[0] == 0
    assert run(capsys, "enum", "21345687", "--model", "pd")[0] == 0
    assert run(capsys, "schubert", "2,1,3,4,5,6,7,9,8")[0] == 0
    # Trailing fixed points do not count towards the size.
    assert run(capsys, "schubert", "2,1,3,4,5,6,7,8,9,10", "--pretty")[0] == 0


def test_enum_requires_model(capsys):
    assert run(capsys, "enum", "321")[0] == 2


def test_phi_forward_and_inverse(tmp_path, capsys):
    rothe = BumplessPipeDream.rothe(Permutation((2, 1)))
    path = write_json(tmp_path, "b.json", rothe.to_json())
    code, out, _ = run(capsys, "phi", path)
    assert code == 0
    data = json.loads(out)
    assert data["sequence"] == {"a": [1], "r": [1]}
    assert data["pipe_dream"]["crosses"] == [[1, 1]]

    back = write_json(tmp_path, "d.json", data["pipe_dream"])
    code, out, _ = run(capsys, "phi", back, "--inverse")
    assert code == 0
    assert json.loads(out) == rothe.to_json()


def test_phi_direction_mismatch(tmp_path, capsys):
    pd = write_json(tmp_path, "d.json", PipeDream([(1, 1)]).to_json())
    assert run(capsys, "phi", pd)[0] == 2


def test_pop_bpd(tmp_path, capsys):
    rothe = BumplessPipeDream.rothe(Permutation((2, 1)))
    path = write_json(tmp_path, "b.json", rothe.to_json())
    code, out, _ = run(capsys, "pop", path)
    assert code == 0
    data = json.loads(out)
    assert (data["a"], data["r"]) == (1, 1)
    assert data["result"]["tiles"] == [["r"]]
    assert data["footprints"] == []


def test_pop_pd(tmp_path, capsys):
    path = write_json(tmp_path, "d.json", PipeDream([(1, 1)]).to_json())
    code, out, _ = run(capsys, "pop", path)
    data = json.loads(out)
    assert code == 0
    assert (data["a"], data["r"]) == (1, 1)
    assert data["result"]["crosses"] == []


def test_insert_roundtrip(tmp_path, capsys):
    ident = write_json(
        tmp_path, "i.json", BumplessPipeDream.identity(1).to_json()
    )
    code, out, _ = run(capsys, "insert", ident, "--a", "1", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["tiles"] == [list(".r"), list("r+")]

    rothe = write_json(tmp_path, "r.json", data["result"])
    code, out, _ = run(capsys, "insert", rothe, "--a", "1", "--r", "1")
    assert code == 0
    assert json.loads(out)["result"] is None


def test_monk_x_pd(tmp_path, capsys):
    path = write_json(tmp_path, "d.json", PipeDream([]).to_json())
    code, out, _ = run(capsys, "monk", "x", path, "--alpha", "2")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["crosses"] == [[2, 1]]
    assert data["l"] == 3
    assert data["complete_footprints"] == [[2, 1]]


def test_monk_m_bpd(tmp_path, capsys):
    rothe = BumplessPipeDream.rothe(Permutation((2, 1)))
    path = write_json(tmp_path, "b.json", rothe.to_json())
    code, out, _ = run(capsys, "monk", "m", path, "--s", "1", "--beta", "2")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["tiles"] == [
        list(".r-"),
        list("rjr"),
        list("|r+"),
    ]
    assert data["l"] == 3


def test_monk_x_requires_alpha(tmp_path, capsys):
    path = write_json(tmp_path, "d.json", PipeDream([]).to_json())
    assert run(capsys, "monk", "x", path)[0] == 2


def test_verify_small_group(capsys):
    code, out, _ = run(capsys, "verify", "--group", "2", "--seed", "11")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == 2
    assert all(entry["passed"] for entry in data["results"].values())


def test_verify_honors_group_cap(capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERT_MAX_N", "3")
    code, _, err = run(capsys, "verify", "--group", "4")
    assert code == 2
    assert "SCHUBERT_MAX_N" in err
    code, out, _ = run(capsys, "verify", "--group", "3", "--check", "poly")
    assert code == 0
    assert json.loads(out)["check"] == "poly"


def test_verify_rejects_bad_cap(capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERT_MAX_N", "many")
    assert run(capsys, "verify", "--group", "2")[0] == 2


def test_render_plain_and_pretty(tmp_path, capsys):
    d = PipeDream([(1, 1), (1, 2), (2, 1)])
    path = write_json(tmp_path, "d.json", d.to_json())
    code, out, _ = run(capsys, "render", path)
    assert code == 0
    assert out == "++.\n+.\n.\n"
    code, out, _ = run(capsys, "render", path, "--pretty")
    assert out == "┼┼·\n┼·\n·\n"


def test_render_bpd(tmp_path, capsys):
    rothe = BumplessPipeDream.rothe(Permutation((2, 1)))
    path = write_json(tmp_path, "b.json", rothe.to_json())
    code, out, _ = run(capsys, "render", path)
    assert code == 0
    assert out == ".r\nr+\n"


def test_malformed_json_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(capsys, "render", str(path))[0] == 2


def test_unknown_model(tmp_path, capsys):
    path = write_json(tmp_path, "x.json", {"model": "mystery"})
    assert run(capsys, "pop", path)[0] == 2


def test_missing_file(capsys):
    assert run(capsys, "pop", "/nonexistent/diagram.json")[0] == 2


def test_pop_refuses_a_non_reduced_pipe_dream(tmp_path, capsys):
    payload = {"model": "pd", "crosses": [[1, 2], [2, 1]]}
    code, out, err = run(capsys, "pop", write_json(tmp_path, "d.json", payload))
    assert (code, out) == (2, "")
    assert err == "error: pipe dream [(1, 2), (2, 1)] is not reduced\n"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"model": "pd"}, "the pipe dream payload has no field 'crosses'"),
        (
            {"model": "bpd", "n": 1},
            "the bumpless pipe dream payload has no field 'tiles'",
        ),
        (
            {"model": "pd", "crosses": [[]]},
            "the field 'crosses' must be a list of [row, col] pairs",
        ),
    ],
    ids=["pd-no-crosses", "bpd-no-tiles", "pd-empty-cross"],
)
def test_a_missing_or_misshapen_field_is_named(tmp_path, capsys, payload, message):
    code, out, err = run(capsys, "render", write_json(tmp_path, "d.json", payload))
    assert (code, out, err) == (2, "", f"error: {message}\n")


DIAGRAM_COMMANDS = [
    ["render"],
    ["pop"],
    ["phi"],
    ["phi", "--inverse"],
    ["insert", "--a", "1", "--r", "1"],
    ["monk", "x", "--alpha", "2"],
    ["monk", "m", "--s", "1", "--beta", "2"],
]


@pytest.mark.parametrize("argv", DIAGRAM_COMMANDS, ids=" ".join)
def test_deeply_nested_json_is_bad_input(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    argv = list(argv)
    argv.insert(2 if argv[0] == "monk" else 1, str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: the JSON input is nested too deeply\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# Payloads that name a model and get its fields nearly right.
NEAR_MISSES = st.fixed_dictionaries(
    {"model": st.sampled_from(["pd", "bpd"])},
    optional={
        "crosses": st.lists(st.lists(st.integers(-1, 8), max_size=3), max_size=6)
        | JSON_VALUES,
        "tiles": st.lists(
            st.lists(st.sampled_from([*".|-rj+b", "", "r-", 1]), max_size=5)
            | st.text(".|-rj+bx", max_size=5),
            max_size=5,
        )
        | JSON_VALUES,
        "n": st.integers(-1, 6) | JSON_VALUES,
    },
)


@seed(17)
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(DIAGRAM_COMMANDS), (JSON_VALUES | NEAR_MISSES).map(json.dumps))
@example(["render"], "[" * 100_000)
@example(["monk", "m", "--s", "1", "--beta", "2"], "[" * 100_000)
def test_any_diagram_input_exits_0_or_2(argv, text):
    # The file argument defaults to stdin.
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2), (argv, text)


@pytest.mark.parametrize(
    "payload",
    [
        "[1, 2]",
        '"x"',
        "null",
        # Coordinates that are not integers, and tiles that are not one
        # letter, are rejected rather than coerced or joined.
        '{"model": "pd", "crosses": [[1.9, 1], ["2", "1"]]}',
        '{"model": "bpd", "n": 2, "tiles": [[".r", ""], ["r+"]]}',
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["render"], ["pop"], ["monk", "x", "--alpha", "1"], ["phi"]],
)
def test_non_object_payload_is_bad_input(tmp_path, capsys, argv, payload):
    path = tmp_path / "p.json"
    path.write_text(payload)
    argv = list(argv)
    argv.insert(2 if argv[0] == "monk" else 1, str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


PD_11 = {"model": "pd", "crosses": [[1, 1]]}
BPD_ID = {"model": "bpd", "n": 1, "tiles": [["r"]]}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["insert", "--a", "65", "--r", "1"], BPD_ID),
        (["insert", "--a", "1", "--r", "65"], BPD_ID),
        (["monk", "x", "--alpha", "65"], PD_11),
        (["monk", "m", "--s", "65", "--beta", "1"], PD_11),
        (["monk", "m", "--s", "1", "--beta", "65"], PD_11),
        (["render"], {"model": "pd", "crosses": [[1, 4000]]}),
    ],
    ids=["a", "r", "alpha", "s", "beta", "cross"],
)
def test_grid_growing_input_above_the_bound_is_bad_input(
    tmp_path, capsys, argv, payload
):
    argv = list(argv)
    argv.insert(2 if argv[0] == "monk" else 1, write_json(tmp_path, "d.json", payload))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the bound 64" in err


def test_inputs_at_the_bound_are_accepted(tmp_path, capsys):
    path = write_json(tmp_path, "d.json", PD_11)
    assert run(capsys, "monk", "x", path, "--alpha", "64")[0] == 0
    path = write_json(tmp_path, "e.json", {"model": "pd", "crosses": [[2, 63]]})
    assert run(capsys, "render", path)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["render"],
        ["pop"],
        ["insert", "--a", "2", "--r", "1"],
        ["monk", "x", "--alpha", "1"],
        ["phi"],
    ],
    ids=["render", "pop", "insert", "monk", "phi"],
)
@pytest.mark.parametrize("n", [64, 65])
def test_bpd_grid_size_is_bounded(tmp_path, capsys, argv, n):
    payload = BumplessPipeDream.rothe(Permutation((2, 1)), n).to_json()
    argv = list(argv)
    argv.insert(2 if argv[0] == "monk" else 1, write_json(tmp_path, "d.json", payload))
    code, out, err = run(capsys, *argv)
    if n == 64:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err == "error: the grid size n = 65 exceeds the bound 64\n"
