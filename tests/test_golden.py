"""Golden outputs: exact CLI stdout and exit codes, and a full S4 harness run.

The expected bytes in ``golden_cli.json`` were recorded from the command
line tool; a change to any of them is a change to the CLI's output
contract.  ``python tests/test_golden.py`` rewrites the file from the
current code, for use only when such a change is intended.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from pipedreams.cli import main
from pipedreams.verify import run_checks

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

BPD_21543 = {
    "model": "bpd",
    "n": 5,
    "tiles": [list(r) for r in ("..r--", ".rjr-", "r+-jr", "||.r+", "||r++")],
}
BPD_1432 = {
    "model": "bpd",
    "n": 4,
    "tiles": [list(r) for r in (".r--", "rj.r", "|.r+", "|r++")],
}
PD_21543 = {"model": "pd", "crosses": [[1, 4], [1, 1], [2, 2], [3, 2]]}
PD_1432 = {"model": "pd", "crosses": [[1, 3], [1, 2], [3, 1]]}
PD_EMPTY = {"model": "pd", "crosses": []}

# name -> (argv, diagram payload written to a file appended to argv, or None)
CASES = {
    "schubert": (["schubert", "21543"], None),
    "schubert_pretty": (["schubert", "21543", "--pretty"], None),
    "schubert_small": (["schubert", "1432"], None),
    "enum_pd": (["enum", "21543", "--model", "pd"], None),
    "enum_bpd": (["enum", "21543", "--model", "bpd"], None),
    "enum_pd_pretty": (["enum", "1432", "--model", "pd", "--pretty"], None),
    "enum_bpd_pretty": (["enum", "1432", "--model", "bpd", "--pretty"], None),
    "enum_identity_bpd": (["enum", "1", "--model", "bpd"], None),
    "phi": (["phi"], BPD_21543),
    "phi_pretty": (["phi", "--pretty"], BPD_21543),
    "phi_inverse": (["phi", "--inverse"], PD_21543),
    "phi_inverse_pretty": (["phi", "--inverse", "--pretty"], PD_21543),
    "phi_wrong_direction": (["phi"], PD_21543),
    "pop_pd": (["pop"], PD_21543),
    "pop_bpd": (["pop"], BPD_21543),
    "pop_pd_pretty": (["pop", "--pretty"], PD_1432),
    "pop_bpd_pretty": (["pop", "--pretty"], BPD_1432),
    "pop_empty_pd": (["pop"], PD_EMPTY),
    "insert": (["insert", "--a", "4", "--r", "1"], BPD_1432),
    "insert_none": (["insert", "--a", "1", "--r", "1"], BPD_1432),
    "insert_none_pretty": (["insert", "--a", "1", "--r", "1", "--pretty"], BPD_1432),
    "insert_pretty": (["insert", "--a", "4", "--r", "1", "--pretty"], BPD_1432),
    "monk_x_pd": (["monk", "x", "--alpha", "2"], PD_21543),
    "monk_x_bpd": (["monk", "x", "--alpha", "2"], BPD_21543),
    "monk_m_pd": (["monk", "m", "--s", "4", "--beta", "5"], PD_21543),
    "monk_m_bpd": (["monk", "m", "--s", "4", "--beta", "5"], BPD_21543),
    "monk_m_pd_small": (["monk", "m", "--s", "3", "--beta", "4"], PD_1432),
    "monk_m_bpd_small": (["monk", "m", "--s", "3", "--beta", "4"], BPD_1432),
    "monk_x_bpd_pretty": (["monk", "x", "--alpha", "3", "--pretty"], BPD_1432),
    "monk_m_not_cover": (["monk", "m", "--s", "1", "--beta", "2"], PD_1432),
    "render_pd": (["render"], PD_21543),
    "render_bpd": (["render"], BPD_21543),
    "render_pd_pretty": (["render", "--pretty"], PD_1432),
    "render_bpd_pretty": (["render", "--pretty"], BPD_1432),
    "verify_group_3": (["verify", "--group", "3"], None),
}


def run_case(name, directory, read_stdout):
    argv, payload = CASES[name]
    argv = list(argv)
    if payload is not None:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        argv.insert(2 if argv[0] == "monk" else 1, path)
    code = main(argv)
    return {"code": code, "stdout": read_stdout()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, golden, tmp_path, capsys):
    got = run_case(name, str(tmp_path), lambda: capsys.readouterr().out)
    assert got == golden[name]


# sha256 of the stdout of ``pipedreams enum WORD --model pd`` for the two
# anchor permutations; the outputs run to 22 kB and 926 kB.
ENUM_PD_SHA256 = {
    "2153746": "a1d8365e89bad79e488a88d1fe83c85ca8d93b480a4da20b6feeb726bc4f3ad6",
    "21786534": "2f3172cff1a194fb3a0bd59c92947cbd1658b15f7127892881acf53812da1def",
}


@pytest.mark.parametrize("word", sorted(ENUM_PD_SHA256))
def test_enum_pd_anchor_sha256(word, capsys):
    assert main(["enum", word, "--model", "pd"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == ENUM_PD_SHA256[word]


RUN_CHECKS_S4_SEED_0 = {
    "triple_agreement": (True, "all 24 permutations agree"),
    "monk_poly": (True, "120 instances hold"),
    "stability": (True, "polynomials independent of the ambient size"),
    "poly_ring": (True, "ring axioms hold on random samples"),
    "bijection": (True, "bijective on 41 diagrams"),
    "compatible": (True, "41 sequences valid"),
    "roundtrip": (True, "40 pop/insert round trips"),
    "commutation": (True, "204 move families commute with phi"),
    "partition": (True, "images partition the upper cover diagrams"),
    "lemmas": (True, "834 audits pass (0 clauses skipped)"),
    "footprints": (True, "421 moves leave distinct footprints"),
}


@pytest.mark.slow
def test_run_checks_s4_golden():
    result = run_checks(4, seed=0)
    assert list(result) == list(RUN_CHECKS_S4_SEED_0)
    assert result == RUN_CHECKS_S4_SEED_0


if __name__ == "__main__":
    buf = io.StringIO()

    def read_stdout():
        out = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return out

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
        recorded = {name: run_case(name, tmp, read_stdout) for name in CASES}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
