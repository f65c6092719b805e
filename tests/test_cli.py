"""Command-line surface: output records, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

import grunwald
from grunwald.cli import run
from grunwald.errors import InternalContradictionError

WANG = {
    "m": 8,
    "places": [
        {"place": 2, "conductor_exponent": 5, "unit_exponents": [0, 1], "uniformizer_exponent": 1}
    ],
}


@pytest.fixture
def wang_file(tmp_path):
    path = tmp_path / "wang.json"
    path.write_text(json.dumps(WANG))
    return str(path)


def lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_special_case_example(capsys):
    assert run(["special-case", "--field", "Q", "--m", "8", "--S", "2"]) == 0
    assert lines(capsys) == ["occurs=true", "s=2", "a0=16", "S0=2"]


def test_special_case_not_occurring(capsys):
    assert run(["special-case", "--field", "Q", "--m", "4", "--S", "2"]) == 0
    assert lines(capsys) == ["occurs=false", "s=2", "S0=2", "failed_condition=c"]


def test_special_case_irrational_a0(capsys):
    assert run(["special-case", "--field", "Qsqrt:2", "--m", "16", "--S", "2"]) == 0
    out = lines(capsys)
    assert "a0_coords=9232+6528*sqrt(2)" in out


def test_construct_wang(capsys, wang_file, tmp_path):
    assert run(["construct", "--instance", wang_file]) == 0
    out = lines(capsys)
    assert "modulus=544" in out
    assert "conductor=544" in out
    assert "exponent_achieved=16" in out
    assert "special_case=true" in out
    assert "aux_primes=3,5,17" in out
    assert "cycle=2^11*3*5*17*infinity" in out
    # an explicit "field": "Q" solves exactly as no field does
    path = tmp_path / "wang_q.json"
    path.write_text(json.dumps({**WANG, "field": "Q"}))
    assert run(["construct", "--instance", str(path)]) == 0
    assert lines(capsys) == out


def test_construct_oracle_method(capsys, wang_file):
    assert run(["construct", "--instance", wang_file, "--method", "oracle", "--cap", "1000"]) == 0
    out = lines(capsys)
    assert "conductor=544" in out
    assert "aux_primes=" in out  # oracle route has no auxiliary primes


def test_report_contains_bound_fields(capsys, wang_file):
    assert run(["report", "--instance", wang_file]) == 0
    out = lines(capsys)
    keys = {line.split("=")[0] for line in out}
    assert {"e", "delta", "delta_prime", "e1", "log_shape", "shape_ratio"} <= keys
    assert not {"class_generators", "selmer_rank"} & keys


def test_report_bad_epsilon_prints_nothing(capsys, wang_file):
    assert run(["report", "--instance", wang_file, "--epsilon", "0"]) == 2
    assert run(["report", "--instance", wang_file, "--epsilon", "-1"]) == 2
    assert run(["report", "--instance", wang_file, "--epsilon", "nan"]) == 2
    assert run(["report", "--instance", wang_file, "--epsilon", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: epsilon must be positive"] * 2 + [
        "error: epsilon must be finite, not nan",
        "error: epsilon must be finite, not inf",
    ]


def test_least_prime(capsys):
    assert run(["least-prime", "--modulus", "5", "--exponents", "2"]) == 0
    assert lines(capsys) == ["prime=2", "norm=2", "value_exponent=2"]


def test_least_prime_modulus_above_factor_limit(capsys):
    # 89#, the product of the 24 primes up to 89, is 115 bits, above
    # FACTOR_LIMIT, but trial division splits it; a character on its mod-89
    # component alone answers as the same character mod 89
    primorial = math.prod(p for p in range(2, 90) if all(p % d for d in range(2, p)))
    assert primorial.bit_length() == 115
    argv = ["least-prime", "--modulus", str(primorial), "--exponents", ",".join(["0"] * 22 + ["1"])]
    assert run(argv + ["--exponent-modulus", "88"]) == 0
    want = ["prime=2", "norm=2", "value_exponent=16"]  # 3^16 = 2 mod 89
    assert lines(capsys) == want
    assert run(["least-prime", "--modulus", "89", "--exponents", "1", "--exponent-modulus", "88"]) == 0
    assert lines(capsys) == want


def test_least_prime_excluding(capsys):
    assert run(["least-prime", "--modulus", "5", "--exponents", "2", "--exclude", "2,3"]) == 0
    assert lines(capsys)[0] == "prime=7"


def test_powres(capsys):
    assert run(["powres", "--p", "2", "--l", "3"]) == 0
    assert lines(capsys) == ["N=7", "phi=6", "power_count=2", "class_order=3"]
    assert run(["powres", "--p", "2", "--l", "2", "--r", "2"]) == 0
    assert lines(capsys)[0] == "N=5"


def test_scan_writes_csv(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    assert run(["scan", "--max-conductor", "40", "--out", str(out_file)]) == 0
    out = lines(capsys)
    assert out[0].startswith("records=")
    body = out_file.read_text().splitlines()
    assert body[0].startswith("conductor,modulus,")
    assert int(out[0].split("=")[1]) == len(body) - 1


def test_scan_bad_epsilon_leaves_out_file_alone(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    assert run(["scan", "--max-conductor", "40", "--epsilon", "0", "--out", str(missing)]) == 2
    assert not missing.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("keep\n")
    assert run(["scan", "--max-conductor", "40", "--epsilon", "-1", "--out", str(kept)]) == 2
    assert kept.read_text() == "keep\n"
    for bad in ("nan", "inf"):
        assert run(["scan", "--max-conductor", "10", "--epsilon", bad, "--out", str(missing)]) == 2
        assert run(["scan", "--max-conductor", "10", "--epsilon", bad, "--out", str(kept)]) == 2
    assert not missing.exists()
    assert kept.read_text() == "keep\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: epsilon must be positive"] * 2 + [
        f"error: epsilon must be finite, not {bad}" for bad in ("nan", "inf") for _ in "ab"
    ]


def test_scan_bad_cap_leaves_out_file_alone(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    assert run(["scan", "--max-conductor", "20", "--cap", "0", "--out", str(missing)]) == 2
    assert not missing.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("keep\n")
    assert run(["scan", "--max-conductor", "20", "--cap", "-5", "--out", str(kept)]) == 2
    assert kept.read_text() == "keep\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: bad search cap 0", "error: bad search cap -5"]


def test_least_prime_bad_cap(capsys, wang_file):
    # bad input (2), as for construct --method oracle, not an exhausted cap (3)
    assert run(["least-prime", "--modulus", "5", "--exponents", "1", "--cap", "-5"]) == 2
    assert run(["least-prime", "--modulus", "5", "--exponents", "1", "--cap", "0"]) == 2
    assert run(["construct", "--instance", wang_file, "--method", "oracle", "--cap", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: bad search cap {c}" for c in (-5, 0, 0)]


def test_scan_summary_matches_records(capsys, tmp_path):
    # the running flagged count and maxima against the written rows; a
    # small cap flags some records, cap 1 flags all (maxima default 0.0)
    for cap in ("7", "1"):
        out_file = tmp_path / "scan.csv"
        assert run(["scan", "--max-conductor", "60", "--cap", cap, "--out", str(out_file)]) == 0
        kv = dict(line.split("=", 1) for line in lines(capsys))
        rows = [row.split(",") for row in out_file.read_text().splitlines()[1:]]
        clean = [row for row in rows if row[4] != "0"]
        assert int(kv["records"]) == len(rows)
        assert int(kv["flagged"]) == len(rows) - len(clean)
        for col, name in ((6, "ratio_a"), (7, "ratio_b"), (8, "ratio_c")):
            assert float(kv[f"max_{name}"]) == max((float(row[col]) for row in clean), default=0.0)


def test_scan_ratio_maxima_are_column_maxima(capsys, tmp_path):
    # with S = {2, 3, 5, 7} the largest ratio_c is not on the first row, so
    # the running maximum is updated past it
    out_file = tmp_path / "scan.csv"
    argv = ["scan", "--max-conductor", "200", "--S", "2,3,5,7", "--out", str(out_file)]
    assert run(argv) == 0
    kv = dict(line.split("=", 1) for line in lines(capsys))
    rows = [row.split(",") for row in out_file.read_text().splitlines()[1:]]
    assert int(kv["records"]) == len(rows) and kv["flagged"] == "0"
    for col, name in ((6, "ratio_a"), (7, "ratio_b"), (8, "ratio_c")):
        column = [float(row[col]) for row in rows]
        assert float(kv[f"max_{name}"]) == max(column)
    assert float(kv["max_ratio_c"]) > float(rows[0][8])


def test_least_prime_without_exponents(capsys):
    # an empty exponent list is the trivial character mod 2: no witness
    assert run(["least-prime", "--modulus", "2"]) == 2
    assert capsys.readouterr().err == "error: the trivial character is 1 at every prime\n"


def test_place_error_says_not_a_prime(capsys):
    assert run(["special-case", "--m", "8", "--S", "2,9"]) == 2
    assert capsys.readouterr().err.strip() == "error: not a prime: 9"


def test_exit_code_validation(capsys):
    assert run(["construct", "--instance", "/nonexistent.json"]) == 2
    assert run(["powres", "--p", "4", "--l", "3"]) == 2
    assert run(["special-case", "--field", "Qsqrt:12", "--m", "8", "--S", ""]) == 2
    assert run(["least-prime", "--modulus", "5", "--exponents", "0"]) == 2  # trivial: no witness
    assert run(["nonsense-command"]) == 2
    assert run(["special-case", "--m", "8", "--S", "2,2"]) == 2  # duplicate place
    capsys.readouterr()
    assert run(["least-prime", "--modulus", "5", "--exponents", "1,x"]) == 2
    assert capsys.readouterr().err == "error: cannot parse integer list '1,x'\n"
    # 2^89 - 1 is prime but above psi_13, where Miller-Rabin proves nothing
    n = 2**89 - 1
    argv = ["least-prime", "--modulus", str(n), "--exponents", "1"]
    assert run(argv + ["--exponent-modulus", str(n - 1)]) == 2
    assert "cannot certify" in capsys.readouterr().err


def test_exit_code_search_cap(wang_file, capsys):
    assert run(["construct", "--instance", wang_file, "--method", "oracle", "--cap", "100"]) == 3
    # a discrete log of order 2^61 - 2 would need a 1.5e9-entry BSGS table
    n = 2**61 - 1
    argv = ["least-prime", "--modulus", str(n), "--exponents", "1"]
    capsys.readouterr()
    assert run(argv + ["--exponent-modulus", str(n - 1)]) == 3
    assert "BSGS baby steps" in capsys.readouterr().err
    # 3^61 is above FACTOR_LIMIT but splits by trial division, so it
    # reaches the same bound: its group order is 2 * 3^60
    assert run(["least-prime", "--modulus", str(3**61), "--exponents", "1"]) == 3
    assert (
        capsys.readouterr().err
        == "error: order 84782316550432407028588866402 needs over 65536 BSGS baby steps\n"
    )


def test_exit_code_contradiction(monkeypatch, capsys):
    import grunwald.cli as cli_mod

    def boom(args):
        raise InternalContradictionError("forced")

    monkeypatch.setattr(cli_mod, "_cmd_powres", boom)
    assert cli_mod.run(["powres", "--p", "2", "--l", "3"]) == 4
    assert "error: forced" in capsys.readouterr().err


def test_bad_instance_payload(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 8, "bogus": 1}')
    assert run(["construct", "--instance", str(path)]) == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err
    path.write_text('{"m": 8,')
    assert run(["construct", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse instance file: ")
    # a JSON float is refused, not truncated to an integer
    path.write_text('{"m": 4.9, "places": [{"place": "5", "conductor_exponent": 1.7, "unit_exponents": [1.2]}]}')
    assert run(["construct", "--instance", str(path)]) == 2
    assert run(["report", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad exponent entry 4.9\n" * 2
    # so is a JSON string, even one that spells an integer
    path.write_text('{"m": "4", "places": []}')
    assert run(["construct", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: bad exponent entry '4'\n"
    path.write_text('{"m": 4, "places": [{"place": 5, "conductor_exponent": 1, "unit_exponents": "1"}]}')
    assert run(["construct", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad place record ")
    # a quadratic field parses but is refused; a d that is not squarefree
    # fails the squarefree check, with its own message
    path.write_text(json.dumps({**WANG, "field": "Qsqrt:5"}))
    assert run(["construct", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: solving is implemented over Q only\n"
    path.write_text(json.dumps({**WANG, "field": "Qsqrt:4"}))
    assert run(["construct", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: d not squarefree: 4\n"
    # Qsqrt:1 is refused as d = 0 is, not read as Q
    path.write_text(json.dumps({**WANG, "field": "Qsqrt:1"}))
    assert run(["construct", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: d must be squarefree, not 0 or 1: 1\n"
    # the same on the command line; a field that is no field fails to parse
    assert run(["special-case", "--field", "Qsqrt:4", "--m", "8", "--S", ""]) == 2
    assert capsys.readouterr().err == "error: d not squarefree: 4\n"
    assert run(["special-case", "--field", "Qsqrt:1", "--m", "8", "--S", "2"]) == 2
    assert capsys.readouterr().err == "error: d must be squarefree, not 0 or 1: 1\n"
    assert run(["special-case", "--field", "Qsqrt:x", "--m", "8", "--S", ""]) == 2
    assert capsys.readouterr().err == "error: cannot parse field 'Qsqrt:x'\n"


def _child_env():
    """Environment under which a child interpreter imports this grunwald."""
    root = os.path.dirname(os.path.dirname(grunwald.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}


def test_console_script_deterministic():
    argv = ["special-case", "--field", "Q", "--m", "8", "--S", "2"]
    runs = [
        subprocess.run(
            [sys.executable, "-c", "from grunwald.cli import console_main; console_main()", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.splitlines()[0] == "occurs=true"


def test_python_dash_m_entry_point():
    ok = subprocess.run(
        [sys.executable, "-m", "grunwald", "special-case", "--field", "Q", "--m", "8", "--S", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert ok.returncode == 0
    assert ok.stdout.splitlines() == ["occurs=true", "s=2", "a0=16", "S0=2"]
    bad = subprocess.run(
        [sys.executable, "-m", "grunwald", "powres", "--p", "4", "--l", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")


def test_infinity_spelled_out(capsys, tmp_path):
    inst = {"m": 2, "places": [{"place": "infinity", "sign_exponent": 1}]}
    path = tmp_path / "real.json"
    path.write_text(json.dumps(inst))
    assert run(["construct", "--instance", str(path)]) == 0
    out = lines(capsys)
    assert any(line.startswith("cycle=") and "infinity" in line for line in out)
