"""Command-line interface: output contracts, schema validity, exit codes,
and byte-level determinism."""

import json
import math
import sys
import threading

import jsonschema

import numpy as np
import pytest

from expwell import crum, specfun
from expwell.cli import _json_dump, main
from expwell.verify import CheckResult

try:
    from importlib.resources import files as _files
    SCHEMA = json.loads(
        (_files("expwell") / "output_schema.json").read_text())
except Exception:  # pragma: no cover
    SCHEMA = None


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json_schema_and_content(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--g", "1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["pass"] is True
    states = doc["results"]["states"]
    assert len(states) == 1
    assert states[0]["parity"] == "even"
    assert 0.5 < states[0]["kappa"] < 1.0


def test_spectrum_verify_oracle_column(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--g", "1", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["states"][0]["oracle_delta"] <= 1e-8


def test_spectrum_small_g(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--g", "0.05")
    assert code == 0
    doc = json.loads(out)
    kappa = doc["results"]["states"][0]["kappa"]
    assert abs(kappa - 0.05 ** 2) / 0.05 ** 2 <= 0.05


def test_spectrum_negative_g_usage_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--g", "-1")
    assert code == 2
    assert "positive" in err


def test_spectrum_nonfinite_norm_is_numerical_error(capsys, monkeypatch):
    monkeypatch.setattr(specfun, "_lommel_integral", lambda *args: math.nan)
    code, out, err = run_cli(capsys, "spectrum", "--g", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "norm" in err


def test_unknown_command_usage_error(capsys):
    assert main(["explode", "--g", "1"]) == 2


def test_scatter_sweep_passes(capsys):
    code, out, _ = run_cli(capsys, "scatter", "--g", "1",
                           "--kmin", "0.1", "--kmax", "5", "--n", "12")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    pts = doc["results"]["points"]
    assert len(pts) == 12
    for p in pts:
        assert abs(p["abs_r2"] + p["abs_t2"] - 1.0) <= 1e-10
        assert p["unitarity_residual"] <= 1e-10
        assert p["wronskian_residual"] <= 1e-9


def test_scatter_poles_match_spectrum(capsys):
    code, out, _ = run_cli(capsys, "scatter", "--g", "5", "--k", "1",
                           "--poles")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["poles"]["matched"] is True
    assert doc["results"]["poles"]["count"] == 6


def test_scatter_oracle_column(capsys):
    code, out, _ = run_cli(capsys, "scatter", "--g", "1", "--k", "1",
                           "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["points"][0]["oracle_t2_delta"] <= 1e-4


def test_scatter_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "scatter", "--g", "1", "--k", "1",
                           "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == ("k,re_r,im_r,re_t,im_t,abs_r2,abs_t2,"
                      "unitarity_residual,wronskian_residual,oracle_t2_delta")


def test_crum_command(capsys):
    code, out, _ = run_cli(capsys, "crum", "--g", "5", "--L", "1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["residuals"]["max_orthogonality_residual"] <= 1e-7
    assert doc["residuals"]["shape_invariance_residual"] > 1e-3
    assert len(doc["results"]["x_grid"]) == 201


@pytest.mark.parametrize("argv, message", [
    (["scatter", "--g", "1", "--k", "1e-4"], "at least 1e-3"),
    (["scatter", "--g", "1", "--kmin", "1", "--kmax", "0.5"], "kmin < kmax"),
    (["scatter", "--g", "1", "--n", "0"], "n >= 1"),
    (["crum", "--g", "5", "--L", "0"], "L must be >= 1"),
])
def test_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_crum_insufficient_states(capsys):
    code, _, err = run_cli(capsys, "crum", "--g", "1", "--L", "2")
    assert code == 2
    assert "insufficient states" in err


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--g", "0.5")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--g", "1", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["pass"] is True
    assert len(doc["results"]["checks"]) == len(out.splitlines())


def test_verify_rejects_report_flags(capsys):
    # verify always writes JSON and has no tolerance of its own
    code, _, _ = run_cli(capsys, "verify", "--g", "1", "--format", "csv")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--g", "1", "--tol", "1e-3")
    assert code == 2


def test_output_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["scatter", "--g", "2", "--kmin", "0.2", "--kmax", "3",
                 "--n", "7", "--out", str(p1)]) == 0
    assert main(["scatter", "--g", "2", "--kmin", "0.2", "--kmax", "3",
                 "--n", "7", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


_THREADED_RUNS = {
    "spectrum.json": ["spectrum", "--g", "7.3"],
    "scatter.json": ["scatter", "--g", "11.5", "--kmin", "0.05",
                     "--kmax", "6", "--n", "12"],
    "crum.json": ["crum", "--g", "4.7", "--L", "2"],
}


def _clear_kernel_caches():
    specfun._series_cached.cache_clear()
    crum._wronskian_det_mp.cache_clear()


def test_output_determinism_under_threads(tmp_path, capsys):
    # the series is summed outside MP_LOCK; reports written from threads
    # that start on cold kernel caches must match a sequential run
    codes = {}

    def run(argv, out):
        codes[out] = main(argv + ["--out", str(out)])

    seq, par = tmp_path / "seq", tmp_path / "par"
    seq.mkdir()
    par.mkdir()
    _clear_kernel_caches()
    for name, argv in _THREADED_RUNS.items():
        run(argv, seq / name)
    _clear_kernel_caches()
    threads = [threading.Thread(target=run, args=(argv, par / name))
               for name, argv in _THREADED_RUNS.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(codes.values()) == [0] * 2 * len(_THREADED_RUNS)
    for name in _THREADED_RUNS:
        assert (par / name).read_bytes() == (seq / name).read_bytes(), name


def test_float_serialization_round_trips(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--g", "1")
    doc = json.loads(out)
    kappa = doc["results"]["states"][0]["kappa"]
    assert float(format(kappa, ".17g")) == kappa


def test_numpy_bool_is_a_json_boolean():
    # a check comparing numpy floats yields numpy.bool_
    passed = np.float64(1e-9) <= 1e-8
    assert isinstance(passed, np.bool_)
    assert json.loads(_json_dump({"passed": passed})) == {"passed": True}
    assert json.loads(_json_dump([np.bool_(False)])) == [False]
    row = CheckResult("x", 1e-9, 1e-8, "<=", passed)
    assert type(row.passed) is bool and row.passed
