"""End-to-end command-line behavior: formats, determinism, exit codes."""

import contextlib
import io
import json

import numpy as np
import pytest

from qsdecert import (
    ApproxState,
    CSV_HEADER,
    ae_certificate_table,
    interval_sum,
    kerr_cavity,
    kerr_certificate_table,
    kerr_constants,
    kerr_table_row,
    model_to_json,
)
from qsdecert.cli import main
from qsdecert.truncation import KERR_KS

KERR19_BOUND = 0.2328439300481592


def _read(path):
    return path.read_text()


def test_kerr_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["kerr-table", "--out", str(out)]) == 0
    lines = _read(out).strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    ks = [int(row.split(",")[0]) for row in lines[1:]]
    assert ks == [19, 29, 39, 49, 59, 69, 79, 89, 99]
    bounds = [float(row.split(",")[-1]) for row in lines[1:]]
    assert bounds[0] == pytest.approx(KERR19_BOUND, abs=1e-12)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_kerr_table_json_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["kerr-table", "--k-list", "19,29", "--format", "json"]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert _read(f1) == _read(f2)
    payload = json.loads(_read(f1))
    assert [row["k"] for row in payload["rows"]] == [19, 29]
    assert payload["rows"][0]["bound"] == pytest.approx(KERR19_BOUND, abs=1e-12)
    assert "J" not in payload  # no search ran


def test_kerr_table_stdout(capsys):
    assert main(["kerr-table", "--k-list", "19"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == CSV_HEADER
    assert captured.err == ""


def test_kerr_table_rejects_bad_levels():
    with pytest.raises(SystemExit) as exc:
        main(["kerr-table", "--k-list", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["kerr-table", "--k-list", "19,x"])
    assert exc.value.code == 2


def test_kerr_table_optimize_search(tmp_path):
    out = tmp_path / "opt.json"
    argv = ["kerr-table", "--k-list", "2", "--t-final", "0.5", "--optimize",
            "--seed", "7", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(_read(out))
    assert 0.0 < payload["J"] < 0.01
    assert payload["rows"][0]["k"] == 2


def test_kerr_table_optimize_seed_defaults_to_zero(tmp_path):
    argv = ["kerr-table", "--k-list", "2", "--t-final", "0.5", "--optimize",
            "--format", "json", "--out"]
    assert main(argv + [str(tmp_path / "a.json")]) == 0
    assert main(argv + [str(tmp_path / "b.json"), "--seed", "0"]) == 0
    assert _read(tmp_path / "a.json") == _read(tmp_path / "b.json")


def test_bound_builtin_kerr_matches_table_row(tmp_path):
    out = tmp_path / "bound.json"
    assert main(["bound", "--model", "kerr", "--k", "19", "--out", str(out)]) == 0
    payload = json.loads(_read(out))
    ref = kerr_table_row(19).to_json()
    for key in ("k", "z_sum", "residual", "mismatch", "bound"):
        assert payload[key] == ref[key]


def test_json_marks_vacuous_bounds(tmp_path):
    # Two unit vectors are at most 2 apart, so a bound >= 2 says nothing.
    out = tmp_path / "t.json"
    argv = ["kerr-table", "--k", "19", "--format", "json", "--out", str(out)]
    assert main(argv + ["--alpha", "1e3"]) == 0
    row = json.loads(_read(out))["rows"][0]
    assert row["bound"] == pytest.approx(2.8283903470124105, abs=1e-12)
    assert row["vacuous"] is True
    assert main(argv) == 0
    row = json.loads(_read(out))["rows"][0]
    assert row["bound"] == pytest.approx(KERR19_BOUND, abs=1e-12)
    assert row["vacuous"] is False
    # The CSV schema has no such column.
    assert main(["kerr-table", "--k", "19", "--out", str(out)]) == 0
    assert _read(out).splitlines()[0] == CSV_HEADER


def test_bound_requires_level():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--model", "kerr"])
    assert exc.value.code == 2


def test_bound_with_constants_file(tmp_path):
    consts = {"gamma": 237.5, "qL": 2.23606797749979,
              "qa": 2.179449471770337, "qe": 4.527355824977709, "k": 19}
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(consts))
    out = tmp_path / "z.json"
    assert main(["bound", "--constants", str(cfile), "--partition", "0,1,2,5",
                 "--out", str(out)]) == 0
    payload = json.loads(_read(out))
    ref = kerr_constants(19, 0.1, 0.1, 25.0)
    manual = interval_sum(ref, [0.0, 1.0, 2.0, 5.0], 2, 2)
    assert payload["z_sum"] == pytest.approx(manual, rel=1e-12)
    assert payload["bound"] == pytest.approx((2.0 * manual) ** 0.5, rel=1e-12)
    assert payload["psi_desc"] == "rate-sum evaluation (no approximant)"
    assert payload["k"] == 19
    # silent coupling: the whole certificate collapses to zero
    cfile.write_text(json.dumps({**consts, "qL": 0.0}))
    assert main(["bound", "--constants", str(cfile), "--partition", "0,1",
                 "--out", str(out)]) == 0
    assert json.loads(_read(out))["bound"] == 0.0


def test_bound_with_model_file(tmp_path):
    mfile = tmp_path / "model.json"
    mfile.write_text(json.dumps(model_to_json(kerr_cavity(25.0, 50.0, -5.0 / 6.0, 3))))
    out = tmp_path / "z.json"
    assert main(["bound", "--model", str(mfile), "--partition", "0,0.5,1",
                 "--amplitudes", "0.1,0.1", "--out", str(out)]) == 0
    payload = json.loads(_read(out))
    manual = interval_sum(kerr_constants(3, 0.1, 0.1, 25.0), [0.0, 0.5, 1.0], 2, 2)
    assert payload["z_sum"] == pytest.approx(manual, rel=1e-12)


def test_bound_missing_inputs(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bound"])
    assert exc.value.code == 2
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamma": 1.0, "qL": 1.0, "qa": 1.0, "qe": 1.0}))
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--constants", str(cfile)])  # no partition
    assert exc.value.code == 2


def test_bound_corrupt_model_file(tmp_path, capsys):
    data = model_to_json(kerr_cavity(25.0, 50.0, -5.0 / 6.0, 3))
    data["dim"] = 99
    mfile = tmp_path / "bad.json"
    mfile.write_text(json.dumps(data))
    rc = main(["bound", "--model", str(mfile), "--partition", "0,1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bound_nonfinite_model_file(tmp_path, capsys):
    # json writes NaN and Infinity tokens and reads them back as floats.
    for bad in (float("nan"), float("inf")):
        data = model_to_json(kerr_cavity(25.0, 50.0, -5.0 / 6.0, 3))
        data["H"][1][1][0] = bad
        mfile = tmp_path / "nonfinite.json"
        mfile.write_text(json.dumps(data))
        rc = main(["bound", "--model", str(mfile), "--partition", "0,1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


def test_bound_bad_partition_exits_cleanly(tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamma": 1.0, "qL": 1.0, "qa": 1.0, "qe": 1.0}))
    for partition in ("0,abc", "0", "0,nan", "0,1,inf"):
        rc = main(["bound", "--constants", str(cfile), "--partition", partition])
        assert rc == 1, partition
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--partition" in err, partition


def test_bound_partition_follows_the_breakpoint_rule(tmp_path, capsys):
    # These reported the sum over [1, 2] with "t": 2.0, certified a
    # zero-length interval, and exited with "time must be finite and >= 0,
    # got -1.0", naming a time the user never gave.
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamma": 1.0, "qL": 1.0, "qa": 1.0, "qe": 1.0}))
    for partition in ("1,2", "0,1,1,2", "0,2,1"):
        rc = main(["bound", "--constants", str(cfile), "--partition", partition])
        assert rc == 1, partition
        captured = capsys.readouterr()
        assert captured.out == "", partition
        assert captured.err.startswith("error:") and "partition" in captured.err, partition


def test_bound_malformed_input_files_exit_cleanly(tmp_path, capsys):
    # Wrong key name in a constants file, a non-JSON file, a missing path and
    # a malformed level must all land on the single-line "error:" path, never a traceback.
    wrong_keys = tmp_path / "wrong.json"
    wrong_keys.write_text(json.dumps({"gamma": 1.0, "q_L": 1.0, "qa": 1.0, "qe": 1.0}))
    not_json = tmp_path / "garbage.json"
    not_json.write_text("not json at all")
    # A first entry whose level k is not an integer >= 1 used to be certified
    # and printed as given.
    bad_levels = []
    for i, k in enumerate(("abc", 0, 2.5)):
        bad_levels.append(tmp_path / f"level{i}.json")
        bad_levels[-1].write_text(json.dumps(
            [{"gamma": 1.0, "qL": 1.0, "qa": 1.0, "qe": 1.0, "k": k}]))
    for argv in (
        ["bound", "--constants", str(wrong_keys), "--partition", "0,1"],
        ["bound", "--constants", str(not_json), "--partition", "0,1"],
        ["bound", "--model", str(tmp_path / "missing.json"), "--partition", "0,1"],
        *(["bound", "--constants", str(path), "--partition", "0,1"] for path in bad_levels),
    ):
        rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


def test_bound_with_per_interval_constants_file(tmp_path, capsys):
    consts = kerr_constants(19, 0.1, np.array([0.1, 0.2, 0.05j]), 25.0)
    cfile = tmp_path / "c.json"
    keys = ("gamma", "qL", "qa", "qe")
    rows = zip(*(getattr(consts, key).tolist() for key in keys))
    cfile.write_text(json.dumps([dict(zip(keys, row), k=19) for row in rows]))
    out = tmp_path / "z.json"
    assert main(["bound", "--constants", str(cfile), "--partition", "0,0.5,2,5",
                 "--r", "3", "--s", "1", "--out", str(out)]) == 0
    payload = json.loads(_read(out))
    assert payload["z_sum"] == interval_sum(consts, [0.0, 0.5, 2.0, 5.0], 3, 1)
    assert payload["k"] == 19
    # Three constant sets for two intervals.
    rc = main(["bound", "--constants", str(cfile), "--partition", "0,1,2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bound_invalid_rates_exit_cleanly(tmp_path, capsys):
    good = {"gamma": 1.0, "qL": 1.0, "qa": 1.0, "qe": 1.0}
    cfile = tmp_path / "c.json"
    for bad, message in (({"gamma": 0.0}, "gamma"), ({"gamma": -2.0}, "gamma"),
                         ({"qa": -1.0}, "qa"), ({"qe": "1.0"}, "numeric"),
                         ({"qL": None}, "numeric"), ({"qL": [1.0]}, "numeric")):
        cfile.write_text(json.dumps([good, {**good, **bad}]))
        rc = main(["bound", "--constants", str(cfile), "--partition", "0,1,2"])
        assert rc == 1, bad
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, bad


def test_bound_orders_beyond_float_range_exit_cleanly(tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamma": 1.0, "qL": 1.0, "qa": 1.0, "qe": 1.0}))
    for orders in (["--r", "1100"], ["--r", "600", "--s", "600"]):
        rc = main(["bound", "--constants", str(cfile), "--partition", "0,1"] + orders)
        assert rc == 1, orders
        err = capsys.readouterr().err
        assert err.startswith("error:") and "orders" in err, orders


def test_bound_nonfinite_certificate_is_an_error(tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamma": 1e-300, "qL": 1, "qa": 1, "qe": 1}))
    rc = main(["bound", "--constants", str(cfile), "--partition", "0,1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_bound_malformed_model_file_exits_cleanly(tmp_path, capsys):
    good = model_to_json(kerr_cavity(25.0, 50.0, -5.0 / 6.0, 3))
    no_m = {k: v for k, v in good.items() if k != "m"}
    no_l = {k: v for k, v in good.items() if k != "L"}
    short_entry = json.loads(json.dumps(good))
    short_entry["H"][0][0] = [0.0]
    text_entry = json.loads(json.dumps(good))
    text_entry["L"][0][1][0] = ["x", 0.0]
    extra_l = dict(good, L=good["L"] * 2)  # m = 1 with two coupling operators
    mfile = tmp_path / "m.json"
    for data in (no_m, no_l, short_entry, text_entry, extra_l, [1, 2]):
        mfile.write_text(json.dumps(data))
        rc = main(["bound", "--model", str(mfile), "--partition", "0,1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


def test_bound_bad_amplitudes_exit_cleanly(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(model_to_json(kerr_cavity(25.0, 50.0, -5.0 / 6.0, 3))))
    rc = main(
        ["bound", "--model", str(mfile), "--amplitudes", "0.1", "--partition", "0,1"]
    )
    assert rc == 1
    assert "amplitudes" in capsys.readouterr().err


@pytest.mark.parametrize("amplitudes", ["nan,0", "0,infj"])
def test_bound_non_finite_amplitudes_name_the_amplitudes(tmp_path, capsys, amplitudes):
    # These exited with "gamma must be finite and > 0", a rate never given.
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(model_to_json(kerr_cavity(25.0, 50.0, -5.0 / 6.0, 3))))
    rc = main(["bound", "--model", str(mfile), "--amplitudes", amplitudes,
               "--partition", "0,1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --amplitudes") and "gamma" not in err


def test_linalg_failure_exits_cleanly(monkeypatch, capsys):
    import scipy.linalg

    def broken_expm(a):
        raise np.linalg.LinAlgError("injected failure")

    monkeypatch.setattr(scipy.linalg, "expm", broken_expm)
    rc = main(["bound", "--model", "kerr", "--k", "3"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "injected failure" in captured.err


@pytest.mark.parametrize("argv", [
    ["optimize", "--model", "kerr", "--k", "3"],
    ["kerr-table", "--k", "3", "--optimize"],
    ["verify", "--quick"],
])
def test_negative_seed_exits_cleanly(argv, capsys):
    # These ended in numpy's "expected non-negative integer" traceback.
    assert main(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "seed" in captured.err


def test_main_runs_different_commands_back_to_back(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamma": 2.0, "qL": 1.0, "qa": 0.5, "qe": 0.5}))
    bound_argv = ["bound", "--constants", str(cfile), "--partition", "0,1,2", "--r", "3"]
    table_argv = ["kerr-table", "--k-list", "3", "--format", "json"]
    outs = []
    for argv in (bound_argv, table_argv, bound_argv, table_argv):
        out = tmp_path / f"out{len(outs)}.json"
        assert main(argv + ["--out", str(out)]) == 0
        outs.append(_read(out))
    assert outs[0] == outs[2] and outs[1] == outs[3]
    bound, table = json.loads(outs[0]), json.loads(outs[1])
    assert (bound["r"], bound["s"]) == (3, 2)
    assert [(row["k"], row["r"]) for row in table["rows"]] == [(3, 2)]
    assert table["rows"][0]["bound"] == kerr_table_row(3).bound
    assert "\n  " in outs[0]  # indented JSON


def test_optimize_kerr_deterministic(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["optimize", "--model", "kerr", "--k", "2", "--t-final", "0.5",
            "--seed", "7"]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert _read(f1) == _read(f2)
    payload = json.loads(_read(f1))
    assert payload["search_failure"] is False
    assert 0.0 < payload["cost"] < 0.01
    assert payload["nfev"] > 0
    state = ApproxState.from_json(payload["state"])
    assert state.n_terms >= 1
    assert state.t_final == 0.5


def test_ae_table_small(tmp_path):
    out = tmp_path / "ae.csv"
    assert main(["ae-table", "--k-list", "10000", "--intervals", "6",
                 "--blocks", "2", "--out", str(out)]) == 0
    lines = _read(out).strip().splitlines()
    assert lines[0] == CSV_HEADER + ",k_scaling"
    row = lines[1].split(",")
    assert int(row[0]) == 10000
    assert float(row[-1]) > 0.0  # k_scaling column populated
    j_lines = [ln for ln in lines if ln.startswith("# J=")]
    assert len(j_lines) == 1
    assert 0.0 < float(j_lines[0].split("=")[1]) < 0.02


def test_verify_quick(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--quick", "--out", str(out)]) == 0
    payload = json.loads(_read(out))
    assert payload["passed"] is True
    assert set(payload["sections"]) == {
        "matexp_vs_ode", "contraction_and_law", "dominance", "residual_oracle"
    }


@pytest.mark.parametrize("argv", [
    ["ae-table", "--r", "3"],
    ["optimize", "--model", "ae", "--s", "3"],
    ["optimize", "--model", "kerr", "--intervals", "20"],
    ["optimize", "--model", "kerr", "--blocks", "4"],
    ["optimize", "--model", "ae", "--k", "19"],
    ["bound", "--model", "kerr", "--k", "19", "--partition", "0,1"],
    ["bound", "--model", "kerr", "--k", "5", "--amplitudes", "9,9"],
    ["bound", "--constants", "c.json", "--partition", "0,1", "--k", "7"],
    ["bound", "--constants", "c.json", "--partition", "0,1", "--intervals", "3"],
    ["bound", "--constants", "c.json", "--partition", "0,1", "--amplitudes", "5,5"],
    ["bound", "--constants", "c.json", "--partition", "0,1", "--alpha", "0.2"],
    ["bound", "--constants", "c.json", "--partition", "0,1", "--t-final", "2"],
    ["bound", "--constants", "c.json", "--partition", "0,1", "--model", "kerr"],
    ["bound", "--model", "m.json", "--partition", "0,1", "--k", "7"],
    ["bound", "--model", "m.json", "--partition", "0,1", "--alpha", "0.2"],
    ["bound", "--model", "kerr", "--k", "3", "--seed", "9"],
    ["bound", "--model", "kerr", "--k", "3", "--format", "csv"],
    ["optimize", "--model", "kerr", "--format", "csv"],
    ["kerr-table", "--k-list", "5", "--seed", "9"],
    ["kerr-table", "--k", "19", "--t-final", "2"],
    ["bound", "--model", "kerr", "--k", "19", "--t-final", "1"],
    ["ae-table", "--seed", "3"],
    ["optimize", "--model", "ae", "--seed", "3"],
    ["kerr-table", "--k", "19", "--k-list", "29,39"],
    ["ae-table", "--k", "10000", "--k-list", "100000"],
])
def test_flags_that_would_be_ignored_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("level", ["0", "-3", "2.5"])
@pytest.mark.parametrize("command", [
    ["optimize", "--model", "kerr", "--k"],
    ["kerr-table", "--k"],
    ["ae-table", "--k"],
    ["bound", "--model", "kerr", "--k"],
    # Orders and counts take the same type: --blocks 0 used to end in a
    # ZeroDivisionError, --intervals -2 in numpy's ValueError.
    ["bound", "--model", "kerr", "--k", "3", "--r"],
    ["bound", "--model", "kerr", "--k", "3", "--s"],
    ["bound", "--model", "kerr", "--k", "3", "--intervals"],
    ["kerr-table", "--intervals"],
    ["ae-table", "--intervals"],
    ["ae-table", "--blocks"],
    ["optimize", "--model", "ae", "--blocks"],
])
def test_levels_below_one_are_usage_errors(command, level):
    with pytest.raises(SystemExit) as exc:
        main(command + [level])
    assert exc.value.code == 2


def test_kerr_table_takes_library_defaults(capsys):
    assert main(["kerr-table", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [r.to_json() for r in kerr_certificate_table(KERR_KS)]


@pytest.fixture(scope="module")
def ae_table_small():
    """`ae-table` JSON on 4 intervals in 1 block, the other flags unset."""
    argv = ["ae-table", "--intervals", "4", "--blocks", "1", "--format", "json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return json.loads(buf.getvalue())


def test_ae_table_takes_library_defaults(ae_table_small):
    reports, result = ae_certificate_table(n_intervals=4, blocks=1)
    assert ae_table_small["rows"] == [r.to_json() for r in reports]
    assert ae_table_small["J"] == result.cost


def test_optimize_ae_searches_on_the_ae_table_horizon(ae_table_small, capsys):
    assert main(["optimize", "--model", "ae", "--intervals", "4", "--blocks", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"]["t"] == 1.0
    assert {row["t"] for row in ae_table_small["rows"]} == {1.0}
    assert payload["cost"] == ae_table_small["J"]
