import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oscillant
from oscillant.cli import _system_overrides, build_parser, main


def _run(argv):
    try:
        main(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def test_catalog_list(capsys):
    assert _run(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for cid in ("three-wave", "kg-equal", "kg-diff", "mll-variety"):
        assert cid in out


def test_catalog_emit_roundtrip(tmp_path):
    path = tmp_path / "kg.json"
    assert _run(["catalog", "emit", "kg-equal", "--outfile", str(path)]) == 0
    from oscillant.system import load_spec, save_spec
    spec = load_spec(str(path))
    assert spec.name == "kg-equal" and spec.N == 6
    path2 = tmp_path / "kg2.json"
    save_spec(spec, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_analyze_kg_equal_unstable(tmp_path, capsys):
    out = tmp_path / "out"
    rc = _run(["analyze", "--system", "catalog:kg-equal", "--omega0", "1",
               "--theta0", "0.5", "--k", "1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "unstable" in text
    doc = json.loads((out / "stability_report.json").read_text())
    assert doc["verdict"] == "unstable"
    assert doc["Gamma_index"] > 0
    res = json.loads((out / "resonance_report.json").read_text())
    assert res["bounded_verdict"] == "bounded"
    assert res["harmonics"] == [-1, 0, 1]


def test_analyze_three_wave_stable(tmp_path, capsys):
    out = tmp_path / "out"
    rc = _run(["analyze", "--system", "catalog:three-wave", "--b", "0,1,-1",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "stability_report.json").read_text())
    assert doc["verdict"] == "stable"


def test_analyze_kg_diff_stable(tmp_path):
    out = tmp_path / "out"
    rc = _run(["analyze", "--system", "catalog:kg-diff", "--iota", "-1",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "stability_report.json").read_text())
    assert doc["verdict"] == "stable"


def test_analyze_strict_exit_code(tmp_path):
    # fully transparent source: verdict stable-by-transparency passes strict;
    # an all-zero coupling with auto pairs only stays degenerate-free here, so
    # exercise strict with an undetermined-free case and the rc-4 degenerate path
    out = tmp_path / "out"
    rc = _run(["analyze", "--system", "catalog:three-wave", "--b", "1,0,0",
               "--out", str(out), "--strict"])
    assert rc == 0
    doc = json.loads((out / "stability_report.json").read_text())
    assert doc["verdict"] == "stable-by-transparency"


def test_analyze_unknown_system_exit_2(tmp_path):
    rc = _run(["analyze", "--system", "catalog:banana", "--out", str(tmp_path / "o")])
    assert rc == 2


def _emitted(cid, path, edit):
    """Emit a catalog system to ``path`` and apply ``edit`` to its JSON document."""
    assert _run(["catalog", "emit", cid, "--outfile", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("cid", ["three-wave", "brillouin", "kg-equal", "kg-diff"])
def test_renamed_stock_file_analyzed_like_its_catalog_entry(cid, tmp_path):
    # the stock closed forms follow the recorded params; the name is only a label
    path = _emitted(cid, tmp_path / "renamed.json", lambda doc: doc.update(name="renamed"))
    assert _run(["analyze", "--system", path, "--out", str(tmp_path / "file")]) == 0
    assert _run(["analyze", "--system", f"catalog:{cid}", "--out", str(tmp_path / "stock")]) == 0
    for name in ("resonance_report.json", "stability_report.json"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "stock" / name).read_bytes()


def test_analyze_file_without_params_exit_2(tmp_path, capsys):
    path = _emitted("kg-equal", tmp_path / "bare.json", lambda doc: doc.pop("params"))
    assert _run(["analyze", "--system", path, "--out", str(tmp_path / "out")]) == 2
    assert "--omega/--k" in capsys.readouterr().err


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert _run(["analyze", "--system", "catalog:three-wave", "--b", "0,1,1",
                     "--out", str(out)]) == 0
    for name in ("stability_report.json", "resonance_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "sim"
    rc = _run(["simulate", "--system", "catalog:three-wave", "--b", "0,1,1",
               "--c", "0,0.5,-0.5", "--epsilon", "1e-2", "--width", "2.0",
               "--grid", "2048", "--tend", "0.4", "--out", str(out)])
    assert rc == 0
    lines = (out / "run.csv").read_text().strip().splitlines()
    assert lines[0] == "t,norm_total,norm_dev,norm_dev_ball,sup_dev"
    assert len(lines) > 10


def test_wkb_check_transparency():
    assert _run(["wkb", "--system", "catalog:kg-equal", "--check-transparency"]) == 0


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("analyze", "flow", "simulate", "sweep", "wkb", "catalog"):
        assert cmd in text


def test_analyze_d2_default_grid_refused_before_allocating(tmp_path, capsys):
    # the default 2048 x 2048 grid at d=2 would need ~4.3 GB of eigenvectors
    import tracemalloc
    tracemalloc.start()
    try:
        rc = _run(["analyze", "--system", "catalog:kg-equal", "--d", "2",
                   "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "GB" in capsys.readouterr().err
    assert peak < 50e6


@pytest.mark.parametrize("argv", [
    ["flow", "--system", "catalog:kg-equal", "--epsilons", "abc"],
    ["flow", "--system", "catalog:kg-equal", "--epsilons", "0"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "0"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1.5"],
    ["sweep", "--system", "catalog:three-wave", "--epsilons", "1e-2,nan,1e-3"],
    ["wkb", "--system", "catalog:kg-equal", "--residual", "--epsilons", "2"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--grid", "0"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--grid", "3"],
    ["flow", "--system", "catalog:kg-equal", "--T", "0"],
    ["flow", "--system", "catalog:kg-equal", "--T", "-1"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--width", "0"],
    ["analyze", "--system", "catalog:kg-equal", "--K", "3", "--width", "-1"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--tend", "0"],
    ["analyze", "--system", "catalog:kg-equal", "--window", "-1"],
    ["analyze", "--system", "catalog:kg-equal", "--h", "nan"],
    ["sweep", "--system", "catalog:three-wave", "--rho", "inf"],
    ["analyze", "--system", "catalog:kg-equal", "--K", "nan"],
    ["analyze", "--system", "catalog:kg-equal", "--Ka", "0"],
    ["analyze", "--system", "catalog:kg-equal", "--Ka", "nan"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--K", "-1"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--Kprime", "inf"],
    ["sweep", "--system", "catalog:three-wave", "--Kprime", "-0.5"],
    ["analyze", "--system", "catalog:kg-equal", "--omega0", "nan"],
    ["flow", "--system", "catalog:kg-equal", "--theta0", "inf"],
    ["wkb", "--system", "catalog:kg-equal", "--alpha0", "abc"],
    ["analyze", "--system", "catalog:three-wave", "--c", "0,nan,1"],
    ["catalog", "emit", "three-wave", "--b", "0,1,x"],
    ["analyze", "--system", "catalog:kg-equal", "--k", "1", "--omega", "nan"],
    ["wkb", "--system", "catalog:kg-equal", "--check-transparency", "--k", "inf"],
    ["wkb", "--system", "catalog:kg-equal", "--residual", "--epsilons", "1e-2"],
    ["wkb", "--system", "catalog:kg-equal", "--residual", "--epsilons", "1e-2,1e-2"],
    ["flow", "--system", "catalog:kg-equal", "--epsilons", "1e-2"],
    ["sweep", "--system", "catalog:three-wave", "--epsilons", "1e-2,1e-3"],
    ["sweep", "--system", "catalog:three-wave", "--epsilons", "1e-2,1e-3,1e-2"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--grid", "1"],
    ["sweep", "--system", "catalog:three-wave", "--grid", "1"],
])
def test_epsilon_outside_unit_interval_exit_2(argv, capsys):
    """A flag value outside its domain (first the epsilons) exits 2 before
    anything is computed, naming the flag: the last one given."""
    assert _run(argv) == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_ka_accepts_inf_and_overrides_parse_as_numbers():
    args = build_parser().parse_args(["analyze", "--system", "catalog:three-wave", "--Ka", "inf",
                                      "--b", "0,1,-1", "--omega0", "1"])
    assert args.Ka == np.inf
    assert _system_overrides(args) == {"omega0": 1.0, "b1": 0.0, "b2": 1.0, "b3": -1.0}


@pytest.mark.parametrize("text, problem", [
    (None, "cannot read"),
    ("not json {", "not JSON"),
    ('{"name": "x"}', "'N'"),
], ids=["missing", "not-json", "no-N"])
def test_unusable_system_file_exit_2(tmp_path, capsys, text, problem):
    path = tmp_path / "system.json"
    if text is not None:
        path.write_text(text)
    assert _run(["analyze", "--system", str(path), "--omega", "1", "--k", "1",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(path) in err and problem in err


def test_omega_without_k_exit_2(tmp_path, capsys):
    rc = _run(["analyze", "--system", "catalog:kg-equal", "--omega", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "--k" in capsys.readouterr().err


def test_wkb_residual_three_wave(capsys):
    # L(2 beta) is singular here: the corrector is the range-checked pseudo-inverse solution
    assert _run(["wkb", "--system", "catalog:three-wave", "--residual"]) == 0
    assert "with-corrector residual order: inf" in capsys.readouterr().out


def test_analyze_and_flow_load_no_scipy(tmp_path):
    # a fresh interpreter, as the console script is: import, analyze and the
    # (rank-one) flow bound on kg-equal leave no scipy module loaded
    code = (
        "import sys, oscillant, oscillant.cli\n"
        "for argv in (['analyze', '--system', 'catalog:kg-equal', '--out', sys.argv[1]],\n"
        "             ['flow', '--system', 'catalog:kg-equal', '--T', '0.5', '--out', sys.argv[1]]):\n"
        "    try:\n"
        "        oscillant.cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (argv, exc.code)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(oscillant.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "stability_report.json").exists()
    doc = json.loads((tmp_path / "flow_bound_report.json").read_text())
    assert doc["passed"] and 0.0 < doc["liouville_defect_max"] <= 1e-10
    assert doc["max_step_exponent"] >= 0.1


@pytest.mark.parametrize("entry, edit", [
    ("A0[0, 1] is not finite: nan", lambda doc: doc["A0"][0].__setitem__(1, "nan")),
    ("A1[2, 2] is not finite: inf", lambda doc: doc["Aj"][0][2].__setitem__(2, "inf")),
    ("B triplet (1, 0, 2) has a non-finite value nan", lambda doc: doc["B"][1].__setitem__(3, "nan")),
    ("B triplet (2, 0, 1) has a non-finite value -inf",
     lambda doc: doc["B"][2].__setitem__(3, "-inf")),
], ids=["A0-nan", "A1-inf", "B-nan", "B-minus-inf"])
def test_non_finite_system_entry_exit_2(entry, edit, tmp_path, capsys):
    path = _emitted("three-wave", tmp_path / "bad.json", edit)
    assert _run(["analyze", "--system", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and path in err and entry in err


@pytest.mark.parametrize("cid", ["three-wave", "brillouin", "kg-diff"])
def test_emitted_system_round_trips_byte_identical(cid, tmp_path):
    # kg-equal's round trip is test_catalog_emit_roundtrip
    from oscillant.system import load_spec, save_spec
    path, again = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(["catalog", "emit", cid, "--outfile", str(path)]) == 0
    save_spec(load_spec(str(path)), str(again))
    assert path.read_bytes() == again.read_bytes()
