"""Command-line surface: exit codes, outputs, determinism, manifests."""

import json

import numpy as np
import pytest

import boundcount as bc
from boundcount import cli
from boundcount.verify import SuiteReport


GAUSSIAN_CONFIG = {
    "potential": {"family": "gaussian", "params": {"amplitude": 1.0, "width": 1.0}},
    "p": 2.0,
    "truncation_index": 20,
    "grid_policy": {"t_half": 15.0, "n": 3001, "max_doublings": 2, "agreements": 1},
    "seed": 7,
}

DISK_CONFIG = {
    "potential": {"family": "disk_well", "params": {"depth": 1.0, "radius": 1.0}},
    "grid_policy": {"t_half": 12.0, "n": 1201, "max_doublings": 1, "agreements": 1},
    "sweep": {"alpha_min": 5.0, "alpha_max": 80.0, "points": 6},
}

NONRADIAL_CONFIG = {
    "potential": {"family": "fourier_sum", "params": {"modes": [
        {"m": 0, "profile": {"shape": "gaussian", "amplitude": 1.0, "width": 1.0}},
        {"m": 1, "kind": "cos",
         "profile": {"shape": "gaussian", "amplitude": 0.5, "width": 1.0}},
    ]}},
    "grid_policy": {"t_half": 6.0, "n": 241, "max_doublings": 1, "agreements": 1},
    "max_dimension": 100000,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_norms_gaussian_weyl(tmp_path, capsys):
    cfg = write_config(tmp_path, GAUSSIAN_CONFIG)
    assert cli.main(["norms", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weyl_coeff"] == pytest.approx(0.25, abs=1e-6)
    assert payload["l1lp"] == 0.0
    assert payload["bound_B"] == pytest.approx(payload["quasinorm"])
    assert len(payload["zeta"]) == 21
    assert payload["delta_lower"] <= payload["delta_upper"] <= payload["quasinorm"] + 1e-12


def test_missing_config_exits_2(capsys):
    assert cli.main(["norms", "--config", "/nonexistent/nope.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["norms", "--config", str(path)]) == 2


def test_unknown_key_rejected(tmp_path, capsys):
    doc = dict(GAUSSIAN_CONFIG)
    doc["surprise"] = 1
    assert cli.main(["norms", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_sweep_window_fraction_rejected(tmp_path, capsys):
    # the window comes from `report --window`; the config does not carry one
    doc = dict(DISK_CONFIG)
    doc["sweep"] = dict(DISK_CONFIG["sweep"], window_fraction=0.3)
    assert cli.main(["norms", "--config", write_config(tmp_path, doc)]) == 2
    assert "window_fraction" in capsys.readouterr().err


def test_bad_family_params_rejected(tmp_path):
    doc = {"potential": {"family": "gaussian", "params": {"amplitude": 1.0}}}
    assert cli.main(["norms", "--config", write_config(tmp_path, doc)]) == 2


def test_count1d_certified_and_grid_override(tmp_path, capsys):
    cfg = write_config(tmp_path, GAUSSIAN_CONFIG)
    assert cli.main(["count1d", "--config", cfg, "--alpha", "40"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["count"] >= 1
    # equals form needed: a bare "-15,..." value looks like an option to argparse
    assert cli.main(["count1d", "--config", cfg, "--alpha", "40",
                     "--grid=-15,15,3001"]) == 0
    override = json.loads(capsys.readouterr().out)
    assert override["count"] == payload["count"]
    assert override["grid"] == {"t_min": -15.0, "t_max": 15.0, "n": 3001}
    assert cli.main(["count1d", "--config", cfg, "--alpha", "40", "--grid", "junk"]) == 2


def test_count1d_channel_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, GAUSSIAN_CONFIG)
    assert cli.main(["count1d", "--config", cfg, "--alpha", "40", "--m", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 2
    assert payload["count"] >= 0


def test_count2d_and_tilde_sandwich(tmp_path, capsys):
    cfg = write_config(tmp_path, NONRADIAL_CONFIG)
    assert cli.main(["count2d", "--config", cfg, "--alpha", "12"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert cli.main(["count2d", "--config", cfg, "--alpha", "12", "--tilde"]) == 0
    tilde = json.loads(capsys.readouterr().out)
    assert tilde["count"] <= full["count"] <= tilde["count"] + 1
    assert full["dim"] > 0 and full["m_max_used"] >= 1
    assert isinstance(full["converged"], bool)


def test_count2d_tilde_dim_is_the_assembled_dimension(tmp_path, capsys):
    doc = dict(NONRADIAL_CONFIG, grid_policy={"t_half": 6.0, "n": 241, "max_doublings": 0})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["count2d", "--config", cfg, "--alpha", "12", "--tilde"]) == 0
    tilde = json.loads(capsys.readouterr().out)
    # the constant channel loses its t = 0 row
    assert tilde["dim"] == (2 * tilde["m_max_used"] + 1) * (241 - 2) - 1
    assert cli.main(["count2d", "--config", cfg, "--alpha", "12", "--tilde",
                     "--channels", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 7 * 239 - 1


def test_count2d_reports_every_certification_level(tmp_path, capsys, monkeypatch):
    # level 0 needs more channels and misses its cutoff check; the last does neither
    per_level = iter([((5, 9, False), (4, 9, False)), ((5, 7, True), (4, 7, True))])
    monkeypatch.setattr(cli, "count_2d_auto", lambda *args, **kwargs: next(per_level))
    doc = dict(DISK_CONFIG, grid_policy={"t_half": 4.0, "n": 41, "max_doublings": 1,
                                         "agreements": 1})
    assert cli.main(["count2d", "--config", write_config(tmp_path, doc), "--alpha", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 5
    assert payload["m_max_used"] == 9
    assert payload["converged"] is False


@pytest.mark.parametrize("tilde", [False, True], ids=["full", "tilde"])
def test_radial_count2d_matches_radial_counts_on_every_level(tmp_path, capsys, monkeypatch,
                                                             tilde):
    levels = []
    auto = cli.count_2d_auto

    def spy(spec, alpha, grid, **kwargs):
        pair = auto(spec, alpha, grid, **kwargs)
        levels.append((grid, pair[int(tilde)]))
        return pair

    monkeypatch.setattr(cli, "count_2d_auto", spy)
    doc = dict(DISK_CONFIG, grid_policy={"t_half": 2.0, "n": 41, "max_doublings": 3,
                                         "agreements": 2})
    argv = ["count2d", "--config", write_config(tmp_path, doc), "--alpha", "30"]
    assert cli.main(argv + (["--tilde"] if tilde else [])) == 0
    payload = json.loads(capsys.readouterr().out)
    G = bc.effective_potential(bc.decompose(bc.disk_well(1.0, 1.0)))
    assert len(levels) >= 3
    for grid, (count, m_used, ok) in levels:
        assert count == bc.spectra1d.radial_counts(G, [30.0], grid)[0, int(tilde)]
        assert m_used == bc.radial_cutoff_m_max(G, 30.0, grid) and ok
    assert payload["count"] == levels[-1][1][0]
    assert payload["m_max_used"] == max(m for _, (_, m, _) in levels)
    assert payload["dim"] == bc.spectra2d.system_dimension(levels[-1][1][1], levels[-1][0],
                                                           tilde)


def test_norms_on_a_tabulated_annulus(tmp_path, capsys):
    # G is sampled at t = -e^j, where r = e^t underflows to 0, outside the table
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{r!r},{k * np.pi / 4!r},0.5\n"
                             for r in (0.5, 1.0, 2.0) for k in range(8)))
    doc = {"potential": {"family": "annulus_tabulated", "params": {"path": str(table)}},
           "truncation_index": 12}
    assert cli.main(["norms", "--config", write_config(tmp_path, doc)]) == 0
    payload = json.loads(capsys.readouterr().out)
    # (4 pi)^-1 * 0.5 * pi (2^2 - 0.5^2)
    assert payload["weyl_coeff"] == pytest.approx(0.46875, rel=1e-6)
    assert payload["l1lp"] == 0.0
    assert payload["zeta"][0] > 0 and not any(payload["zeta"][2:])


@pytest.mark.parametrize("table", [None, "0.5,0.0,x\n", "0.5,0.0\n0.5\n"],
                         ids=["missing", "unparsable", "ragged"])
def test_unreadable_table_is_a_config_error(tmp_path, capsys, table):
    path = tmp_path / "table.csv"
    if table is not None:
        path.write_text(table)
    doc = {"potential": {"family": "annulus_tabulated", "params": {"path": str(path)}}}
    assert cli.main(["norms", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_count2d_dimension_ceiling_is_error_code_1(tmp_path, capsys):
    doc = dict(NONRADIAL_CONFIG)
    doc.pop("max_dimension")
    doc["grid_policy"] = {"t_half": 30.0, "n": 6001, "max_doublings": 0, "agreements": 1}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["count2d", "--config", cfg, "--alpha", "200"]) == 1
    assert "computation error" in capsys.readouterr().err


def test_sweep_report_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, DISK_CONFIG)
    out = tmp_path / "sweep.csv"
    plots = tmp_path / "plots"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--plots", str(plots)]) == 0
    first = out.read_bytes()
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["seed"] == 1234
    assert len(manifest["config_sha256"]) == 64
    assert (plots / "n2d_over_alpha.dat").exists()
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == first  # byte-identical rerun

    assert cli.main(["report", "--in", str(out), "--check", "as2"]) == 0
    as2 = json.loads(capsys.readouterr().out)
    assert "rel_discrepancy_lower" in as2
    assert cli.main(["report", "--in", str(out), "--check", "estim",
                     "--json", str(tmp_path / "estim.json")]) == 0
    estim = json.loads((tmp_path / "estim.json").read_text())
    assert estim["empirical_C"] > 0
    assert cli.main(["report", "--in", str(out), "--check", "prop-add", "--q", "2"]) == 0
    prop = json.loads(capsys.readouterr().out)
    assert prop["q"] == 2.0


def test_unreadable_in_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert cli.main(["report", "--in", missing, "--check", "as2"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot use --in {missing}: No such file or directory\n"


def test_unwritable_out_exits_2_before_computing(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, DISK_CONFIG)
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    out = str(tmp_path / "nonexistent" / "s.csv")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: cannot use --out {out}: No such directory\n"
    # a path the directory check lets through still fails at the write
    assert cli.main(["norms", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot use --out {tmp_path}: ")


def test_sweep_needs_range(tmp_path, capsys):
    cfg = write_config(tmp_path, GAUSSIAN_CONFIG)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2


def test_decompose_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, NONRADIAL_CONFIG)
    out = tmp_path / "dec.json"
    assert cli.main(["decompose", "--config", cfg, "--radii", "0.5,1.0,2.0",
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["radii"] == [0.5, 1.0, 2.0]
    assert payload["v_rad"] == pytest.approx(list(np.exp(-np.array([0.25, 1.0, 4.0]))))
    assert payload["recompose_max_err"] < 1e-12
    assert payload["nrad_angular_mean_max"] < 1e-12
    assert (tmp_path / "dec.json.manifest.json").exists()


@pytest.mark.parametrize("radii", ["1,abc", "-1,0,2", "0.5,nan"])
def test_decompose_rejects_bad_radii(tmp_path, capsys, radii):
    cfg = write_config(tmp_path, GAUSSIAN_CONFIG)
    assert cli.main(["decompose", "--config", cfg, f"--radii={radii}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: bad --radii value {radii!r}")


def test_verify_suite_exit_codes(monkeypatch, capsys):
    assert cli.main(["verify", "--suite", "radial-consistency", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "suite radial-consistency: passed" in out
    assert cli.main(["verify", "--suite", "bs", "--seed", "5"]) == 0
    assert "suite bs: passed" in capsys.readouterr().out

    def failing_suite(name, seed=0):
        rep = SuiteReport(name=name)
        rep.record(False, "simulated violation")
        return rep

    monkeypatch.setattr(cli, "run_suite", failing_suite)
    assert cli.main(["verify", "--suite", "bs"]) == 3


def test_version_and_bad_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_threads_and_seed_only_where_read(capsys):
    parser = cli.build_parser()
    assert parser.parse_args(["sweep", "--config", "c", "--out", "o",
                              "--threads", "2"]).threads == 2
    assert parser.parse_args(["verify", "--suite", "bs", "--seed", "5"]).seed == 5
    for argv in (["count2d", "--config", "c", "--alpha", "1", "--threads", "2"],
                 ["norms", "--config", "c", "--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
