"""Command-line surface: exit codes, outputs, determinism, manifests."""

import json
import logging
import math

import numpy as np
import pytest

import boundcount as bc
from boundcount import cli, config
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


def test_norms_on_log_borderline_modes(tmp_path, capsys):
    # a non-radial part with a 1/(t^2 ln t) tail in t = ln r: finite, and once
    # given up on by a fixed window in t
    doc = {"potential": {"family": "fourier_sum", "params": {"modes": [
        {"m": 0, "profile": {"shape": "log_borderline", "c": 1.0}},
        {"m": 1, "kind": "cos", "profile": {"shape": "log_borderline", "c": 0.25}}]}}}
    assert cli.main(["norms", "--config", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["l1lp"] == pytest.approx(1.65881216, rel=1e-7)
    assert payload["bound_B"] == pytest.approx(payload["l1lp"] + payload["quasinorm"])


def _draw_params(rng, params):
    """Keyword parameters for one table row, drawn from its schemas: positive
    ones log-uniformly, free numbers sometimes negative, so that validation
    rejects some of them, and sometimes exactly zero, so that some potentials
    vanish."""
    return {name: float(np.exp(rng.uniform(-1.5, 1.5))) if "exclusiveMinimum" in schema
            else 0.0 if rng.random() < 0.2 else float(rng.uniform(-0.5, 2.0))
            for name, schema in params.items()}


def _draw_potential(rng, shape):
    """A radial family, or a Fourier sum whose m = 0 profile has ``shape``."""
    if rng.random() < 0.25:
        family = str(rng.choice(["disk_well", "gaussian", "log_borderline"]))
        return {"family": family, "params": _draw_params(rng, config._FAMILIES[family][1])}
    base = {"shape": shape, **_draw_params(rng, config._PROFILES[shape][1])}
    modes = [{"m": 0, "profile": base}]
    for m in rng.choice(np.arange(1, 4), size=int(rng.integers(0, 3)), replace=False):
        if rng.random() < 0.6:
            # a scaled copy of the m = 0 profile (its first parameter is the
            # amplitude) keeps the sum non-negative
            first = next(iter(config._PROFILES[shape][1]))
            prof = {**base, first: base[first] * float(rng.uniform(0.0, 0.24))}
        else:
            other = str(rng.choice(sorted(config._PROFILES)))
            prof = {"shape": other, **_draw_params(rng, config._PROFILES[other][1])}
        modes.append({"m": int(m), "kind": str(rng.choice(["cos", "sin"])), "profile": prof})
    return {"family": "fourier_sum", "params": {"modes": modes}}


def test_norms_fuzz_exits_0_or_rejects_in_one_line(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    accepted = vanished = 0
    for case in range(100):
        shape = sorted(config._PROFILES)[case % len(config._PROFILES)]
        doc = {"potential": _draw_potential(rng, shape), "truncation_index": 20}
        code = cli.main(["norms", "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        if code == 0:
            accepted += 1
            payload = json.loads(captured.out)
            assert captured.err == "" and payload["l1lp"] >= 0, doc
            vanished += payload["epsilon_window"] is None
        else:
            assert code == 2 and captured.out == "", (code, captured.err, doc)
            assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1, doc
    assert accepted >= 40 and vanished >= 1


def test_norms_of_a_zero_potential(tmp_path, capsys):
    doc = {"potential": {"family": "disk_well", "params": {"depth": 0.0, "radius": 1.0}}}
    assert cli.main(["norms", "--config", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["epsilon_window"] is None and set(payload["zeta"]) == {0.0}
    assert payload["quasinorm"] == payload["delta_upper"] == payload["delta_lower"] == 0.0
    assert payload["bound_B"] == payload["weyl_coeff"] == 0.0


def _fuzz_argv(rng, cfg):
    """One count1d, count2d (pinned channels, full or --tilde) or decompose
    request on a drawn config."""
    alpha = ["--alpha", repr(0.0 if rng.random() < 0.1 else float(np.exp(rng.uniform(0, 4))))]
    command = str(rng.choice(["count1d", "count2d", "count2d --tilde", "decompose"]))
    if command == "count1d":
        return ["count1d", "--config", cfg, *alpha] + (
            ["--m", str(int(rng.integers(0, 4)))] if rng.random() < 0.5 else [])
    if command == "decompose":
        radii = np.sort(rng.uniform(0.1, 3.0, int(rng.integers(1, 5))))
        return ["decompose", "--config", cfg, "--radii", ",".join(repr(float(r)) for r in radii)]
    return command.split() + ["--config", cfg, *alpha, "--channels", str(int(rng.integers(0, 4)))]


def test_count_and_decompose_fuzz_exit_in_one_line(tmp_path, capsys):
    rng = np.random.default_rng(2025)
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(80):
        shape = sorted(config._PROFILES)[case % len(config._PROFILES)]
        policy = {"t_half": float(rng.uniform(2.0, 4.0)), "n": int(rng.integers(21, 82)),
                  "max_doublings": int(rng.integers(0, 2)), "agreements": 1}
        doc = {"potential": _draw_potential(rng, shape), "grid_policy": policy}
        argv = _fuzz_argv(rng, write_config(tmp_path, doc))
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code in codes, (code, argv, doc)
        codes[code] += 1
        if code == 0:
            assert captured.err == "" and json.loads(captured.out), (argv, doc)
        else:
            assert captured.out == "" and captured.err.count("\n") == 1, (argv, doc)
            assert captured.err.startswith(("config error: ", "computation error: ")), (argv, doc)
    assert codes[0] >= 40


def test_missing_config_exits_2(capsys):
    assert cli.main(["norms", "--config", "/nonexistent/nope.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["norms", "--config", str(path)]) == 2


@pytest.mark.parametrize("text, what", [
    ('"t_half": NaN', "NaN"), ('"t_half": Infinity', "Infinity"),
    ('"t_half": 1e999', "1e999"), ('"t_half": -Infinity', "-Infinity")])
def test_a_non_finite_number_in_a_config_exits_2(tmp_path, capsys, text, what):
    # Python's JSON parser reads these; JSON has no such numbers
    path = tmp_path / "config.json"
    path.write_text('{"potential": {"family": "gaussian", "params": {"amplitude": 1.0, '
                    '"width": 1.0}}, "grid_policy": {%s}}' % text)
    assert cli.main(["count1d", "--config", str(path), "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"config error: config {path} is not valid JSON: non-finite number {what}\n")


def test_a_config_that_is_not_text_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\x80\xff{}")
    assert cli.main(["norms", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {path} is not valid JSON: 'utf-8' codec")
    assert err.count("\n") == 1


@pytest.mark.parametrize("certify", [True, False])
def test_a_grid_policy_with_certify_exits_2(tmp_path, capsys, certify):
    doc = dict(GAUSSIAN_CONFIG, grid_policy=dict(GAUSSIAN_CONFIG["grid_policy"],
                                                 certify=certify))
    assert cli.main(["count1d", "--config", write_config(tmp_path, doc), "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("config error: config invalid at grid_policy: ")
    assert "'certify'" in captured.err


@pytest.mark.parametrize("t_half, h", [(1e308, "inf"), (1e200, "4.999999999999999e+198"),
                                       (1e-320, "5e-322")])
def test_a_grid_policy_out_of_float_range_exits_2(tmp_path, capsys, t_half, h):
    # 1/h^2, the kinetic entry, must be finite and nonzero
    doc = dict(GAUSSIAN_CONFIG, grid_policy={"t_half": t_half, "n": 41})
    for argv in (["count1d", "--alpha", "1"], ["count2d", "--alpha", "1"], ["norms"]):
        assert cli.main(argv + ["--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"config error: config invalid at grid_policy: grid spacing h = {h} is out of "
            "range (1/h^2 must be finite and nonzero)\n")


def test_a_value_error_inside_a_command_is_not_a_computation_error(tmp_path, capsys,
                                                                   monkeypatch):
    # a ValueError that reaches cli.main is a fault of the program, not an exit code
    def broken(*args, **kwargs):
        raise ValueError("broken zhat")

    monkeypatch.setattr(cli, "zhat", broken)
    with pytest.raises(ValueError, match="broken zhat"):
        cli.main(["norms", "--config", write_config(tmp_path, GAUSSIAN_CONFIG)])
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("grid", ["-5,5,100", "0,5,101"])
def test_count1d_grid_without_a_zero_node_is_a_config_error(tmp_path, capsys, grid):
    # M deletes the t = 0 node, so its grid must hold one inside
    cfg = write_config(tmp_path, GAUSSIAN_CONFIG)
    assert cli.main(["count1d", "--config", cfg, "--alpha", "40", f"--grid={grid}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: bad --grid value '{grid}'")
    assert captured.err.count("\n") == 1
    # a channel count needs no such node
    assert cli.main(["count1d", "--config", cfg, "--alpha", "40", "--m", "1",
                     f"--grid={grid}"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] >= 0


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
    assert payload["levels"] == [
        {"t_half": 4.0, "n": 41, "count": 5, "m_max": 9, "cutoff_certified": False},
        {"t_half": 8.0, "n": 81, "count": 5, "m_max": 7, "cutoff_certified": True}]


@pytest.mark.parametrize("pinned", [[], ["--channels", "3"]], ids=["auto", "pinned"])
def test_count2d_reports_its_level_trail(tmp_path, capsys, pinned):
    doc = dict(NONRADIAL_CONFIG, grid_policy={"t_half": 3.0, "n": 61, "max_doublings": 2,
                                              "agreements": 1})
    argv = ["count2d", "--config", write_config(tmp_path, doc), "--alpha", "12"] + pinned
    assert cli.main(argv) == 0
    full = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--tilde"]) == 0
    tilde = json.loads(capsys.readouterr().out)
    for payload in (full, tilde):
        levels = payload["levels"]
        assert [(level["t_half"], level["n"]) for level in levels] == [
            (3.0 * 2 ** k, 60 * 2 ** k + 1) for k in range(len(levels))]
        assert len(levels) >= 2 and levels[-1]["count"] == payload["count"]
        assert levels[-1]["count"] == levels[-2]["count"]
        assert max(level["m_max"] for level in levels) == payload["m_max_used"]
        assert payload["converged"] == all(level["cutoff_certified"] for level in levels)
        if pinned:
            assert {level["m_max"] for level in levels} == {3}
    assert tilde["count"] <= full["count"] <= tilde["count"] + 1


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
        assert count == bc.spectra1d.radial_counts(G(grid.interior), [30.0], grid)[0, int(tilde)]
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


SWEEP_LINES = ["# label=test", "# weyl=0.25", "# bound_b=1.5", "# p=2.0",
               "alpha,n2d,n_tilde,n_m,n2d_over_alpha,converged",
               "10.0,3,2,1,0.3,1", "20.0,6,5,2,0.3,1", "40.0,11,10,3,0.275,0"]


@pytest.mark.parametrize("line, text, lineno, message", [
    (6, "1.0,2,1", 6, "expected 6 fields (alpha,n2d,n_tilde,n_m,n2d_over_alpha,converged), got 3"),
    (7, "20.0,6,5,2,0.3,1,7", 7, "expected 6 fields"),
    (7, "20.0,6,x,2,0.3,1", 7, "bad n_tilde (must be an integer >= 0): 'x'"),
    (7, "20.0,6.5,5,2,0.3,1", 7, "bad n2d (must be an integer >= 0): '6.5'"),
    (7, "20.0,6,5,2,nan,1", 7, "bad n2d_over_alpha (must be finite): 'nan'"),
    (7, "inf,6,5,2,0.3,1", 7, "bad alpha (must be finite and > 0): 'inf'"),
    (7, "20.0,6,5,2,0.3,2", 7, "bad converged (must be 0 or 1): '2'"),
    (2, "# weyl=abc", 2, "bad weyl (must be finite): 'abc'"),
    (3, "# bound_b=-1", 3, "bad bound_b (must be finite and >= 0): '-1'"),
    (4, "# p=1e999", 4, "bad p (must be finite and > 1): '1e999'"),
    (8, "15.0,11,10,3,0.275,0", 8, "alpha 15.0 does not increase (previous 20.0)"),
    (2, "# wyl=0.25", None, "no '# weyl=' line"),
    (6, "", None, None),  # rows with a line between them still read
])
def test_report_names_the_line_of_a_malformed_sweep_csv(tmp_path, capsys, line, text, lineno,
                                                        message):
    lines = list(SWEEP_LINES)
    lines[line - 1] = text
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["report", "--in", str(path), "--check", "as2"])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and captured.err == ""
        return
    where = f"{path}:{lineno}" if lineno else f"{path}"
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"config error: {where}: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "# weyl=0.25\nalpha,n2d,n_tilde,n_m,n2d_over_alpha,converged\n"])
def test_report_on_a_sweep_csv_without_rows_exits_2(tmp_path, capsys, text):
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    assert cli.main(["report", "--in", str(path), "--check", "estim"]) == 2
    assert capsys.readouterr().err == f"config error: {path}: no sweep rows found\n"


def test_report_estim_on_a_zero_bound_under_counts_above_1_exits_2(tmp_path, capsys):
    # the file's bound_b contradicts its own counts: a config error naming it
    path = tmp_path / "sweep.csv"
    lines = [line.replace("# bound_b=1.5", "# bound_b=0.0") for line in SWEEP_LINES[:6]]
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["report", "--in", str(path), "--check", "estim"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: {path}: bound functional vanishes but counts "
                            "exceed 1: hypotheses violated or numerics wrong\n")
    assert cli.main(["report", "--in", str(path), "--check", "as2"]) == 0


def test_report_on_a_binary_file_exits_2(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    path.write_bytes(b"# weyl=0.25\n\xff\xfe\x00\n")
    assert cli.main(["report", "--in", str(path), "--check", "as2"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: not a text file")


# what a corrupted number or metadata value becomes
_GARBLE = ["", "x", "nan", "inf", "-inf", "1e999", "-1", "1.5", "0x1f", "1,2", "--", "2 3"]


def _corrupt_sweep_csv(rng, text):
    """``text`` with one corruption drawn: a row loses or gains a field, a
    number or a metadata line is garbled, the rows are permuted, the text is
    truncated, or emptied."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    how = str(rng.choice(["drop", "add", "number", "meta", "permute", "truncate", "empty"]))
    if how in ("drop", "add", "number"):
        i = int(rng.choice(rows))
        fields = lines[i].split(",")
        k = int(rng.integers(len(fields)))
        if how == "drop":
            del fields[k]
        elif how == "add":
            fields.insert(k, str(rng.choice(["0", "1.5", "x"])))
        else:
            fields[k] = str(rng.choice(_GARBLE))
        lines[i] = ",".join(fields)
    elif how == "meta":
        i = int(rng.integers(4))
        key, _, value = lines[i].partition("=")
        lines[i] = (f"{key}={rng.choice(_GARBLE)}" if rng.random() < 0.7
                    else f"{key[:-1]}={value}")
    elif how == "permute":
        lines[rows[0]:] = [lines[i] for i in rng.permutation(rows)]
    text = "\n".join(lines) + "\n"
    if how == "truncate":
        text = text[:int(rng.integers(len(text)))]
    return "" if how == "empty" else text


def test_report_fuzz_exits_0_or_rejects_in_one_line(tmp_path, capsys):
    rng = np.random.default_rng(2026)
    codes = {0: 0, 2: 0}
    for case in range(60):
        alphas = np.geomspace(5.0, 5.0 * float(rng.uniform(5, 50)), int(rng.integers(1, 9)))
        n2d = np.maximum.accumulate(rng.integers(0, 4, alphas.size)).cumsum()
        result = bc.SweepResult(alphas=alphas, n2d=n2d, n_tilde=np.maximum(n2d - 1, 0),
                                n_m=n2d // 3, converged=rng.random(alphas.size) < 0.8,
                                weyl=float(rng.uniform(0.1, 1.0)),
                                bound_b=float(rng.uniform(0.5, 2.0)), p=2.0, label="fuzz")
        path = tmp_path / f"sweep{case}.csv"
        bc.write_sweep_csv(result, path)
        path.write_text(_corrupt_sweep_csv(rng, path.read_text()))
        for check in ("as2", "estim", "prop-add"):
            code = cli.main(["report", "--in", str(path), "--check", check])
            captured = capsys.readouterr()
            assert code in codes, (code, captured.err, path.read_text())
            codes[code] += 1
            if code == 0:
                assert captured.err == "" and json.loads(captured.out)
            else:
                assert captured.out == "" and captured.err.count("\n") == 1, captured.err
                assert captured.err.startswith(f"config error: {path}"), captured.err
    assert codes[0] >= 12 and codes[2] >= 120


def test_sweep_fuzz_exits_in_one_line(tmp_path, capsys):
    rng = np.random.default_rng(2027)
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(30):
        shape = sorted(config._PROFILES)[case % len(config._PROFILES)]
        policy = {"t_half": float(rng.uniform(2.0, 4.0)), "n": int(rng.integers(21, 42)),
                  "max_doublings": int(rng.integers(0, 2)), "agreements": 1}
        doc = {"potential": _draw_potential(rng, shape), "grid_policy": policy,
               "truncation_index": 10}
        lo = float(np.exp(rng.uniform(0.0, 3.0)))
        out = tmp_path / f"sweep{case}.csv"
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out),
                "--alpha-min", repr(lo), "--alpha-max", repr(lo * float(rng.uniform(1.5, 8.0))),
                "--points", str(int(rng.integers(4, 7)))]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code in codes and captured.out == "", (code, captured.err, doc)
        codes[code] += 1
        if code == 0:
            assert captured.err == ""
            assert bc.read_sweep_csv(out).alphas.size == int(argv[-1])
        else:
            assert captured.err.count("\n") == 1, (captured.err, doc)
            assert captured.err.startswith(("config error: ", "computation error: ")), doc
    assert codes[0] >= 12


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


@pytest.mark.parametrize("argv, flag", [
    (["count2d", "--alpha", "10", "--channels", "-1"], "--channels"),
    (["count2d", "--alpha", "nan"], "--alpha"),
    (["count1d", "--alpha", "-5"], "--alpha"),
    (["count1d", "--alpha", "5", "--m", "-2"], "--m"),
    (["sweep", "--points", "3"], "--points"),
    (["sweep", "--alpha-min", "0"], "--alpha-min"),
    (["sweep", "--alpha-max", "inf"], "--alpha-max"),
    (["sweep", "--threads", "0"], "--threads"),
    (["report", "--check", "as2", "--window", "0"], "--window"),
    (["verify", "--suite", "bs", "--seed", "-1"], "--seed"),
    (["report", "--check", "prop-add", "--q", "nan"], "--q"),
    (["report", "--check", "prop-add", "--q", "inf"], "--q"),
    (["report", "--check", "prop-add", "--q=-inf"], "--q"),
    (["report", "--check", "prop-add", "--q", "0"], "--q"),
    (["report", "--check", "prop-add", "--q", "-1"], "--q"),
    (["report", "--check", "prop-add", "--q", "1"], "--q"),
    # m^2 = 1e320 is past the largest float
    (["count1d", "--alpha", "5", "--m", str(10 ** 160), "--grid=-4,4,81"], "--m"),
])
def test_out_of_range_flag_exits_2_with_one_line(tmp_path, capsys, argv, flag):
    files = {"sweep": ["--config", write_config(tmp_path, DISK_CONFIG),
                       "--out", str(tmp_path / "s.csv")],
             "report": ["--in", str(tmp_path / "never_read.csv")],
             "verify": []}
    argv = argv[:1] + files.get(argv[0], ["--config", write_config(tmp_path, GAUSSIAN_CONFIG)]) + argv[1:]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: bad {flag} value")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("argv, policy, code, message", [
    # a radial m_max of about 6e149 channels: one Sturm row each
    (["count2d", "--alpha", "1e300"], None, 1, "computation error: the radial channels need 6"),
    (["sweep", "--alpha-min", "1", "--alpha-max", "1e300", "--points", "4"], None, 1,
     "computation error: the radial channels need 6"),
    # a pinned radial system of 2 x 10^12 + 1 channels on 79 slices
    (["count2d", "--alpha", "3", "--channels", str(10 ** 12)], None, 1,
     "computation error: system dimension 158000000000079 exceeds ceiling 10000000;"),
    (["sweep", "--alpha-min", "1", "--alpha-max", "2", "--points", str(10 ** 30)], None, 1,
     f"computation error: {10 ** 30} sweep points need {10 ** 30} Sturm rows"),
    (["count1d", "--alpha", "3"], {"n": 10 ** 30}, 2,
     "config error: config invalid at grid_policy: grid needs 3 to 10000000 nodes"),
    (["count1d", "--alpha", "3"], {"max_doublings": 10 ** 30}, 2,
     "config error: config invalid at grid_policy: domain-doubling level 10000000000"),
])
def test_a_size_past_its_ceiling_exits_in_one_line(tmp_path, capsys, argv, policy, code,
                                                   message):
    # every value here is rejected before an array of its size is built
    doc = {"potential": GAUSSIAN_CONFIG["potential"],
           "grid_policy": {"t_half": 4.0, "n": 81, "max_doublings": 1, "agreements": 1,
                           **(policy or {})}}
    files = ["--config", write_config(tmp_path, doc)]
    if argv[0] == "sweep":
        files += ["--out", str(tmp_path / "s.csv")]
    assert cli.main(argv[:1] + files + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == ""


def test_sweep_range_must_increase(tmp_path, capsys):
    cfg = write_config(tmp_path, DISK_CONFIG)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"), "--alpha-min", "90"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: sweep needs alpha_min < alpha_max")


def test_a_sweep_range_too_narrow_for_its_points_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    argv = ["sweep", "--config", write_config(tmp_path, DISK_CONFIG),
            "--out", str(tmp_path / "s.csv"), "--alpha-min", "1", "--alpha-max",
            repr(math.nextafter(1.0, 2.0)), "--points", "4"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("config error: sweep range [1.0, 1.0000000000000002] "
                                       "is too narrow for 4 distinct alphas\n")


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


def test_verify_fuzz_passes_at_any_seed_and_rejects_negative_ones(capsys):
    # bs takes about a second a seed, the other suites a fifth of that
    rng = np.random.default_rng(2028)
    suites = rng.permutation(["hardy", "sandwich", "radial-consistency"] * 6 + ["bs"] * 3)
    specials = [0, 2 ** 63, 2 ** 64 + 5, int(rng.integers(1, 2 ** 62)) * 2 ** 40]
    for case, suite in enumerate(suites):
        seed = specials[case] if case < len(specials) else int(rng.integers(0, 2 ** 63))
        argv = ["verify", "--suite", str(suite), "--seed", str(seed)]
        assert cli.main(argv) == 0, argv
        captured = capsys.readouterr()
        *checks, last = captured.out.splitlines()
        assert captured.err == "" and last == f"suite {suite}: passed ({len(checks)} checks)"
        assert checks and all(line.startswith("PASS  ") for line in checks), argv
    for seed in (-1, -(2 ** 70), -int(rng.integers(2, 2 ** 63))):
        argv = ["verify", "--suite", str(rng.choice(suites)), "--seed", str(seed)]
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: bad --seed value {seed}")


@pytest.mark.parametrize("verbose", [True, False])
def test_verbose_flag_shows_the_info_lines(tmp_path, capsys, verbose):
    # on this small domain the count of M grows from level 0 to level 1
    doc = dict(GAUSSIAN_CONFIG, grid_policy={"t_half": 1.0, "n": 41, "max_doublings": 1,
                                             "agreements": 1})
    argv = ["count1d", "--config", write_config(tmp_path, doc), "--alpha", "50"]
    assert cli.main(["-v"] * verbose + argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["converged"] is False
    line = ("INFO boundcount.spectra1d: count did not stabilize after 1 domain doublings: "
            "[1, 2]\n")
    assert captured.err == (line if verbose else "")
    # the handler lives for one call only
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_the_shared_parser_answers_like_a_fresh_one(tmp_path, capsys):
    gauss = write_config(tmp_path, dict(GAUSSIAN_CONFIG, grid_policy={
        "t_half": 1.0, "n": 41, "max_doublings": 1, "agreements": 1}), "gauss.json")
    coupled = write_config(tmp_path, dict(NONRADIAL_CONFIG, grid_policy={
        "t_half": 4.0, "n": 81, "max_doublings": 0}), "coupled.json")
    count1d = ["count1d", "--config", gauss, "--alpha", "50"]
    # each pair could leak a flag, a log level or a parser error into the next call
    calls = [["count2d", "--config", coupled, "--alpha", "12", "--tilde"],
             ["count2d", "--config", coupled, "--alpha", "12"],
             ["-v", *count1d], count1d,
             [*count1d, "--bogus"], ["norms", "--config", gauss]]
    log = logging.getLogger("boundcount")
    level = log.level

    def run(argv, fresh):
        if fresh:
            cli.build_parser.cache_clear()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert log.level == level and not log.handlers
        return code, captured.out, captured.err

    fresh = [run(argv, True) for argv in calls]
    cli.build_parser.cache_clear()
    shared = [run(argv, False) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0]
    assert json.loads(shared[0][1])["tilde"] is True
    assert json.loads(shared[1][1])["tilde"] is False
    assert shared[2][2] and not shared[3][2]
    assert cli.build_parser() is cli.build_parser()


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
