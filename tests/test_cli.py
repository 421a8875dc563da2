"""Command-line surface: exit codes, outputs, determinism, manifests."""

import json

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


def test_sweep_range_must_increase(tmp_path, capsys):
    cfg = write_config(tmp_path, DISK_CONFIG)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"), "--alpha-min", "90"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: sweep needs alpha_min < alpha_max")


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
