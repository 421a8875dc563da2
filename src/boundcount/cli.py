"""Command-line entry point.

Subcommands: decompose, norms, count1d, count2d, sweep, verify, report.
Exit codes: 0 success, 1 computation error, 2 configuration error,
3 verification-suite failure.  Outputs are JSON (CSV for sweep series) and
every file output gets a sidecar manifest with the config hash and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .asymptotics import (check_as2, check_estim, check_prop_add, read_sweep_csv, sweep,
                          write_plot_files, write_sweep_csv)
from .config import ConfigError, RunConfig, load_config, write_manifest
from .errors import (DomainError, MatrixSizeError, NonFiniteError, NumericalError,
                     QuadratureError, VerificationFailure)
from .potentials import decompose, effective_potential
from .seminorms import l1lp_norm, weak_norm_report, weyl_coefficient, zhat
from .spectra1d import (CountResult, Grid1D, certified_count, check_sturm_rows, count_M,
                        count_channel)
from .spectra2d import (ChannelSet, assemble_full_2d, count_2d_auto, count_full_2d,
                        system_dimension)
from .verify import run_suite

_COMPUTE_ERRORS = (QuadratureError, NumericalError, MatrixSizeError,
                   NonFiniteError, DomainError)


@contextmanager
def _file_arg(flag: str, path: str):
    """Report a file argument that cannot be read or written as a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot use {flag} {path}: {exc.strerror or exc}") from exc


@contextmanager
def _stderr_log(verbose: bool):
    """With ``verbose``, show the package's INFO lines on stderr for the call."""
    if not verbose:
        yield
        return
    log = logging.getLogger("boundcount")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


# range of each numeric flag: (argument, accepts the value, what it must be)
_FLAG_RANGES = (
    ("alpha", lambda v: 0 <= v < math.inf, "finite and >= 0"),
    ("m", lambda v: 0 <= v and v * v <= sys.float_info.max, ">= 0 with a finite m^2"),
    ("channels", lambda v: v >= 0, ">= 0"),
    ("alpha_min", lambda v: 0 < v < math.inf, "finite and > 0"),
    ("alpha_max", lambda v: 0 < v < math.inf, "finite and > 0"),
    ("points", lambda v: v >= 4, ">= 4"),
    ("threads", lambda v: v >= 1, ">= 1"),
    ("window", lambda v: 0 < v <= 1, "in (0, 1]"),
    ("q", lambda v: 1 < v < math.inf, "finite and > 1"),
    ("seed", lambda v: v >= 0, ">= 0"),
)


def _check_flag_ranges(args) -> None:
    """Reject an out-of-range flag value as a config error, before any work."""
    for name, accepts, rule in _FLAG_RANGES:
        value = getattr(args, name, None)
        if value is not None and not accepts(value):
            raise ConfigError(f"bad --{name.replace('_', '-')} value {value!r} (must be {rule})")


def _check_out_dirs(args) -> None:
    """Fail before any computation when an output file's directory is missing."""
    for flag in ("out", "json"):
        path = getattr(args, flag, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot use --{flag} {path}: No such directory")


def _emit(payload: dict, out_path: str | None, config: RunConfig | None,
          manifest_extra: dict | None = None, flag: str = "--out") -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with _file_arg(flag, out_path):
            with open(out_path, "w") as fh:
                fh.write(text)
            if config is not None:
                write_manifest(out_path, config, manifest_extra)
    else:
        sys.stdout.write(text)


def _parse_radii(text: str) -> np.ndarray:
    try:
        radii = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad --radii value {text!r} (expected r1,r2,...)") from exc
    if not np.all(np.isfinite(radii) & (radii > 0)):
        raise ConfigError(f"bad --radii value {text!r} (radii must be finite and positive)")
    return radii


def _parse_grid(text: str) -> Grid1D:
    try:
        t_min, t_max, n = text.split(",")
        return Grid1D(float(t_min), float(t_max), int(n))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad --grid value {text!r} (expected tmin,tmax,n)") from exc


def cmd_decompose(args) -> int:
    config = load_config(args.config)
    dec = decompose(config.spec, config.angular_nodes)
    radii = _parse_radii(args.radii) if args.radii else np.geomspace(0.25, 4.0, 9)
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    v_rad = dec.v_rad(radii)
    nrad = dec.v_nrad(radii[:, None], theta[None, :])
    recompose_err = float(np.max(np.abs(
        nrad + v_rad[:, None] - config.spec.eval_polar(radii[:, None], theta[None, :]))))
    mean_err = float(np.max(np.abs(np.mean(nrad, axis=-1))))
    payload = {
        "radii": [float(r) for r in radii],
        "v_rad": [float(v) for v in v_rad],
        "is_radial": dec.is_radial,
        "recompose_max_err": recompose_err,
        "nrad_angular_mean_max": mean_err,
    }
    _emit(payload, args.out, config)
    return 0


def cmd_norms(args) -> int:
    config = load_config(args.config)
    dec = decompose(config.spec, config.angular_nodes)
    G = effective_potential(dec)
    zh = zhat(G, J=config.truncation_index)
    report = weak_norm_report(zh, q=1.0)
    l1lp = l1lp_norm(dec, p=config.p, n_theta=config.angular_nodes)
    weyl = weyl_coefficient(G)
    payload = {
        "zeta": [float(v) for v in zh],
        "quasinorm": report.quasinorm,
        "delta_upper": report.delta_upper,
        "delta_lower": report.delta_lower,
        "epsilon_window": None if report.epsilon_window is None else list(report.epsilon_window),
        "truncation_caveat": report.truncation_caveat,
        "l1lp": l1lp,
        "weyl_coeff": weyl,
        "bound_B": l1lp + report.quasinorm,
        "p": config.p,
    }
    _emit(payload, args.out, config)
    return 0


def cmd_count1d(args) -> int:
    config = load_config(args.config)
    grid = _parse_grid(args.grid) if args.grid else None
    if grid is not None and args.m is None and not grid.has_node_at_zero:
        raise ConfigError(f"bad --grid value {args.grid!r} (counting M without --m needs "
                          "an interior node at t = 0)")
    dec = decompose(config.spec, config.angular_nodes)
    G = effective_potential(dec)
    if args.m is None:
        counter = lambda grid: count_M(G, args.alpha, grid)
    else:
        counter = lambda grid: count_channel(G, args.alpha, args.m, grid)
    if grid is not None:
        count = counter(grid)
        result = CountResult(count=count, converged=False,
                             levels=((grid.t_max, grid.n, count),))
        grid_used = grid
    else:
        result = certified_count(counter, config.grid_policy)
        grid_used = config.grid_policy.base_grid()
    payload = {
        "count": result.count,
        "grid": {"t_min": grid_used.t_min, "t_max": grid_used.t_max, "n": grid_used.n},
        "converged": result.converged,
        "levels": result.to_dict()["levels"],
        "alpha": args.alpha,
        "m": args.m,
    }
    _emit(payload, args.out, config, {"alpha": args.alpha})
    return 0


def cmd_count2d(args) -> int:
    config = load_config(args.config)
    policy = config.grid_policy
    # one entry per certification level: (m_max, channel cutoff certified, dimension)
    levels = []
    passes = {}  # each level continues the block passes of the level before

    def values(grid: Grid1D):
        if args.channels is None:
            count, m_used, ch_ok = count_2d_auto(
                config.spec, args.alpha, grid, n_theta=config.angular_nodes,
                max_dimension=config.max_dimension, passes=passes)[args.tilde]
        else:
            # pinned m_max: no cutoff escalation
            m_used, ch_ok = args.channels, True
            count = count_full_2d(assemble_full_2d(
                config.spec, args.alpha, grid, ChannelSet(m_used), config.angular_nodes,
                max_dimension=config.max_dimension), passes)[args.tilde]
        levels.append((m_used, ch_ok, system_dimension(m_used, grid, args.tilde)))
        return count

    result = certified_count(values, policy)
    payload = {
        "count": result.count,
        "m_max_used": max(m for m, _, _ in levels),
        "dim": levels[-1][2],
        "converged": bool(result.converged and all(ok for _, ok, _ in levels)),
        "levels": [dict(level, m_max=m, cutoff_certified=bool(ok)) for level, (m, ok, _)
                   in zip(result.to_dict()["levels"], levels)],
        "tilde": bool(args.tilde),
        "alpha": args.alpha,
    }
    _emit(payload, args.out, config, {"alpha": args.alpha})
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    defaults = config.sweep or {}
    alpha_min = args.alpha_min if args.alpha_min is not None else defaults.get("alpha_min")
    alpha_max = args.alpha_max if args.alpha_max is not None else defaults.get("alpha_max")
    points = args.points if args.points is not None else defaults.get("points")
    if alpha_min is None or alpha_max is None or points is None:
        raise ConfigError("sweep needs --alpha-min/--alpha-max/--points "
                          "(flags or a 'sweep' config section)")
    if not alpha_min < alpha_max:
        raise ConfigError(f"sweep needs alpha_min < alpha_max, got {alpha_min} and {alpha_max}")
    check_sturm_rows(points, f"{points} sweep points")
    if not np.all(np.diff(np.geomspace(alpha_min, alpha_max, points)) > 0):
        raise ConfigError(f"sweep range [{alpha_min}, {alpha_max}] is too narrow "
                          f"for {points} distinct alphas")
    result = sweep(config.spec, alpha_min, alpha_max, points,
                   policy=config.grid_policy, p=config.p,
                   n_theta=config.angular_nodes, J=config.truncation_index,
                   max_dimension=config.max_dimension, threads=args.threads)
    with _file_arg("--out", args.out):
        write_sweep_csv(result, args.out)
        write_manifest(args.out, config, {
            "alpha_min": alpha_min, "alpha_max": alpha_max, "points": points,
            "converged_fraction": float(np.mean(result.converged))})
    if args.plots:
        with _file_arg("--plots", args.plots):
            write_plot_files(result, args.plots)
    return 0


def cmd_report(args) -> int:
    with _file_arg("--in", args.infile):
        result = read_sweep_csv(args.infile)
    window = args.window
    if args.check == "as2":
        payload = check_as2(result, window).to_dict()
    elif args.check == "estim":
        try:
            payload = check_estim(result).to_dict()
        except ValueError as exc:
            # a zero bound_b under counts above 1: the file contradicts itself
            raise ConfigError(f"{args.infile}: {exc}") from exc
    elif args.check == "prop-add":
        payload = check_prop_add(result, args.q, window).to_dict()
    else:
        raise ConfigError(f"unknown check {args.check!r}")
    payload["source"] = args.infile
    _emit(payload, args.json, None, flag="--json")
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    for line in report.lines:
        print(line)
    status = "passed" if report.passed else "FAILED"
    print(f"suite {report.name}: {status} ({len(report.lines)} checks)")
    if not report.passed:
        raise VerificationFailure(f"suite {report.name} failed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves it unchanged, and building it costs more than a small
    request."""
    parser = argparse.ArgumentParser(
        prog="boundcount",
        description="Negative-eigenvalue counts for 2D Schrodinger operators "
                    "-Delta - alpha V and their semiclassical asymptotics.")
    parser.add_argument("--version", action="version", version=f"boundcount {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log INFO lines to stderr: counts that did not certify, "
                             "channel cutoffs that did not settle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="radial/non-radial split diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--radii", help="comma-separated radii to report")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("norms",
                       help="zhat sequence, quasinorms, L1Lp norm, Weyl coefficient, bound B")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("count1d",
                       help="1D counts: the constrained line operator or one angular channel")
    p.add_argument("--config", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--grid", help="tmin,tmax,n override (skips certification)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_count1d)

    p = sub.add_parser("count2d", help="2D block-system counts")
    p.add_argument("--config", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tilde", action="store_true",
                   help="impose the mean-zero constraint on the unit circle")
    p.add_argument("--channels", type=int,
                   help="pin m_max (skips cutoff escalation; the converged flag "
                        "then reflects domain certification only)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_count2d)

    p = sub.add_parser("sweep", help="alpha sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--alpha-min", type=float)
    p.add_argument("--alpha-max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--plots", help="directory for gnuplot-ready series")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for non-radial potentials")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="checks over a sweep CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--check", choices=["as2", "estim", "prop-add"], required=True)
    p.add_argument("--q", type=float, default=2.0, help="exponent for prop-add")
    p.add_argument("--window", type=float, default=0.3, help="trailing window fraction")
    p.add_argument("--json", help="output path (stdout otherwise)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", choices=["hardy", "bs", "sandwich", "radial-consistency"],
                   required=True)
    p.add_argument("--seed", type=int, default=1234, help="seed of the suite's random cases")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _stderr_log(args.verbose):
        try:
            _check_flag_ranges(args)
            _check_out_dirs(args)
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except VerificationFailure as exc:
            print(f"verification failure: {exc}", file=sys.stderr)
            return 3
        except _COMPUTE_ERRORS as exc:
            print(f"computation error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
