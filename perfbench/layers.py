"""Which boundcount functions are traced, and the per-layer metrics made from
their spans and counters.

Every `_s` metric is a layer's self time (span duration minus the time its
traced children cover), and every count is a total; both are divided by the
operations the traced rounds completed (alpha points plus requests), so
they compare between versions whatever the run length.  A layer the
workload never calls reads 0.
"""

from __future__ import annotations

import importlib

import numpy as np

from tracing import Tracer, replace_everywhere

MODULES = ("boundcount", "boundcount.asymptotics", "boundcount.cli", "boundcount.config",
           "boundcount.potentials", "boundcount.quadrature", "boundcount.seminorms",
           "boundcount.spectra1d", "boundcount.spectra2d", "boundcount.verify")

# spans whose time counts as "count work" when they sit directly under a sweep
SWEEP_COUNT_CALLS = ("spectra1d.count_M", "spectra1d.count_channels",
                     "spectra2d.count_2d_auto", "spectra2d.radial_cutoff_m_max")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sturm(rows_of, pivots_of):
    def count(tracer, args, kwargs):
        rows = rows_of(args, kwargs)
        tracer.add("spectra1d.sturm_rows", rows)
        tracer.add("spectra1d.pivots", pivots_of(args, kwargs, rows))
    return count


def _count_full(tracer, args, kwargs):
    system = _arg(args, kwargs, 0, "sys")
    if not system.is_block_diagonal:
        n_int = system.chan_diag.shape[1]
        tracer.add("spectra2d.slices", n_int)
        tracer.add("spectra2d.block_flops", n_int * system.channel_set.size ** 3)


def _level_grid(tracer, args, kwargs):
    if str(tracer.request).startswith("sweep"):
        tracer.add("asymptotics.sweep_levels")


def _g_points(tracer, args, kwargs):
    tracer.add("potentials.G_points", np.size(_arg(args, kwargs, 1, "t")))


def _mode_points(tracer, args, kwargs):
    tracer.add("potentials.fourier_modes_points", np.size(_arg(args, kwargs, 1, "r")))


def _counting_integral(tracer, original):
    def adaptive_integral(f, *rest, **kwargs):
        def sampled(x):
            tracer.add("quadrature.integrand_evals", np.size(x))
            return f(x)
        return original(sampled, *rest, **kwargs)
    return adaptive_integral


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every boundcount module."""
    modules = [importlib.import_module(m) for m in MODULES]
    mod = {m.__name__.split(".")[-1]: m for m in modules}
    n_int = lambda a, k, i: _arg(a, k, i, "grid").n - 2  # noqa: E731
    functions = [
        ("spectra1d", "count_channels", 1, _sturm(
            lambda a, k: len(_arg(a, k, 2, "ms")),
            lambda a, k, rows: rows * n_int(a, k, 3))),
        ("spectra1d", "count_channel", 1, _sturm(
            lambda a, k: 1, lambda a, k, rows: n_int(a, k, 3))),
        ("spectra1d", "count_M", 1, _sturm(
            lambda a, k: 1, lambda a, k, rows: n_int(a, k, 2) - 1)),
        ("spectra2d", "coupled_cutoff_m_max", 1, None),
        ("spectra2d", "radial_cutoff_m_max", 1, None),
        ("spectra2d", "assemble_full_2d", 1, None),
        ("spectra2d", "count_full_2d", None, _count_full),
        ("spectra2d", "count_2d_auto", 1, None),
        ("asymptotics", "sweep", None, None),
        ("seminorms", "zhat", None, None),
        ("seminorms", "weyl_coefficient", None, None),
        ("seminorms", "l1lp_norm", None, None),
        ("seminorms", "bound_functional", None, None),
        ("potentials", "decompose", None, None),
        ("config", "parse_config", None, None),
        ("cli", "main", None, None),
    ]
    for module_name, attr, alpha_arg, count in functions:
        original = getattr(mod[module_name], attr)
        wrapped = tracer.wrap(f"{module_name}.{attr}", original, count, alpha_arg)
        replace_everywhere(modules, original, wrapped)

    quad = mod["quadrature"].adaptive_integral
    replace_everywhere(modules, quad, tracer.wrap(
        "quadrature.adaptive_integral", _counting_integral(tracer, quad)))

    potentials = mod["potentials"]
    methods = [
        (mod["spectra2d"].BlockSystem2D, "angular_residual", "spectra2d.angular_residual", None),
        (mod["spectra1d"].GridPolicy, "level_grid", "spectra1d.level_grid", _level_grid),
        (potentials.EffectivePotential, "__call__", "potentials.G", _g_points),
    ]
    for cls in (potentials.PotentialSpec, potentials.RadialPotential,
                potentials.FourierSumPotential, potentials.ProductPotential):
        if "angular_coefficients" in vars(cls):
            methods.append((cls, "angular_coefficients", "potentials.fourier_modes",
                            _mode_points))
    for cls, attr, name, count in methods:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], count))


def layer_metrics(tracer: Tracer, ops: int, alpha_points: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the traced rounds."""
    own = tracer.self_times()
    calls = {}
    for span in tracer.spans:
        calls[span[1]] = calls.get(span[1], 0) + 1
    c = tracer.counters
    per_op = 1.0 / max(ops, 1)

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    sweep_ids = {span[0] for span in tracer.spans if span[1] == "asymptotics.sweep"}
    sweep_wall = sum(span[3] - span[2] for span in tracer.spans
                     if span[1] == "asymptotics.sweep")
    count_busy = sum(span[3] - span[2] for span in tracer.spans
                     if span[4] in sweep_ids and span[1] in SWEEP_COUNT_CALLS)
    sturm_s = s("spectra1d.count_channels", "spectra1d.count_channel", "spectra1d.count_M")
    return {
        "spectra1d.count_channels_s": (s("spectra1d.count_channels", "spectra1d.count_channel")
                                       * per_op, "s/op"),
        "spectra1d.count_M_s": (s("spectra1d.count_M") * per_op, "s/op"),
        "spectra1d.sturm_rows": (c["spectra1d.sturm_rows"] * per_op, "count/op"),
        "spectra1d.pivots": (c["spectra1d.pivots"] * per_op, "count/op"),
        "spectra1d.pivots_per_s": (ratio(c["spectra1d.pivots"], sturm_s), "1/s"),
        "spectra2d.cutoff_s": (s("spectra2d.coupled_cutoff_m_max",
                                 "spectra2d.radial_cutoff_m_max") * per_op, "s/op"),
        "spectra2d.assemble_s": (s("spectra2d.assemble_full_2d") * per_op, "s/op"),
        "spectra2d.count_full_s": (s("spectra2d.count_full_2d") * per_op, "s/op"),
        "spectra2d.block_sweeps": (calls.get("spectra2d.count_full_2d", 0) * per_op,
                                   "count/op"),
        "spectra2d.slices": (c["spectra2d.slices"] * per_op, "count/op"),
        "spectra2d.residual_s": (s("spectra2d.angular_residual") * per_op, "s/op"),
        "spectra2d.residual_calls": (calls.get("spectra2d.angular_residual", 0) * per_op,
                                     "count/op"),
        "spectra2d.block_flops": (c["spectra2d.block_flops"] * per_op, "flop/op"),
        "spectra2d.useful_sweep_ratio": (ratio(calls.get("spectra2d.count_2d_auto", 0),
                                               calls.get("spectra2d.count_full_2d", 0)),
                                         "ratio"),
        "asymptotics.sweep_s": (s("asymptotics.sweep") * per_op, "s/op"),
        "asymptotics.levels_per_alpha": (ratio(c["asymptotics.sweep_levels"], alpha_points),
                                         "count"),
        "asymptotics.busy_over_wall": (ratio(count_busy, sweep_wall), "ratio"),
        "seminorms.zhat_s": (s("seminorms.zhat") * per_op, "s/op"),
        "seminorms.weyl_s": (s("seminorms.weyl_coefficient") * per_op, "s/op"),
        "seminorms.l1lp_s": (s("seminorms.l1lp_norm") * per_op, "s/op"),
        "seminorms.bound_functional_s": (s("seminorms.bound_functional") * per_op, "s/op"),
        "quadrature.integrals": (calls.get("quadrature.adaptive_integral", 0) * per_op,
                                 "count/op"),
        "quadrature.integrand_evals": (c["quadrature.integrand_evals"] * per_op, "count/op"),
        "quadrature.self_s": (s("quadrature.adaptive_integral") * per_op, "s/op"),
        "potentials.decompose_s": (s("potentials.decompose") * per_op, "s/op"),
        "potentials.G_calls": (calls.get("potentials.G", 0) * per_op, "count/op"),
        "potentials.G_points": (c["potentials.G_points"] * per_op, "count/op"),
        "potentials.fourier_modes_s": (s("potentials.fourier_modes") * per_op, "s/op"),
        "potentials.fourier_modes_points": (c["potentials.fourier_modes_points"] * per_op,
                                            "count/op"),
        "config.parse_s": (s("config.parse_config") * per_op, "s/op"),
        "config.calls": (calls.get("config.parse_config", 0) * per_op, "count/op"),
        "cli.self_s": (s("cli.main") * per_op, "s/op"),
    }
