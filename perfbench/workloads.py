"""The workloads: inputs made from the seed, the operations of one round, and
the checks on every output.

A round is a fixed list of operations (alpha points and CLI requests), so
every round of every run attempts the same kinds of operation in the same
numbers.  One random generator, seeded by ``--seed``, draws each round's
parameters afresh (potential parameters, alphas, radii, table values and
the order of the operations), and every request reads a config file written
for it alone.  Only certified counts take their alpha from a catalogue: an
alpha next to a threshold of the half-line operator M binds a state that
reaches past the domain-doubling levels, and such a point stays uncertified
(see README.md).  Every catalogue entry was checked to certify at the
commit that added this file, and a run walks each catalogue in a seeded
order, so that an entry repeats only after the whole catalogue was used.

Outputs are checked after the measured rounds (``Recorder.settle``): the
reference values load SciPy and build matrices of their own, which would
otherwise sit in the memory and the time of the measured process.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np

import oracles


class Recorder:
    """Latencies, counts and outcomes of one stretch of rounds."""

    def __init__(self):
        self.requests = []          # (kind, seconds)
        self.sweep_seconds = 0.0
        self.sweep_points = 0       # certified alpha points from sweep calls
        self.count_seconds = 0.0
        self.count_points = 0       # alpha points of count1d/count2d requests
        self.pending = []           # (label, operations, check) for settle()
        self.attempted = 0
        self.failed = 0
        self.problems = []          # failures not explained by a known fault
        self.rounds = 0
        self.round_work = []        # summed latency of each round

    def later(self, label: str, check, ops: int = 1):
        """Queue ``check(errors, known)``; ``known`` takes the errors a known
        fault of the program explains, which fail the operation but leave the
        run correct."""
        self.pending.append((label, ops, check))

    def settle(self):
        for label, ops, check in self.pending:
            errors, known = [], []
            try:
                check(errors, known)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                errors.append(f"malformed output: {exc!r}")
            self.attempted += ops
            if errors or known:
                self.failed += ops
            if errors:
                self.problems.append(f"{label}: {'; '.join(errors)}")
        self.pending = []

    def work(self) -> float:
        return sum(s for _, s in self.requests)


def close(a, b, rel=1e-6, abs_=1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def expect(errors: list, ok: bool, message: str):
    if not ok:
        errors.append(message)


def geometric_grid(lo: float, hi: float, points: int, phase: float) -> tuple[float, float]:
    """Ends of a geometric grid inside [lo, hi], both pulled in from the ends by
    ``phase`` and ``1 - phase`` of an eighth of a grid step."""
    shift = math.log(hi / lo) / (points - 1) / 8
    return lo * math.exp(phase * shift), hi * math.exp(-(1 - phase) * shift)


def gaussian(a, w):
    return {"family": "gaussian", "params": {"amplitude": a, "width": w}}


def disk(d, R):
    return {"family": "disk_well", "params": {"depth": d, "radius": R}}


def _gauss(a, w):
    return {"shape": "gaussian", "amplitude": a, "width": w}


def fourier(*modes):
    return {"family": "fourier_sum",
            "params": {"modes": [{"m": m, "kind": kind, "profile": prof}
                                 for m, kind, prof in modes]}}


def radial_profile(doc: dict) -> dict:
    """The m = 0 profile of a Fourier sum, or the document of a radial family."""
    if doc["family"] == "fourier_sum":
        return next(mode["profile"] for mode in doc["params"]["modes"] if mode["m"] == 0)
    return doc


# (1 + cos theta) e^{-r^2}, and the flat window G = 1 on [0, 1]
COUPLED = fourier((0, "cos", _gauss(1.0, 1.0)), (1, "cos", _gauss(0.5, 1.0)))
FLAT = fourier((0, "cos", {"shape": "inverse_square_ring", "value": 1.0,
                           "r_lo": 1.0, "r_hi": math.e}))
# theta nodes at (k + 1/2) 2pi/8, a single 1 in each row
CELL_TABLE = (np.array([0.5, 1.0, 2.0]), 2 * np.pi * (np.arange(8) + 0.5) / 8,
              np.tile(np.eye(1, 8), (3, 1)))

# relative excess of the disk count over the Bessel-zero count allowed per
# unit of grid step h (the jump of V at r = 1 costs O(h))
DISK_ALLOWANCE_PER_H = 3.0


# ----------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, bc, seed: int, outdir: str):
        import boundcount.cli
        self.bc = bc
        self.cli = boundcount.cli
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.files = 0
        self.slot = 0
        self.tracer = None       # set for a traced run: requests tag their spans

    # inputs ------------------------------------------------------------
    def u(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def write_config(self, name: str, potential: dict, **extra) -> str:
        self.files += 1
        path = os.path.join(self.outdir, f"{name}-{self.files}.json")
        with open(path, "w") as fh:
            json.dump({"potential": potential, "seed": self.seed, **extra}, fh, indent=1)
        return path

    def write_table(self, name: str, table) -> dict:
        r_grid, theta, values = table
        self.files += 1
        path = os.path.join(self.outdir, f"{name}-{self.files}.csv")
        with open(path, "w") as fh:
            for i, r in enumerate(r_grid):
                for j, t in enumerate(theta):
                    fh.write(f"{float(r)!r},{float(t)!r},{float(values[i, j])!r}\n")
        return {"family": "annulus_tabulated", "params": {"path": path}}

    def walk(self, values):
        """Endless walk over a catalogue, each pass in a new seeded order."""
        while True:
            for i in self.rng.permutation(len(values)):
                yield float(values[i])

    def setup_configs(self) -> list:
        """Config files whose set-up ``setup_s`` times."""
        raise NotImplementedError

    def round(self, rec: Recorder):
        raise NotImplementedError

    # operations --------------------------------------------------------
    def out_path(self) -> str:
        self.slot += 1
        return os.path.join(self.outdir, f"out{self.slot % 32}.json")

    def tag(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.request = f"{kind}#{self.slot}"

    def request(self, rec: Recorder, kind: str, argv: list, check):
        """Run one CLI request; ``check(payload, errors, known)`` runs later."""
        out = self.out_path()
        self.tag(kind)
        flag = "--json" if argv[0] == "report" else "--out"
        start = time.perf_counter()
        code = self.cli.main([*argv, flag, out])
        seconds = time.perf_counter() - start
        rec.requests.append((kind, seconds))
        if kind in ("count1d", "count2d"):
            rec.count_seconds += seconds
            rec.count_points += 1
        payload = None
        if code == 0:
            with open(out) as fh:
                payload = json.load(fh)

        def judge(errors, known):
            if payload is None:
                errors.append(f"exit code {code}")
            else:
                check(payload, errors, known)
        rec.later(" ".join(argv), judge)

    # shared checks ---------------------------------------------------------
    @staticmethod
    def norms_check(doc: dict):
        """weyl, zeta_0 and l1lp of a radial family or of a Fourier sum with
        one non-radial Gaussian mode, and the relations between the fields."""
        def check(p, errors, known):
            radial = radial_profile(doc)
            weyl = oracles.profile_weyl(radial)
            zeta0 = oracles.profile_zeta0(radial)
            l1lp = (oracles.fourier_l1l2(doc["params"]["modes"])
                    if doc["family"] == "fourier_sum" else 0.0)
            expect(errors, close(p["weyl_coeff"], weyl), f"weyl {p['weyl_coeff']!r} != {weyl!r}")
            expect(errors, close(p["l1lp"], l1lp, 1e-6, 1e-10),
                   f"l1lp {p['l1lp']!r} != {l1lp!r}")
            expect(errors, close(p["zeta"][0], zeta0, 1e-6),
                   f"zeta_0 {p['zeta'][0]!r} != {zeta0!r}")
            zeta = np.asarray(p["zeta"])
            expect(errors, bool(np.all(zeta >= 0)), "negative zeta entry")
            expect(errors, close(p["bound_B"], p["l1lp"] + p["quasinorm"], 1e-12),
                   "bound_B != l1lp + quasinorm")
            expect(errors, p["quasinorm"] >= float(zeta.max()) * (1 - 1e-12),
                   "quasinorm below max zeta")
        return check


# ----------------------------------------------------------------------


class RadialSweep(Workload):
    """Per round, in seeded order: spot requests on freshly drawn radial wells
    in three batches, with one certified single-threaded sweep of
    gaussian_well(1,1) and one of disk_well(1,1) between them."""

    name = "radial-sweep"
    points = 6
    alpha_range = (100.0, 2000.0)
    # grid phases k/24 on which every alpha of both wells certifies on
    # levels 0-2, so that every round does the same work in the same memory.
    # The others: k = 6, 18 and 20 leave gaussian_well(1,1) uncertified at
    # alpha = 101.89, 189.71 and 614.06, k = 9 leaves disk_well(1,1)
    # uncertified at 102.85 and 593.33, and k = 1, 7, 8, 10, 11, 19, 21 and
    # 23 certify some alpha only on level 3
    phases = tuple(k / 24 for k in (0, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17, 22))
    wells = {"gaussian": gaussian(1.0, 1.0), "disk_well": disk(1.0, 1.0)}
    # spot requests of each kind per round, spread over the round so that
    # their medians see the same stretches of the run as the sweeps
    spot_repeats = 16
    spot_alpha = (1600.0, 2000.0)
    spot_grid = (10.0, 2001)
    spot_policy = {"t_half": 10.0, "n": 2001, "max_doublings": 0, "agreements": 1}

    def __init__(self, bc, seed, outdir):
        super().__init__(bc, seed, outdir)
        self.phase_walk = self.walk(self.phases)

    def setup_configs(self):
        return [self.write_config(name, pot) for name, pot in self.wells.items()]

    def round(self, rec):
        phase = next(self.phase_walk)
        lo, hi = geometric_grid(*self.alpha_range, self.points, phase)
        kinds = ["norms", "count1d", "count2d"] * self.spot_repeats
        kinds = [kinds[i] for i in self.rng.permutation(len(kinds))]
        names = [str(n) for n in self.rng.permutation(list(self.wells))]
        n = len(names) + 1
        batches = [kinds[i * len(kinds) // n:(i + 1) * len(kinds) // n] for i in range(n)]
        for batch, name in zip(batches, names + [None]):
            for kind in batch:
                self.spot(rec, kind)
            if name is not None:
                self.sweep(rec, name, lo, hi)

    # spot requests ---------------------------------------------------------
    def spot(self, rec, kind):
        u = self.u
        if kind == "norms":
            doc = gaussian(u(0.8, 1.2), u(0.8, 1.25))
            path = self.write_config("norms", doc)
            self.request(rec, kind, ["norms", "--config", path], self.norms_check(doc))
            return
        t_half, n = self.spot_grid
        alpha = u(*self.spot_alpha)
        if kind == "count1d":
            doc = gaussian(u(0.9, 1.1), u(0.9, 1.1))
            m = int(self.rng.integers(0, 4))          # 0: the half-line operator M
            argv = ["count1d", "--config", self.write_config("count1d", doc),
                    "--alpha", repr(alpha), f"--grid=-{t_half!r},{t_half!r},{n}"]
            if m:
                argv += ["--m", str(m)]

            def check(p, errors, known):
                G = oracles.profile_G(doc)
                want = (oracles.channel_count(G, alpha, t_half, n, m) if m
                        else oracles.radial_counts(G, alpha, t_half, n)[2])
                expect(errors, p["count"] == want, f"count {p['count']} != {want}")
        else:
            doc = (gaussian(u(0.9, 1.1), u(0.9, 1.1)) if self.rng.integers(2)
                   else disk(u(0.9, 1.1), u(0.9, 1.1)))
            tilde = bool(self.rng.integers(2))
            argv = ["count2d", "--config",
                    self.write_config("count2d", doc, grid_policy=self.spot_policy),
                    "--alpha", repr(alpha)] + (["--tilde"] if tilde else [])

            def check(p, errors, known):
                want = oracles.radial_counts(oracles.profile_G(doc), alpha, t_half, n)[int(tilde)]
                expect(errors, p["count"] == want, f"count {p['count']} != {want}")
        self.request(rec, kind, argv, check)

    # sweeps ---------------------------------------------------------------
    def sweep(self, rec: Recorder, name: str, lo: float, hi: float):
        config = self.bc.parse_config({"potential": self.wells[name], "seed": self.seed})
        self.slot += 1
        self.tag("sweep")
        start = time.perf_counter()
        res = self.bc.sweep(config.spec, lo, hi, self.points, policy=config.grid_policy,
                            p=config.p, n_theta=config.angular_nodes,
                            J=config.truncation_index, max_dimension=config.max_dimension,
                            threads=1)
        seconds = time.perf_counter() - start
        rec.requests.append(("sweep", seconds))
        rec.sweep_seconds += seconds
        rec.sweep_points += int(np.count_nonzero(res.converged))
        for i in range(self.points):
            rec.later(f"sweep {name} alpha={res.alphas[i]!r}",
                      lambda errors, known, i=i: self.check_point(name, res, i, errors))
        rec.later(f"sweep {name} over [{lo!r}, {hi!r}]",
                  lambda errors, known: self.check_sweep(name, res, errors), ops=0)

    def check_point(self, name, res, i, errors):
        a = float(res.alphas[i])
        if not res.converged[i]:
            errors.append("not certified")
            return
        got = (int(res.n2d[i]), int(res.n_tilde[i]), int(res.n_m[i]))
        # certified on levels 0-2, or 1-3 when level 0 differed
        G = oracles.profile_G(self.wells[name])
        policy = self.bc.GridPolicy()
        refs = []
        for level in (0, 1):
            grid = policy.level_grid(level)
            refs.append(oracles.radial_counts(G, a, grid.t_max, grid.n))
            if got == refs[-1]:
                break
        expect(errors, got == refs[-1],
               f"alpha={a:.6g}: counts {got} match no reference level {refs}")
        if name == "disk_well":
            exact = oracles.disk_bessel_count(a, 1.0, 1.0)
            h = policy.base_grid().h
            expect(errors, exact <= got[0] <= exact * (1 + DISK_ALLOWANCE_PER_H * h) + 2,
                   f"alpha={a:.6g}: disk count {got[0]} vs Bessel count {exact}")

    def check_sweep(self, name, res, errors):
        n2d, nt, nm = res.n2d, res.n_tilde, res.n_m
        expect(errors, bool(np.all(nt <= n2d) and np.all(n2d <= nt + 1)),
               f"sandwich tilde <= full <= tilde + 1 broken: {nt.tolist()} {n2d.tolist()}")
        for label, series in (("N(H)", n2d), ("N(H~)", nt), ("N(M)", nm)):
            expect(errors, bool(np.all(np.diff(series) >= 0)),
                   f"{label} decreases in alpha: {series.tolist()}")
        w = oracles.profile_weyl(self.wells[name])
        expect(errors, close(res.weyl, w), f"weyl {res.weyl} != {w}")
        upper, lower = oracles.window(res.alphas, res.n2d)
        expect(errors, abs(upper - w) <= 0.15 * w and abs(lower - w) <= 0.15 * w,
               f"trailing N/alpha [{lower}, {upper}] not within 15% of weyl {w}")


# ----------------------------------------------------------------------


DISK_POLICY = {"t_half": 8.0, "n": 801}
COUPLED_POLICY = {"t_half": 6.0, "n": 121}
SMALL_POLICY = {"t_half": 4.0, "n": 81, "max_doublings": 0, "agreements": 1}
LINE_GRID = (-8.0, 8.0, 801)


class QueryMix(Workload):
    """One closed-loop client; each round sends 30 requests, drawn afresh, in
    an order drawn from the seed."""

    name = "query-mix"
    # certified counts: disk_well(1,1) on DISK_POLICY and (1+cos theta)e^{-r^2}
    # on COUPLED_POLICY.  Every entry certifies, with the same channel cutoff
    # (8) throughout each catalogue; the windows leave out alphas whose counts
    # take other numbers of escalation steps (disk_well below 52 took about
    # 150 ms against 100 here, the coupled counts below 10.425 twice as long)
    disk_alphas = tuple(np.linspace(52.0, 56.75, 39))
    coupled_alphas = tuple(np.linspace(10.425, 12.0, 64))
    # per round: as many small pinned counts as coupled certified ones, so
    # that the median of the count2d latencies falls among the disk counts,
    # and more coupled counts than a tenth of all requests, so that the 90th
    # percentile of all latencies falls among them
    disk_per_round = 3
    pairs_per_round = 2
    # flat window: alpha = (k pi + delta)^2, |delta| <= 1/2, far from the
    # thresholds ((2k - 1) pi / 2)^2
    flat_k = (2, 3, 4, 5)

    def __init__(self, bc, seed, outdir):
        super().__init__(bc, seed, outdir)
        self.disk_walk = self.walk(self.disk_alphas)
        self.coupled_walk = self.walk(self.coupled_alphas)

    def draw_potentials(self) -> tuple[dict, dict]:
        """name -> (potential document, extra config fields), drawn afresh,
        and name -> (r grid, theta grid, values) of the tabulated ones."""
        u = self.u
        w1, w2 = u(0.8, 1.25), u(0.8, 1.25)
        tables = {"table_nodes": (np.geomspace(u(0.4, 0.6), u(1.8, 2.2), 5),
                                  2 * np.pi * np.arange(8) / 8, self.rng.uniform(0, 1, (5, 8))),
                  "table_cells": CELL_TABLE}
        pots = {
            "gauss": (gaussian(u(0.8, 1.2), u(0.8, 1.25)), {}),
            # radius 1: with the jump of G off t = 0 the program's Weyl
            # coefficient is sometimes off by up to 6e-3 (see README.md)
            "disk": (disk(u(0.8, 1.2), 1.0), {}),
            "log": ({"family": "log_borderline", "params": {"c": u(0.5, 2.0)}}, {}),
            "cos_mode": (fourier((0, "cos", _gauss(u(0.8, 1.2), w1)),
                                 (1, "cos", _gauss(u(0.2, 0.4), w1))), {}),
            "sin_mode": (fourier((0, "cos", _gauss(u(0.8, 1.2), w2)),
                                 (2, "sin", _gauss(u(0.2, 0.4), w2))), {}),
            "small": (fourier((0, "cos", _gauss(u(0.8, 1.2), 1.0)),
                              (1, "cos", _gauss(u(0.2, 0.4), 1.0))),
                      {"grid_policy": SMALL_POLICY}),
            "flat": (FLAT, {"grid_policy": DISK_POLICY}),
            "disk_cert": (disk(1.0, 1.0), {"grid_policy": DISK_POLICY}),
            "coupled_cert": (COUPLED, {"grid_policy": COUPLED_POLICY, "max_dimension": 200000}),
        }
        for name, table in tables.items():
            pots[name] = (self.write_table(name, table), {})
        return pots, tables

    def write_all(self, pots: dict) -> dict:
        return {name: self.write_config(name, doc, **extra) for name, (doc, extra) in pots.items()}

    def setup_configs(self):
        return list(self.write_all(self.draw_potentials()[0]).values())

    # checks ----------------------------------------------------------------
    def decompose_check(self, doc, table, radii, fault: bool):
        """``fault``: the request reads the cell-centred table, on which the
        known TabulatedPotential.eval_polar fault (extrapolation below the
        first theta node: 1.5 at theta = 0, 0.5 just below 2 pi) spoils two
        fields.  v_rad is the mean of that wrong interpolant (0.158, not the
        sample mean 0.125), and its non-radial part keeps a non-zero angular
        mean (0.164 over the 64 nodes of the output against 0.158 over the
        256 nodes v_rad is taken on; a periodic piecewise-linear interpolant
        has the same mean on both).  These two errors fail the request
        without making the run incorrect; any other error still counts."""
        def check(p, errors, known):
            if table is None:
                v_rad = oracles.profile_V(radial_profile(doc))(radii)
            else:
                v_rad = oracles.table_mean_profile(table[0], table[2])(radii)
            scale = max(1.0, float(np.max(np.abs(v_rad))))
            expect(errors, np.allclose(p["radii"], radii, rtol=1e-12), "radii echoed wrongly")
            expect(known if fault else errors,
                   np.allclose(p["v_rad"], v_rad, rtol=1e-9, atol=1e-12),
                   f"v_rad {np.round(p['v_rad'], 6).tolist()} != "
                   f"{np.round(v_rad, 6).tolist()}")
            expect(errors, p["recompose_max_err"] <= 1e-9 * scale, "recomposition error")
            expect(known if fault else errors, p["nrad_angular_mean_max"] <= 1e-9 * scale,
                   f"non-radial mean {p['nrad_angular_mean_max']!r} not zero")
            expect(errors, p["is_radial"] is False, "reported radial")
        return check

    @staticmethod
    def count_check(reference, certified: bool):
        def check(p, errors, known):
            if certified:
                expect(errors, p["converged"] is True, "not certified")
            want = reference()
            expect(errors, p["count"] == want, f"count {p['count']} != {want}")
        return check

    @staticmethod
    def disk_check(alpha):
        def check(p, errors, known):
            expect(errors, p["converged"] is True, "not certified")
            h = 2 * DISK_POLICY["t_half"] / (DISK_POLICY["n"] - 1)
            ex = oracles.disk_bessel_count(alpha, 1.0, 1.0)
            expect(errors, ex <= p["count"] <= ex * (1 + DISK_ALLOWANCE_PER_H * h) + 2,
                   f"disk count {p['count']} vs Bessel count {ex}")
        return check

    def coupled_check(self, alpha, pair, tilde):
        def check(p, errors, known):
            expect(errors, p["converged"] is True, "not certified")
            top = self.bc.GridPolicy(**COUPLED_POLICY).level_grid(3)
            bound = oracles.radial_counts(oracles.profile_G(_gauss(1.0, 1.0)), 2.0 * alpha,
                                          top.t_max, top.n)[0]
            expect(errors, p["count"] <= bound, f"count {p['count']} above radial bound {bound}")
            pair[tilde] = p["count"]
            if len(pair) == 2:
                expect(errors, pair[True] <= pair[False] <= pair[True] + 1,
                       f"sandwich broken: tilde {pair[True]}, full {pair[False]}")
        return check

    @staticmethod
    def report_check(which, rows):
        def check(p, errors, known):
            alphas, n2d, n_m, weyl, bound = rows
            ref = oracles.as2(alphas, n2d, n_m, weyl) if which == "as2" else \
                oracles.estim(alphas, n2d, bound)
            for key, val in ref.items():
                got = p[key]
                if isinstance(val, dict):
                    for k2, v2 in val.items():
                        expect(errors, close(got[k2], v2, 1e-12), f"{key}.{k2} {got[k2]} != {v2}")
                else:
                    expect(errors, close(got, val, 1e-12), f"{key} {got} != {val}")
        return check

    def write_sweep_csv(self):
        """A synthetic sweep CSV for the report requests, and its rows."""
        alphas = np.geomspace(100.0, 2000.0, 12) * np.exp(self.rng.uniform(-0.02, 0.02, 12))
        n2d = np.floor(0.25 * alphas + np.sqrt(alphas) + self.rng.uniform(0, 2, 12)).astype(int)
        n2d = np.maximum.accumulate(n2d)
        n_m = np.maximum.accumulate(np.floor(0.5 * np.sqrt(alphas)).astype(int))
        weyl, bound = self.u(0.2, 0.3), self.u(1.0, 1.5)
        lines = ["# label=synthetic", f"# weyl={weyl!r}", f"# bound_b={bound!r}", "# p=2.0",
                 "alpha,n2d,n_tilde,n_m,n2d_over_alpha,converged"]
        for a, n, m in zip(alphas, n2d, n_m):
            lines.append(f"{float(a)!r},{n},{n - 1},{m},{float(n / a)!r},1")
        self.files += 1
        path = os.path.join(self.outdir, f"sweep-{self.files}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path, (alphas, n2d, n_m, weyl, bound)

    # the round -----------------------------------------------------------------
    def requests_of_round(self):
        u = self.u
        pots, tables = self.draw_potentials()
        path = self.write_all(pots)
        doc = {name: d for name, (d, _) in pots.items()}
        reqs = []
        for name in ("gauss", "disk", "log", "cos_mode", "sin_mode"):
            reqs.append(("norms", ["norms", "--config", path[name]], self.norms_check(doc[name])))
        for name in ("cos_mode", "sin_mode", "table_nodes", "table_cells"):
            radii = np.sort(self.rng.uniform(0.62, 1.75, 5))
            reqs.append(("decompose", ["decompose", "--config", path[name], "--radii",
                                       ",".join(repr(float(r)) for r in radii)],
                         self.decompose_check(doc[name], tables.get(name), radii,
                                              fault=name == "table_cells")))
        for k in self.rng.choice(self.flat_k, 2, replace=False):
            alpha = (int(k) * math.pi + u(-0.5, 0.5)) ** 2
            reqs.append(("count1d", ["count1d", "--config", path["flat"], "--alpha", repr(alpha)],
                         self.count_check(lambda k=int(k): k, True)))
        grid = "--grid={!r},{!r},{}".format(*LINE_GRID)
        for name, channel, lo, hi in (("gauss", False, 20.0, 60.0), ("gauss", True, 20.0, 60.0),
                                      ("disk", True, 40.0, 120.0)) * 2:
            m = int(self.rng.integers(1, 3)) if channel else None
            alpha = u(lo, hi)
            reqs.append(("count1d", ["count1d", "--config", path[name], "--alpha", repr(alpha),
                                     grid] + (["--m", str(m)] if channel else []),
                         self.count_check(lambda d=doc[name], a=alpha, m=m: oracles.line_count_dense(
                             oracles.profile_G(d), a, *LINE_GRID, m), False)))
        small = doc["small"]["params"]["modes"]
        for _ in range(self.pairs_per_round):
            alpha = u(6.0, 14.0)
            for tilde in (False, True):
                reqs.append(("count2d", ["count2d", "--config", path["small"], "--alpha",
                                         repr(alpha), "--channels", "3"]
                             + (["--tilde"] if tilde else []),
                             self.count_check(lambda a=alpha, t=tilde: oracles.coupled_dense_count(
                                 oracles.fourier_V(small), a, SMALL_POLICY["t_half"],
                                 SMALL_POLICY["n"], 3, t), False)))
        for _ in range(self.disk_per_round):
            alpha = next(self.disk_walk)
            reqs.append(("count2d", ["count2d", "--config", path["disk_cert"], "--alpha",
                                     repr(alpha)], self.disk_check(alpha)))
        for _ in range(self.pairs_per_round):
            alpha, pair = next(self.coupled_walk), {}
            for tilde in (False, True):
                reqs.append(("count2d", ["count2d", "--config", path["coupled_cert"], "--alpha",
                                         repr(alpha)] + (["--tilde"] if tilde else []),
                             self.coupled_check(alpha, pair, tilde)))
        csv, rows = self.write_sweep_csv()
        for which in ("as2", "estim"):
            reqs.append(("report", ["report", "--in", csv, "--check", which],
                         self.report_check(which, rows)))
        return reqs

    def round(self, rec):
        reqs = self.requests_of_round()
        for i in self.rng.permutation(len(reqs)):
            self.request(rec, *reqs[i])


WORKLOADS = {w.name: w for w in (RadialSweep, QueryMix)}


def end_to_end(rec: Recorder) -> dict:
    def p50(kind=None):
        vals = [s for k, s in rec.requests if kind is None or k == kind]
        return 1e3 * statistics.median(vals) if vals else 0.0

    def p90():
        return 1e3 * statistics.quantiles([s for _, s in rec.requests], n=10)[-1]

    if rec.sweep_seconds:
        alpha_rate = rec.sweep_points / rec.sweep_seconds
    else:
        alpha_rate = rec.count_points / rec.count_seconds if rec.count_seconds else 0.0
    return {
        "alpha_points_per_s": (alpha_rate, "1/s"),
        "requests_per_s": (len(rec.requests) / rec.work(), "1/s"),
        "request_p50_ms": (p50(), "ms"),
        "request_p90_ms": (p90(), "ms"),
        "norms_p50_ms": (p50("norms"), "ms"),
        "count1d_p50_ms": (p50("count1d"), "ms"),
        "count2d_p50_ms": (p50("count2d"), "ms"),
    }
