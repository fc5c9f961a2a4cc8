"""The benchmark's three workloads and the checks that feed ``error_rate``.

Each workload has the same shape:

``setup()``
    Imports ``illposed`` and builds the workload's problems and reference
    rules (timed as ``setup_s``).
``run(state, workdir)``
    One repetition.  Returns the repetition's canonical output text (compared
    byte for byte between repetitions, traced and untraced) and the solve
    latency samples it timed itself, in CPU milliseconds.
``check(text, refs)``
    Counts attempted and failed ops against the recorded references.

The workload seed only sets the noise seeds the program receives.  Value
references are checked only at the seed they were recorded with; verdicts
and inequalities are checked at every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import process_time
from types import SimpleNamespace

import numpy as np

# Largest relative drift of a study value from its reference.
STUDY_RTOL = 1e-6
# Values below this magnitude are left out of ``check.max_rel_drift``.
DRIFT_FLOOR = 1e-10


class WorkloadError(RuntimeError):
    """The program under test failed (raised, or exited non-zero)."""


@dataclass
class Check:
    attempted: int
    failed: int
    max_rel_drift: float = 0.0


@dataclass
class Refs:
    """Reference outputs: ``values`` only at the recorded seed."""

    values: str | None = None
    verdicts: str | None = None


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if abs(ref) > DRIFT_FLOOR else 0.0


def _parse_csv(text: str) -> list[dict[str, str]]:
    header, *lines = text.strip("\n").split("\n")
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines]


def _num(field: str) -> float:
    return math.nan if field in ("", "nan") else float(field)


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _import_illposed():
    import illposed
    import illposed.cli

    return illposed


# ---------------------------------------------------------------------------
# verify-grid


class VerifyGrid:
    """``illposed verify --seed <seed>`` on the default grid."""

    name = "verify-grid"
    timed_calls = {"tikh": "regularize.tikhonov_discrete",
                   "minnorm": "regularize.min_norm_solution"}

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.n = "4,8" if smoke else None  # None: the CLI's default n list

    def setup(self):
        ip = _import_illposed()
        problems = [ip.get_problem(pid) for pid in ip.problem_catalog()]
        rules = [ip.reference_rule(p.kernel.domain) for p in problems]
        return SimpleNamespace(ip=ip, problems=problems, rules=rules)

    def run(self, state, workdir: Path):
        out = workdir / "bounds.csv"
        out.unlink(missing_ok=True)
        argv = ["verify", "--seed", str(self.seed), "--out", str(workdir)]
        if self.n:
            argv += ["--n", self.n]
        code = state.ip.cli.main(argv)
        if code != 0:
            raise WorkloadError(f"illposed verify exited with code {code}")
        return out.read_text(encoding="ascii"), {}

    @staticmethod
    def _keyed(text: str) -> dict[tuple, dict[str, str]]:
        # rows are sorted by (bound_id, problem, scheme, n, alpha, delta); the
        # ordinal inside each (bound_id, problem, scheme, n) group keys a row
        # without depending on the measured alpha = eps_n
        keyed, seen = {}, {}
        for row in _parse_csv(text):
            group = (row["bound_id"], row["problem"], row["scheme"], row["n"])
            seen[group] = seen.get(group, -1) + 1
            keyed[group + (seen[group],)] = row
        return keyed

    def check(self, state, text: str, refs: Refs) -> Check:
        out = self._keyed(text)
        if refs.verdicts is None:
            bad = sum(r["passed"] not in ("true", "skipped") for r in out.values())
            return Check(len(out), bad)
        ref = self._keyed(refs.verdicts)
        values = self._keyed(refs.values) if refs.values is not None else {}
        tol = state.ip.analysis.default_tolerance
        failed = len(set(out) - set(ref))
        drift = 0.0
        for key, r in ref.items():
            row = out.get(key)
            if row is None or row["passed"] != r["passed"]:
                failed += 1
                continue
            v = values.get(key)
            if v is None:
                continue
            ok = True
            for col in ("lhs", "rhs"):
                got, want = _num(row[col]), _num(v[col])
                if math.isnan(want):
                    ok &= math.isnan(got)
                    continue
                drift = max(drift, _rel(got, want))
                ok &= abs(got - want) <= tol(abs(_num(v["rhs"])))
            failed += not ok
        return Check(max(len(ref), 1), failed, drift)


# ---------------------------------------------------------------------------
# study-n256


class StudyN256:
    """``illposed study`` on green-m1, collocation, n up to 256."""

    name = "study-n256"
    timed_calls = VerifyGrid.timed_calls

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.config = {
            "problem": "green-m1", "scheme": "collocation",
            "n": [8, 16] if smoke else [32, 64, 128, 256],
            "ref_points": 64 if smoke else 1024,
            "delta": 1e-4, "seed": seed,
        }

    def setup(self):
        ip = _import_illposed()
        problem = ip.get_problem(self.config["problem"])
        rule = ip.reference_rule(problem.kernel.domain, self.config["ref_points"])
        return SimpleNamespace(ip=ip, problem=problem, rule=rule)

    def run(self, state, workdir: Path):
        config = workdir / "study.json"
        config.write_text(json.dumps(self.config), encoding="ascii")
        out = workdir / "convergence.csv"
        out.unlink(missing_ok=True)
        code = state.ip.cli.main(["study", str(config), "--out", str(workdir)])
        if code != 0:
            raise WorkloadError(f"illposed study exited with code {code}")
        return out.read_text(encoding="ascii"), {}

    def check(self, state, text: str, refs: Refs) -> Check:
        rows = _parse_csv(text)
        ref = _parse_csv(refs.values) if refs.values is not None else None
        expected = [str(n) for n in self.config["n"]]
        failed = max(len(rows) - len(expected), 0)
        drift = 0.0
        prev = None
        for i, n in enumerate(expected):
            row = rows[i] if i < len(rows) else None
            if row is None or row["n"] != n:
                failed += 1
                prev = None
                continue
            vals = {k: _num(v) for k, v in row.items()}
            ok = all(math.isfinite(v) for v in vals.values())
            if prev is not None:
                ok &= vals["err_min_norm"] < prev["err_min_norm"]
                ok &= vals["err_tikh"] < prev["err_tikh"]
            if ref is not None:
                for col, want in ref[i].items():
                    got, want = vals[col], _num(want)
                    drift = max(drift, _rel(got, want))
                    ok &= abs(got - want) <= STUDY_RTOL * abs(want)
            failed += not ok
            prev = vals
        return Check(len(expected), failed, drift)


# ---------------------------------------------------------------------------
# solve-sweep


class SolveSweep:
    """Assemble once per scheme, then many min-norm and Tikhonov solves."""

    name = "solve-sweep"
    timed_calls = {}
    SCHEMES = ("collocation", "interpolatory", "ortho-pc")
    DELTA = 1e-4
    HEADER = "scheme,op,draw,shift,err,lhs,rhs"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.n = 16 if smoke else 128
        self.draws = 2 if smoke else 4
        self.shifts = 4 if smoke else 16

    def setup(self):
        import illposed as ip

        problem = ip.get_problem("green-m1")
        rule = ip.reference_rule(problem.kernel.domain)
        return SimpleNamespace(ip=ip, problem=problem, rule=rule)

    def run(self, state, workdir: Path):
        ip, problem, rule = state.ip, state.problem, state.rule
        x = problem.x_dagger
        lines = [self.HEADER]
        samples = {"tikh": [], "minnorm": []}

        def row(scheme, op, draw, shift, err, lhs, rhs):
            lines.append(",".join(_fmt(v) for v in (scheme, op, draw, shift, err, lhs, rhs)))

        def timed(key, solve):
            t0 = process_time()
            rec = solve()
            err = ip.l2_error(x, rec.function, rule)
            samples[key].append(1e3 * (process_time() - t0))
            return rec, err

        cells = []
        for scheme in self.SCHEMES:
            solver = ip.TikhonovSolver(problem.kernel, scheme=scheme, n=self.n,
                                       alpha="eps").fit(problem.y)
            system = solver.system_
            eps = system.epsilon_n
            y_n = ip.project_data(system, problem.y)
            # factor-two bound (Th-1): ||x - x_n|| <= 2 ||x - x_eps||
            ref_eps = ip.l2_error(x, ip.tikhonov_continuous_reference(problem, rule, eps), rule)
            clean, err = timed("minnorm", lambda: ip.min_norm_solution(system, y_n))
            row(scheme, "minnorm", "", "", err, err, 2.0 * ref_eps)
            alphas = eps * np.logspace(-2.0, 2.0, self.shifts)
            ref_errs = [ip.l2_error(x, ip.tikhonov_continuous_reference(problem, rule, a), rule)
                        for a in alphas]
            cells.append(SimpleNamespace(scheme=scheme, solver=solver, system=system, eps=eps,
                                         y_n=y_n, ref_eps=ref_eps, clean=clean,
                                         alphas=alphas, ref_errs=ref_errs))

        # the schemes take turns, so each scheme's solves (and the latency
        # percentiles they set) are spread over the whole repetition
        for k in range(self.draws):
            for c in cells:
                c.y_t = ip.add_noise(c.y_n, c.system.space,
                                     ip.NoiseSpec(delta_n=self.DELTA, seed=self.seed + k))
                c.delta = c.system.space.norm(c.y_t - c.y_n)
                noisy, err = timed("minnorm", lambda: ip.min_norm_solution(
                    c.system, c.y_t, residual_allowance=c.delta * (1.0 + 1e-9)))
                # Th-3-stability: ||x_n - x~_n|| <= delta / sigma_min
                stab = ip.l2_error(c.clean.function, noisy.function, rule)
                row(c.scheme, "minnorm-noisy", k, "", err, stab, c.delta / c.system.sigma_min)
            for j in range(self.shifts):
                for c in cells:
                    alpha = float(c.alphas[j])
                    _, err = timed("tikh", lambda: ip.tikhonov_discrete(c.system, c.y_t, alpha))
                    # Th-5-noise: (1 + eps/alpha) ||x - x_alpha|| + delta / sqrt(alpha)
                    rhs = (1.0 + c.eps / alpha) * c.ref_errs[j] + c.delta / math.sqrt(alpha)
                    row(c.scheme, "tikhonov", k, j, err, err, rhs)
        for c in cells:
            # the fitted shifted solve at alpha = eps obeys the same factor two
            pred = c.solver.predict(rule.nodes)
            err = rule.norm(pred - np.asarray(x(rule.nodes), dtype=float))
            row(c.scheme, "predict", "", "", err, err, 2.0 * c.ref_eps)
        return "\n".join(lines) + "\n", samples

    def check(self, state, text: str, refs: Refs) -> Check:
        rows = _parse_csv(text)
        expected = len(self.SCHEMES) * (2 + self.draws * (1 + self.shifts))
        ref = _parse_csv(refs.values) if refs.values is not None else None
        tol = state.ip.analysis.default_tolerance
        failed = abs(len(rows) - expected)
        drift = 0.0
        for i, row in enumerate(rows[:expected]):
            err, lhs, rhs = (_num(row[c]) for c in ("err", "lhs", "rhs"))
            ok = all(math.isfinite(v) for v in (err, lhs, rhs)) and lhs <= rhs + tol(rhs)
            if ref is not None:
                want = ref[i] if i < len(ref) else None
                key = ("scheme", "op", "draw", "shift")
                if want is None or any(want[c] != row[c] for c in key):
                    ok = False
                else:
                    # the package's measurement tolerance, as for verify-grid
                    for col in ("err", "lhs"):
                        got, w = _num(row[col]), _num(want[col])
                        drift = max(drift, _rel(got, w))
                        ok &= abs(got - w) <= tol(abs(_num(want["rhs"])))
            failed += not ok
        return Check(expected, failed, drift)


WORKLOADS = {cls.name: cls for cls in (VerifyGrid, StudyN256, SolveSweep)}
