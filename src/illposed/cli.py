"""Configuration-driven experiment runner.

Three subcommands operate on a JSON config (flags override config fields):

``solve``
    One discrete solve per requested size, for one problem and one scheme;
    writes ``solution_<n>.csv`` with the reconstruction on the reference grid
    and ``summary.csv`` with the measured quantities.
``study``
    Convergence study of one problem over the size ladder; writes
    ``convergence.csv`` (one file per scheme when scheme is ``all``).
``verify``
    Runs every bound verification on the configured grid and writes
    ``bounds.csv``; exits 0 iff every non-skipped report passed.

Every command builds each (problem, scheme, n) cell with
``analysis.build_cell``; ``solve`` and ``study`` measure it with
``analysis.measure_cell``, ``verify`` with the bound verifiers.

Exit codes: 0 success, 2 configuration/usage error (including a request for
more problems or schemes than the command runs), 3 numerical failure.
Outputs are written atomically (temp file, then rename) and are byte-for-byte
reproducible for a fixed config, seed, machine and BLAS thread count; the
pass/fail verdicts are identical across BLAS thread counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    build_cell,
    convergence_study,
    measure_cell,
    reports_to_csv,
    rows_to_csv,
    verify_special,
    verify_th1,
    verify_th3,
    verify_th5,
)
from .discretize import SchemeKind, load_matrix
from .linalg import NumericalError
from .problems import get_problem, problem_catalog, reference_rule
from .regularize import NoiseSpec

__all__ = ["RunConfig", "main", "cmd_solve", "cmd_verify", "cmd_study"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

REF_POINTS_ENV = "ILLPOSED_REF_POINTS"

# Default verification grids; --delta narrows the noise levels.
VERIFY_TH3_DELTAS = (1e-6, 1e-4)
VERIFY_TH5_ALPHAS = (1e-2, 1e-4)
VERIFY_TH5_DELTAS = (1e-2, 1e-4)


class ConfigError(ValueError):
    """Invalid configuration or usage."""


@dataclass
class RunConfig:
    """Validated run configuration."""

    problem_ids: list[str]
    schemes: list[SchemeKind]
    n_list: list[int]
    alpha_rule: str | float = "eps"
    delta: float | None = None
    seed: int = 0
    output_dir: Path = Path(".")
    ref_points: int = 256
    inner_factor: int = 4
    matrix_dump: Path | None = None

    def __post_init__(self):
        if not self.n_list or any(n <= 0 for n in self.n_list):
            raise ConfigError("n list must hold positive integers")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n list must be strictly increasing")
        if self.ref_points < 4 * max(self.n_list):
            raise ConfigError(
                f"ref_points={self.ref_points} must be at least 4*max(n)="
                f"{4 * max(self.n_list)}"
            )
        if SchemeKind.INTERPOLATORY in self.schemes and min(self.n_list) < 2:
            raise ConfigError("the interpolatory scheme needs n >= 2")
        if self.delta is not None and not 0.0 <= self.delta < math.inf:
            raise ConfigError(f"delta must be finite and >= 0, got {self.delta!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.inner_factor < 4:
            raise ConfigError("inner_factor must be >= 4")
        if isinstance(self.alpha_rule, float) and not 0.0 < self.alpha_rule < math.inf:
            raise ConfigError(f"fixed alpha must be positive and finite, got {self.alpha_rule!r}")


def _parse_n(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(part) for part in str(value).split(",") if part.strip()]


def _parse_alpha(value):
    if value is None or (isinstance(value, str) and value.strip().lower() == "eps"):
        return "eps"
    return float(value)


def _parse_ids(value, catalog, parse) -> list:
    """One id, a list of ids, or ``all`` for every entry of ``catalog``."""
    if isinstance(value, str) and value.strip().lower() == "all":
        return list(catalog)
    return [parse(v) for v in (value if isinstance(value, (list, tuple)) else [value])]


_CONFIG_KEYS = frozenset({
    "problem", "scheme", "n", "alpha", "delta", "seed", "out",
    "ref_points", "inner_factor", "matrix_dump",
})


def build_config(config_data: dict, args: argparse.Namespace, defaults: dict) -> RunConfig:
    """Merge config file, environment and flags (flags win)."""
    unknown = set(config_data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}; "
            f"valid keys: {', '.join(sorted(_CONFIG_KEYS))}"
        )
    merged = dict(defaults)
    merged.update({k: v for k, v in config_data.items() if v is not None})
    env_ref = os.environ.get(REF_POINTS_ENV)
    if env_ref is not None:
        try:
            merged["ref_points"] = int(env_ref)
        except ValueError:
            raise ConfigError(f"{REF_POINTS_ENV}={env_ref!r} is not an integer") from None
    for key in _CONFIG_KEYS - {"matrix_dump"}:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    try:
        return RunConfig(
            problem_ids=_parse_ids(merged["problem"], problem_catalog(), str),
            schemes=_parse_ids(merged["scheme"], SchemeKind, SchemeKind.parse),
            n_list=_parse_n(merged.get("n", [16])),
            alpha_rule=_parse_alpha(merged.get("alpha")),
            delta=None if merged.get("delta") is None else float(merged["delta"]),
            seed=int(merged.get("seed", 0)),
            output_dir=Path(merged.get("out", ".")),
            ref_points=int(merged.get("ref_points", 256)),
            inner_factor=int(merged.get("inner_factor", 4)),
            matrix_dump=(Path(merged["matrix_dump"])
                         if merged.get("matrix_dump") else None),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_single(command: str, **requested) -> None:
    """Reject a request for more problems or schemes than ``command`` runs."""
    for flag, items in requested.items():
        if len(items) > 1:
            raise ConfigError(
                f"{command} runs one {flag}, but --{flag} asks for {len(items)} "
                f"({', '.join(items)}); name one"
            )


def _noise(config: RunConfig) -> NoiseSpec | None:
    return None if config.delta is None else NoiseSpec(delta_n=config.delta, seed=config.seed)


def _replayed_matrix(config: RunConfig):
    """The ``matrix_dump`` to replay in place of every assembly, or None."""
    if config.matrix_dump is None:
        return None
    try:
        return load_matrix(config.matrix_dump)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix_dump: {exc}") from None


def cmd_solve(config: RunConfig) -> int:
    _require_single("solve", problem=config.problem_ids,
                    scheme=[s.value for s in config.schemes])
    problem = get_problem(config.problem_ids[0])
    matrix = _replayed_matrix(config)
    ref_rule = reference_rule(problem.kernel.domain, config.ref_points)
    s_grid = ref_rule.nodes
    x_true = np.asarray(problem.x_dagger(s_grid), dtype=float)
    rows = []
    for n in config.n_list:
        system = build_cell(problem, config.schemes[0], n, config.ref_points,
                            config.inner_factor, matrix)
        row, reconstruction = measure_cell(problem, system, ref_rule, config.alpha_rule,
                                           _noise(config))
        rows.append(row)
        x_rec = np.asarray(reconstruction.function(s_grid), dtype=float)
        lines = ["s,x_reconstructed,x_true"]
        for s, xr, xt in zip(s_grid, x_rec, x_true):
            lines.append(f"{s:.17g},{xr:.17g},{xt:.17g}")
        _atomic_write(config.output_dir / f"solution_{n}.csv", "\n".join(lines) + "\n")
    _atomic_write(config.output_dir / "summary.csv", rows_to_csv(rows))
    return EXIT_OK


def cmd_study(config: RunConfig) -> int:
    _require_single("study", problem=config.problem_ids)
    problem = get_problem(config.problem_ids[0])
    matrix = _replayed_matrix(config)
    multi = len(config.schemes) > 1
    for scheme in config.schemes:
        rows = convergence_study(problem, scheme, config.n_list, _noise(config),
                                 ref_points=config.ref_points,
                                 inner_factor=config.inner_factor,
                                 alpha=config.alpha_rule, matrix=matrix)
        name = f"convergence_{scheme.value}.csv" if multi else "convergence.csv"
        _atomic_write(config.output_dir / name, rows_to_csv(rows))
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    th3_deltas = VERIFY_TH3_DELTAS if config.delta is None else (config.delta,)
    th5_deltas = VERIFY_TH5_DELTAS if config.delta is None else (config.delta,)
    th5_alphas = VERIFY_TH5_ALPHAS if config.alpha_rule == "eps" else (config.alpha_rule,)
    matrix = _replayed_matrix(config)
    reports = []
    for problem_id in config.problem_ids:
        problem = get_problem(problem_id)
        ref_rule = reference_rule(problem.kernel.domain, config.ref_points)
        for scheme in config.schemes:
            for n in config.n_list:
                system = build_cell(problem, scheme, n, config.ref_points,
                                    config.inner_factor, matrix)
                reports.extend(verify_th1(problem, system, ref_rule=ref_rule))
                for delta in th3_deltas:
                    reports.extend(verify_th3(
                        problem, system, NoiseSpec(delta_n=delta, seed=config.seed),
                        ref_rule=ref_rule))
                for delta in th5_deltas:
                    reports.extend(verify_th5(
                        problem, system, th5_alphas,
                        NoiseSpec(delta_n=delta, seed=config.seed), ref_rule=ref_rule))
                reports.extend(verify_special(problem, system, config.ref_points))
    _atomic_write(config.output_dir / "bounds.csv", reports_to_csv(reports))
    failed = [r for r in reports if not r.skipped and not r.passed]
    return EXIT_OK if not failed else EXIT_NUMERICAL


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="illposed",
        description="Discrete regularization experiments for first-kind integral equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("solve", "run discrete solves"),
                           ("verify", "verify the error bounds"),
                           ("study", "run a convergence study")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("config", nargs="?", help="JSON config file")
        cmd.add_argument("--problem", help="problem id or 'all'")
        cmd.add_argument("--scheme", help="scheme id or 'all'")
        cmd.add_argument("--n", help="comma-separated sizes, e.g. 8,16,32")
        cmd.add_argument("--alpha", help="positive float or 'eps'")
        cmd.add_argument("--delta", type=float, help="noise level in the data norm")
        cmd.add_argument("--seed", type=int, help="noise seed")
        cmd.add_argument("--out", help="output directory")
    return parser


_DEFAULTS = {
    "solve": {"problem": "rank1-sine", "scheme": "collocation", "n": [16]},
    "study": {"problem": "green-m1", "scheme": "collocation", "n": [8, 16, 32, 64]},
    "verify": {"problem": "all", "scheme": "all", "n": [8, 16, 32]},
}

_COMMANDS = {"solve": cmd_solve, "study": cmd_study, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    config_data = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            print(f"error: config file not found: {path}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            config_data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(f"error: invalid JSON config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(config_data, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return EXIT_CONFIG

    try:
        config = build_config(config_data, args, _DEFAULTS[args.command])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[args.command](config)
    except (KeyError, ConfigError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
