"""Configuration-driven experiment runner.

Three subcommands operate on a JSON config (flags override config fields):

``solve``
    One discrete solve per requested size, for one problem and one scheme;
    writes ``summary.csv`` and ``solution_<n>.csv`` with the reconstruction
    and ``x_dagger`` on the system's reference rule.
``study``
    Convergence study of one problem over the size ladder; writes
    ``convergence.csv`` (one file per scheme when scheme is ``all``).
``verify``
    Runs every bound verification on the configured grid and writes
    ``bounds.csv``; exits 0 iff every non-skipped report passed.

Every command walks the same cells, problem by problem, scheme by scheme and
size by size, each built once by ``discretize.build_system`` at the
configured ``ref_points``, and each (problem, scheme) size ladder's ``eps_n``
by one ``discretize.estimate_epsilon`` call (:func:`_cells`).
``solve`` and ``study`` measure a cell with ``analysis.measure_cell``,
``verify`` with the bound verifiers, each on the system's own reference rule.

Exit codes: 0 success, 3 numerical failure, 2 configuration/usage error,
including an empty or repeated problem or scheme list, or one the command
cannot run in full (``solve`` runs one of each, ``study`` one problem).
Outputs are written only after every cell has succeeded, so a failed run
writes none.  Each is written atomically (temp file, then rename) and is
byte-for-byte reproducible for a fixed config, seed, machine and BLAS thread
count; the pass/fail verdicts are identical across BLAS thread counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    measure_cell,
    reports_to_csv,
    rows_to_csv,
    verify_special,
    verify_th1,
    verify_th3,
    verify_th5,
)
from .discretize import SchemeKind, build_system, estimate_epsilon, load_matrix
from .linalg import NumericalError
from .problems import REFERENCE_POINTS, get_problem, problem_catalog
from .regularize import NoiseSpec

__all__ = ["RunConfig", "main", "cmd_solve", "cmd_verify", "cmd_study"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Default verification grids; --delta narrows the noise levels.
VERIFY_TH3_DELTAS = (1e-6, 1e-4)
VERIFY_TH5_ALPHAS = (1e-2, 1e-4)
VERIFY_TH5_DELTAS = (1e-2, 1e-4)

# The largest reference rule a run may ask for: one m x m float64 array at
# this size is 2 GiB, and eps_n forms one for a kernel without a product,
# verify's defect norms one for any kernel.
MAX_REF_POINTS = 2 ** 14


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
    ref_points: int = REFERENCE_POINTS
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
        if self.ref_points > MAX_REF_POINTS:
            raise ConfigError(f"ref_points={self.ref_points} must be at most {MAX_REF_POINTS}")
        if SchemeKind.INTERPOLATORY in self.schemes and min(self.n_list) < 2:
            raise ConfigError("the interpolatory scheme needs n >= 2")
        if self.delta is not None and not 0.0 <= self.delta < math.inf:
            raise ConfigError(f"delta must be finite and >= 0, got {self.delta!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.alpha_rule, float) and not 0.0 < self.alpha_rule < math.inf:
            raise ConfigError(f"fixed alpha must be positive and finite, got {self.alpha_rule!r}")


def _as_int(value, label: str) -> int:
    """An integer given as a number or as digits; a float or a bool is
    rejected rather than truncated."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{label} must be an integer, got {value!r}")


def _as_float(value, label: str) -> float:
    """A real number given as a number or as text; a bool is rejected rather
    than read as 0 or 1."""
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{label} must be a number, got {value!r}")


def _parse_n(value, label: str) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [_as_int(v, label) for v in value]
    if isinstance(value, str):
        return [_as_int(part, label) for part in value.split(",") if part.strip()]
    return [_as_int(value, label)]


def _parse_alpha(value, label: str):
    if value is None or (isinstance(value, str) and value.strip().lower() == "eps"):
        return "eps"
    return _as_float(value, label)


def _parse_ids(value, catalog, parse, label: str) -> list:
    """One id, a list of ids, or ``all`` for every entry of ``catalog``; an
    empty list, and an id named twice, also through an alias, are rejected."""
    if isinstance(value, str) and value.strip().lower() == "all":
        return list(catalog)
    ids = [parse(v) for v in (value if isinstance(value, (list, tuple)) else [value])]
    if not ids:
        raise ConfigError(f"{label} names no id; name one, or 'all'")
    if len(set(ids)) < len(ids):
        raise ConfigError(f"{label} names one id more than once: {value!r}")
    return ids


def _problem_id(value) -> str:
    """A catalog problem id, checked before any cell is built."""
    if value not in problem_catalog():
        raise ValueError(f"unknown problem {value!r}; known ids: "
                         f"{', '.join(problem_catalog())}")
    return value


def _path(value, label: str) -> Path:
    """A path, which a config gives as a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{label} must be a path string, got {value!r}")
    return Path(value)


def _output_dir(value, label: str) -> Path:
    """The output directory, checked before any cell is built: its nearest
    existing ancestor, or the path itself, must be a directory."""
    path = _path(value, label)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{label} {str(path)!r} cannot be an output directory: "
                          f"{str(existing)!r} is not a directory")
    return path


_CONFIG_KEYS = frozenset({
    "problem", "scheme", "n", "alpha", "delta", "seed", "out",
    "ref_points", "matrix_dump",
})


def build_config(config_data: dict, args: argparse.Namespace, defaults: dict) -> RunConfig:
    """Merge config file and flags (flags win)."""
    unknown = set(config_data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}; "
            f"valid keys: {', '.join(sorted(_CONFIG_KEYS))}"
        )
    merged = dict(defaults)
    merged.update({k: v for k, v in config_data.items() if v is not None})
    # where each value came from, for the error messages
    label = {key: key for key in _CONFIG_KEYS}
    for key in _CONFIG_KEYS - {"matrix_dump"}:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
            label[key] = f"--{key}"
    delta, dump = merged.get("delta"), merged.get("matrix_dump", "")
    try:
        return RunConfig(
            problem_ids=_parse_ids(merged["problem"], problem_catalog(), _problem_id,
                                   label["problem"]),
            schemes=_parse_ids(merged["scheme"], SchemeKind, SchemeKind.parse,
                               label["scheme"]),
            n_list=_parse_n(merged.get("n", [16]), label["n"]),
            alpha_rule=_parse_alpha(merged.get("alpha"), label["alpha"]),
            delta=None if delta is None else _as_float(delta, label["delta"]),
            seed=_as_int(merged.get("seed", 0), label["seed"]),
            output_dir=_output_dir(merged.get("out", "."), label["out"]),
            ref_points=_as_int(merged.get("ref_points", REFERENCE_POINTS),
                               label["ref_points"]),
            matrix_dump=_path(dump, label["matrix_dump"]) if dump != "" else None,
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


def _cells(config: RunConfig, measure):
    """Yield ``measure(problem, system)`` of every configured cell, problem-,
    scheme- then n-wise, from the CLI's one ``build_system`` call;
    ``matrix_dump`` is read once.  Each (problem, scheme) size ladder is built
    whole, then its ``epsilon_n`` measured by one ``estimate_epsilon`` call;
    only what ``measure`` returns outlives a ladder."""
    matrix = None
    if config.matrix_dump is not None:
        try:
            matrix = load_matrix(config.matrix_dump)
        except OSError as exc:
            raise ConfigError(f"cannot read matrix_dump: {exc}") from None
    for problem_id in config.problem_ids:
        problem = get_problem(problem_id)
        for scheme in config.schemes:
            ladder = [build_system(problem.kernel, scheme, n, ref_points=config.ref_points,
                                   matrix=matrix) for n in config.n_list]
            estimate_epsilon(ladder)  # kept where each system's epsilon_n reads it
            yield from [measure(problem, system) for system in ladder]
            del ladder  # and with it the kernel memos, before the next ladder


def cmd_solve(config: RunConfig) -> int:
    _require_single("solve", problem=config.problem_ids,
                    scheme=[s.value for s in config.schemes])

    def measure(problem, system):
        row, rec = measure_cell(problem, system, config.alpha_rule, _noise(config))
        nodes = system.reference_rule.nodes
        return row, (system.n, nodes, rec.function(nodes), problem.x_dagger(nodes))

    cells = list(_cells(config, measure))
    # every cell succeeded: only now write, so a failed run leaves no files
    for _, (n, nodes, x_rec, x_true) in cells:
        lines = ["s,x_reconstructed,x_true"]
        for s, xr, xt in zip(nodes, x_rec, x_true):
            lines.append(f"{s:.17g},{xr:.17g},{xt:.17g}")
        _atomic_write(config.output_dir / f"solution_{n}.csv", "\n".join(lines) + "\n")
    _atomic_write(config.output_dir / "summary.csv", rows_to_csv([row for row, _ in cells]))
    return EXIT_OK


def cmd_study(config: RunConfig) -> int:
    _require_single("study", problem=config.problem_ids)
    rows = list(_cells(config, lambda problem, system: (
        system.scheme, measure_cell(problem, system, config.alpha_rule, _noise(config))[0])))
    for scheme in config.schemes:
        name = f"convergence_{scheme.value}.csv" if len(config.schemes) > 1 else "convergence.csv"
        _atomic_write(config.output_dir / name,
                      rows_to_csv([row for kind, row in rows if kind is scheme]))
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    th3_deltas = VERIFY_TH3_DELTAS if config.delta is None else (config.delta,)
    th5_deltas = VERIFY_TH5_DELTAS if config.delta is None else (config.delta,)
    th5_alphas = VERIFY_TH5_ALPHAS if config.alpha_rule == "eps" else (config.alpha_rule,)
    reports = [report for cell in _cells(config, lambda problem, system: (
        verify_th1(problem, system)
        + verify_th3(problem, system, th3_deltas, config.seed)
        + verify_th5(problem, system, th5_alphas, th5_deltas, config.seed)
        + verify_special(problem, system))) for report in cell]
    _atomic_write(config.output_dir / "bounds.csv", reports_to_csv(reports))
    failed = [r for r in reports if not r.skipped and not r.passed]
    return EXIT_OK if not failed else EXIT_NUMERICAL


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    # built on the first call, not at import (which set-up time counts), and
    # shared by every later one
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
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read config file {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
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
