"""Benchmark of the ``illposed`` package: one workload per process.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-grid --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``verify-grid``, ``study-n256`` and
``solve-sweep``.  The run imports ``illposed`` from ``src/`` of the checkout
it sits in and reads the package only through its public API and
``illposed.cli.main``.

* Times are CPU seconds of the process and its waited-for children.  On
  an unshared core they equal wall time; on a shared host they leave out the
  time the host gives to other guests, which made wall time spread by about
  10 % between runs.  Wall time is printed too (``wall_s``) but not gated.
* Set-up (import, problems, reference rules) is repeated ``SETUP_REPEATS``
  times after purging ``illposed`` from ``sys.modules``; ``setup_s`` is the
  median.
* Repetitions of the workload run until the next one would end after
  ``--seconds`` of wall time, and at least one runs.  ``cpu_s`` is the
  median repetition, from the first call to the checked result.
* Every repetition's output is checked (``workloads.py``); failed ops count
  against attempted ops, and a repetition whose output differs from the
  first one's fails all of its ops.
* ``--trace 1`` alternates untraced and traced repetitions (spans from
  ``tracing.py``), requires byte-identical outputs, and reports the
  per-layer metrics instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is the
JSON result.  Exit code 0 means every op passed its check.  Other options:
``--smoke`` runs tiny sizes, ``--record`` writes the first repetition's
output as the reference for this seed, ``--ref-dir`` reads and writes
references elsewhere than ``perfbench/ref``.
"""

import os

# Pin BLAS to one thread before numpy loads; a stray override of the
# reference-grid size would change the workloads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ILLPOSED_REF_POINTS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 7

# name -> unit; the end-to-end metrics printed with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "tikh_solve_p50_ms": "ms",
    "tikh_solve_p90_ms": "ms",
    "minnorm_solve_p50_ms": "ms",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--record", action="store_true",
                        help="write the output as this seed's reference")
    parser.add_argument("--ref-dir", type=Path, default=HERE / "ref")
    return parser.parse_args(argv)


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _purge_illposed():
    for name in [m for m in sys.modules if m == "illposed" or m.startswith("illposed.")]:
        del sys.modules[name]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    if libs:
        try:
            fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            threads = fn()
        except (OSError, AttributeError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None
        else os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
    }


def _refs(args, ref_name: str):
    from workloads import Refs

    files = {}
    for path in args.ref_dir.glob(f"{ref_name}.seed*.csv"):
        seed = path.name[len(ref_name) + 5:-4]
        if seed.lstrip("-").isdigit():
            files[int(seed)] = path
    values = files.get(args.seed)
    verdicts = values if values is not None else (files[min(files)] if files else None)
    read = (lambda p: p.read_text(encoding="ascii") if p is not None else None)
    return Refs(values=read(values), verdicts=read(verdicts))


class Measurement:
    """Repetitions of one workload within a time budget."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.drift = 0.0
        self.samples: dict[str, list[float]] = {"tikh": [], "minnorm": []}
        self.first_output: str | None = None


def _rep(workload, state, refs, workdir, m: Measurement, timer=None) -> float | None:
    """One checked repetition; its wall time, or None if the program failed."""
    if timer is not None:
        timer.reset()
    t0, c0 = perf_counter(), _cpu()
    try:
        text, samples = workload.run(state, workdir)
        check = workload.check(state, text, refs)
    except Exception:  # the program under test failed: all ops fail
        traceback.print_exc()
        ops = max(workload.check(state, "", refs).attempted, 1)
        m.attempted += ops
        m.failed += ops
        return None
    wall, cpu = perf_counter() - t0, _cpu() - c0
    if m.first_output is None:
        m.first_output = text
    elif text != m.first_output:
        print("error: output differs from the first repetition's", file=sys.stderr)
        check.failed = check.attempted
    m.walls.append(wall)
    m.cpus.append(cpu)
    m.attempted += check.attempted
    m.failed += check.failed
    m.drift = max(m.drift, check.max_rel_drift)
    for key, values in samples.items():
        m.samples[key].extend(values)
    if timer is not None:
        for key, name in workload.timed_calls.items():
            m.samples[key].extend(1e3 * d for d in timer.durations(name))
    return wall


def _latency(values, q) -> tuple[float, str]:
    """The q-th percentile, or the mean when fewer than ten samples lie beyond it."""
    import numpy as np

    if not values:
        return 0.0, "no samples"
    if len(values) * (100 - q) / 100 >= 10:
        return float(np.percentile(values, q)), f"p{q} of {len(values)} samples"
    return float(np.mean(values)), f"mean of {len(values)} samples"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "illposed" / "__init__.py").is_file():
        print(f"error: no illposed package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    ref_name = args.workload + ("-smoke" if args.smoke else "")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        _purge_illposed()
        c0 = _cpu()
        state = workload.setup()
        setup_times.append(_cpu() - c0)
    package = sys.modules["illposed"]
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        print(f"error: illposed imported from {package.__file__}", file=sys.stderr)
        return 2

    refs = _refs(args, ref_name)

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    base, traced = Measurement(), Measurement()
    tracer = Tracer()
    begin = perf_counter()
    try:
        if not args.trace:
            tracer.install(only=set(workload.timed_calls.values()))
            try:
                while (wall := _rep(workload, state, refs, workdir, base, tracer)) \
                        and perf_counter() - begin + wall <= args.seconds:
                    pass
            finally:
                tracer.uninstall()
        else:
            # untraced and traced repetitions alternate, so drift in machine
            # speed does not masquerade as tracing overhead
            traced_state = None
            while wall := _rep(workload, state, refs, workdir, base):
                tracer.install()
                try:
                    if traced_state is None:
                        traced_state = workload.setup()  # traced, for problems.*
                        tracer.setup_spans = len(tracer.names)
                    traced_wall = _rep(workload, traced_state, refs, workdir, traced)
                finally:
                    tracer.uninstall()
                if not traced_wall or perf_counter() - begin + wall + traced_wall \
                        > args.seconds:
                    break
            if traced.first_output not in (None, base.first_output):
                print("error: traced output differs from the untraced output",
                      file=sys.stderr)
                traced.failed = traced.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    if args.record and base.first_output is not None:
        args.ref_dir.mkdir(parents=True, exist_ok=True)
        path = args.ref_dir / f"{ref_name}.seed{args.seed}.csv"
        path.write_text(base.first_output, encoding="ascii")
        print(f"recorded {path}")

    runs = [base, traced]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    drift = max(r.drift for r in runs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cpu = statistics.median(base.cpus) if base.cpus else 0.0
    tikh, minnorm = base.samples["tikh"], base.samples["minnorm"]

    if not args.trace:
        latency = {"tikh_solve_p50_ms": _latency(tikh, 50),
                   "tikh_solve_p90_ms": _latency(tikh, 90),
                   "minnorm_solve_p50_ms": _latency(minnorm, 50)}
        values = {
            "setup_s": statistics.median(setup_times),
            "cpu_s": cpu,
            "peak_rss_mb": rss_mb,
            **{name: value for name, (value, _) in latency.items()},
        }
        units = END_TO_END
        notes = {"cpu_s": f"median of {len(base.cpus)} repetitions",
                 "setup_s": f"median of {len(setup_times)} set-ups",
                 **{name: note for name, (_, note) in latency.items()}}
    else:
        reps = max(len(traced.walls), 1)
        values = tracer.layer_metrics(reps)
        values["trace.overhead_s"] = (statistics.median(traced.cpus) - cpu
                                      if traced.cpus else 0.0)
        values["check.max_rel_drift"] = drift
        units = LAYER_METRICS
        notes = {"trace.overhead_s": f"traced {len(traced.walls)} vs untraced "
                                     f"{len(base.walls)} repetitions"}
        absent = tracer.absent()
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))

    print(f"workload {args.workload}{' (smoke)' if args.smoke else ''} seed {args.seed} "
          f"trace {args.trace}")
    print("env " + json.dumps(_environment(), sort_keys=True))
    error_rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':<28} {error_rate:<14.6g} {'ratio':<6} "
          f"{failed} failed of {attempted} ops, max rel drift {drift:.3g}")
    if base.walls:
        print(f"  {'wall_s':<28} {statistics.median(base.walls):<14.6g} {'s':<6} "
              f"median of {len(base.walls)} repetitions, not gated")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:<14.6g} {unit:<6} {notes.get(name, '')}")

    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
