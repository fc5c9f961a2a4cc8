"""Self-test of the benchmark harness, at tiny sizes (about a minute).

Usage, from the repository root::

    python3 perfbench/selftest.py

For every workload it records smoke-size references into a scratch
directory, then checks that

* the run prints every end-to-end metric of BENCHMARK.json by name and unit
  (plus ``error_rate``), and the JSON result carries exactly those metrics;
* the recorded seed and another seed both pass;
* a corrupted reference value, and for ``verify-grid`` a flipped verdict,
  drive ``error_rate`` above 0, so the checker cannot pass vacuously;
* a traced smoke run reports every per-layer metric;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc, result


def smoke(workload, ref_dir, *extra):
    return run(["--workload", workload, "--smoke", "--seconds", "1",
                "--ref-dir", str(ref_dir), *extra])


def corrupt(path: Path, row: int, col: str, change) -> None:
    header, *lines = path.read_text().strip("\n").split("\n")
    cols = header.split(",")
    fields = lines[row].split(",")
    j = cols.index(col)
    fields[j] = change(fields[j])
    lines[row] = ",".join(fields)
    path.write_text("\n".join([header, *lines]) + "\n")


def first_row(path: Path, col: str, value: str) -> int:
    header, *lines = path.read_text().strip("\n").split("\n")
    j = header.split(",").index(col)
    return next(i for i, line in enumerate(lines) if line.split(",")[j] == value)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH, prefix="selftest-"))
    try:
        for w in spec_workloads(spec):
            refs = tmp / "ref"
            proc, result = smoke(w, refs, "--record")
            expect(proc.returncode == 0 and result is not None and result["correct"],
                   f"{w}: smoke run records and passes")
            if result is None:
                continue
            expect({k: v["unit"] for k, v in result["metrics"].items()} == end_to_end,
                   f"{w}: JSON holds exactly the end-to-end metrics with their units")
            printed = proc.stdout
            expect(all(f" {name} " in printed for name in [*end_to_end, "error_rate"]),
                   f"{w}: every end-to-end metric and error_rate printed by name")
            for seed in ("0", "1"):
                proc, result = smoke(w, refs, "--seed", seed)
                expect(result is not None and result["failed"] == 0 and proc.returncode == 0,
                       f"{w}: seed {seed} passes against the recorded references")
            ref = refs / f"{w}-smoke.seed0.csv"
            saved = ref.read_text()
            col = {"verify-grid": "lhs", "study-n256": "err_min_norm"}.get(w, "err")
            corrupt(ref, 1, col, lambda v: repr(float(v) * 1.01 + 1e-3))
            proc, result = smoke(w, refs)
            expect(result is not None and result["failed"] > 0 and proc.returncode != 0,
                   f"{w}: a corrupted reference value fails an op")
            if w == "verify-grid":
                ref.write_text(saved)
                corrupt(ref, first_row(ref, "passed", "true"), "passed", lambda v: "false")
                proc, result = smoke(w, refs, "--seed", "1")
                expect(result is not None and result["failed"] > 0,
                       f"{w}: a flipped verdict fails an op at another seed")
            ref.write_text(saved)
            proc, result = smoke(w, refs, "--trace", "1")
            expect(result is not None and result["correct"]
                   and {k: v["unit"] for k, v in result["metrics"].items()} == per_layer,
                   f"{w}: traced run passes and reports exactly the per-layer metrics")

        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run(["--workload", spec_workloads(spec)[0], "--seconds", "1"],
                           cwd=bare)
        expect(proc.returncode != 0 and result is None,
               "without the package the command fails and prints no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} failed")
    return 1 if failures else 0


def spec_workloads(spec) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


if __name__ == "__main__":
    sys.exit(main())
