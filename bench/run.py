#!/usr/bin/env python3
"""Benchmark of blockred, end to end and layer by layer.

Run from the root of a source checkout; blockred is imported from ./src:

    python3 bench/run.py --workload dominant-graded --seed 1 --seconds 30 --trace 0

Workloads:

* cli-power-network: `blockred reduce --method dominant`, `blockred reduce
  --method latent` and `blockred bode` (original against the reduced model)
  on the bundled power network, each as its own process.
* dominant-graded: `reduce_dominant` in-process on the graded family of
  bench/family.py, in state-space form.
* latent-graded: `reduce_latent` in-process on the same family, in matrix
  fraction form.

One operation is one pipeline call or one command line process.  A run sets
up its inputs, runs every operation once and checks each output apart from
blockred (bench/check.py), then repeats whole rounds of the same operations
for --seconds, comparing each output with the checked one.  A raised
BlockredError, a non-zero exit code or a failed check counts as a failed
operation.  The last line printed is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics of bench/tracing.py with --trace 1.

The run and every process it starts use one BLAS thread.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SAMPLES = 40  # the tail needs ten samples beyond it
TAIL_BEYOND = 10
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
PROCESS_TIMEOUT = 120
CLI_MAIN = "import sys; from blockred.cli import main; sys.exit(main())"
BODE_GRID = ("0.01", "100", "200")  # wmin, wmax, points


class Failure(Exception):
    """An operation that did not produce a usable result."""


def child_env():
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv):
    """Run a Python child with blockred on its path; (exit code, stderr)."""
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PROCESS_TIMEOUT,
    )
    return proc.returncode, proc.stderr.decode(errors="replace")


# -- workloads ----------------------------------------------------------------

class GradedWorkload:
    """One pipeline, in-process, on every member of the graded family."""

    def __init__(self, seed, method):
        self.seed = seed
        self.method = method

    def setup(self):
        import blockred
        import family

        self.family = family.make_family(self.seed)
        if self.method == "dominant":
            self.inputs = [blockred.StateSpace(g.A, g.B, g.C) for g in self.family]
        else:
            self.inputs = [
                blockred.RightMFD(blockred.MatrixPolynomial(list(g.num)),
                                  blockred.MatrixPolynomial(list(g.den)))
                for g in self.family
            ]

    def __len__(self):
        return len(self.inputs)

    def run(self, i):
        import blockred

        # looked up per call, so that a traced round calls the tracer's wrapper
        pipeline = getattr(blockred, "reduce_" + self.method)
        try:
            return pipeline(self.inputs[i])
        except blockred.BlockredError as exc:
            raise Failure(f"{type(exc).__name__}: {exc}") from None

    def verify(self, i, out):
        import check

        g = self.family[i]
        red, report = out
        if self.method == "dominant":
            full = check.Model(g.A, g.B, g.C)
            reduced = check.Model(red.A, red.B, red.C)
        else:
            full = check.fraction_model(g.num, g.den)
            reduced = check.fraction_model(red.N.coeffs, red.D.coeffs)
        return check.check_reduction(full, reduced, check.Claim.from_report(report), g.m)

    @staticmethod
    def removed(out):
        return out[1].original_order - out[1].reduced_order

    @staticmethod
    def same(out, ref):
        import numpy as np

        def arrays(red):
            if hasattr(red, "A"):
                return [red.A, red.B, red.C, red.D]
            return [*red.N.coeffs, *red.D.coeffs, red.feedthrough]

        a, b = arrays(out[0]), arrays(ref[0])
        return out[1] == ref[1] and len(a) == len(b) and all(
            x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


class CliWorkload:
    """The three commands a user runs on the bundled power network."""

    def __init__(self, in_process):
        self.in_process = in_process

    def setup(self):
        self.close()
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        data = SRC / "blockred" / "data"
        self.plant = self.dir / "plant.sys"
        shutil.copyfile(data / "power_network_8_fixed.sys", self.plant)
        self.reference_poles = (data / "power_network_dominant_poles.txt").read_text()
        d = str(self.dir)
        self.commands = [
            (["reduce", str(self.plant), "--method", "dominant", "--out", d + "/dominant.sys"],
             ["dominant.sys", "dominant.sys.report"]),
            (["reduce", str(self.plant), "--method", "latent", "--out", d + "/latent.sys"],
             ["latent.sys", "latent.sys.report"]),
            (["bode", str(self.plant), d + "/dominant.sys", "--wmin", BODE_GRID[0],
              "--wmax", BODE_GRID[1], "--points", BODE_GRID[2], "--out", d + "/bode.csv"],
             ["bode.csv"]),
        ]
        code, err = self.invoke(["validate", str(self.plant)])
        if code != 0:
            raise Failure(f"blockred validate exited with {code}: {err.strip()}")

    def close(self):
        if getattr(self, "dir", None):
            shutil.rmtree(self.dir, ignore_errors=True)

    def __len__(self):
        return len(self.commands)

    def invoke(self, argv):
        if not self.in_process:
            return run_process(["-c", CLI_MAIN, *argv])
        import blockred.cli

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = blockred.cli.main(argv)
        return code, err.getvalue()

    def run(self, i):
        argv, files = self.commands[i]
        for name in files:
            (self.dir / name).unlink(missing_ok=True)
        code, err = self.invoke(argv)
        if "Traceback" in err:
            raise RuntimeError(f"blockred {argv[0]} leaked an exception:\n{err}")
        if code != 0:
            raise Failure(f"blockred {argv[0]} exited with {code}: {err.strip()}")
        return {name: (self.dir / name).read_bytes() for name in files}

    def verify(self, i, out):
        import numpy as np
        import check

        full = check.document_model(self.plant.read_text())
        if i == 2:
            reduced = check.document_model((self.dir / "dominant.sys").read_text())
            omegas = np.geomspace(*map(float, BODE_GRID[:2]), int(BODE_GRID[2]))
            return check.check_bode(out["bode.csv"].decode(), [full, reduced], omegas)
        stem = ("dominant", "latent")[i]
        reduced = check.document_model(out[stem + ".sys"].decode())
        claim = check.parse_report(out[stem + ".sys.report"].decode())
        return (check.check_reduction(full, reduced, claim, full.B.shape[1])
                + check.check_keeps_poles(reduced, check.parse_pole_list(self.reference_poles)))

    @staticmethod
    def removed(out):
        import check

        claims = [check.parse_report(text.decode())
                  for name, text in out.items() if name.endswith(".report")]
        return sum(c.original_order - c.reduced_order for c in claims)

    @staticmethod
    def same(out, ref):
        return out == ref


# -- the run ------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # outputs that came back but were not right

    def attempt(self, work, i):
        """Run operation i; its output and wall time, or (None, time) on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = work.run(i)
        except Failure as exc:
            self.failed += 1
            print(f"failed: operation {i}: {exc}", file=sys.stderr)
            return None, time.perf_counter() - t0
        except Exception as exc:  # a raw exception is a fault of the program
            self.failed += 1
            self.wrong.append(f"operation {i} raised {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def reject(self, i, problems):
        self.failed += 1
        self.wrong.append(f"operation {i}: " + "; ".join(problems))


def verified_round(work, tally):
    """Run every operation once and check each output apart from blockred."""
    refs, removed = [], 0
    for i in range(len(work)):
        out, _ = tally.attempt(work, i)
        problems = None
        if out is not None:
            try:
                problems = work.verify(i, out)
            except (ValueError, KeyError, IndexError) as exc:  # malformed output
                problems = [f"output could not be read: {type(exc).__name__}: {exc}"]
        if problems:
            tally.reject(i, problems)
        ok = out is not None and not problems
        refs.append(out if ok else None)
        removed += work.removed(out) if ok else 0
    return refs, removed


def timed_rounds(work, tally, refs, seconds, min_samples, on_op=None):
    """Whole rounds until both the time and the sample count are reached."""
    times, completed = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < min_samples:
        for i in range(len(work)):
            if on_op is not None:
                on_op()
            out, dt = tally.attempt(work, i)
            times.append(dt)
            if out is None:
                continue
            if refs[i] is None or not work.same(out, refs[i]):
                tally.reject(i, ["output differs from the checked output"])
                continue
            completed += 1
    return times, completed, time.perf_counter() - start


def tail(times):
    """The highest percentile with TAIL_BEYOND samples beyond it, and its rank."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def import_seconds():
    """Median wall time of a process that only imports blockred.cli."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        code, err = run_process(["-c", "import blockred.cli"])
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise Failure(f"import blockred.cli failed: {err.strip()}")
    return statistics.median(samples)


def make_workload(name, seed, trace):
    if name == "cli-power-network":
        return CliWorkload(in_process=bool(trace))
    return GradedWorkload(seed, name.split("-")[0])


def measure(args):
    """Set up, verify, time; the result object of the run."""
    t0 = time.perf_counter()
    work = make_workload(args.workload, args.seed, args.trace)
    try:
        # in-process set-up pays the import once, so it is timed once and
        # added to each repetition of the input construction
        imported = 0.0
        if isinstance(work, GradedWorkload):
            import blockred  # noqa: F401

            imported = time.perf_counter() - t0
        setups = []
        for _ in range(SETUP_REPEATS):
            t1 = time.perf_counter()
            work.setup()
            setups.append(imported + time.perf_counter() - t1)

        tally = Tally()
        refs, removed = verified_round(work, tally)
        lines = [f"workload {args.workload}, seed {args.seed}, "
                 f"{len(work)} operations per round, {removed} states removed per round"]
        if not args.trace:
            times, completed, wall = timed_rounds(work, tally, refs, args.seconds, MIN_SAMPLES)
            tail_s, pct = tail(times)
            lines.append(f"{len(times)} timed operations; reduce_tail_ms is p{pct:.1f}")
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "reduce_ms": (1e3 * statistics.median(times), "ms"),
                "reduce_tail_ms": (1e3 * tail_s, "ms"),
                "systems_per_s": (completed / wall, "1/s"),
                "states_removed": (removed, "count"),
            }
        else:
            metrics, more = traced(args, work, tally, refs)
            lines += more
    finally:
        if isinstance(work, CliWorkload):
            work.close()
    for line in lines + tally.wrong:
        print(line)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, work, tally, refs):
    """Rounds alternately untraced and traced; the per-layer metrics.

    Alternating rounds lets drift in the machine's speed fall on both sides,
    so the ratio of their medians is the tracing overhead.
    """
    import tracing

    tracer = tracing.Tracer()
    base, times = [], []
    op_ids = itertools.count()

    def next_op():
        tracer.op = next(op_ids)

    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        base += timed_rounds(work, tally, refs, 0.0, 1)[0]
        tracer.install()
        try:
            times += timed_rounds(work, tally, refs, 0.0, 1, next_op)[0]
        finally:
            tracer.uninstall()
    overhead = statistics.median(times) / statistics.median(base) - 1.0
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, workload=args.workload, seed=args.seed, operations=len(times),
                 overhead=overhead)
    metrics = {"cli.import_s": (import_seconds(), "s")}
    metrics.update(tracing.summary(tracer.spans, len(times)))
    return metrics, [f"{len(times)} traced operations, tracing overhead {100 * overhead:+.1f}% "
                     f"on the median operation; spans in {path.relative_to(ROOT)}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-power-network", "dominant-graded", "latent-graded"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blockred" / "__init__.py").is_file():
        print(f"error: no blockred sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    try:
        result = measure(args)
    except Failure as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
