#!/usr/bin/env python3
"""The zlattice benchmark.

    python3 perfbench/run.py --workload {enum,structure,scan,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; zlattice is imported from ./src and
nowhere else.  One process, one client, closed loop: each query starts when
the previous one has returned and been checked.  The inputs come from the
seed alone (gen.py) and every answer is checked against a value known from
the construction (workloads.py, cliload.py).

With --trace 0 the last stdout line reports the end-to-end metrics:

  throughput_qps   correct answers per second spent inside zlattice calls
  latency_p50_ms   per-query wall time, nearest rank; a failed query counts
  latency_p90_ms   as the whole run's length, above every success
                   (each query's time is the median of its repeats in the
                   run, see typical; throughput uses the same times)
  success_rate     correct / attempted (1 - error_rate; never 0)
  complete_frac    distinct queries whose answer is complete, over those
                   answered (1 - box_limited_frac)
  setup_s          median over fresh processes of `import zlattice` plus
                   building or parsing the workload's inputs
  peak_rss_mb      peak RSS of the workload process (cli: of its largest child)

Every time above is scaled to a reference speed of the machine (reference.py):
each pass's query times by NOMINAL_S / (median time of the reference work run
after each of its queries), set-up by NOMINAL_S / (median time of a bare
interpreter start run after each set-up process).  The line before the
result gives the unscaled figures and the factor.

With --trace 1 the run is split: the first half untraced, the second half
with spans around zlattice's public functions (spans.py); the report gives
per-query calls and self seconds per function, the derived counters and the
tracing overhead.  The spans themselves go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# Pin native thread pools before anything can import numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("enum", "structure", "scan", "cli")
SETUP_SAMPLES = 5
PROBE_SAMPLES = 5
# p90 needs ten samples beyond it; a slow machine runs past --seconds for them
MIN_SAMPLES = 100

sys.path.insert(0, str(HERE))
import cliload  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_zlattice():
    """zlattice from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zlattice

    if Path(zlattice.__file__).resolve().parent != (SRC / "zlattice").resolve():
        raise SystemExit(f"error: imported zlattice from {zlattice.__file__}, not {SRC}")
    return zlattice


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# --- set-up --------------------------------------------------------------------------


class Workload:
    """Inputs of one workload and how to run and check one query."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        if name == "cli":
            self.files, facts = gen.cli_inputs(seed)
            self.raw = gen.cli_queries(seed, facts)
        else:
            self.raw = gen.GENERATORS[name](seed)
        self.hash_rng = random.Random(f"hashseed:{seed}")
        self.child_rss_kib = 0
        self.tracer: spans.Tracer | None = None

    def setup(self) -> float:
        """Import zlattice and build or parse the inputs; returns seconds."""
        t0 = time.perf_counter()
        z = import_zlattice()
        if self.name == "cli":
            cliload.write_inputs(self.work, self.files)
            parse = {"n4model": z.model_from_json_dict, "model4": z.model_from_json_dict,
                     "inv": z.involution_from_json_dict}
            for fname in self.files:
                data = json.loads((self.work / fname).read_text(encoding="utf-8"))
                parse.get(fname[:-5], z.lattice_from_json_dict)(data)
            self.queries = None
        else:
            self.queries = workloads.prepare(z, self.name, self.raw)
        return time.perf_counter() - t0

    def __len__(self):
        return len(self.raw)

    def execute(self, i: int):
        """Run query i; returns (answer or None, seconds, exception or None)."""
        if self.name == "cli":
            return self._execute_cli(i)
        call = self.queries[i].call
        t0 = time.perf_counter()
        try:
            ans = call()
        except Exception as exc:  # every failure of a query is counted, not fatal
            return None, time.perf_counter() - t0, exc
        return ans, time.perf_counter() - t0, None

    def _execute_cli(self, i: int):
        argv = self.raw[i]["argv"]
        traced = None
        if self.tracer is not None:
            traced = self.work / f"spans-{i}.json"
        cmd = cliload.zlattice_cmd(argv, traced)
        env = cliload.child_env(SRC, self.hash_rng.randrange(1, 2**32 - 1))
        out, code, rss, wall = cliload.launch(cmd, self.work, env, self.work / "stderr.txt")
        self.child_rss_kib = max(self.child_rss_kib, rss)
        if traced is not None and traced.is_file():
            self.tracer.merge(traced)
            traced.unlink()
        if code != 0:
            err = (self.work / "stderr.txt").read_text(errors="replace").strip()
            return None, wall, RuntimeError(f"exit {code}: {err[-300:]}")
        return out, wall, None

    @property
    def reference_kind(self) -> str:
        return "interpreter" if self.name == "cli" else "python"

    def reference(self) -> float:
        """Seconds of one piece of reference work (reference.py)."""
        if self.name != "cli":
            return reference.python_work()
        return interpreter_start(self.work)

    def check(self, i: int, ans) -> tuple[bool, bool]:
        if self.name == "cli":
            return cliload.check_output(self.raw[i], ans, self.files)
        return self.queries[i].check(ans)


class Loop:
    """Closed-loop client: whole passes over the queries, each in seeded
    order, until the time is up and min_samples queries ran.  Stopping only
    between passes gives every query the same number of repeats.  After each
    query the reference work runs once; a pass's query times are scaled by
    its median reference time (reference.py)."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.order_rng = random.Random(f"order:{wl.seed}")
        self.verified: dict[int, object] = {}
        self.limited: dict[int, bool] = {}

    def answer(self, i: int, ans) -> bool:
        """Check an answer; a repeat equal to an already verified answer
        passes without the full check (cli: byte-identical stdout)."""
        name = self.wl.raw[i]["name"]
        if i in self.verified:
            if ans == self.verified[i]:
                return True
            print(f"answer changed between repeats: {name}", file=sys.stderr)
            return False
        try:
            ok, limited = self.wl.check(i, ans)
        except Exception as exc:  # a malformed answer is a wrong answer
            print(f"check error on {name}: {exc!r}", file=sys.stderr)
            return False
        if not ok:
            print(f"wrong answer: {name}", file=sys.stderr)
            return False
        self.verified[i] = ans
        self.limited[i] = limited
        return True

    def run(self, seconds: float, min_samples: int = 0) -> dict:
        wl = self.wl
        raw: list[tuple[int, float | None, int]] = []
        refs: list[list[float]] = []
        correct = failed = passes = 0
        tracer = wl.tracer
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while True:
            refs.append([])
            for i in self.order_rng.sample(range(len(wl)), len(wl)):
                root = tracer.open("bench.query") if tracer else None
                ans, dt, exc = wl.execute(i)
                if root is not None:
                    tracer.close(root)
                ok = exc is None and self.answer(i, ans)
                if exc is not None:
                    print(f"failed {wl.raw[i]['name']}: {exc!r}", file=sys.stderr)
                if ok:
                    correct += 1
                else:
                    failed += 1
                raw.append((i, dt if ok else None, passes))
                refs[passes].append(wl.reference())
            passes += 1
            if len(raw) >= min_samples and time.perf_counter() >= deadline:
                break
        wall = time.perf_counter() - t_start
        nominal = reference.NOMINAL_S[wl.reference_kind]
        scale = [nominal / statistics.median(r) for r in refs]
        latencies = [(i, None if dt is None else dt * scale[p]) for i, dt, p in raw]
        return {"attempted": correct + failed, "correct": correct, "failed": failed,
                "wall": wall, "passes": passes, "latencies": latencies,
                "raw_latencies": [(i, dt) for i, dt, _ in raw],
                "scale": statistics.median(scale),
                "reference_s": statistics.median(t for r in refs for t in r)}


def percentile_ms(latencies, q: float, miss_s: float) -> float:
    """Nearest-rank percentile; a failed query (None) counts as miss_s."""
    vals = sorted(miss_s if x is None else x for x in latencies)
    return 1000.0 * vals[max(0, math.ceil(q * len(vals)) - 1)]


def interpreter_start(work: Path) -> float:
    """Wall seconds of a bare `python -c pass`."""
    env = cliload.child_env(SRC, 0)
    return cliload.launch([sys.executable, "-c", "pass"], work, env, work / "probe.txt")[3]


def setup_samples(wl: Workload, own: float) -> tuple[list[float], list[float]]:
    """Set-up seconds from fresh processes plus this process's own, and the
    seconds of a bare interpreter start after each fresh process."""
    samples, starts = [own], []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", wl.name, "--seed", str(wl.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        starts.append(interpreter_start(wl.work))
    return samples, starts


def startup_probes(work: Path) -> dict[str, float]:
    """Fresh-process costs: bare interpreter, `import zlattice`, and numpy's
    share of it from -X importtime."""
    env = cliload.child_env(SRC, 0)
    interp, imp, numpy_s = [], [], []
    code = "import time; t = time.perf_counter(); import zlattice; print(time.perf_counter() - t)"
    for _ in range(PROBE_SAMPLES):
        interp.append(interpreter_start(work))
        out, _, _, _ = cliload.launch([sys.executable, "-c", code], work, env, work / "probe.txt")
        imp.append(float(out))
        cliload.launch([sys.executable, "-X", "importtime", "-c", "import zlattice"],
                       work, env, work / "probe.txt")
        for line in (work / "probe.txt").read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_s.append(int(parts[1]) / 1e6)
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(imp),
            "cli.import_numpy_s": statistics.median(numpy_s) if numpy_s else 0.0}


E2E_UNITS = {"throughput_qps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "success_rate": "ratio", "complete_frac": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB"}


def typical(latencies) -> dict[int, float]:
    """Each answered query's median over its repeats in the run.  Other
    tenants of a shared machine make single repeats, and so also the fastest
    one, vary widely; the median of a query's repeats spread over the whole
    run is the figure that repeats from run to run."""
    times: dict[int, list[float]] = {}
    for i, dt in latencies:
        if dt is not None:
            times.setdefault(i, []).append(dt)
    return {i: statistics.median(ts) for i, ts in times.items()}


def typical_latencies(latencies) -> list[float | None]:
    """Each attempt's latency replaced by its query's median repeat;
    failures stay None."""
    med = typical(latencies)
    return [None if dt is None else med[i] for i, dt in latencies]


def throughput(res: dict) -> float:
    busy = sum(x for x in typical_latencies(res["latencies"]) if x is not None)
    return res["correct"] / busy if busy else 0.0


def trace_overhead(plain: dict, traced: dict) -> float:
    """Relative slowdown of the traced half on the queries both halves
    answered, from their median repeats."""
    a, b = typical(plain["latencies"]), typical(traced["latencies"])
    common = a.keys() & b.keys()
    base = sum(a[i] for i in common)
    return sum(b[i] for i in common) / base - 1 if base else 0.0


def setup_seconds(samples: list[float], starts: list[float]) -> float:
    """Median set-up time, scaled like the cli workload's queries: by the
    nominal over the median bare interpreter start."""
    return statistics.median(samples) * reference.NOMINAL_S["interpreter"] / statistics.median(starts)


def end_to_end(loop: Loop, res: dict, setup: tuple[list[float], list[float]],
               wl: Workload) -> dict:
    """The end-to-end metrics; times are scaled to the reference speed."""
    miss = res["wall"] * res["scale"]
    typical = typical_latencies(res["latencies"])
    rss_kib = wl.child_rss_kib if wl.name == "cli" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    answered = len(loop.limited)
    return {
        "throughput_qps": throughput(res),
        "latency_p50_ms": percentile_ms(typical, 0.50, miss),
        "latency_p90_ms": percentile_ms(typical, 0.90, miss),
        "success_rate": res["correct"] / res["attempted"],
        "complete_frac": (1 - sum(loop.limited.values()) / answered) if answered else 0.0,
        "setup_s": setup_seconds(*setup),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zlattice benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "zlattice" / "__init__.py").is_file():
        print(f"error: zlattice sources not found under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(args.workload, args.seed, work)
        own_setup = wl.setup()
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        print(json.dumps({"env": environment(), "workload": wl.name, "seed": wl.seed,
                          "queries_per_pass": len(wl)}))
        setup = setup_samples(wl, own_setup)
        loop = Loop(wl)
        if args.trace == 0:
            res = loop.run(args.seconds, MIN_SAMPLES)
            metrics = end_to_end(loop, res, setup, wl)
            units = E2E_UNITS
            unscaled = typical_latencies(res["raw_latencies"])
            print(json.dumps({"unscaled": {
                "reference_s": res["reference_s"], "scale": res["scale"],
                "setup_s": statistics.median(setup[0]),
                "latency_p50_ms": percentile_ms(unscaled, 0.50, res["wall"]),
                "latency_p90_ms": percentile_ms(unscaled, 0.90, res["wall"])}}))
        else:
            plain = loop.run(args.seconds / 2)
            wl.tracer = spans.Tracer()
            wl.tracer.install()
            try:
                res = loop.run(args.seconds / 2)
            finally:
                wl.tracer.uninstall()
            wl.tracer.dump(OUT / f"spans-{wl.name}-{wl.seed}.json")
            metrics = spans.per_layer_metrics(wl.tracer.spans, wl.tracer.counters, res["attempted"])
            metrics.update(startup_probes(work))
            metrics["bench.trace_overhead_frac"] = trace_overhead(plain, res)
            units = {m["name"]: m["unit"] for m in spans.per_layer_spec()}
            res = {k: plain[k] + res[k] for k in ("attempted", "failed", "correct", "passes")}
        print(json.dumps({"samples": {"queries": res["attempted"], "passes": res["passes"],
                                      "setup": len(setup[0]), "distinct_answered": len(loop.limited)}}))
        print(json.dumps({
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
