"""hqm benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the root of a source checkout (the directory holding src/hqm):

    python3 perfbench/run.py --workload evolve_long|dense_ops|fourier_multi \
        --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one process each):
  evolve_long    one CLI `evolve` run at n = 256, about 4000 RK4 steps with a
                 gauge field and W != 0; an item is one RK4 step. Exercises
                 qmul, operator application, the stepping and continuity
                 loops and the bulk CSV writers.
  dense_ops      a seeded mix of dense-operator jobs, each on a freshly drawn
                 operator: realize + decompose + reconstruct H, a Dyson
                 propagator, a short-time propagator; an item is one job.
                 Runs no RK4 at all.
  fourier_multi  ten seeded basis families with sixteen targets each; an item
                 is one analyze + synthesize round trip, plus one expansion
                 CSV write and read per family. The only workload that loads
                 fourier and hilbert; targets share families.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
setup_s (spawn until `import hqm` returns, input generation excluded, median
of several spawns), items_per_s (items of the fixed item mix over the time
of one round, each piece of the round taken at the upper quartile of its
durations over the rounds) and peak_rss_mb (ru_maxrss of the workload
process during the work phase).
It also prints failed_frac and, where a workload has enough items,
item_p50_ms and item_tail_ms. With --trace 1 it reports the per-layer
metrics: span statistics per round of the item mix, counts derived from
array sizes, the `python -X importtime` breakdown, oracle errors, tracing
overhead and a grid-size sweep.

Every output is checked against an independent reference (perfbench/oracles.py)
outside the timed region; any miss makes `correct` false and the exit code 1.
The last line of stdout is the JSON result; the full record, with machine and
version metadata, goes to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("evolve_long", "dense_ops", "fourier_multi")
SETUP_SPAWNS = 6          # extra set-up-only processes; the work process adds one
IMPORTTIME_SPAWNS = 3
BLAS_THREADS = "1"        # pinned, at or below nproc
TIME_LIMIT_S = 170.0
OUT_ROOT = Path("perfbench") / "out"
SPAN_STATS = ("calls", "self_s", "total_s", "errors")
TAIL_MIN_ITEMS = 40       # report latency percentiles only from this many items


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong result)."""


# ---------------------------------------------------------------------------
# Subprocesses
# ---------------------------------------------------------------------------

def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run(cmd, env, deadline) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit reached before {cmd[1:4]}")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"timed out: {' '.join(cmd[:6])}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd[:6])}")
    return proc


def _worker(args, env, deadline, *, mode="run", traced=0, seconds=None, workload=None) -> dict:
    workload = workload or args.workload
    result = OUT_ROOT / workload / f"worker-{mode}-{traced}.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path("perfbench") / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(seconds or args.seconds),
           "--mode", mode, "--traced", str(traced), "--result", str(result)]
    if args.corrupt:
        cmd.append("--corrupt")
    cmd += ["--spawned-at", repr(time.monotonic())]
    _run(cmd, env, deadline)
    return json.loads(result.read_text())


def _importtime(env, deadline) -> dict[str, float]:
    """Cumulative import seconds of hqm, numpy and scipy from `python -X importtime`."""
    proc = _run([sys.executable, "-X", "importtime", "-c", "import hqm"], env, deadline)
    rows = []  # (depth, module, cumulative_us), printed children first
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self_us, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals = {"hqm": 0, "numpy": 0, "scipy": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in ancestors):
            totals[top] += cumulative
        ancestors.append((depth, name))
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------

def _machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.partition(":")[2].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # metadata only; a container may hide these files
    return info


def _source(root: Path) -> dict:
    files = sorted((root / "src" / "hqm").glob("*.py"))
    digest = hashlib.sha256()
    loc = {}
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc[f"{path.stem}.loc"] = data.count(b"\n")
    rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {"git_rev": rev, "src_sha256": digest.hexdigest(), "loc": loc}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _items_per_s(worker: dict) -> float:
    """Items of one round over the round's time, each piece of the round (an
    item or a CSV round trip) taken at the upper quartile of its durations.

    A shared host swings between slower and faster spells; a run's median or
    mean moves with the share of fast spells it happens to get, the slower
    quarter of each piece's durations much less.
    """
    items = worker["rounds"][0][0]
    round_s = sum(statistics.quantiles(durations, n=4, method="inclusive")[2]
                  if len(durations) > 1 else durations[0]
                  for durations in worker["timings_s"].values())
    return items / round_s


def _latency(latencies: list[float]) -> dict | None:
    """Median and the highest percentile with at least 10 items beyond it."""
    n = len(latencies)
    if n < TAIL_MIN_ITEMS:
        return None
    ordered = sorted(latencies)
    return {"item_p50_ms": statistics.median(ordered), "item_tail_ms": ordered[n - 11],
            "percentile": 100.0 * (n - 10) / n, "items": n}


def end_to_end(args, env, deadline) -> tuple[dict, dict]:
    # half the set-up spawns before the work and half after, so the median
    # spans the whole run rather than one moment of a shared machine
    setups = [_worker(args, env, deadline, mode="setup")["setup_s"]
              for _ in range(SETUP_SPAWNS // 2)]
    work = _worker(args, env, deadline)
    setups += [work["setup_s"]] + [_worker(args, env, deadline, mode="setup")["setup_s"]
                                   for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2)]
    values = {"setup_s": statistics.median(setups), "items_per_s": _items_per_s(work),
              "peak_rss_mb": work["peak_rss_mb"]}
    record = {"workers": {"run": work}, "setup_samples_s": setups,
              "latency": _latency(work["latencies_ms"])}
    return values, record


def per_layer(args, env, deadline, names) -> tuple[dict, dict]:
    imports = [_importtime(env, deadline) for _ in range(IMPORTTIME_SPAWNS)]
    third = max(1.0, args.seconds / 3)
    plain = _worker(args, env, deadline, seconds=third)
    traced = _worker(args, env, deadline, traced=1, seconds=third)
    sweep = _worker(args, env, deadline, workload="sweep", seconds=third)["sweep"]
    rounds = len(traced["rounds"])
    untraced_rate, traced_rate = _items_per_s(plain), _items_per_s(traced)
    known = {
        **{k: statistics.median(i[k] for i in imports) for k in imports[0]},
        **{f"check.{w}.max_err": 0.0 for w in WORKLOADS},
        f"check.{args.workload}.max_err": max(plain["max_err"], traced["max_err"]),
        "trace.items_per_s_untraced": untraced_rate,
        "trace.items_per_s_traced": traced_rate,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
        **sweep,
    }
    values = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in known:
            values[name] = known[name]
        elif name in COUNT_NAMES:
            values[name] = traced["counts"].get(name, 0)
        elif stat in SPAN_STATS:  # per round of the item mix; 0 if never called
            values[name] = traced["spans"].get(span, {}).get(stat, 0) / rounds
        else:
            raise BenchError(f"per-layer metric {name!r} has no source")
    record = {"workers": {"run": plain, "traced": traced}, "imports": imports,
              "traced_rounds": rounds}
    return values, record


# Counts from worker.derived_counts; a workload that lacks one reports 0.
COUNT_NAMES = {
    "dynamics.write_trajectory_csv.bytes", "dynamics.write_continuity_csv.bytes",
    "quaternion.qmul.calls_per_step", "operators.matrix.columns", "spectral.eigh_dim",
    "dynamics.dyson_propagator.tower_bytes", "dynamics.dyson_propagator.einsum_flops",
    "fourier.write_expansion_csv.bytes",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb one output before the checks; the run must fail")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hqm" / "__init__.py").is_file():
        print(f"no hqm sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    (OUT_ROOT / args.workload).mkdir(parents=True, exist_ok=True)
    env = _env(root)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            metric_specs = spec["per_layer"]
            values, record = per_layer(args, env, deadline, [m["name"] for m in metric_specs])
        else:
            metric_specs = spec["end_to_end"]
            values, record = end_to_end(args, env, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    workers = record["workers"].values()
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = failed == 0 and attempted > 0
    units = {m["name"]: m["unit"] for m in metric_specs}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, metrics=metrics, attempted=attempted, failed=failed,
                  machine=_machine(), source=_source(root), blas_threads=BLAS_THREADS,
                  versions=next(iter(workers))["versions"])
    (OUT_ROOT / args.workload / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# hqm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {failed / max(attempted, 1)!r} ratio "
          f"({failed} of {attempted} items failed)")
    for w in workers:
        for note in w["notes"]:
            print(f"# FAILED {note}")
    if not args.trace:
        work = record["workers"]["run"]
        print(f"# items: {attempted} in {len(work['rounds'])} rounds; setup_s is the median "
              f"of {len(record['setup_samples_s'])} spawns")
        lat = record["latency"]
        if lat:
            print(f"item_p50_ms = {lat['item_p50_ms']!r} ms (n={lat['items']})")
            print(f"item_tail_ms = {lat['item_tail_ms']!r} ms "
                  f"(p{lat['percentile']:.1f}, n={lat['items']})")
    else:
        print(f"# span statistics are per round of the item mix ({record['traced_rounds']} "
              "traced rounds); computed counts (from array sizes or exact call counts, "
              "not timed): "
              + ", ".join(sorted(n for n in COUNT_NAMES if n in units)))
        print("# spans have no wait time: hqm is single-threaded with no queues; "
              "CSV file I/O shows in the writers' self_s")
    machine, source = record["machine"], record["source"]
    print(f"# machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"caches={machine['caches']} blas_threads={BLAS_THREADS}")
    print(f"# versions: {record['versions']}")
    print(f"# source: git_rev={source['git_rev']} src_sha256={source['src_sha256'][:16]} "
          f"loc={source['loc']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
