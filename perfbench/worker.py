"""One workload process: seeded inputs, `import hqm`, timed work, oracle checks.

Started by run.py, one process per measurement:

    python3 perfbench/worker.py --workload W|sweep --seed S --seconds T \
        --mode run|setup --traced 0|1 --spawned-at MONOTONIC --result PATH

The process generates its inputs with numpy before it imports hqm, so
set-up time (spawn until `import hqm` returns, input generation excluded)
is measured in the same process that then does the work. `--mode setup`
skips the inputs and stops once the import returns. The work phase is a
closed loop with one client: each call waits for the previous one. It
repeats the workload's fixed round of items until `--seconds` of work have
been timed, and always finishes a round. Every timed piece of a round (an item, or a CSV round trip) is recorded
under a key naming its place in the round, so run.py can take each place's
duration across rounds.

Outputs go to a log on disk as they are produced, outside the timed
region, and are checked against the references in oracles.py only after
peak RSS has been read, so neither the checks nor the number of rounds
moves `peak_rss_mb`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracles

OUT_ROOT = Path("perfbench") / "out"


class OutputLog:
    """Append-only log of per-item output arrays in one .npy stream."""

    def __init__(self, path: Path):
        self.path = path
        self._fh = open(path, "wb")

    def put(self, *arrays) -> None:
        np.save(self._fh, np.array(len(arrays)))
        for arr in arrays:
            np.save(self._fh, np.asarray(arr), allow_pickle=False)

    def close(self) -> None:
        self._fh.close()

    def read(self):
        size = self.path.stat().st_size
        with open(self.path, "rb") as fh:
            while fh.tell() < size:
                count = int(np.load(fh))
                yield [np.load(fh, allow_pickle=False) for _ in range(count)]


def timed_rounds(seconds: float, run_round) -> list[tuple[int, float]]:
    """Call run_round(r) -> (items, timed_seconds) until `seconds` are timed."""
    rounds: list[tuple[int, float]] = []
    spent = 0.0
    while not rounds or spent < seconds:
        items, took = run_round(len(rounds))
        rounds.append((items, took))
        spent += took
    return rounds


# ---------------------------------------------------------------------------
# evolve_long: one CLI evolve run per round; an item is one RK4 step
# ---------------------------------------------------------------------------

def work_evolve(hqm, inp, seconds, log, tracer, latencies, timings):
    def run_round(r):
        out = inp["out"] / f"round{r:02d}"
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = hqm.cli.main(["evolve", "--config", str(inp["config"]),
                                     "--out", str(out)])
        except Exception as exc:  # a raising round fails all of its items
            code = f"raised {type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        timings.setdefault("cli_run", []).append(took)
        log.put(np.array(str(code)), np.array(str(out)), np.array(stdout.getvalue()))
        return inp["steps"], took

    return timed_rounds(seconds, run_round)


def _csv_rows(path: Path) -> np.ndarray:
    """Numeric rows of a CLI CSV artifact: '#' lines and the header row dropped."""
    lines = [line for line in path.read_text().splitlines() if line and line[0] != "#"]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def check_evolve(inp, log, corrupt):
    attempted = failed = 0
    max_err = 0.0
    notes = []
    for code, out, stdout in log.read():
        attempted += inp["steps"]
        ok, err = str(code) == "0", math.inf
        if ok:
            try:
                values = [float(line.partition("=")[2]) for line in str(stdout).splitlines()
                          if "=" in line]
                rows = _csv_rows(Path(str(out)) / "trajectory.csv")
                cont = _csv_rows(Path(str(out)) / "continuity.csv")
            except (OSError, ValueError) as exc:  # missing or malformed artifacts
                ok, code = False, f"0 but unreadable output: {exc}"
        if ok:
            if corrupt:
                rows[-1, 1] += 1e-6
            err, ok = oracles.check_trajectory(inp, rows)
            ok = ok and all(map(math.isfinite, values)) and bool(np.all(np.isfinite(cont)))
        if not ok:
            failed += inp["steps"]
            notes.append(f"{out}: exit {code}, max error {err:.3e}")
        max_err = max(max_err, err)
    return attempted, failed, max_err, notes


# ---------------------------------------------------------------------------
# dense_ops: an item is one job on a freshly generated operator
# ---------------------------------------------------------------------------

def work_dense(hqm, inp, seconds, log, tracer, latencies, timings):
    jobs, per_round = inp["jobs"], inp["round"]

    def run_round(r):
        took = 0.0
        for j in range(r * per_round, (r + 1) * per_round):
            kind, d = jobs[j % len(jobs)]
            tracer.item = j
            start = time.perf_counter()
            try:
                spec = hqm.HamiltonianSpec(grid=hqm.Grid(d["n"]), alpha=d["alpha"],
                                           V=d["V"], W=d["W"])
                if kind == "resolve":
                    op = hqm.hamiltonian(spec)
                    op.matrix
                    res = hqm.decompose(op)
                    recon = res.reconstruction_matrix()
                elif kind == "dyson":
                    prop = hqm.dyson_propagator(spec, 0.0, d["t1"], inputs.DYSON_TERMS,
                                                inputs.DYSON_QUAD)
                else:
                    prop = hqm.short_time_propagator(spec, 0.0, d["t1"],
                                                     inputs.SHORT_TIME_STEPS)
            except Exception as exc:
                took += time.perf_counter() - start
                log.put(np.array(j), np.array(f"raised {type(exc).__name__}: {exc}"))
                continue
            elapsed = time.perf_counter() - start
            took += elapsed
            latencies.append(1e3 * elapsed)
            timings.setdefault(f"{kind}{d['n']}", []).append(elapsed)
            if kind == "resolve":
                log.put(np.array(j), res.eigenvalues, res.multiplicities, recon @ d["probe"])
            else:
                log.put(np.array(j), (prop.matrix @ d["psi0"].ravel()).reshape(-1, 4))
        return per_round, took

    return timed_rounds(seconds, run_round)


def check_dense(inp, log, corrupt):
    jobs = inp["jobs"]
    attempted = failed = 0
    max_err = 0.0
    notes = []
    for entry in log.read():
        j = int(entry[0])
        kind, d = jobs[j % len(jobs)]
        attempted += 1
        if len(entry) == 2 and entry[1].dtype.kind == "U":
            err, ok = math.inf, False
        elif kind == "resolve":
            eigenvalues, mults, recon_probe = entry[1:]
            if corrupt and attempted == 1:
                eigenvalues = eigenvalues.copy()
                eigenvalues[-1] *= 1.0 + 1e-6
            err, ok = oracles.check_resolve(d, eigenvalues, mults, recon_probe)
        else:
            psi_t = entry[1]
            if corrupt and attempted == 1:
                psi_t = psi_t.copy()
                psi_t[0, 2] += 1e-5
            err, ok = oracles.check_propagated(d, psi_t, kind)
        if not ok:
            failed += 1
            notes.append(f"job {j} ({kind}, n={d['n']}): max error {err:.3e}")
        max_err = max(max_err, err)
    return attempted, failed, max_err, notes


# ---------------------------------------------------------------------------
# fourier_multi: an item is one analyze + synthesize round trip
# ---------------------------------------------------------------------------

def _families(hqm, inp):
    out = []
    for fam in inp["families"]:
        p = fam["params"]
        out.append(hqm.BasisFamily(hqm.FamilyKind(fam["kind"]), hqm.Grid(fam["n"]), N=fam["N"],
                                   phi0=p["phi0"], xi0=p["xi0"], theta0=p["theta0"],
                                   indices=fam["indices"]))
    return out


def work_fourier(hqm, inp, seconds, log, tracer, latencies, timings):
    families = _families(hqm, inp)
    per_round = sum(len(f["targets"]) for f in inp["families"])

    def run_round(r):
        took = 0.0
        item = r * per_round
        for f, (fam, spec) in enumerate(zip(families, inp["families"])):
            first = None
            for t, (values, _planted) in enumerate(spec["targets"]):
                tracer.item = item
                item += 1
                start = time.perf_counter()
                try:
                    expansion = hqm.analyze(hqm.QFunction(fam.grid, values), fam)
                    synth = hqm.synthesize(expansion)
                except Exception as exc:
                    took += time.perf_counter() - start
                    log.put(np.array([f, t]), np.array(f"raised {type(exc).__name__}: {exc}"))
                    continue
                elapsed = time.perf_counter() - start
                took += elapsed
                latencies.append(1e3 * elapsed)
                timings.setdefault(f"family{f}.target{t}", []).append(elapsed)
                log.put(np.array([f, t]), expansion.coefficients, synth.values)
                first = expansion if first is None else first
            if first is None:
                continue
            # one serialization round trip per family; sampled-function
            # parameters cannot be rebuilt from the sidecar, so those are
            # written but not read back
            start = time.perf_counter()
            hqm.write_expansion_csv(first, spec["csv"])
            back = None if spec["sampled"] else hqm.read_expansion_csv(spec["csv"])
            elapsed = time.perf_counter() - start
            took += elapsed
            timings.setdefault(f"family{f}.csv", []).append(elapsed)
            if back is not None:
                same = (back.family.kind == fam.kind and back.family.N == fam.N
                        and back.family.index_set() == fam.index_set())
                log.put(np.array([f, -1]), first.coefficients, back.coefficients,
                        np.array(same))
        return per_round, took

    return timed_rounds(seconds, run_round)


def check_fourier(inp, log, corrupt):
    attempted = failed = 0
    max_err = 0.0
    notes = []
    projections = {}  # every round repeats the same targets
    for entry in log.read():
        f, t = (int(v) for v in entry[0])
        spec = inp["families"][f]
        if t < 0:  # CSV round trip: coefficients must come back bit for bit
            written, read, same = entry[1:]
            if not (bool(same) and np.array_equal(written, read)):
                failed += 1
                notes.append(f"family {f}: expansion CSV round trip changed the expansion")
            continue
        attempted += 1
        if len(entry) == 2:
            err, ok = math.inf, False
        else:
            values, planted = spec["targets"][t]
            if planted is None:
                if (f, t) not in projections:
                    projections[f, t] = oracles.projection_coefficients(spec["basis"], values)
                planted = projections[f, t]
            coeffs, synth = entry[1:]
            if corrupt and attempted == 1:
                coeffs = coeffs.copy()
                coeffs[0] += 1e-6
            err, ok = oracles.check_coefficients(spec["basis"], planted, coeffs, synth)
        if not ok:
            failed += 1
            notes.append(f"family {f} target {t}: max error {err:.3e}")
        max_err = max(max_err, err)
    return attempted, failed, max_err, notes


WORKLOADS = {
    "evolve_long": (work_evolve, check_evolve),
    "dense_ops": (work_dense, check_dense),
    "fourier_multi": (work_fourier, check_fourier),
}


# ---------------------------------------------------------------------------
# Counts derived from array sizes and the trace (traced runs only)
# ---------------------------------------------------------------------------

def derived_counts(workload, inp, spans, rounds) -> dict[str, float]:
    """Counts that repeat exactly; sizes are those of the largest job in the mix."""
    counts = {}
    if workload == "evolve_long":
        last = Path(inp["out"]) / f"round{len(rounds) - 1:02d}"
        counts["dynamics.write_trajectory_csv.bytes"] = (last / "trajectory.csv").stat().st_size
        counts["dynamics.write_continuity_csv.bytes"] = (last / "continuity.csv").stat().st_size
        qmul = spans.get("quaternion.qmul", {}).get("calls", 0)
        counts["quaternion.qmul.calls_per_step"] = qmul / (len(rounds) * inp["steps"])
    if workload == "dense_ops":
        n_res = max(n for kind, n in inputs.DENSE_JOBS if kind == "resolve")
        n_dys = max(n for kind, n in inputs.DENSE_JOBS if kind == "dyson")
        counts["operators.matrix.columns"] = 4 * n_res
        counts["spectral.eigh_dim"] = 4 * n_res
        counts["dynamics.dyson_propagator.tower_bytes"] = inputs.DYSON_QUAD * (4 * n_dys) ** 2 * 8
        counts["dynamics.dyson_propagator.einsum_flops"] = \
            2 * inputs.DYSON_TERMS * inputs.DYSON_QUAD * (4 * n_dys) ** 3
    if workload == "fourier_multi":
        counts["fourier.write_expansion_csv.bytes"] = sum(
            Path(f["csv"]).stat().st_size + Path(str(f["csv"]) + ".meta").stat().st_size
            for f in inp["families"])
    return counts


def versions() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb one output before the checks (self-test)")
    args = parser.parse_args(argv)

    work_dir = OUT_ROOT / args.workload / f"{args.mode}{'-traced' if args.traced else ''}"
    gen_start = time.monotonic()
    inp = inputs.generate(args.workload, args.seed, work_dir) \
        if args.mode == "run" and args.workload != "sweep" else {}
    gen_s = time.monotonic() - gen_start
    import hqm
    if args.workload == "evolve_long":
        import hqm.cli  # noqa: F401  (the CLI is part of this workload's set-up)
    setup_s = time.monotonic() - args.spawned_at - gen_s
    result = {"setup_s": setup_s, "gen_s": gen_s}

    src = (Path.cwd() / "src").resolve()
    if src not in Path(hqm.__file__).resolve().parents:
        raise SystemExit(f"hqm imported from {hqm.__file__}, not from {src}")
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0
    if args.workload == "sweep":
        import sweep
        result["sweep"] = sweep.run(hqm, args.seed)
        args.result.write_text(json.dumps(result))
        return 0

    from tracer import Tracer  # imported late: set-up time counts only hqm and numpy
    tracer = Tracer()
    if args.traced:
        tracer.install(hqm)
    work, check = WORKLOADS[args.workload]
    work_dir.mkdir(parents=True, exist_ok=True)
    log = OutputLog(work_dir / "outputs.npy")
    latencies: list[float] = []
    timings: dict[str, list[float]] = {}
    try:
        rounds = work(hqm, inp, args.seconds, log, tracer, latencies, timings)
    finally:
        log.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rounds"] = rounds
    result["latencies_ms"] = latencies
    result["timings_s"] = timings
    attempted, failed, max_err, notes = check(inp, log, args.corrupt)
    result.update(attempted=attempted, failed=failed, max_err=max_err, notes=notes[:20],
                  versions=versions())
    if args.traced:
        spans = tracer.summary()
        result["spans"] = spans
        result["span_count"] = len(tracer.spans)
        result["counts"] = derived_counts(args.workload, inp, spans, rounds)
        tracer.write(work_dir / "spans.json.gz")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
