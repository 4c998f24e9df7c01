"""Batch experiment driver: fourier / evolve / spectral / check subcommands.

Every command reads a flat key-value config (--config), writes CSV artifacts
under --out, and prints machine-readable `key = value` summary lines on
stdout; human diagnostics go to stderr.  Identical config and seed produce
byte-identical outputs.

Exit codes: 0 success, 1 failed invariant (check), 2 config error,
3 numerical-contract failure (conditioning, self-adjointness), 4 integrator
instability.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    HAMILTONIAN_SCHEMA,
    Option,
    hamiltonian_from_config,
    read_config,
    sampled_function,
    validate_config,
)
from .dynamics import (
    EvolutionProblem,
    angle_addition_deviation,
    compose_unitaries,
    dyson_propagator,
    evolve,
    short_time_propagator,
    write_continuity_csv,
    write_trajectory_csv,
)
from .errors import (
    ConditioningError,
    ConfigError,
    InstabilityError,
    NotSelfAdjointError,
)
from .expressions import ExpressionError, evaluate
from .fourier import (
    BasisFamily,
    FamilyKind,
    QFourierExpansion,
    analyze,
    gram,
    synthesize,
    write_expansion_csv,
)
from .hilbert import (
    _FLOAT, TWO_PI, Grid, QFunction, inner, norm, read_qfunction_csv, write_qfunction_csv,
)
from .operators import (
    HamiltonianSpec,
    NormalPair,
    QOperator,
    hamiltonian,
    normal_conditions,
)
from .quaternion import UnitQuaternion, re_product_identity
from .spectral import decompose, write_spectrum_csv


def _fmt(value: float) -> str:
    return _FLOAT % value


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key} = {_fmt(value)}")
    else:
        print(f"{key} = {value}")


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# Config helpers
# ---------------------------------------------------------------------------

def _family_param(cfg: dict, key: str, grid: Grid):
    """Evaluate a family parameter expression; collapse constants to scalars."""
    text = cfg.get(key)
    if text is None:
        return 0.0
    try:
        values = evaluate(text, grid.nodes)
    except ExpressionError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    if np.all(values == values[0]):
        return float(values[0])
    return values


def _parse_index(text: str, arity: int):
    parts = text.split()
    if len(parts) != arity:
        raise ConfigError(f"index {text!r}: expected {arity} integer(s)")
    try:
        ints = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"index {text!r}: {exc}") from exc
    return ints[0] if arity == 1 else tuple(ints)


def _index_arity(kind: FamilyKind) -> int:
    return {FamilyKind.PHASE_FORM: 1, FamilyKind.EXP_FORM: 1,
            FamilyKind.TWO_INDEX: 2, FamilyKind.THREE_INDEX: 3}[kind]


def _build_family(cfg: dict, grid: Grid) -> BasisFamily:
    try:
        kind = FamilyKind(cfg["family"])
    except ValueError as exc:
        raise ConfigError(f"unknown family {cfg['family']!r}") from exc
    indices = None
    if cfg.get("indices"):
        arity = _index_arity(kind)
        indices = tuple(_parse_index(p.strip(), arity)
                        for p in cfg["indices"].split(";") if p.strip())
    try:
        return BasisFamily(
            kind=kind,
            grid=grid,
            N=cfg["N"],
            L=cfg.get("L"),
            phi0=_family_param(cfg, "phi0", grid),
            xi0=_family_param(cfg, "xi0", grid),
            theta0=_family_param(cfg, "theta0", grid),
            indices=indices,
        )
    except (ValueError, IndexError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_plant(text: str, kind: FamilyKind):
    arity = _index_arity(kind)
    indices, values = [], []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        head, sep, tail = item.rpartition(":")
        if not sep:
            raise ConfigError(f"plant item {item!r}: expected 'index:value'")
        indices.append(_parse_index(head.strip(), arity))
        try:
            values.append(float(tail))
        except ValueError as exc:
            raise ConfigError(f"plant item {item!r}: {exc}") from exc
    if not indices:
        raise ConfigError("empty plant specification")
    return indices, np.asarray(values)


def _state_from_config(cfg: dict, grid: Grid, prefix: str = "psi0") -> QFunction:
    file_key = f"{prefix}_file"
    comp_keys = [f"{prefix}_x{c}" for c in range(4)]
    has_expr = any(cfg.get(k) for k in comp_keys)
    if cfg.get(file_key) and has_expr:
        raise ConfigError(f"give {prefix} either as expressions or as a file, not both")
    if cfg.get(file_key):
        f = read_qfunction_csv(cfg[file_key])
        if f.grid != grid:
            raise ConfigError(f"{cfg[file_key]}: grid size {f.grid.n_points} != {grid.n_points}")
        if not np.all(np.isfinite(f.values)):
            raise ConfigError(f"{file_key} has non-finite samples")
        return f
    if not has_expr:
        raise ConfigError(f"missing initial state: set {prefix}_x0..{prefix}_x3 or {prefix}_file")
    comps = []
    for key in comp_keys:
        if cfg.get(key):
            try:
                comps.append(evaluate(cfg[key], grid.nodes))
            except ExpressionError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            if not np.all(np.isfinite(comps[-1])):
                raise ConfigError(f"{key} has non-finite samples")
        else:
            comps.append(np.zeros(grid.n_points))
    return QFunction(grid, np.stack(comps, axis=-1))


def _write_matrix_csv(matrix: np.ndarray, path, comment: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        for row in matrix:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

FOURIER_SCHEMA: dict[str, Option] = {
    "grid_points": Option("int", required=True),
    "family": Option("str", required=True),
    "N": Option("int", required=True),
    "L": Option("int"),
    "phi0": Option("str"),
    "xi0": Option("str"),
    "theta0": Option("str"),
    "indices": Option("str"),
    "plant": Option("str"),
    "f_x0": Option("str"),
    "f_x1": Option("str"),
    "f_x2": Option("str"),
    "f_x3": Option("str"),
    "f_file": Option("str"),
    "cond_cap": Option("float", default=1e12),
}


def cmd_fourier(cfg: dict, out_dir: Path, args) -> int:
    grid = Grid(cfg["grid_points"])
    family = _build_family(cfg, grid)
    target = None  # none: pure orthogonality run, Gram diagnostics only
    if cfg.get("plant"):
        idx_list, values = _parse_plant(cfg["plant"], family.kind)
        order = family.index_set()
        coeffs = np.zeros(family.size)
        for idx, val in zip(idx_list, values):
            if idx not in order:
                raise ConfigError(f"planted index {idx!r} not in the family")
            coeffs[order.index(idx)] = val
        target = synthesize(QFourierExpansion(family, coeffs))
    elif any(cfg.get(k) for k in ("f_x0", "f_x1", "f_x2", "f_x3", "f_file")):
        target = _state_from_config(cfg, grid, prefix="f")

    gram_m = gram(family)
    _write_matrix_csv(gram_m, out_dir / "gram.csv",
                      "Gram matrix, row/col order = family index_set")
    off = gram_m - np.diag(np.diag(gram_m))
    _emit("family_size", family.size)
    _emit("gram_max_offdiag", float(np.max(np.abs(off))) if off.size else 0.0)
    _emit("gram_condition", float(np.linalg.cond(gram_m)))
    if target is None:
        return 0
    expansion = analyze(target, family, cond_cap=cfg["cond_cap"])
    if cfg.get("plant"):
        _emit("plant_recovery_error", float(np.max(np.abs(expansion.coefficients - coeffs))))

    write_expansion_csv(expansion, out_dir / "coefficients.csv")
    recon = synthesize(expansion)
    nf = norm(target)
    _emit("residual", norm(target - recon) / nf if nf > 0 else 0.0)
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

EVOLVE_SCHEMA: dict[str, Option] = {
    "grid_points": Option("int", required=True),
    **HAMILTONIAN_SCHEMA,
    "psi0_x0": Option("str"),
    "psi0_x1": Option("str"),
    "psi0_x2": Option("str"),
    "psi0_x3": Option("str"),
    "psi0_file": Option("str"),
    "normalize_psi0": Option("str", default="true"),
    "t0": Option("float", default=0.0),
    "t1": Option("float", required=True),
    "dt": Option("float", required=True),
    "stride": Option("int", default=1),
    "dyson_terms": Option("int"),
    "dyson_quad": Option("int", default=33),
}


def _parse_bool(cfg: dict, key: str) -> bool:
    value = str(cfg[key]).strip().lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key!r}: expected true/false, got {cfg[key]!r}")


def cmd_evolve(cfg: dict, out_dir: Path, args) -> int:
    grid = Grid(cfg["grid_points"])
    spec = hamiltonian_from_config(cfg, grid)
    psi0 = _state_from_config(cfg, grid)
    if _parse_bool(cfg, "normalize_psi0"):
        n0 = norm(psi0)
        if n0 == 0:
            raise ConfigError("initial state is identically zero")
        psi0 = (1.0 / n0) * psi0
    try:
        problem = EvolutionProblem(spec, psi0, cfg["t0"], cfg["t1"], cfg["dt"],
                                   require_normalized=False)
    except ValueError as exc:  # time grid: dt <= 0, t1 <= t0, non-integer step count
        raise ConfigError(str(exc)) from exc
    result = evolve(problem)
    write_trajectory_csv(result.trajectory, out_dir / "trajectory.csv", stride=cfg["stride"])
    write_continuity_csv(result.report, out_dir / "continuity.csv")

    report = result.report
    _emit("steps", problem.n_steps)
    _emit("norm_drift", report.norm_drift())
    _emit("max_abs_int_g", float(np.max(np.abs(report.total_source))))
    _emit("max_residual", report.max_residual())
    _emit("max_imaginary", report.max_imaginary)
    if cfg["dyson_terms"]:
        u = dyson_propagator(spec, cfg["t0"], cfg["t1"], cfg["dyson_terms"], cfg["dyson_quad"])
        gap = norm(u(psi0) - result.trajectory.final)
        _emit("dyson_gap", gap)
    return 0


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

SPECTRAL_SCHEMA: dict[str, Option] = {
    "grid_points": Option("int", required=True),
    "operator": Option("str", required=True),
    **HAMILTONIAN_SCHEMA,
    "v": Option("str"),
    "v_file": Option("str"),
    "eigenfunctions": Option("str", default="false"),
}


def cmd_spectral(cfg: dict, out_dir: Path, args) -> int:
    grid = Grid(cfg["grid_points"])
    name = cfg["operator"]
    if name == "hamiltonian":
        op = hamiltonian(hamiltonian_from_config(cfg, grid))
    elif name == "multiplication":
        values = sampled_function(cfg, "v", grid, complex_valued=False)
        op = QOperator.left_multiplication(
            QFunction.from_components(grid, x0=values))
    elif name == "identity":
        op = QOperator.identity(grid)
    else:
        raise ConfigError(f"unknown operator {name!r} (hamiltonian|multiplication|identity)")

    res = decompose(op)
    write_spectrum_csv(res, out_dir / "spectrum.csv")
    if _parse_bool(cfg, "eigenfunctions"):
        for k in range(res.n_spaces):
            for i, f in enumerate(res.eigenfunctions(k)):
                write_qfunction_csv(f, out_dir / f"eigenfunction_{k:03d}_{i:02d}.csv")
    recon = res.reconstruction_matrix()
    m = op.matrix
    denom = max(np.linalg.norm(m), 1e-300)
    _emit("n_eigenspaces", res.n_spaces)
    _emit("reconstruction_error", float(np.linalg.norm(m - recon) / denom))
    _emit("eigenvalue_min", float(res.eigenvalues[0]))
    _emit("eigenvalue_max", float(res.eigenvalues[-1]))
    return 0


# ---------------------------------------------------------------------------
# check: the seeded invariant suite
# ---------------------------------------------------------------------------

CHECK_SCHEMA: dict[str, Option] = {
    "grid_points": Option("int", default=32),
    "trials": Option("int", default=10),
}

_LESS, _GREATER = "<", ">"


def _random_state(rng: np.random.Generator, grid: Grid, k_max: int = 4) -> QFunction:
    """Band-limited random quaternion function with O(1) norm."""
    x = grid.nodes
    values = np.zeros((grid.n_points, 4))
    for c in range(4):
        coeffs = rng.normal(size=2 * k_max + 1)
        values[:, c] = coeffs[0] * 0.5
        for k in range(1, k_max + 1):
            values[:, c] += coeffs[2 * k - 1] * np.cos(k * x) + coeffs[2 * k] * np.sin(k * x)
    return QFunction(grid, values / math.sqrt(TWO_PI * (2 * k_max + 1)))


def _random_band_function(rng: np.random.Generator, grid: Grid, k_max: int = 3) -> np.ndarray:
    x = grid.nodes
    out = np.full(grid.n_points, rng.normal())
    for k in range(1, k_max + 1):
        out += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
    return out


def _run_checks(cfg: dict, rng: np.random.Generator, tol_override: float | None):
    grid = Grid(cfg["grid_points"])
    trials = cfg["trials"]
    results = []  # (name, value, direction, bound)

    def add(name, value, bound, direction=_LESS):
        if direction == _LESS and tol_override is not None:
            bound = tol_override
        results.append((name, float(value), direction, float(bound)))

    states = [(_random_state(rng, grid), _random_state(rng, grid)) for _ in range(trials)]

    add("inner-symmetry",
        max(abs(inner(f, g) - inner(g, f)) for f, g in states), 1e-12)

    value = 0.0
    for f, g in states:
        a, b = rng.normal(), rng.normal()
        h = states[0][0]
        value = max(value, abs(inner(a * f + b * g, h) - a * inner(f, h) - b * inner(g, h)))
    add("inner-bilinearity", value, 1e-10)

    add("norm-identity",
        max(abs(inner(f, f) - norm(f) ** 2) for f, _ in states), 1e-12)

    add("schwarz",
        max(max(0.0, abs(inner(f, g)) - norm(f) * norm(g)) for f, g in states), 1e-12)

    value = 0.0
    for f, g in states:
        lhs = norm(f + g) ** 2 + norm(f - g) ** 2
        rhs = 2 * norm(f) ** 2 + 2 * norm(g) ** 2
        value = max(value, abs(lhs - rhs) / max(rhs, 1e-300))
    add("parallelogram", value, 1e-10)

    f, g = states[0]
    r, s = states[1]
    # project the quadratic cross term out of the perturbation pair so the
    # deviation is exactly first order in 1/n and must shrink monotonically
    s = s - (inner(r, s) / inner(r, r)) * r
    base = inner(f, g)
    devs = [abs(inner(f + (1.0 / n) * r, g + (1.0 / n) * s) - base)
            for n in (1, 2, 4, 8, 16, 32, 64)]
    if max(devs) < 1e-14:
        add("joint-continuity", 0.0, 1.0)
    else:
        add("joint-continuity", max(b / a for a, b in zip(devs, devs[1:])), 1.0)

    value = 0.0
    for _ in range(trials):
        u = UnitQuaternion(*rng.uniform(-math.pi, math.pi, 3))
        v = UnitQuaternion(*rng.uniform(-math.pi, math.pi, 3))
        direct = (u.realize() * v.realize().conj()).real
        value = max(value, abs(direct - re_product_identity(u, v)))
    add("re-product-identity", value, 1e-14)

    n_trunc = min(8, grid.n_points // 4 - 1)
    value = 0.0
    for kind in (FamilyKind.PHASE_FORM, FamilyKind.EXP_FORM):
        fam = BasisFamily(kind, grid, N=n_trunc,
                          phi0=rng.uniform(0, TWO_PI), xi0=rng.uniform(0, TWO_PI),
                          theta0=rng.uniform(0, TWO_PI))
        value = max(value, float(np.max(np.abs(gram(fam) - TWO_PI * np.eye(fam.size)))))
    add("orthogonality-constant", value, 1e-10)

    value = 0.0
    for kind in (FamilyKind.PHASE_FORM, FamilyKind.EXP_FORM):
        fam = BasisFamily(kind, grid, N=n_trunc,
                          phi0=_random_band_function(rng, grid),
                          xi0=_random_band_function(rng, grid),
                          theta0=_random_band_function(rng, grid))
        value = max(value, float(np.max(np.abs(gram(fam) - TWO_PI * np.eye(fam.size)))))
    add("orthogonality-function", value, 1e-9)

    d = 6
    sym = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    n1 = (sym + sym.T) / 2.0  # complex symmetric
    scalar_n0 = np.eye(d) * float(rng.normal())  # commutes with any N1
    constructed = normal_conditions(NormalPair(scalar_n0, n1))
    add("normal-constructed", constructed.full_commutator, 1e-9)
    witness = normal_conditions(NormalPair(rng.normal(size=(d, d))
                                           + 1j * rng.normal(size=(d, d)),
                                           np.zeros((d, d))))
    add("normal-witness", witness.full_commutator, 1e-4, _GREATER)

    spec = HamiltonianSpec(grid=grid, V=_random_band_function(rng, grid, 2))
    u_op = short_time_propagator(spec, 0.0, 0.1, n_steps=50)
    value = 0.0
    for f, g in states[: min(trials, 5)]:
        value = max(value, abs(inner(u_op(f), u_op(g)) - inner(f, g)))
    add("unitary-axioms", value, 1e-8)

    u = UnitQuaternion(math.pi / 4, 0.0, 0.0)
    v = UnitQuaternion(math.pi / 4, math.pi / 2, 0.0)
    comm = (compose_unitaries(u, v) - compose_unitaries(v, u)).norm()
    add("non-commutativity", min(angle_addition_deviation(u, v), comm), 0.1, _GREATER)

    return results


def cmd_check(cfg: dict, out_dir: Path, args) -> int:
    if args.seed is None:
        raise ConfigError("check requires --seed (the suite draws random instances)")
    rng = np.random.default_rng(args.seed)
    results = _run_checks(cfg, rng, args.tol)
    failures = 0
    for name, value, direction, bound in results:
        ok = value < bound if direction == _LESS else value > bound
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name} value={_fmt(value)} bound={direction}{_fmt(bound)}")
    _emit("checks_total", len(results))
    _emit("checks_failed", failures)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "fourier": (cmd_fourier, FOURIER_SCHEMA),
    "evolve": (cmd_evolve, EVOLVE_SCHEMA),
    "spectral": (cmd_spectral, SPECTRAL_SCHEMA),
    "check": (cmd_check, CHECK_SCHEMA),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hqm",
        description="Quaternionic quantum mechanics experiments on a real Hilbert space",
    )
    parser.add_argument("--version", action="version", version=f"hqm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        p.add_argument("--tol", type=float, default=None, help="override check tolerances")
    args = parser.parse_args(argv)

    func, schema = _COMMANDS[args.command]
    try:
        raw = read_config(args.config) if args.config else {}
        cfg = validate_config(raw, schema)
        args.out.mkdir(parents=True, exist_ok=True)
        return func(cfg, args.out, args)
    except ConfigError as exc:
        _diag(f"config error: {exc}")
        return 2
    except ConditioningError as exc:
        _diag(f"numerical contract failure: {exc}")
        _emit("condition_estimate", exc.condition)
        return 3
    except NotSelfAdjointError as exc:
        _diag(f"numerical contract failure: {exc}")
        _emit("asymmetry", exc.asymmetry)
        return 3
    except InstabilityError as exc:
        _diag(f"integrator instability: {exc}")
        _emit("suggested_dt", exc.suggested_dt)
        return 4


if __name__ == "__main__":
    sys.exit(main())
