"""Network data ingestion and problem-instance construction.

Datasets are directories of five CSV files:

* controllables.csv          id,type,min_mw,max_mw
* controllable_profiles.csv  id,t,mw     historical controllable production
* fixed_profiles.csv         id,t,mw     statics, loads and externals
                                         (negative mw means consumption)
* lines.csv                  id,voltage_kv,max_current_ka
* flows.csv                  line_id,t,mw

From such a dataset build_instance derives everything a ProblemInstance
needs: time aggregation to T windows, k discrete production levels per
resource, per-MWh cost rates drawn by resource type, power targets from the
historical controllable totals, line sensitivities fitted by projected
Newton, and remaining line capacities.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from itertools import compress
from pathlib import Path

import numpy as np

from .model import ProblemInstance, DEFAULT_WEIGHTS
from .qubo import NonFiniteError

__all__ = [
    "ParseError",
    "SchemaError",
    "BadLevelsError",
    "Controllable",
    "Line",
    "NetworkDataset",
    "DEFAULT_COST_TABLE",
    "load_network",
    "aggregate_time",
    "discretize_levels",
    "sample_cost_rate",
    "compute_targets",
    "SensitivityFit",
    "estimate_sensitivity",
    "compute_line_limits",
    "build_instance",
    "synth_instance",
    "write_synthetic_network",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
]


class ParseError(ValueError):
    """A CSV cell could not be parsed; message carries file and line."""


class SchemaError(ValueError):
    """A CSV file misses columns or violates a structural rule."""


class BadLevelsError(ValueError):
    """Too few states to discretize a production range."""


@dataclass(frozen=True)
class Controllable:
    id: str
    type_tag: str
    min_mw: float
    max_mw: float


@dataclass(frozen=True)
class Line:
    id: str
    voltage_kv: float
    max_current_ka: float


@dataclass(frozen=True)
class NetworkDataset:
    """Raw network time series, before any aggregation.

    Frozen, and its arrays are made read-only, because build_instance
    memoizes the sensitivity fit of a dataset in `_fits`: a write into the
    series would leave that fit stale.
    """

    controllables: list[Controllable]
    controllable_profiles: np.ndarray  # (raw_T, n)
    fixed_ids: list[str]
    fixed_profiles: np.ndarray  # (raw_T, m)
    lines: list[Line]
    flows: np.ndarray  # (raw_T, L)
    raw_timepoints: int
    # promote_statics -> fitted S, read-only
    _fits: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        for arr in (self.controllable_profiles, self.fixed_profiles,
                    self.flows):
            arr.setflags(write=False)


# euro-per-MWh ranges by resource type, sampled uniformly per resource
DEFAULT_COST_TABLE: dict[str, tuple[float, float]] = {
    "hard coal": (50.0, 90.0),
    "gas": (40.0, 100.0),
    "solar": (30.0, 60.0),
    "nuclear": (80.0, 120.0),
    "offshore wind": (70.0, 120.0),
    "onshore wind": (40.0, 80.0),
    "waste": (80.0, 110.0),
    "lignite": (40.0, 70.0),
    "oil": (90.0, 160.0),
    "imported energy": (30.0, 100.0),
}


def _read_rows(path: Path, columns: list[str]) -> list[dict]:
    if not path.exists():
        raise SchemaError(f"{path}: file is missing")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in columns:
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if None in row.values():  # DictReader's filler for missing cells
                raise ParseError(f"{path}:{line_no}: row has fewer cells "
                                 f"than the header's {len(header)}")
            if None in row:  # DictReader's key for cells past the header
                raise ParseError(f"{path}:{line_no}: row has more cells "
                                 f"than the header's {len(header)}")
            row["_line"] = line_no
            rows.append(row)
    return rows


def _cell(row: dict, col: str, path: Path, kind=float):
    """The cell as a finite `kind` (float or int); ParseError names file:line."""
    try:
        val = kind(row[col])
    except (TypeError, ValueError) as exc:
        noun = "a number" if kind is float else "an integer"
        raise ParseError(
            f"{path}:{row['_line']}: column {col!r} value {row[col]!r} is not {noun}"
        ) from exc
    if not -math.inf < val < math.inf:
        raise ParseError(f"{path}:{row['_line']}: column {col!r} is not finite")
    return val


def _entities(path: Path, text: list[str], numeric: list[str], valid,
              rule: str) -> list[tuple[dict, list[float]]]:
    """(row, its `numeric` cells) for each row of an id-keyed entity file.
    SchemaError on a repeated id, on numbers that fail `valid` (the message
    states `rule`), or on a file without rows."""
    out = []
    seen: set[str] = set()
    for row in _read_rows(path, ["id", *text, *numeric]):
        if row["id"] in seen:
            raise SchemaError(f"{path}:{row['_line']}: duplicate id {row['id']!r}")
        seen.add(row["id"])
        numbers = [_cell(row, col, path) for col in numeric]
        if not valid(*numbers):
            raise SchemaError(f"{path}:{row['_line']}: {rule}")
        out.append((row, numbers))
    if not out:
        raise SchemaError(f"{path}: no {path.stem}")
    return out


def _series_matrix(path: Path, ids: list[str] | None = None, id_col: str = "id",
                   empty_t: int = 0) -> tuple[np.ndarray, list[str]]:
    """(raw_T, len(ids)) from the id,t,mw rows of path, and the ids: those
    given, else every id of the file in order of first appearance.  Every
    cell must be present; a file without rows has empty_t timepoints."""
    rows = _read_rows(path, [id_col, "t", "mw"])
    if ids is None:
        ids = list(dict.fromkeys(row[id_col] for row in rows))
    pos = {ident: i for i, ident in enumerate(ids)}
    cells: dict[tuple[int, int], float] = {}
    max_t = -1
    for row in rows:
        ident = row[id_col]
        if ident not in pos:
            raise SchemaError(f"{path}:{row['_line']}: unknown id {ident!r}")
        t = _cell(row, "t", path, int)
        if t < 0:
            raise ParseError(f"{path}:{row['_line']}: t must be non-negative")
        key = (t, pos[ident])
        if key in cells:
            raise SchemaError(f"{path}:{row['_line']}: duplicate (id, t) = ({ident!r}, {t})")
        cells[key] = _cell(row, "mw", path)
        max_t = max(max_t, t)
    raw_t = max_t + 1 if cells else empty_t
    if len(cells) != raw_t * len(ids):
        raise SchemaError(
            f"{path}: expected a full grid of {raw_t} timepoints x {len(ids)} ids, "
            f"got {len(cells)} rows"
        )
    out = np.empty((raw_t, len(ids)))
    for (t, i), v in cells.items():
        out[t, i] = v
    return out, ids


def load_network(path) -> NetworkDataset:
    """Parse one dataset directory, validating schema and completeness."""
    root = Path(path)
    controllables = [
        Controllable(row["id"], row["type"].strip().lower(), lo, hi)
        for row, (lo, hi) in _entities(
            root / "controllables.csv", ["type"], ["min_mw", "max_mw"],
            lambda lo, hi: 0 <= lo <= hi, "need 0 <= min_mw <= max_mw")]
    lines = [Line(row["id"], volt, amp) for row, (volt, amp) in _entities(
        root / "lines.csv", [], ["voltage_kv", "max_current_ka"],
        lambda volt, amp: volt > 0 and amp > 0, "ratings must be positive")]
    ctrl_profiles, _ = _series_matrix(root / "controllable_profiles.csv",
                                      [c.id for c in controllables])
    raw_t = len(ctrl_profiles)
    # a file without fixed elements is an empty series on the shared axis
    fixed_profiles, fixed_ids = _series_matrix(root / "fixed_profiles.csv",
                                               empty_t=raw_t)
    flows, _ = _series_matrix(root / "flows.csv", [l.id for l in lines], "line_id")
    if not raw_t == len(fixed_profiles) == len(flows):
        raise SchemaError(
            f"{root}: time axes disagree (controllables {raw_t}, fixed "
            f"{len(fixed_profiles)}, flows {len(flows)})"
        )
    return NetworkDataset(
        controllables=controllables,
        controllable_profiles=ctrl_profiles,
        fixed_ids=fixed_ids,
        fixed_profiles=fixed_profiles,
        lines=lines,
        flows=flows,
        raw_timepoints=raw_t,
    )


def aggregate_time(ds: NetworkDataset, T: int) -> NetworkDataset:
    """Mean-pool all series into T windows; a remainder widens the last window."""
    if not 1 <= T <= ds.raw_timepoints:
        raise ValueError(f"T must be in 1..{ds.raw_timepoints}, got {T}")
    width = ds.raw_timepoints // T
    bounds = [i * width for i in range(T)] + [ds.raw_timepoints]

    def pool(series: np.ndarray) -> np.ndarray:
        return np.stack([
            series[bounds[i] : bounds[i + 1]].mean(axis=0) for i in range(T)
        ])

    return replace(ds, controllable_profiles=pool(ds.controllable_profiles),
                   fixed_profiles=pool(ds.fixed_profiles), flows=pool(ds.flows),
                   raw_timepoints=T)


def discretize_levels(min_mw: float, max_mw: float, k: int) -> np.ndarray:
    """k production levels: always off at level 1, then linear coverage.

    With min 0 the levels run linearly from 0 to max over all k states; with
    a positive minimum, level 1 is 0 and levels 2..k run linearly from min
    to max, which needs k >= 3 even when min == max (else BadLevelsError).
    """
    if min_mw < 0 or max_mw < min_mw:
        raise BadLevelsError(f"need 0 <= min <= max, got [{min_mw}, {max_mw}]")
    if k < 2:
        raise BadLevelsError(f"need at least 2 states, got {k}")
    if min_mw == 0:
        return np.linspace(0.0, max_mw, k)
    if k < 3:
        raise BadLevelsError(
            f"range [{min_mw}, {max_mw}] with k={k}: off state plus a non-zero "
            f"minimum needs at least 3 states"
        )
    return np.concatenate([[0.0], np.linspace(min_mw, max_mw, k - 1)])


def sample_cost_rate(rng: np.random.Generator, type_tag: str) -> float:
    """Draw a per-MWh rate uniformly from the type's range."""
    tag = type_tag.strip().lower()
    if tag not in DEFAULT_COST_TABLE:
        raise SchemaError(f"no cost range for resource type {tag!r}")
    lo, hi = DEFAULT_COST_TABLE[tag]
    return float(rng.uniform(lo, hi))


def compute_targets(ds: NetworkDataset) -> np.ndarray:
    """Historical total controllable production per timepoint, floored at 0."""
    return np.maximum(ds.controllable_profiles.sum(axis=1), 0.0)


@dataclass
class SensitivityFit:
    S: np.ndarray
    loss_trace: list[float]
    iterations: int
    converged: bool
    kkt_residual: float


@np.errstate(over="ignore", invalid="ignore")  # overflow raises below
def estimate_sensitivity(
    injections: np.ndarray,
    flows: np.ndarray,
    max_iterations: int = 500,
) -> SensitivityFit:
    """Fit S minimizing ||injections @ S - flows||_F^2 inside the box [0, 1].

    Projected Newton for bound-constrained least squares (Bertsekas 1982), on
    all columns (lines) at once, since the loss splits by column.  Entries at
    a bound whose gradient or Newton step points out of the box are active
    and take a diagonally scaled gradient step; the free ones take the
    minimum-norm Newton step.  Each column backtracks along the projection
    arc until the Armijo condition holds, so loss_trace (the loss of the
    start and of every iterate) never rises.  The fit stops once the KKT
    residual ||S - clip(S - grad / lip, 0, 1)||_inf, lip being the gradient's
    Lipschitz constant, is at most 1e-10 (converged, with kkt_residual as the
    certificate), or after max_iterations Newton steps.  Of equally good fits
    it returns the one the minimum-norm Newton path from S0 = eye reaches.
    Injections so large that lip overflows, or flows so large that the
    loss or its gradient overflows, raise NonFiniteError.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    phi = np.asarray(injections, dtype=float)
    psi = np.asarray(flows, dtype=float)
    if phi.ndim != 2 or psi.ndim != 2 or phi.shape[0] != psi.shape[0]:
        raise ValueError(f"incompatible shapes {phi.shape} and {psi.shape}: "
                         "need matching rows")
    tol = 1e-10
    S = np.eye(phi.shape[1], psi.shape[1])
    norm = float(np.linalg.norm(phi, 2))
    lip = 2.0 * (norm * norm) or 1.0
    if not math.isfinite(lip):
        raise NonFiniteError(f"squaring the injections' norm {norm:g} overflowed")
    curvature = 2.0 * (phi * phi).sum(axis=0)[:, None]  # Hessian diagonal
    residual = phi @ S - psi
    col_loss = (residual * residual).sum(axis=0)
    trace = [float(col_loss.sum())]
    iterations = 0
    while True:
        grad = 2.0 * phi.T @ residual
        if not (math.isfinite(trace[-1]) and np.isfinite(grad).all()):
            raise NonFiniteError(f"the fit's loss {trace[-1]:g} or its "
                                 "gradient overflowed")
        kkt = np.abs(S - np.clip(S - grad / lip, 0.0, 1.0)).max(axis=0, initial=0.0)
        live = kkt > tol  # certified columns take no step
        if not live.any() or iterations == max_iterations:
            break
        eps = min(1e-2, float(kkt.max()))
        low, high = S <= eps, S >= 1.0 - eps
        free = ~((low & (grad > 0)) | (high & (grad < 0)))
        step, todo = np.zeros_like(S), live
        while todo.any():  # every round frees fewer entries, so this ends
            cols = np.flatnonzero(todo)
            pinv = np.linalg.pinv(phi * free[:, cols].T[:, None, :], rcond=1e-10)
            step[:, cols] = free[:, cols] * np.einsum("lst,tl->sl", pinv,
                                                      -residual[:, cols])
            leaving = free & live & ((low & (step < 0)) | (high & (step > 0)))
            free &= ~leaving
            todo = leaving.any(axis=0)
        scaled = np.divide(-grad, curvature, out=np.zeros_like(S),
                           where=curvature > 0)
        step = np.where(free, step, scaled) * live
        pending, moved = live.copy(), False
        for alpha in 0.5 ** np.arange(30):
            trial = np.clip(S + alpha * step, 0.0, 1.0)
            trial_residual = phi @ trial - psi
            trial_loss = (trial_residual * trial_residual).sum(axis=0)
            decrease = (grad * np.where(free, -alpha * step, S - trial)).sum(axis=0)
            ok = pending & (trial_loss <= col_loss - 1e-4 * np.maximum(decrease, 0.0))
            moved = moved or bool((trial[:, ok] != S[:, ok]).any())
            S[:, ok], residual[:, ok] = trial[:, ok], trial_residual[:, ok]
            col_loss[ok] = trial_loss[ok]
            pending &= ~ok
            if not pending.any():
                break
        if not moved:  # stalled short of the tolerance
            break
        iterations += 1
        trace.append(float(col_loss.sum()))
    kkt_residual = float(kkt.max(initial=0.0))
    return SensitivityFit(S, trace, iterations, kkt_residual <= tol, kkt_residual)


def compute_line_limits(ds: NetworkDataset, S_fixed: np.ndarray) -> np.ndarray:
    """Remaining capacity per (timepoint, line) after fixed injections.

    Thermal rating is voltage * max current * sqrt(3) (kV * kA gives MW);
    the fitted fixed-element flow contribution is subtracted out.
    """
    rating = np.array([l.voltage_kv * l.max_current_ka * math.sqrt(3.0)
                       for l in ds.lines])
    S_fixed = np.asarray(S_fixed, dtype=float)
    if S_fixed.shape != (len(ds.fixed_ids), len(ds.lines)):
        raise ValueError(
            f"S_fixed has shape {S_fixed.shape}, expected "
            f"{(len(ds.fixed_ids), len(ds.lines))}"
        )
    return rating[None, :] - ds.fixed_profiles @ S_fixed


def _promote_statics(ds: NetworkDataset) -> NetworkDataset:
    """Turn non-consuming fixed elements into on/off controllables.

    An element whose profile never goes negative is treated as a static
    generator: it becomes a zero-cost controllable that is either off or at
    its historical peak.  Loads and anything that consumes stay fixed.
    """
    fixed = ds.fixed_profiles
    peaks = fixed.max(axis=0, initial=0.0)
    promote = (fixed >= 0).all(axis=0) & (peaks > 0)
    if not promote.any():
        return ds
    return replace(
        ds, controllables=ds.controllables + [
            Controllable(ident, "static", 0.0, float(peak))
            for ident, peak in compress(zip(ds.fixed_ids, peaks), promote)],
        controllable_profiles=np.hstack([ds.controllable_profiles,
                                         fixed[:, promote]]),
        fixed_ids=list(compress(ds.fixed_ids, ~promote)),
        fixed_profiles=fixed[:, ~promote])


def build_instance(
    ds: NetworkDataset,
    T: int,
    k: int,
    seed: int = 0,
    promote_statics: bool = False,
) -> ProblemInstance:
    """Derive a ProblemInstance from a raw dataset.

    Sensitivities are fitted on the raw (unaggregated) series, since the
    mapping is time-invariant and more samples sharpen the fit; targets and
    line limits come from the T-window aggregate.  The only randomness is the
    per-resource cost rate, so equal seeds give identical instances.

    S does not depend on the seed: it is fitted once per dataset object and
    per promote_statics, kept read-only on `ds` and shared by every later
    instance built from that dataset.
    """
    if k < 2:  # checked before any array of k states is allocated
        raise BadLevelsError(f"need at least 2 states, got {k}")
    fits, listed = ds._fits, len(ds.controllables)
    if promote_statics:
        ds = _promote_statics(ds)
    n = len(ds.controllables)
    levels = np.zeros((n, k))
    rates = np.zeros(n)
    rng = np.random.default_rng(seed)
    for a, res in enumerate(ds.controllables):
        if a < listed:
            levels[a] = discretize_levels(res.min_mw, res.max_mw, k)
            rates[a] = sample_cost_rate(rng, res.type_tag)
        else:  # promoted statics, appended last: off or at peak, free
            levels[a] = np.concatenate([[0.0], np.full(k - 1, res.max_mw)])

    agg = aggregate_time(ds, T)
    tau = compute_targets(agg)

    S = fits.get(promote_statics)
    if S is None:
        phi = np.hstack([ds.controllable_profiles, ds.fixed_profiles])
        S = estimate_sensitivity(phi, ds.flows).S
        S.setflags(write=False)
        fits[promote_statics] = S
    S_ctrl = S[:n, :]
    S_fixed = S[n:, :]
    M = compute_line_limits(agg, S_fixed)

    with np.errstate(over="ignore"):  # ProblemInstance rejects inf costs
        c = np.broadcast_to((rates[:, None] * levels)[None, :, :],
                            (T, n, k)).copy()
    return ProblemInstance(
        T=T, n=n, k=k, L=len(ds.lines),
        p=levels, c=c, S=S_ctrl, M=M, tau=tau,
    )


def synth_instance(
    n: int,
    k: int,
    T: int,
    L: int,
    seed: int = 0,
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS,
) -> tuple[ProblemInstance, np.ndarray]:
    """Random feasible instance with a planted schedule.

    Costs dip to zero exactly at the planted states, the power target is what
    the planted schedule produces, and line limits leave it a safety margin,
    so under a cost-only objective the planted schedule is the optimum.
    Returns (instance, planted schedule).  BadLevelsError if k < 2: one
    state produces nothing, so no target or limit leaves any slack.
    """
    if k < 2:
        raise BadLevelsError(f"need at least 2 states, got {k}")
    rng = np.random.default_rng(seed)
    p = np.hstack([
        np.zeros((n, 1)),
        np.sort(rng.uniform(1.0, 10.0, size=(n, k - 1)), axis=1),
    ])
    planted = np.zeros((T, n), dtype=int)
    planted[0] = rng.integers(1, k + 1, size=n)
    for t in range(1, T):
        moves = rng.integers(-1, 2, size=n)
        planted[t] = np.clip(planted[t - 1] + moves, 1, k)
    states = np.arange(1, k + 1)
    unit = rng.uniform(0.5, 1.5, size=(T, n))
    c = unit[:, :, None] * np.abs(states[None, None, :] - planted[:, :, None])
    S = rng.uniform(0.0, 1.0, size=(n, L))
    prod = p[np.arange(n)[None, :], planted - 1]
    margin = 0.01 * (p[:, -1].sum() + 1.0)
    tau = np.maximum(prod.sum(axis=1) - margin, 0.0)
    flows = prod @ S
    M = flows + 0.1 * np.abs(flows).max() + 1.0
    inst = ProblemInstance(T=T, n=n, k=k, L=L, p=p, c=c, S=S, M=M, tau=tau,
                           weights=weights)
    return inst, planted


def write_synthetic_network(
    path,
    n_controllables: int,
    n_lines: int,
    raw_timepoints: int,
    n_fixed: int = 6,
    seed: int = 0,
) -> Path:
    """Generate a dataset directory with self-consistent series.

    Flows are produced from a planted sensitivity matrix applied to the
    generated injection profiles, and line ratings are set so the remaining
    capacity sits at 45% of the span between the fleet's minimum and maximum
    controllable flow.  Returns the directory path.
    """
    rng = np.random.default_rng(seed)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    type_tags = sorted(DEFAULT_COST_TABLE)
    mins = np.round(rng.uniform(0.0, 30.0, n_controllables), 3)
    mins[rng.random(n_controllables) < 0.5] = 0.0
    spans = np.round(rng.uniform(20.0, 120.0, n_controllables), 3)
    maxs = mins + spans

    def write_series(name: str, header: str, prefix: str, series: np.ndarray):
        with open(root / name, "w", encoding="ascii") as fh:
            fh.write(header)
            for j in range(series.shape[1]):
                fh.writelines(f"{prefix}{j},{t},{v:.4f}\n"
                              for t, v in enumerate(series[:, j]))

    with open(root / "controllables.csv", "w", encoding="ascii") as fh:
        fh.write("id,type,min_mw,max_mw\n")
        for a in range(n_controllables):
            tag = type_tags[int(rng.integers(len(type_tags)))]
            fh.write(f"gen{a},{tag},{mins[a]:.3f},{maxs[a]:.3f}\n")

    frac = rng.uniform(0.3, 0.9, size=(raw_timepoints, n_controllables))
    ctrl = mins[None, :] + frac * (maxs - mins)[None, :]
    write_series("controllable_profiles.csv", "id,t,mw\n", "gen", ctrl)

    base = rng.uniform(5.0, 60.0, n_fixed)
    sign = np.where(rng.random(n_fixed) < 0.5, 1.0, -1.0)
    wobble = rng.uniform(0.8, 1.2, size=(raw_timepoints, n_fixed))
    fixed = sign[None, :] * base[None, :] * wobble
    write_series("fixed_profiles.csv", "id,t,mw\n", "fix", fixed)

    S_true = rng.uniform(0.0, 0.6, size=(n_controllables + n_fixed, n_lines))
    phi = np.hstack([ctrl, fixed])
    flows = phi @ S_true
    write_series("flows.csv", "line_id,t,mw\n", "line", flows)

    # pick thermal ratings so the controllable headroom is neither trivial
    # nor impossible: 45% of the way from min to max fleet flow
    S_ctrl = S_true[:n_controllables]
    lo_flow = (mins[:, None] * S_ctrl).sum(axis=0)
    hi_flow = (maxs[:, None] * S_ctrl).sum(axis=0)
    fixed_worst = (fixed @ S_true[n_controllables:]).max(axis=0)
    margin = lo_flow + 0.45 * (hi_flow - lo_flow)
    rating = fixed_worst + margin
    with open(root / "lines.csv", "w", encoding="ascii") as fh:
        fh.write("id,voltage_kv,max_current_ka\n")
        for l in range(n_lines):
            current = rating[l] / (380.0 * math.sqrt(3.0))
            fh.write(f"line{l},380,{current:.9f}\n")
    return root


def instance_to_dict(inst: ProblemInstance) -> dict:
    """JSON-ready dict capturing every field of the instance."""
    return {
        "T": inst.T, "n": inst.n, "k": inst.k, "L": inst.L,
        "p": inst.p.tolist(), "c": inst.c.tolist(), "S": inst.S.tolist(),
        "M": inst.M.tolist(), "tau": inst.tau.tolist(),
        "gamma": inst.gamma, "weights": list(inst.weights),
        "s_box": list(inst.s_box),
    }


def instance_from_dict(doc: dict) -> ProblemInstance:
    return ProblemInstance(
        T=doc["T"], n=doc["n"], k=doc["k"], L=doc["L"],
        p=np.asarray(doc["p"]), c=np.asarray(doc["c"]),
        S=np.asarray(doc["S"]), M=np.asarray(doc["M"]),
        tau=np.asarray(doc["tau"]), gamma=doc.get("gamma", 1.0),
        weights=tuple(doc.get("weights", DEFAULT_WEIGHTS)),
        s_box=tuple(doc.get("s_box", (0.0, 1.0))),
    )


def save_instance(path, inst: ProblemInstance) -> None:
    """Write the instance as canonical JSON (stable bytes for equal data)."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(instance_to_dict(inst), fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")


def load_instance(path) -> ProblemInstance:
    """Read an instance file; SchemaError if it is not a valid instance."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return instance_from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:  # JSON errors included
            raise SchemaError(f"{path}: not a valid instance ({exc!r})") from exc
