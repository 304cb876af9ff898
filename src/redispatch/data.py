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
gradient descent, and remaining line capacities.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ProblemInstance, DEFAULT_WEIGHTS

__all__ = [
    "ParseError",
    "SchemaError",
    "BadLevelsError",
    "DivergedError",
    "Controllable",
    "Line",
    "NetworkDataset",
    "DEFAULT_COST_TABLE",
    "load_network",
    "aggregate_time",
    "discretize_levels",
    "sample_cost_rate",
    "compute_targets",
    "SensitivityFitConfig",
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


class DivergedError(RuntimeError):
    """The sensitivity fit kept increasing its loss (step size too large)."""


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
    # (promote_statics, SensitivityFitConfig) -> fitted S, read-only
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
            row["_line"] = line_no
            rows.append(row)
    return rows


def _number(row: dict, col: str, path: Path) -> float:
    try:
        val = float(row[col])
    except (TypeError, ValueError) as exc:
        raise ParseError(
            f"{path}:{row['_line']}: column {col!r} value {row[col]!r} is not a number"
        ) from exc
    if math.isnan(val) or math.isinf(val):
        raise ParseError(f"{path}:{row['_line']}: column {col!r} is not finite")
    return val


def _integer(row: dict, col: str, path: Path) -> int:
    try:
        return int(row[col])
    except (TypeError, ValueError) as exc:
        raise ParseError(
            f"{path}:{row['_line']}: column {col!r} value {row[col]!r} is not an integer"
        ) from exc


def _series_matrix(rows: list[dict], ids: list[str], path: Path,
                   id_col: str) -> tuple[np.ndarray, int]:
    """Assemble (raw_T, len(ids)) from id,t,mw rows; every cell must be present."""
    pos = {ident: i for i, ident in enumerate(ids)}
    cells: dict[tuple[int, int], float] = {}
    max_t = -1
    for row in rows:
        ident = row[id_col]
        if ident not in pos:
            raise SchemaError(f"{path}:{row['_line']}: unknown id {ident!r}")
        t = _integer(row, "t", path)
        if t < 0:
            raise ParseError(f"{path}:{row['_line']}: t must be non-negative")
        key = (t, pos[ident])
        if key in cells:
            raise SchemaError(f"{path}:{row['_line']}: duplicate (id, t) = ({ident!r}, {t})")
        cells[key] = _number(row, "mw", path)
        max_t = max(max_t, t)
    raw_t = max_t + 1
    if len(cells) != raw_t * len(ids):
        raise SchemaError(
            f"{path}: expected a full grid of {raw_t} timepoints x {len(ids)} ids, "
            f"got {len(cells)} rows"
        )
    out = np.empty((raw_t, len(ids)))
    for (t, i), v in cells.items():
        out[t, i] = v
    return out, raw_t


def load_network(path) -> NetworkDataset:
    """Parse one dataset directory, validating schema and completeness."""
    root = Path(path)
    ctrl_rows = _read_rows(root / "controllables.csv", ["id", "type", "min_mw", "max_mw"])
    controllables = []
    seen: set[str] = set()
    for row in ctrl_rows:
        ident = row["id"]
        if ident in seen:
            raise SchemaError(f"{root/'controllables.csv'}:{row['_line']}: duplicate id {ident!r}")
        seen.add(ident)
        lo = _number(row, "min_mw", root / "controllables.csv")
        hi = _number(row, "max_mw", root / "controllables.csv")
        if lo < 0 or hi < lo:
            raise SchemaError(
                f"{root/'controllables.csv'}:{row['_line']}: need 0 <= min_mw <= max_mw"
            )
        controllables.append(Controllable(ident, row["type"].strip().lower(), lo, hi))
    if not controllables:
        raise SchemaError(f"{root/'controllables.csv'}: no controllables")

    line_rows = _read_rows(root / "lines.csv", ["id", "voltage_kv", "max_current_ka"])
    lines = []
    seen = set()
    for row in line_rows:
        ident = row["id"]
        if ident in seen:
            raise SchemaError(f"{root/'lines.csv'}:{row['_line']}: duplicate id {ident!r}")
        seen.add(ident)
        volt = _number(row, "voltage_kv", root / "lines.csv")
        amp = _number(row, "max_current_ka", root / "lines.csv")
        if volt <= 0 or amp <= 0:
            raise SchemaError(f"{root/'lines.csv'}:{row['_line']}: ratings must be positive")
        lines.append(Line(ident, volt, amp))
    if not lines:
        raise SchemaError(f"{root/'lines.csv'}: no lines")

    cp_path = root / "controllable_profiles.csv"
    cp_rows = _read_rows(cp_path, ["id", "t", "mw"])
    ctrl_profiles, raw_t = _series_matrix(
        cp_rows, [c.id for c in controllables], cp_path, "id")

    fp_path = root / "fixed_profiles.csv"
    fp_rows = _read_rows(fp_path, ["id", "t", "mw"])
    fixed_ids = []
    seen = set()
    for row in fp_rows:
        if row["id"] not in seen:
            seen.add(row["id"])
            fixed_ids.append(row["id"])
    fixed_profiles, fixed_t = _series_matrix(fp_rows, fixed_ids, fp_path, "id")

    fl_path = root / "flows.csv"
    fl_rows = _read_rows(fl_path, ["line_id", "t", "mw"])
    flows, flow_t = _series_matrix(fl_rows, [l.id for l in lines], fl_path, "line_id")

    if not raw_t == fixed_t == flow_t:
        raise SchemaError(
            f"{root}: time axes disagree (controllables {raw_t}, fixed {fixed_t}, "
            f"flows {flow_t})"
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

    return NetworkDataset(
        controllables=ds.controllables,
        controllable_profiles=pool(ds.controllable_profiles),
        fixed_ids=ds.fixed_ids,
        fixed_profiles=pool(ds.fixed_profiles),
        lines=ds.lines,
        flows=pool(ds.flows),
        raw_timepoints=T,
    )


def discretize_levels(min_mw: float, max_mw: float, k: int) -> np.ndarray:
    """k production levels: always off at level 1, then linear coverage.

    With min 0 the levels run linearly from 0 to max over all k states; with
    a positive minimum, level 1 is 0 and levels 2..k run linearly from min
    to max (needs k >= 3 unless the range is degenerate).
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


def sample_cost_rate(rng: np.random.Generator, type_tag: str,
                     table: dict[str, tuple[float, float]] | None = None) -> float:
    """Draw a per-MWh rate uniformly from the type's range."""
    table = DEFAULT_COST_TABLE if table is None else table
    tag = type_tag.strip().lower()
    if tag not in table:
        raise SchemaError(f"no cost range for resource type {tag!r}")
    lo, hi = table[tag]
    return float(rng.uniform(lo, hi))


def compute_targets(ds: NetworkDataset) -> np.ndarray:
    """Historical total controllable production per timepoint, floored at 0."""
    return np.maximum(ds.controllable_profiles.sum(axis=1), 0.0)


@dataclass(frozen=True)
class SensitivityFitConfig:
    """Projected-gradient settings for estimate_sensitivity.

    step None picks 1 / (2 * Lipschitz constant) of the gradient, which keeps
    the loss non-increasing.  penalty_weight scales the push applied to the
    most negative predicted flow, if any.
    """

    step: float | None = None
    penalty_weight: float = 1.0
    max_iterations: int = 20000
    tolerance: float = 1e-14
    box: tuple[float, float] = (0.0, 1.0)


@dataclass
class SensitivityFit:
    S: np.ndarray
    loss_trace: list[float]
    iterations: int
    converged: bool


def estimate_sensitivity(
    injections: np.ndarray,
    flows: np.ndarray,
    config: SensitivityFitConfig | None = None,
) -> SensitivityFit:
    """Fit S minimizing ||injections @ S - flows||_F^2 inside a box.

    Starts from an identity-patterned S, iterates projected gradient steps
    and additionally pushes the most negative predicted flow entry upward.
    Raises DivergedError after 10 consecutive loss increases.  The returned S
    is the best iterate seen, so its loss never exceeds the starting loss.
    """
    config = config or SensitivityFitConfig()
    phi = np.asarray(injections, dtype=float)
    psi = np.asarray(flows, dtype=float)
    if phi.ndim != 2 or psi.ndim != 2 or phi.shape[0] != psi.shape[0]:
        raise ValueError(
            f"incompatible shapes {phi.shape} and {psi.shape}: need matching rows"
        )
    lo, hi = config.box
    n_src, n_lines = phi.shape[1], psi.shape[1]
    S = np.clip(np.eye(n_src, n_lines), lo, hi)
    if config.step is None:
        lipschitz = 2.0 * float(np.linalg.norm(phi, 2) ** 2)
        step = 1.0 / (2.0 * lipschitz) if lipschitz > 0 else 1.0
    else:
        step = config.step
    predicted = phi @ S
    residual = predicted - psi
    loss = float((residual * residual).sum())
    trace = [loss]
    best_loss, best_S = loss, S.copy()
    increases = 0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        grad = 2.0 * phi.T @ residual
        S_next = S - step * grad
        flat = int(np.argmin(predicted))
        t_star, l_star = divmod(flat, n_lines)
        if predicted[t_star, l_star] < 0:
            S_next[:, l_star] += step * config.penalty_weight * phi[t_star, :]
        S = np.clip(S_next, lo, hi)
        predicted = phi @ S
        residual = predicted - psi
        new_loss = float((residual * residual).sum())
        trace.append(new_loss)
        if new_loss > loss:
            increases += 1
            if increases >= 10:
                raise DivergedError(
                    f"loss rose for {increases} consecutive steps "
                    f"(step size {step:g} is too large)"
                )
        else:
            increases = 0
        if new_loss < best_loss:
            best_loss, best_S = new_loss, S.copy()
        if abs(loss - new_loss) <= config.tolerance * (1.0 + loss):
            loss = new_loss
            converged = True
            break
        loss = new_loss
    return SensitivityFit(S=best_S, loss_trace=trace, iterations=iterations,
                          converged=converged)


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
    keep_fixed = []
    promoted = []
    for col, ident in enumerate(ds.fixed_ids):
        series = ds.fixed_profiles[:, col]
        if np.all(series >= 0) and series.max() > 0:
            promoted.append((ident, col))
        else:
            keep_fixed.append((ident, col))
    if not promoted:
        return ds
    new_controllables = list(ds.controllables)
    new_ctrl_cols = [ds.controllable_profiles]
    for ident, col in promoted:
        peak = float(ds.fixed_profiles[:, col].max())
        new_controllables.append(Controllable(ident, "static", 0.0, peak))
        new_ctrl_cols.append(ds.fixed_profiles[:, col : col + 1])
    fixed_cols = [col for _, col in keep_fixed]
    return NetworkDataset(
        controllables=new_controllables,
        controllable_profiles=np.hstack(new_ctrl_cols),
        fixed_ids=[ident for ident, _ in keep_fixed],
        fixed_profiles=ds.fixed_profiles[:, fixed_cols]
        if fixed_cols else np.zeros((ds.raw_timepoints, 0)),
        lines=ds.lines,
        flows=ds.flows,
        raw_timepoints=ds.raw_timepoints,
    )


def build_instance(
    ds: NetworkDataset,
    T: int,
    k: int,
    seed: int = 0,
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS,
    gamma: float = 1.0,
    promote_statics: bool = False,
    fit_config: SensitivityFitConfig | None = None,
    cost_table: dict[str, tuple[float, float]] | None = None,
) -> ProblemInstance:
    """Derive a ProblemInstance from a raw dataset.

    Sensitivities are fitted on the raw (unaggregated) series, since the
    mapping is time-invariant and more samples sharpen the fit; targets and
    line limits come from the T-window aggregate.  The only randomness is the
    per-resource cost rate, so equal seeds give identical instances.

    S does not depend on the seed: it is fitted once per dataset object and
    per (promote_statics, fit_config), kept read-only on `ds` and shared by
    every later instance built from that dataset.
    """
    fits = ds._fits
    if promote_statics:
        ds = _promote_statics(ds)
    n = len(ds.controllables)
    levels = np.zeros((n, k))
    rates = np.zeros(n)
    rng = np.random.default_rng(seed)
    for a, res in enumerate(ds.controllables):
        if res.type_tag == "static":
            # promoted statics: off or at historical peak, free to run
            levels[a] = np.concatenate([[0.0], np.full(k - 1, res.max_mw)])
            rates[a] = 0.0
        else:
            levels[a] = discretize_levels(res.min_mw, res.max_mw, k)
            rates[a] = sample_cost_rate(rng, res.type_tag, cost_table)

    agg = aggregate_time(ds, T)
    tau = compute_targets(agg)

    key = (promote_statics, fit_config or SensitivityFitConfig())
    S = fits.get(key)
    if S is None:
        phi = np.hstack([ds.controllable_profiles, ds.fixed_profiles])
        S = estimate_sensitivity(phi, ds.flows, fit_config).S
        S.setflags(write=False)
        fits[key] = S
    S_ctrl = S[:n, :]
    S_fixed = S[n:, :]
    M = compute_line_limits(agg, S_fixed)

    c = np.broadcast_to((rates[:, None] * levels)[None, :, :],
                        (T, n, k)).copy()
    return ProblemInstance(
        T=T, n=n, k=k, L=len(ds.lines),
        p=levels, c=c, S=S_ctrl, M=M, tau=tau,
        gamma=gamma, weights=weights,
    )


def synth_instance(
    n: int,
    k: int,
    T: int,
    L: int,
    seed: int = 0,
    planted: np.ndarray | None = None,
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS,
) -> tuple[ProblemInstance, np.ndarray]:
    """Random feasible instance with a planted schedule.

    Costs dip to zero exactly at the planted states, the power target is what
    the planted schedule produces, and line limits leave it a safety margin,
    so under a cost-only objective the planted schedule is the optimum.
    Returns (instance, planted schedule).
    """
    rng = np.random.default_rng(seed)
    p = np.hstack([
        np.zeros((n, 1)),
        np.sort(rng.uniform(1.0, 10.0, size=(n, k - 1)), axis=1),
    ])
    if planted is None:
        planted = np.zeros((T, n), dtype=int)
        planted[0] = rng.integers(1, k + 1, size=n)
        for t in range(1, T):
            moves = rng.integers(-1, 2, size=n)
            planted[t] = np.clip(planted[t - 1] + moves, 1, k)
    else:
        planted = np.asarray(planted, dtype=int)
        if planted.shape != (T, n):
            raise ValueError(f"planted schedule has shape {planted.shape}, want {(T, n)}")
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
    capacity_fraction: float = 0.45,
) -> Path:
    """Generate a dataset directory with self-consistent series.

    Flows are produced from a planted sensitivity matrix applied to the
    generated injection profiles, and line ratings are set so the remaining
    capacity sits at capacity_fraction of the span between the fleet's
    minimum and maximum controllable flow.  Returns the directory path.
    """
    rng = np.random.default_rng(seed)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    type_tags = sorted(DEFAULT_COST_TABLE)
    mins = np.round(rng.uniform(0.0, 30.0, n_controllables), 3)
    mins[rng.random(n_controllables) < 0.5] = 0.0
    spans = np.round(rng.uniform(20.0, 120.0, n_controllables), 3)
    maxs = mins + spans

    with open(root / "controllables.csv", "w", encoding="ascii") as fh:
        fh.write("id,type,min_mw,max_mw\n")
        for a in range(n_controllables):
            tag = type_tags[int(rng.integers(len(type_tags)))]
            fh.write(f"gen{a},{tag},{mins[a]:.3f},{maxs[a]:.3f}\n")

    frac = rng.uniform(0.3, 0.9, size=(raw_timepoints, n_controllables))
    ctrl = mins[None, :] + frac * (maxs - mins)[None, :]
    with open(root / "controllable_profiles.csv", "w", encoding="ascii") as fh:
        fh.write("id,t,mw\n")
        for a in range(n_controllables):
            for t in range(raw_timepoints):
                fh.write(f"gen{a},{t},{ctrl[t, a]:.4f}\n")

    base = rng.uniform(5.0, 60.0, n_fixed)
    sign = np.where(rng.random(n_fixed) < 0.5, 1.0, -1.0)
    wobble = rng.uniform(0.8, 1.2, size=(raw_timepoints, n_fixed))
    fixed = sign[None, :] * base[None, :] * wobble
    with open(root / "fixed_profiles.csv", "w", encoding="ascii") as fh:
        fh.write("id,t,mw\n")
        for e in range(n_fixed):
            for t in range(raw_timepoints):
                fh.write(f"fix{e},{t},{fixed[t, e]:.4f}\n")

    S_true = rng.uniform(0.0, 0.6, size=(n_controllables + n_fixed, n_lines))
    phi = np.hstack([ctrl, fixed])
    flows = phi @ S_true
    with open(root / "flows.csv", "w", encoding="ascii") as fh:
        fh.write("line_id,t,mw\n")
        for l in range(n_lines):
            for t in range(raw_timepoints):
                fh.write(f"line{l},{t},{flows[t, l]:.4f}\n")

    # pick thermal ratings so the controllable headroom is neither trivial
    # nor impossible: capacity_fraction of the way from min to max fleet flow
    S_ctrl = S_true[:n_controllables]
    lo_flow = (mins[:, None] * S_ctrl).sum(axis=0)
    hi_flow = (maxs[:, None] * S_ctrl).sum(axis=0)
    fixed_worst = (fixed @ S_true[n_controllables:]).max(axis=0)
    margin = lo_flow + capacity_fraction * (hi_flow - lo_flow)
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
