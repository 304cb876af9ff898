"""Dataset ingestion, aggregation, fitting and instance-building tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redispatch import data as data_mod
from redispatch.cli import SIZE_PRESETS
from redispatch.data import (
    BadLevelsError,
    ParseError,
    SchemaError,
    aggregate_time,
    build_instance,
    compute_line_limits,
    compute_targets,
    discretize_levels,
    estimate_sensitivity,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_network,
    sample_cost_rate,
    save_instance,
    synth_instance,
    write_synthetic_network,
)
from redispatch.encodings import build_objective, compute_bounds
from redispatch.experiments import composed_objective
from redispatch.model import encode_one_hot, first_adjacency_violation


@pytest.fixture()
def network_dir(tmp_path):
    return write_synthetic_network(
        tmp_path / "net", n_controllables=4, n_lines=3,
        raw_timepoints=8, n_fixed=3, seed=0)


# ------------------------------------------------------------------ loading


def test_load_network_shapes_and_ids(network_dir):
    ds = load_network(network_dir)
    assert [c.id for c in ds.controllables] == [f"gen{a}" for a in range(4)]
    assert [l.id for l in ds.lines] == [f"line{l}" for l in range(3)]
    assert ds.fixed_ids == [f"fix{e}" for e in range(3)]
    assert ds.controllable_profiles.shape == (8, 4)
    assert ds.fixed_profiles.shape == (8, 3)
    assert ds.flows.shape == (8, 3)
    assert ds.raw_timepoints == 8
    for c in ds.controllables:
        assert 0 <= c.min_mw <= c.max_mw


def test_generator_is_deterministic(tmp_path):
    a = write_synthetic_network(tmp_path / "a", 3, 2, 4, n_fixed=2, seed=1)
    b = write_synthetic_network(tmp_path / "b", 3, 2, 4, n_fixed=2, seed=1)
    for name in ("controllables.csv", "lines.csv", "controllable_profiles.csv",
                 "fixed_profiles.csv", "flows.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_missing_file_names_the_file(network_dir):
    (network_dir / "flows.csv").unlink()
    with pytest.raises(SchemaError, match="flows.csv.*missing"):
        load_network(network_dir)


def test_missing_column_is_reported(network_dir):
    path = network_dir / "lines.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    with pytest.raises(SchemaError, match="max_current_ka"):
        load_network(network_dir)


def test_bad_number_reports_file_and_line(network_dir):
    path = network_dir / "controllables.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",not-a-number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"controllables\.csv:3.*not-a-number"):
        load_network(network_dir)


def test_duplicate_id_rejected(network_dir):
    path = network_dir / "lines.csv"
    text = path.read_text()
    first_row = text.splitlines()[1]
    path.write_text(text + first_row + "\n")
    with pytest.raises(SchemaError, match="duplicate id"):
        load_network(network_dir)


def test_incomplete_grid_rejected(network_dir):
    path = network_dir / "flows.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(SchemaError, match="full grid"):
        load_network(network_dir)


def test_duplicate_cell_rejected(network_dir):
    path = network_dir / "flows.csv"
    text = path.read_text()
    first_row = text.splitlines()[1]
    path.write_text(text + first_row + "\n")
    with pytest.raises(SchemaError, match=r"duplicate \(id, t\)"):
        load_network(network_dir)


def test_unknown_series_id_rejected(network_dir):
    path = network_dir / "flows.csv"
    with open(path, "a") as fh:
        fh.write("ghost,0,1.0\n")
    with pytest.raises(SchemaError, match="unknown id 'ghost'"):
        load_network(network_dir)


def test_mismatched_time_axes_rejected(network_dir):
    path = network_dir / "fixed_profiles.csv"
    lines = path.read_text().splitlines()
    # drop the final timepoint of every fixed series, keeping the grid full
    kept = [l for l in lines if not l.split(",")[1:2] == ["7"]]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(SchemaError, match="time axes disagree"):
        load_network(network_dir)


def test_network_without_fixed_elements_loads(tmp_path):
    # an empty fixed_profiles.csv used to get a time axis of length 0
    root = write_synthetic_network(tmp_path / "net", 3, 2, 6, n_fixed=0)
    ds = load_network(root)
    assert ds.fixed_ids == [] and ds.fixed_profiles.shape == (6, 0)
    for promote in (False, True):
        inst = build_instance(ds, T=2, k=3, promote_statics=promote)
        assert inst.n == 3
        compute_bounds(inst)


def test_small_synthetic_networks_all_load(tmp_path):
    # with loads alone among the fixed elements a line's worst fixed flow can
    # sit below minus the controllable margin; such a line is rated at the
    # margin, where it once got a negative rating the reader rejects
    example = write_synthetic_network(tmp_path / "example", 1, 1, 8,
                                      n_fixed=1, seed=1)
    build_instance(load_network(example), seed=1, **SIZE_PRESETS["S"])
    shapes = [(n, lines, fixed, seed) for n in range(1, 5)
              for lines in range(1, 4) for fixed in range(4)
              for seed in range(5)]
    for n, lines, fixed, seed in shapes:
        load_network(write_synthetic_network(
            tmp_path / f"{n}-{lines}-{fixed}-{seed}", n, lines, 8,
            n_fixed=fixed, seed=seed))


def test_inverted_rating_rejected(network_dir):
    path = network_dir / "controllables.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[2], parts[3] = "50", "10"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="min_mw <= max_mw"):
        load_network(network_dir)


@pytest.mark.parametrize("name, row, column, value, error, message", [
    ("fixed_profiles.csv", 2, 2, "inf", ParseError,
     r"fixed_profiles\.csv:3: column 'mw' is not finite"),
    ("controllables.csv", 1, 3, "nan", ParseError,
     r"controllables\.csv:2: column 'max_mw' is not finite"),
    ("controllable_profiles.csv", 1, 1, "1.5", ParseError,
     r"controllable_profiles\.csv:2: column 't' value '1\.5' is not an integer"),
    ("flows.csv", 4, 1, "-1", ParseError,
     r"flows\.csv:5: t must be non-negative"),
    ("lines.csv", 3, 1, "0", SchemaError,
     r"lines\.csv:4: ratings must be positive"),
    ("lines.csv", 1, 2, "-0.5", SchemaError,
     r"lines\.csv:2: ratings must be positive"),
], ids=["non-finite-mw", "non-finite-max", "fractional-t", "negative-t",
        "zero-voltage", "negative-current"])
def test_bad_cell_names_file_and_line(network_dir, name, row, column, value,
                                      error, message):
    path = network_dir / name
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=message + "$"):
        load_network(network_dir)


@pytest.mark.parametrize("extra", [",999,oops", ","])
def test_row_with_more_cells_than_its_header_names_file_and_line(network_dir,
                                                                 extra):
    # csv.DictReader files the extra cells under the key None; unchecked, a
    # misaligned row loads as if its first cells were the header's columns
    path = network_dir / "controllables.csv"
    lines = path.read_text().splitlines()
    lines[2] += extra
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"controllables\.csv:3: row has more "
                       r"cells than the header's 4$"):
        load_network(network_dir)


@pytest.mark.parametrize("name, what", [("controllables.csv", "controllables"),
                                        ("lines.csv", "lines")])
def test_entity_files_need_unique_ids_and_a_row(network_dir, name, what):
    path = network_dir / name
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, first, *rest, first]) + "\n")
    with pytest.raises(SchemaError,
                       match=rf"{name}:{len(rest) + 3}: duplicate id"):
        load_network(network_dir)
    path.write_text(header + "\n")
    with pytest.raises(SchemaError, match=rf"{name}: no {what}$"):
        load_network(network_dir)


# -------------------------------------------------------------- aggregation


def test_aggregate_time_remainder_goes_to_last_window(network_dir):
    ds = load_network(network_dir)
    agg = aggregate_time(ds, 3)  # 8 = 2 + 2 + 4
    assert agg.raw_timepoints == 3
    assert np.allclose(agg.flows[0], ds.flows[0:2].mean(axis=0))
    assert np.allclose(agg.flows[1], ds.flows[2:4].mean(axis=0))
    assert np.allclose(agg.flows[2], ds.flows[4:8].mean(axis=0))
    assert np.allclose(agg.controllable_profiles[2],
                       ds.controllable_profiles[4:8].mean(axis=0))


def test_aggregate_time_identity_and_bounds(network_dir):
    ds = load_network(network_dir)
    same = aggregate_time(ds, 8)
    assert np.allclose(same.flows, ds.flows)
    with pytest.raises(ValueError):
        aggregate_time(ds, 0)
    with pytest.raises(ValueError):
        aggregate_time(ds, 9)


def test_compute_targets_floor_at_zero(network_dir):
    ds = load_network(network_dir)
    tau = compute_targets(ds)
    assert np.allclose(tau, np.maximum(ds.controllable_profiles.sum(axis=1), 0))
    assert (tau >= 0).all()


# ------------------------------------------------------------------- levels


def test_discretize_levels_values():
    assert discretize_levels(4.0, 10.0, 4).tolist() == [0.0, 4.0, 7.0, 10.0]
    assert discretize_levels(0.0, 9.0, 4).tolist() == [0.0, 3.0, 6.0, 9.0]
    assert discretize_levels(0.0, 5.0, 2).tolist() == [0.0, 5.0]


def test_discretize_levels_errors():
    with pytest.raises(BadLevelsError):
        discretize_levels(1.0, 10.0, 2)  # off state + min needs k >= 3
    with pytest.raises(BadLevelsError):
        discretize_levels(0.0, 10.0, 1)
    with pytest.raises(BadLevelsError):
        discretize_levels(-1.0, 10.0, 3)
    with pytest.raises(BadLevelsError):
        discretize_levels(5.0, 4.0, 3)


def test_sample_cost_rate_in_range_and_unknown_type():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rate = sample_cost_rate(rng, "Gas")
        assert 40.0 <= rate <= 100.0
    with pytest.raises(SchemaError, match="fusion"):
        sample_cost_rate(rng, "fusion")


# -------------------------------------------------------------- sensitivity


def test_sensitivity_recovers_planted_matrix():
    rng = np.random.default_rng(1)
    phi = rng.uniform(0.0, 50.0, size=(64, 6))
    S_true = rng.uniform(0.05, 0.6, size=(6, 4))
    fit = estimate_sensitivity(phi, phi @ S_true)
    rel = np.linalg.norm(fit.S - S_true) / np.linalg.norm(S_true)
    assert rel < 1e-3
    assert fit.loss_trace[-1] < 1e-6


def test_sensitivity_loss_monotone_with_default_step():
    rng = np.random.default_rng(2)
    phi = rng.uniform(0.0, 10.0, size=(40, 5))
    psi = phi @ rng.uniform(0.0, 0.5, size=(5, 3)) + rng.normal(0, 0.1, (40, 3))
    fit = estimate_sensitivity(phi, psi)
    trace = fit.loss_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert fit.converged


def test_sensitivity_clips_to_box():
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 10.0, size=(50, 4))
    S_true = np.full((4, 2), 1.5)  # outside the unit box
    fit = estimate_sensitivity(phi, phi @ S_true)
    assert fit.S.min() >= 0.0 and fit.S.max() <= 1.0
    assert np.allclose(fit.S, 1.0, atol=1e-6)


def _kkt_residual(phi, psi, S):
    """||S - clip(S - grad / lip, 0, 1)||_inf, recomputed from scratch."""
    grad = 2.0 * phi.T @ (phi @ S - psi)
    lip = 2.0 * np.linalg.norm(phi, 2) ** 2
    return np.abs(S - np.clip(S - grad / lip, 0.0, 1.0)).max()


def test_sensitivity_converges_on_noisy_negative_flows():
    # noisy flows around zero, so the fit predicts negative flows; this
    # input made the old negative-flow push raise the loss without end
    rng = np.random.default_rng(0)
    phi = rng.uniform(-60.0, 60.0, (25, 3))
    psi = phi @ rng.uniform(0.0, 0.6, (3, 1)) + rng.normal(0.0, 5.0, (25, 1))
    fit = estimate_sensitivity(phi, psi)
    assert fit.converged and fit.kkt_residual <= 1e-10
    assert _kkt_residual(phi, psi, fit.S) <= 1e-10
    assert fit.iterations <= 10


def test_sensitivity_rejects_negative_iteration_cap():
    with pytest.raises(ValueError, match="max_iterations"):
        estimate_sensitivity(np.ones((4, 2)), np.ones((4, 1)), max_iterations=-3)


def test_sensitivity_shape_mismatch():
    with pytest.raises(ValueError):
        estimate_sensitivity(np.zeros((4, 2)), np.zeros((5, 2)))


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(1, 24), st.integers(1, 20),
                       st.integers(1, 4)),
       seed=st.integers(0, 2**32 - 1),
       negative=st.booleans(),
       flows=st.sampled_from(["exact", "noisy", "out-of-box"]),
       cap=st.integers(0, 60))
def test_sensitivity_fit_properties(shape, seed, negative, flows, cap):
    # under- and over-determined phi; negative columns are loads
    T, n, L = shape
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 60.0, (T, n))
    if negative:
        phi[:, rng.random(n) < 0.5] *= -1.0
    S_true = rng.uniform(-0.5 if flows == "out-of-box" else 0.0,
                         1.5 if flows == "out-of-box" else 1.0, (n, L))
    psi = phi @ S_true
    if flows == "noisy":
        psi += rng.normal(0.0, 5.0, psi.shape)
    fit = estimate_sensitivity(phi, psi, max_iterations=cap)
    assert fit.S.min() >= 0.0 and fit.S.max() <= 1.0
    trace = fit.loss_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert len(trace) == fit.iterations + 1 <= cap + 1
    if fit.converged:
        assert fit.kkt_residual <= 1e-10
        assert _kkt_residual(phi, psi, fit.S) <= 1e-10


def _three_matmul_loop(phi, psi, max_iterations):
    """Plain projected gradient from S0 = eye with step 1 / lip: the loop
    estimate_sensitivity used before projected Newton, without the push.
    Returns the last iterate and the loss trace."""
    S = np.eye(phi.shape[1], psi.shape[1])
    lip = 2.0 * np.linalg.norm(phi, 2) ** 2
    trace = [float(((phi @ S - psi) ** 2).sum())]
    for _ in range(max_iterations):
        S = np.clip(S - 2.0 * phi.T @ (phi @ S - psi) / lip, 0.0, 1.0)
        trace.append(float(((phi @ S - psi) ** 2).sum()))
    return S, trace


@pytest.mark.parametrize("seed", [0, 1])
def test_sensitivity_fit_equals_three_matmul_loop(seed):
    # desk-shaped and under-determined, with negative injections (loads);
    # the flows are exact, so the optimum loss is 0 and both methods head
    # for the same predicted flows, the Newton fit in a few steps
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-40.0, 60.0, size=(16, 18))
    psi = phi @ rng.uniform(0.0, 0.6, size=(18, 20))
    fit = estimate_sensitivity(phi, psi, max_iterations=500)
    S, trace = _three_matmul_loop(phi, psi, 500)
    assert fit.converged and fit.iterations <= 20
    assert _kkt_residual(phi, psi, fit.S) <= 1e-10
    assert fit.loss_trace[0] == pytest.approx(trace[0], rel=1e-12)  # same start
    assert fit.loss_trace[-1] <= min(trace)
    assert np.allclose(phi @ fit.S, psi, rtol=0.0, atol=1e-9)
    assert all(b <= a + 1e-9 * a for a, b in zip(trace, trace[1:]))


def test_sensitivity_returns_best_iterate():
    rng = np.random.default_rng(5)
    phi = rng.uniform(0.0, 10.0, size=(30, 4))
    psi = phi @ rng.uniform(0.0, 0.5, size=(4, 2))
    fit = estimate_sensitivity(phi, psi, max_iterations=50)
    final = float(((phi @ fit.S - psi) ** 2).sum())
    assert final <= fit.loss_trace[0] + 1e-12
    assert final == pytest.approx(min(fit.loss_trace), rel=1e-9, abs=1e-12)


# ------------------------------------------------------------------- limits


def test_line_limits_thermal_arithmetic(network_dir):
    ds = load_network(network_dir)
    S_fixed = np.zeros((len(ds.fixed_ids), len(ds.lines)))
    limits = compute_line_limits(ds, S_fixed)
    rating = np.array([l.voltage_kv * l.max_current_ka * math.sqrt(3.0)
                       for l in ds.lines])
    assert np.allclose(limits, np.tile(rating, (8, 1)))
    S_fixed = np.full_like(S_fixed, 0.3)
    limits = compute_line_limits(ds, S_fixed)
    assert np.allclose(limits, rating[None, :] - ds.fixed_profiles @ S_fixed)
    with pytest.raises(ValueError):
        compute_line_limits(ds, np.zeros((1, 1)))


# ----------------------------------------------------------- instance build


def test_build_instance_deterministic_and_valid(network_dir):
    ds = load_network(network_dir)
    a = build_instance(ds, T=2, k=3, seed=0)
    b = build_instance(ds, T=2, k=3, seed=0)
    assert np.array_equal(a.p, b.p) and np.array_equal(a.c, b.c)
    assert np.array_equal(a.S, b.S) and np.array_equal(a.M, b.M)
    assert np.array_equal(a.tau, b.tau)
    assert a.T == 2 and a.k == 3 and a.n == 4 and a.L == 3
    compute_bounds(a)  # bounds must exist for the generated dataset
    c = build_instance(ds, T=2, k=3, seed=1)
    assert not np.array_equal(a.c, c.c)  # cost rates are the only randomness
    assert np.array_equal(a.p, c.p)


def test_build_instance_with_promotion(tmp_path):
    root = write_synthetic_network(tmp_path / "net", 3, 2, 6, n_fixed=4, seed=2)
    ds = load_network(root)
    nonneg = [(ds.fixed_profiles[:, e] >= 0).all()
              and ds.fixed_profiles[:, e].max() > 0
              for e in range(len(ds.fixed_ids))]
    promoted = sum(nonneg)
    assert promoted >= 1  # seed chosen so the dataset has a static generator
    inst = build_instance(ds, T=2, k=3, promote_statics=True)
    assert inst.n == 3 + promoted
    # promoted statics run free (zero cost) at either 0 or their peak
    for a in range(3, inst.n):
        assert inst.p[a, 0] == 0.0
        assert inst.p[a, 1] == inst.p[a, 2] > 0
        assert np.all(inst.c[:, a, :] == 0.0)


def test_build_instance_fits_once_per_dataset(tmp_path, monkeypatch):
    root = write_synthetic_network(tmp_path / "net", 3, 2, 6, n_fixed=4, seed=2)
    fits = []

    def counting_fit(*args, **kwargs):
        fit = estimate_sensitivity(*args, **kwargs)
        fits.append(fit)
        return fit

    monkeypatch.setattr(data_mod, "estimate_sensitivity", counting_fit)
    ds = load_network(root)
    built = [((seed, False), build_instance(ds, T=2, k=3, seed=seed))
             for seed in range(10)]
    assert len(fits) == 1
    built.append(((0, True),
                  build_instance(ds, T=2, k=3, promote_statics=True)))
    assert len(fits) == 2
    assert not any(fit.S.flags.writeable for fit in fits)

    # one fresh dataset per fit key, built in reverse seed order, so a
    # fresh fit is computed at another seed than the memoized one
    fresh = {}
    for (seed, promote), inst in reversed(built):
        if promote not in fresh:
            fresh[promote] = load_network(root)
        again = build_instance(fresh[promote], T=2, k=3, seed=seed,
                               promote_statics=promote)
        assert instance_to_dict(again) == instance_to_dict(inst), seed
    assert len(fits) == 4


def test_dataset_is_frozen_and_read_only(network_dir):
    ds = load_network(network_dir)
    for agg in (ds, aggregate_time(ds, 2)):
        with pytest.raises(ValueError):
            agg.flows[0, 0] = 1.0
        with pytest.raises(ValueError):
            agg.controllable_profiles[0, 0] = 1.0
        with pytest.raises(ValueError):
            agg.fixed_profiles[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.flows = np.zeros_like(ds.flows)


def test_cost_rates_follow_type_table(network_dir):
    ds = load_network(network_dir)
    inst = build_instance(ds, T=2, k=3, seed=3)
    from redispatch.data import DEFAULT_COST_TABLE

    for a, res in enumerate(ds.controllables):
        lo, hi = DEFAULT_COST_TABLE[res.type_tag]
        levels = inst.p[a]
        implied = inst.c[0, a, 1:] / levels[1:]
        positive = levels[1:] > 0
        assert np.all(implied[positive] >= lo - 1e-9)
        assert np.all(implied[positive] <= hi + 1e-9)
        assert inst.c[0, a, 0] == 0.0


# ---------------------------------------------------------------- synthetic


def test_synth_instance_planted_is_cost_optimum():
    inst, planted = synth_instance(n=2, k=3, T=2, L=2, seed=0,
                                   weights=(0.0, 0.0, 1.0, 0.0))
    assert first_adjacency_violation(planted) is None
    # costs vanish exactly at the planted states
    t_idx = np.arange(inst.T)[:, None]
    a_idx = np.arange(inst.n)[None, :]
    assert np.all(inst.c[t_idx, a_idx, planted - 1] == 0.0)
    q = build_objective(inst)
    x = encode_one_hot(planted, inst.T, inst.n, inst.k)
    floor = -inst.T * inst.n
    assert q.evaluate(x) == pytest.approx(floor)
    import itertools

    for states in itertools.product(range(1, inst.k + 1),
                                    repeat=inst.T * inst.n):
        Z = np.array(states).reshape(inst.T, inst.n)
        x_other = encode_one_hot(Z, inst.T, inst.n, inst.k)
        assert q.evaluate(x_other) >= floor - 1e-12


def test_synth_instance_bounds_admit_its_plant():
    inst, planted = synth_instance(n=2, k=3, T=2, L=1, seed=1)
    assert planted.shape == (2, 2)
    compute_bounds(inst)  # feasible margins by construction


def test_synth_instance_deterministic():
    a, plant_a = synth_instance(n=3, k=4, T=3, L=2, seed=7)
    b, plant_b = synth_instance(n=3, k=4, T=3, L=2, seed=7)
    assert np.array_equal(plant_a, plant_b)
    assert np.array_equal(a.c, b.c) and np.array_equal(a.M, b.M)


# ------------------------------------------------------------ serialization


def test_instance_json_round_trip_and_stable_bytes(tmp_path):
    inst, _ = synth_instance(n=2, k=3, T=2, L=2, seed=9)
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_instance(path_a, inst)
    save_instance(path_b, inst)
    assert path_a.read_bytes() == path_b.read_bytes()
    back = load_instance(path_a)
    assert back.T == inst.T and back.n == inst.n
    assert np.array_equal(back.p, inst.p)
    assert np.array_equal(back.c, inst.c)
    assert np.array_equal(back.S, inst.S)
    assert np.array_equal(back.M, inst.M)
    assert np.array_equal(back.tau, inst.tau)
    assert back.weights == inst.weights


def test_instance_dict_round_trip_defaults():
    inst, _ = synth_instance(n=2, k=3, T=2, L=1, seed=4)
    doc = instance_to_dict(inst)
    doc.pop("gamma")
    doc.pop("s_box")
    back = instance_from_dict(doc)
    assert back.gamma == 1.0 and back.s_box == (0.0, 1.0)


# the MW columns of each network file, and the line rating (kV * kA gives MW)
MW_COLUMNS = {"controllables.csv": ("min_mw", "max_mw"),
              "controllable_profiles.csv": ("mw",),
              "fixed_profiles.csv": ("mw",), "flows.csv": ("mw",),
              "lines.csv": ("max_current_ka",)}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), lines=st.integers(1, 3), fixed=st.integers(0, 3),
       seed=st.integers(0, 2**16), j=st.integers(-4, 4))
def test_power_of_two_units_leave_the_csv_objective_bits(tmp_path_factory, n,
                                                         lines, fixed, seed, j):
    # every MW figure of the files times 2^j, exact in binary: the fit, the
    # bounds and the score spans scale with it, so no objective bit moves
    root = tmp_path_factory.mktemp("units")
    nets = [write_synthetic_network(root / name, n, lines, 8, n_fixed=fixed,
                                    seed=seed) for name in ("one", "scaled")]
    for name, columns in MW_COLUMNS.items():
        header, *rows = (nets[1] / name).read_text().splitlines()
        at = [header.split(",").index(col) for col in columns]
        cells = [row.split(",") for row in rows]
        for row in cells:
            for i in at:
                row[i] = repr(float(row[i]) * 2.0**j)
        (nets[1] / name).write_text(
            "\n".join([header, *map(",".join, cells)]) + "\n")
    for preset in SIZE_PRESETS.values():
        objectives = []
        for net in nets:
            try:  # a network the writer makes unbuildable fails alike scaled
                objectives.append(composed_objective(build_instance(
                    load_network(net), seed=seed, **preset)))
            except ValueError as exc:
                objectives.append(type(exc))
        assert objectives[0] == objectives[1], preset
