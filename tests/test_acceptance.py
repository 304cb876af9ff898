"""Acceptance suite: one test per shipped claim, tolerances and budgets pinned.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per criterion.
"""

import itertools
import json
import time

import numpy as np
import pytest

from redispatch.alphaexp import StateChange, alpha_expansion, build_alpha_qubo, rectify
from redispatch.cli import main
from redispatch.data import (
    build_instance,
    estimate_sensitivity,
    load_network,
    synth_instance,
    write_synthetic_network,
)
from redispatch.decomposers import DecomposeConfig, decompose_loop
from redispatch.encodings import (
    build_adjacency_qubo,
    build_cost_qubo,
    build_load_qubo,
    build_objective,
    build_onehot_qubo,
    build_power_qubo,
    build_switch_qubo,
    extremal_schedules,
    extremal_scores,
)
from redispatch.model import (
    decode_one_hot,
    encode_one_hot,
    first_adjacency_violation,
)
from redispatch.qubo import normalize_range
from redispatch.solvers import Budget, SolveRequest, brute_force, tabu_search

from oracles import (apply_cycle, load_penalty, power_penalty,
                     production_cost, switching_cost)
from test_encodings import random_instance


@pytest.fixture(scope="module")
def desk_dir(tmp_path_factory):
    """Shared desk-scale network: 12 controllables, 20 lines, 16 timepoints."""
    root = tmp_path_factory.mktemp("desk")
    return write_synthetic_network(root / "net", n_controllables=12,
                                   n_lines=20, raw_timepoints=16,
                                   n_fixed=6, seed=0)


def test_criterion_1_scalar_matrix_agreement():
    """All six builders equal their scalar oracles to 1e-9*(1+|oracle|)."""
    started = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(10):
        inst = random_instance(rng)  # n<=4, k<=4, T<=4, L<=3
        assert inst.n <= 4 and inst.k <= 4 and inst.T <= 4 and inst.L <= 3
        q_onehot = build_onehot_qubo(inst.T, inst.n, inst.k)
        q_adj = build_adjacency_qubo(inst.T, inst.n, inst.k)
        qg = build_power_qubo(inst)
        qh = build_load_qubo(inst)
        qc = build_cost_qubo(inst)
        qs = build_switch_qubo(inst)
        for _ in range(200):
            Z = rng.integers(1, inst.k + 1, size=(inst.T, inst.n))
            x = encode_one_hot(Z, inst.T, inst.n, inst.k)
            jumps = sum(1 for t in range(inst.T - 1) for a in range(inst.n)
                        if abs(Z[t + 1, a] - Z[t, a]) > 1)
            pairs = (
                (q_onehot, -float(inst.T * inst.n)),
                (q_adj, float(jumps)),
                (qg, power_penalty(inst, x)),
                (qh, load_penalty(inst, x)),
                (qc, production_cost(inst, Z)),
                (qs, switching_cost(inst, Z) / inst.gamma),
            )
            for q, oracle in pairs:
                assert abs(q.evaluate(x) - oracle) <= 1e-9 * (1 + abs(oracle))
    assert time.monotonic() - started < 10.0


def test_criterion_2_hard_constraint_certificates():
    """Exhaustively: assignment floor only on one-hot; jump count exact."""
    started = time.monotonic()
    T, n, k = 2, 2, 3  # 12 binary variables, fully enumerable
    qh = build_onehot_qubo(T, n, k)
    floor = -T * n
    dim = T * n * k
    for v in range(1 << dim):
        x = np.array([(v >> b) & 1 for b in range(dim)], dtype=np.int8)
        one_hot = np.all(x.reshape(T * n, k).sum(axis=1) == 1)
        score = qh.evaluate(x)
        assert (score == floor) == one_hot
        assert score >= floor

    T, n, k = 3, 2, 3
    qa = build_adjacency_qubo(T, n, k)
    for states in itertools.product(range(1, k + 1), repeat=T * n):
        Z = np.array(states).reshape(T, n)
        expected = sum(1 for t in range(T - 1) for a in range(n)
                       if abs(Z[t + 1, a] - Z[t, a]) > 1)
        assert qa.evaluate(encode_one_hot(Z, T, n, k)) == expected
    assert time.monotonic() - started < 30.0


def test_criterion_3_planted_recovery():
    """Brute force finds every planted optimum; tabu matches on >=95% of runs."""
    started = time.monotonic()
    shapes = [(2, 2, 3), (2, 2, 4), (2, 1, 4), (1, 3, 4), (2, 3, 2)]
    tabu_hits = 0
    tabu_runs = 0
    for idx in range(20):
        T, n, k = shapes[idx % len(shapes)]
        assert T * n * k <= 16
        inst, planted = synth_instance(n=n, k=k, T=T, L=2, seed=100 + idx,
                                       weights=(0.0, 0.0, 1.0, 0.0))
        cost = build_cost_qubo(inst)
        lo, hi = extremal_scores(inst, "cost", cost)
        guard = 10.0 * max(1.0, abs(hi - lo))
        q = build_objective(inst, extra_hard_weight=guard)
        res = brute_force(SolveRequest(qubo=q))
        assert res.best.tolist() == encode_one_hot(
            planted, T, n, k).tolist()
        assert res.score == pytest.approx(-guard * T * n, rel=1e-12)
        for seed in range(10):
            r = tabu_search(SolveRequest(
                qubo=q, seed=seed, budget=Budget(max_iterations=2000)))
            tabu_runs += 1
            tabu_hits += int(abs(r.score - res.score) <= 1e-9)
    assert tabu_hits >= 0.95 * tabu_runs
    assert time.monotonic() - started < 120.0


def test_criterion_4_move_reduction_contract():
    """Move-selection QUBO is an exact delta; descent stays feasible."""
    started = time.monotonic()
    rng = np.random.default_rng(1)
    # contract: every subset of up to 3 disjoint rectified moves
    for trial in range(5):
        inst = random_instance(rng, T=3, n=3, k=3, L=2)
        q = build_objective(inst)
        Z = np.full((inst.T, inst.n), 2)
        x = encode_one_hot(Z, inst.T, inst.n, inst.k)
        cycles = [rectify(Z, StateChange(0, 0, 3), inst.k),
                  rectify(Z, StateChange(1, 1, 1), inst.k),
                  rectify(Z, StateChange(2, 2, 3), inst.k)]
        for c in (1, 2, 3):
            reduced = build_alpha_qubo(q, x, cycles[:c])
            base = q.evaluate(x)
            for bits in itertools.product((0, 1), repeat=c):
                moved = x
                for sel, cyc in zip(bits, cycles):
                    if sel:
                        moved = apply_cycle(cyc, moved)
                delta = q.evaluate(moved) - base
                assert abs(reduced.evaluate(np.array(bits)) - delta) <= 1e-9

    # pinned rectification examples
    c = rectify(np.array([[1], [1], [1]]), StateChange(1, 0, 3), k=3)
    Z2 = decode_one_hot(apply_cycle(c, encode_one_hot(
        np.array([[1], [1], [1]]), 3, 1, 3)), 3, 1, 3)
    assert Z2.ravel().tolist() == [2, 3, 2]
    c = rectify(np.array([[1], [1], [1], [1]]), StateChange(0, 0, 4), k=4)
    Z2 = decode_one_hot(apply_cycle(c, encode_one_hot(
        np.array([[1], [1], [1], [1]]), 4, 1, 4)), 4, 1, 4)
    assert Z2.ravel().tolist() == [4, 3, 2, 1]
    c = rectify(np.array([[5], [5], [5]]), StateChange(0, 0, 1), k=5)
    Z2 = decode_one_hot(apply_cycle(c, encode_one_hot(
        np.array([[5], [5], [5]]), 3, 1, 5)), 3, 1, 5)
    assert Z2.ravel().tolist() == [1, 2, 3]

    # full search: trace never increases and every candidate iterate the
    # search decodes (accepted ones included) is one-hot and adjacency
    # feasible, observed by instrumenting the decode hook
    import redispatch.alphaexp as alphaexp_module

    inst = random_instance(rng, T=4, n=3, k=4, L=2)
    q = build_objective(inst)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    real_decode = alphaexp_module.decode_one_hot
    seen_schedules = []

    def recording_decode(x, T, n, k):
        Z = real_decode(x, T, n, k)  # raises unless one-hot
        assert first_adjacency_violation(Z) is None
        seen_schedules.append(Z)
        return Z

    alphaexp_module.decode_one_hot = recording_decode
    try:
        res = alpha_expansion(inst, q, x0, batch_size=6, seed=0)
    finally:
        alphaexp_module.decode_one_hot = real_decode
    assert len(seen_schedules) > 1
    Z = decode_one_hot(res.best, inst.T, inst.n, inst.k)
    assert first_adjacency_violation(Z) is None
    scores = [s for _, s in res.trace]
    assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))
    assert time.monotonic() - started < 60.0


def test_criterion_5_penalty_normalization_study(desk_dir, tmp_path):
    """Normalized penalties overload fewer lines, beyond one standard deviation."""
    from redispatch.experiments import ExperimentSettings, run_penalty_norm

    started = time.monotonic()
    ds = load_network(desk_dir)
    settings = ExperimentSettings(T=2, k=3, seeds=tuple(range(10)),
                                  tabu_iterations=4000)
    summary = run_penalty_norm(ds, settings, tmp_path)
    base = summary["baseline"]
    norm = summary["normalized"]
    assert (norm["overloads_mean"] + norm["overloads_std"]
            < base["overloads_mean"] - base["overloads_std"])
    assert time.monotonic() - started < 300.0


def test_criterion_6_score_normalization_ranges(desk_dir):
    """All four normalized terms live in [0, 1]; extremes score exactly 0 and 1."""
    started = time.monotonic()
    ds = load_network(desk_dir)
    inst = build_instance(ds, T=2, k=3, seed=0)
    terms = {
        "power": build_power_qubo(inst),
        "load": build_load_qubo(inst),
        "cost": build_cost_qubo(inst),
        "switch": build_switch_qubo(inst),
    }
    rng = np.random.default_rng(0)
    sample = np.stack([
        encode_one_hot(rng.integers(1, inst.k + 1, size=(inst.T, inst.n)),
                       inst.T, inst.n, inst.k)
        for _ in range(1000)
    ])
    ones = inst.T * inst.n
    for name, q in terms.items():
        lo, hi = extremal_scores(inst, name, q)
        nq = normalize_range(q, lo, hi, ones)
        scores = nq.evaluate_many(sample)
        assert scores.min() >= -1e-9 and scores.max() <= 1 + 1e-9
        z_lo, z_hi = extremal_schedules(inst, name)
        assert nq.evaluate(encode_one_hot(
            z_lo, inst.T, inst.n, inst.k)) == pytest.approx(0.0, abs=1e-9)
        assert nq.evaluate(encode_one_hot(
            z_hi, inst.T, inst.n, inst.k)) == pytest.approx(1.0, abs=1e-9)
    assert time.monotonic() - started < 30.0


def test_criterion_7_large_preset_feasible_descent(desk_dir):
    """Large preset, 60s cap: cycle moves stay feasible and beat the baseline."""
    from redispatch.experiments import composed_objective

    started = time.monotonic()
    ds = load_network(desk_dir)
    wins = 0
    for seed in range(10):
        inst = build_instance(ds, T=8, k=5, seed=seed, promote_statics=True)
        q = composed_objective(inst)
        x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                            inst.T, inst.n, inst.k)
        res_a = alpha_expansion(
            inst, q, x0, batch_size=12,
            budget=Budget(max_iterations=50, time_limit=60.0), seed=seed)
        try:
            Z = decode_one_hot(res_a.best, inst.T, inst.n, inst.k)
            feasible = first_adjacency_violation(Z) is None
        except ValueError:
            feasible = False
        res_r = decompose_loop(q, x0, DecomposeConfig(
            subproblem_size=40, strategy="random", max_steps=60,
            time_limit=60.0, seed=seed))
        wins += int(feasible and res_a.score <= res_r.score + 1e-9)
    assert wins >= 8
    assert time.monotonic() - started < 1500.0


def test_criterion_8_sensitivity_recovery():
    """Projected gradient recovers a planted mapping to 1e-3 relative error."""
    started = time.monotonic()
    rng = np.random.default_rng(0)
    phi = rng.uniform(0.0, 50.0, size=(64, 8))
    S_true = rng.uniform(0.05, 0.6, size=(8, 5))
    fit = estimate_sensitivity(phi, phi @ S_true)
    rel = np.linalg.norm(fit.S - S_true) / np.linalg.norm(S_true)
    assert rel < 1e-3
    trace = fit.loss_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert time.monotonic() - started < 60.0


def test_criterion_9_reproducible_cli_reports(tmp_path, capsys):
    """Re-running a CLI command with equal manifest inputs rewrites equal bytes."""
    net = write_synthetic_network(tmp_path / "net", 3, 2, 6, n_fixed=2, seed=0)
    inst_path = tmp_path / "inst.json"
    assert main(["build-instance", "--synthetic", "3,3,2,2", "--T", "2",
                 "--k", "3", "--seed", "4", "--out", str(inst_path)]) == 0

    def run_twice(args, names):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{args[0]}-{args[1] if args[0]=='experiment' else 'x'}-{tag}"
            assert main(args + ["--out-dir", str(out)]) == 0
            dirs.append(out)
        a, b = dirs
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        manifest_a = json.loads((a / "MANIFEST.json").read_text())
        manifest_b = json.loads((b / "MANIFEST.json").read_text())
        assert manifest_a["config_hash"] == manifest_b["config_hash"]

    run_twice(["solve", "--instance", str(inst_path), "--solver", "tabu",
               "--max-iterations", "400", "--seed", "2"],
              ["solution.json", "report.csv", "trace.csv"])
    run_twice(["solve", "--instance", str(inst_path), "--solver", "alpha",
               "--max-iterations", "30", "--seed", "2"],
              ["solution.json", "report.csv", "trace.csv"])
    run_twice(["experiment", "penalty-norm", "--data-dir", str(net),
               "--seeds", "0,1", "--max-iterations", "400"],
              ["penalty_norm.csv", "penalty_norm_summary.csv"])
    run_twice(["estimate-sensitivity", "--data-dir", str(net),
               "--max-iterations", "500"],
              ["sensitivity.csv", "fit_loss.csv"])
