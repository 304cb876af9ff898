"""Registry of hand-written mutants, and a runner that checks the tests kill them.

Each entry names a file of the repository, an anchor (exact text that occurs
once in that file), the text that replaces it, and the test node ids that
must fail on the mutated copy.  `tests/test_mutants.py` checks that every
anchor still occurs exactly once, so a change that moves or rewrites the
code updates its entry in the same diff.

Run from the root of a checkout (standard library only):

    python tests/mutants.py                  # every mutant
    python tests/mutants.py --only NAME ...  # the named mutants

Each mutant gets a fresh copy of src/, tests/, perfbench/ and pyproject.toml
in a temporary directory, where its listed tests run under pytest with -x.
A mutant is killed when pytest reports a failed test (exit status 1); a
collection or usage error (a node id that no longer exists, say) is
reported as an error, not as a kill.  The runner prints one line per mutant
and exits 1 unless every mutant was killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    anchor: str
    replacement: str
    tests: tuple[str, ...]


DATA, MODEL = "src/redispatch/data.py", "src/redispatch/model.py"
TEST_DATA = "tests/test_data.py::"
PROPERTY = "tests/test_cli.py::test_every_dataset_builds_or_exits_2"
SOLVERS = "src/redispatch/solvers.py"
JUMP = ("tests/test_solvers.py::"
        "test_tabu_list_kernel_skips_whole_periods_of_a_repeated_state")
DESK_GRID = ("tests/test_solvers.py::"
             "test_desk_tabu_walks_on_the_grid_and_scores_on_the_qubo")
ENUMERATION = ("tests/test_solvers.py::"
               "test_brute_force_equals_evaluate_many_enumeration")
ALPHA, TEST_ALPHA = "src/redispatch/alphaexp.py", "tests/test_alphaexp.py::"
PINNED = "tests/test_pinned_outputs.py::test_outputs_are_pinned"
QUBO, TEST_QUBO = "src/redispatch/qubo.py", "tests/test_qubo.py::"
DECOMP, TEST_DECOMP = ("src/redispatch/decomposers.py",
                       "tests/test_decomposers.py::")
ENCODINGS = "src/redispatch/encodings.py"
FREE_BITS = ("tests/test_decomposers.py::"
             "test_tabu_on_free_bits_matches_tabu_on_the_clamp")
BAD_INPUT = "tests/test_cli.py::test_bad_input_exits_2"
CRITERION_1 = ("tests/test_acceptance.py::"
               "test_criterion_1_scalar_matrix_agreement")

MUTANTS: dict[str, Mutant] = {
    # found by hand on the whole suite before this registry existed
    "read-out-skips-adjacency": Mutant(
        "src/redispatch/experiments.py",
        "return Z, one_hot and is_adjacent_feasible(Z), evaluate_schedule(inst, Z)",
        "return Z, one_hot, evaluate_schedule(inst, Z)",
        ("tests/test_experiments.py::"
         "test_read_out_flags_a_jump_of_two_states_infeasible",)),
    "aggregate-drops-remainder": Mutant(
        DATA, "bounds = [i * width for i in range(T)] + [ds.raw_timepoints]",
        "bounds = [i * width for i in range(T)] + [T * width]",
        (TEST_DATA + "test_aggregate_time_remainder_goes_to_last_window",)),
    "adjacency-allows-two-states": Mutant(
        MODEL, "jumps = np.abs(np.diff(Z.astype(int), axis=0)) > 1",
        "jumps = np.abs(np.diff(Z.astype(int), axis=0)) > 2",
        ("tests/test_model.py::test_adjacency_violation_detection",)),
    "tabu-aspiration-sign": Mutant(
        SOLVERS,
        "if d < low and (tabu_until[j] < it or score + d < bar):",
        "if d < low and (tabu_until[j] < it or score - d < bar):",
        ("tests/test_solvers.py::test_tabu_list_kernel_matches_array_path",)),
    # the list kernel's jump over whole periods of a repeated walk state
    "tabu-jump-to-limit": Mutant(
        SOLVERS, "skip = (limit - it) // period * period", "skip = limit - it",
        (JUMP,)),
    "tabu-jump-keeps-tabu-windows": Mutant(
        SOLVERS, "            tabu_until = [u + skip for u in tabu_until]\n", "",
        (JUMP,)),
    "tabu-state-without-incumbent": Mutant(
        SOLVERS, "    floats.append(best_score)\n", "",
        ("tests/test_solvers.py::"
         "test_tabu_list_kernel_walks_on_from_a_state_with_a_new_incumbent",)),
    # tabu walks on the grid up to _SMALL_DIM and scores on the caller's QUBO
    "tabu-scores-result-on-grid": Mutant(
        SOLVERS, "return walk.result(it, req.qubo)",
        "return walk.result(it, walk.qubo)", (DESK_GRID,)),
    "tabu-grid-skipped-below-small-dim": Mutant(
        SOLVERS, "_Walk(replace(req, qubo=round_to_grid(q)))", "_Walk(req)",
        (DESK_GRID,
         "tests/test_solvers.py::test_desk_tabu_skips_repeated_periods")),
    "decompose-merges-only-gains": Mutant(
        DECOMP, "merge = result.score <= score + 1e-12 * (1.0 + abs(score))",
        "merge = result.score < score",
        (TEST_DECOMP + "test_zero_gain_move_merges_a_few_ulps_above",)),
    # the decomposer's exact grid: rounding, and where the loop uses it
    "grid-offset-unrounded": Mutant(
        QUBO, "float(np.rint(q.offset / g)) * g)", "q.offset)",
        (TEST_QUBO + "test_round_to_grid_moves_each_value_by_half_a_step",
         TEST_QUBO + "test_clamp_of_a_gridded_qubo_stays_on_its_grid")),
    "grid-eight-times-finer": Mutant(
        QUBO, "math.frexp(total)[1] - 51)", "math.frexp(total)[1] - 54)",
        (TEST_QUBO + "test_round_to_grid_moves_each_value_by_half_a_step",
         TEST_QUBO + "test_round_to_grid_drops_terms_below_half_a_step")),
    "decompose-scores-result-on-grid": Mutant(
        DECOMP, "score=qubo.evaluate(x)", "score=grid.evaluate(x)",
        (TEST_DECOMP + "test_scores_never_increase_and_merge_is_consistent",
         TEST_DECOMP + "test_trace_logs_only_true_improvements")),
    # tabu steps walk the free bits from the grid's coupling lists
    "sub-walk-keeps-upper-couplings": Mutant(
        SOLVERS, "keep = local >= 0", "keep = local > owner",
        (FREE_BITS,)),
    "sub-walk-deltas-without-diagonal": Mutant(
        SOLVERS, "inner = diag[free] + np.bincount(", "inner = np.bincount(",
        (FREE_BITS,)),
    "decompose-walks-unrounded-lists": Mutant(
        DECOMP, "adjacency = grid.adjacency()", "adjacency = qubo.adjacency()",
        (TEST_DECOMP + "test_desk_sub_walks_skip_repeated_periods",
         TEST_DECOMP + "test_trace_logs_only_true_improvements")),
    "decompose-clamps-original": Mutant(
        DECOMP, "sub, _ = grid.clamp(x, free)", "sub, _ = qubo.clamp(x, free)",
        (TEST_DECOMP + "test_exhaustive_steps_clamp_the_grid",)),
    # the one report: a zero target counts as met, and switches are changes
    "mean-fulfillment-of-finite-ratios": Mutant(
        MODEL, "float(ratios[positive].mean()) if positive.any() else 1.0,",
        "float(ratios[np.isfinite(ratios)].mean()),",
        ("tests/test_model.py::"
         "test_zero_target_renders_finite_or_inf_never_nan",
         "tests/test_cli.py::"
         "test_penalty_norm_on_zero_targets_writes_finite_cells")),
    "switches-count-every-transition": Mutant(
        MODEL, "switched = np.count_nonzero(np.diff(Z, axis=0), axis=1)",
        "switched = np.full(inst.T - 1, inst.n)",
        ("tests/test_model.py::test_cost_and_switch_metrics_hand_values",)),
    # decode_one_hot and read_schedule count a block's bits in one reader
    "block-reader-caps-counts-at-one": Mutant(
        MODEL, "return blocks @ np.ones(k, dtype=np.int64),",
        "return np.minimum(blocks @ np.ones(k, dtype=np.int64), 1),",
        ("tests/test_model.py::test_decode_flags_empty_and_double_blocks",)),
    # a promoted static is marked by its position, not a tag a dataset writes
    "static-tag-marks-promotion": Mutant(
        DATA, "        if a < listed:\n",
        '        if res.type_tag != "static":\n',
        ("tests/test_cli.py::test_controllable_of_type_static_exits_2",)),
    "fulfilled-needs-surplus": Mutant(
        MODEL, "fulfilled_timepoints=int(np.count_nonzero(ratios >= 1.0)),",
        "fulfilled_timepoints=int(np.count_nonzero(ratios > 1.0)),",
        ("tests/test_model.py::"
         "test_zero_target_renders_finite_or_inf_never_nan",)),
    "hard-weight-without-floor": Mutant(
        "src/redispatch/experiments.py", "return 10.0 * max(1.0, soft_span)",
        "return 10.0 * soft_span",
        ("tests/test_experiments.py::"
         "test_hard_weight_floors_the_soft_span_at_one",)),
    # one per check of the dataset reader
    "reader-missing-file": Mutant(
        DATA, "    if not path.exists():\n", "    if False:\n",
        (TEST_DATA + "test_missing_file_names_the_file",)),
    "reader-missing-column": Mutant(
        DATA, "            if col not in header:\n", "            if False:\n",
        (TEST_DATA + "test_missing_column_is_reported",)),
    "reader-non-numeric-cell": Mutant(
        DATA, "    except (TypeError, ValueError) as exc:\n        noun",
        "    except TypeError as exc:\n        noun",
        (TEST_DATA + "test_bad_number_reports_file_and_line",)),
    "reader-non-finite-cell": Mutant(
        DATA, "    if not -math.inf < val < math.inf:\n", "    if False:\n",
        (TEST_DATA + "test_bad_cell_names_file_and_line",)),
    "reader-non-integer-t": Mutant(
        DATA, 't = _cell(row, "t", path, int)', 't = int(_cell(row, "t", path))',
        (TEST_DATA + "test_bad_cell_names_file_and_line",)),
    "reader-negative-t": Mutant(
        DATA, "        if t < 0:\n", "        if False:\n",
        (TEST_DATA + "test_bad_cell_names_file_and_line",)),
    "reader-unknown-id": Mutant(
        DATA, "        if ident not in pos:\n", "        if False:\n",
        (TEST_DATA + "test_unknown_series_id_rejected",)),
    "reader-duplicate-cell": Mutant(
        DATA, "        if key in cells:\n", "        if False:\n",
        (TEST_DATA + "test_duplicate_cell_rejected",)),
    "reader-full-grid": Mutant(
        DATA, "    if len(cells) != raw_t * len(ids):\n", "    if False:\n",
        (TEST_DATA + "test_incomplete_grid_rejected",)),
    "reader-duplicate-entity": Mutant(
        DATA, '        if row["id"] in seen:\n', "        if False:\n",
        (TEST_DATA + "test_duplicate_id_rejected",
         TEST_DATA + "test_entity_files_need_unique_ids_and_a_row")),
    "reader-empty-entity-file": Mutant(
        DATA, "    if not out:\n", "    if False:\n",
        (TEST_DATA + "test_entity_files_need_unique_ids_and_a_row",)),
    "reader-min-above-max": Mutant(
        DATA, "lambda lo, hi: 0 <= lo <= hi", "lambda lo, hi: 0 <= lo",
        (TEST_DATA + "test_inverted_rating_rejected",)),
    "reader-positive-ratings": Mutant(
        DATA, "lambda volt, amp: volt > 0 and amp > 0", "lambda volt, amp: volt > 0",
        (TEST_DATA + "test_bad_cell_names_file_and_line",)),
    "reader-short-row": Mutant(
        DATA, "            if None in row.values():", "            if False:",
        (PROPERTY,)),
    "reader-time-axes": Mutant(
        DATA, "    if not raw_t == len(fixed_profiles) == len(flows):\n",
        "    if False:\n",
        (TEST_DATA + "test_mismatched_time_axes_rejected",)),
    # an overflowing dataset is bad input (exit 2), not a runtime failure
    "overflow-is-runtime-error": Mutant(
        MODEL, 'raise NonFiniteError(f"{name} contains non-finite entries")',
        'raise ValueError(f"{name} contains non-finite entries")',
        (PROPERTY,)),
    "fit-overflow-is-a-fit": Mutant(
        DATA, "if not (math.isfinite(trace[-1]) and np.isfinite(grad).all()):",
        "if False:", (PROPERTY,)),
    "reader-extra-cells": Mutant(
        DATA, "            if None in row:  #", "            if False:  #",
        (PROPERTY, TEST_DATA + "test_row_with_more_cells_than_its_header"
         "_names_file_and_line")),
    # alpha hands a batch of more than 20 moves to tabu search
    "alpha-brute-above-20": Mutant(
        ALPHA, "if reduced.dim <= 20", "if reduced.dim <= 40",
        (TEST_ALPHA + "test_alpha_solves_batches_above_20_moves_by_tabu",)),
    # alpha's step: proposing over rows of ints, the move QUBO, the accept path
    "rectify-pulls-to-far-side": Mutant(
        ALPHA, "pulled = inner - 1 if orig < inner else inner + 1",
        "pulled = inner + 1 if orig < inner else inner - 1",
        (TEST_ALPHA + "test_rectify_pull_lands_on_side_of_original_state",)),
    "alpha-window-never-widens": Mutant(
        ALPHA, "if len(batch) == batch_size or len(head) == len(pool):",
        "if True:", (PINNED,)),
    "move-qubo-bit-moved-twice": Mutant(
        ALPHA, "    if len(set(old + new)) != 2 * len(old):\n",
        "    if False:\n",
        (TEST_ALPHA + "test_alpha_qubo_rejects_overlapping_cycles",)),
    "fields-refresh-skips-next-row": Mutant(
        ENCODINGS,
        "start, stop = max(start - 1, 0), min(stop + 1, T)",
        "start, stop = max(start - 1, 0), stop",
        (TEST_ALPHA + "test_refreshed_fields_have_the_bits_of_a_full_recompute",)),
    # brute force by halves, rescored exactly
    "brute-rescore-without-margin": Mutant(
        SOLVERS, "limit = min(lows) + 8 * (q.num_terms + 1) * 2.0 ** -53 * total",
        "limit = min(lows)", (ENUMERATION,)),
    "brute-halves-without-cross-terms": Mutant(
        SOLVERS, 'S = np.einsum("hj,lj->hl", XH[h:h + per], G)',
        "S = np.zeros((len(XH[h:h + per]), len(G)))",
        ("tests/test_solvers.py::test_brute_force_matches_enumeration",
         ENUMERATION)),
    "brute-halves-despite-overflow": Mutant(
        SOLVERS, "if total < 2.0 ** 1000:", "if True:",
        ("tests/test_solvers.py::"
         "test_brute_force_rescores_every_vector_when_sums_overflow",)),
    # the package holds only what runs; criterion 1 checks the penalty
    # builders against the scalar oracles the tests keep
    "src-helper-without-caller": Mutant(
        ENCODINGS, "def build_onehot_qubo(T: int, n: int, k: int) -> Qubo:",
        "def penalty_scalar(h: float) -> float:\n"
        "    return 1.0 - h + 0.5 * h * h\n\n\n"
        "def build_onehot_qubo(T: int, n: int, k: int) -> Qubo:",
        ("tests/test_imports.py::"
         "test_every_definition_runs_outside_the_tests",)),
    "power-penalty-quad-doubled": Mutant(
        ENCODINGS, "(0.5 * f * f)[:, None])", "(f * f)[:, None])",
        (CRITERION_1,)),
    "load-penalty-quad-doubled": Mutant(
        ENCODINGS, "f - f * f * m, 0.5 * f * f)", "f - f * f * m, f * f)",
        (CRITERION_1,)),
    # counts are integers: the old check let a whole float through
    "instance-accepts-float-dims": Mutant(
        MODEL, "object.__setattr__(self, name, _count(getattr(self, name), name, 1))",
        "val = getattr(self, name)\n"
        "            if int(val) != val or val < 1:\n"
        "                raise ValueError(f\"{name} must be a positive integer\")\n"
        "            object.__setattr__(self, name, val)",
        (BAD_INPUT,)),
    # the package owns its argument rules: a rejected argument is an
    # InputError (exit 2), and no command line copy backs a rule up
    "solve-time-limit-0-means-none": Mutant(
        "src/redispatch/cli.py",
        "math.inf if args.time_limit is None else args.time_limit",
        "args.time_limit or math.inf",
        (BAD_INPUT,)),
    "budget-rejects-with-plain-value-error": Mutant(
        SOLVERS, '_count(self.max_iterations, "max_iterations")',
        "if self.max_iterations < 0:\n"
        '            raise ValueError("max_iterations must be non-negative")',
        (BAD_INPUT,)),
    "synthetic-rating-below-zero": Mutant(
        DATA, "    rating = np.where(rating > 0, rating, margin)\n", "",
        (TEST_DATA + "test_small_synthetic_networks_all_load",)),
}


def mutate(tree: Path, mutant: Mutant) -> None:
    """Apply the mutant to the copy at tree; ValueError unless the anchor
    occurs exactly once."""
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.anchor) != 1:
        raise ValueError(f"{mutant.file}: anchor occurs "
                         f"{text.count(mutant.anchor)} times: {mutant.anchor!r}")
    path.write_text(text.replace(mutant.anchor, mutant.replacement))


def run(mutant: Mutant) -> tuple[str, float]:
    """('killed', 'survived' or 'error', seconds) of one mutant."""
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        mutate(tree, mutant)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests], cwd=tree, env=env, capture_output=True, text=True)
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    if outcome == "error":
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
    return outcome, time.monotonic() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", choices=sorted(MUTANTS),
                        help="run only this mutant (repeatable)")
    args = parser.parse_args(argv)
    names = args.only or list(MUTANTS)
    outcomes = []
    width = max(map(len, names))
    print(f"{'mutant':{width}} {'outcome':9} seconds")
    for name in names:
        outcome, seconds = run(MUTANTS[name])
        outcomes.append(outcome)
        print(f"{name:{width}} {outcome:9} {seconds:7.1f}", flush=True)
    print(f"{outcomes.count('killed')} of {len(names)} killed")
    return 0 if outcomes.count("killed") == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
