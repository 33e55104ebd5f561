"""Each output check of the benchmark fails on a deliberately wrong answer.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
The workload tests use shallow hierarchies of the same workloads, so the
checks see real outputs of the program, first unchanged (no failure), then
with one eigenvalue perturbed or one block made non-orthonormal.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import GeneralWorkload, ModelWorkload, StudyWorkload, check_operations  # noqa: E402


class ShallowModel(ModelWorkload):
    levels = 4


class ShallowGeneral(GeneralWorkload):
    levels = 3


class ShallowStudy(StudyWorkload):
    levels = 3


def run_summarized(workload):
    outcome = workload.run_once()
    summary = workload.summarize(outcome)
    return outcome, summary


def failures_of(workload, summary, outcome, traced=False):
    found, eig_rel_err, alg_rel_err = check_operations(workload, [summary], outcome, traced)
    return found[0], eig_rel_err, alg_rel_err


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    workload = ShallowModel(3, tmp_path_factory.mktemp("model"))
    return (workload,) + run_summarized(workload)


@pytest.fixture(scope="module")
def general(tmp_path_factory):
    workload = ShallowGeneral(3, tmp_path_factory.mktemp("general"))
    return (workload,) + run_summarized(workload)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    workload = ShallowStudy(3, tmp_path_factory.mktemp("study"))
    return (workload,) + run_summarized(workload)


def perturbed(summary, path, index, factor):
    """Copy of ``summary`` with one eigenvalue scaled by ``factor``."""
    out = copy.deepcopy(summary)
    target = out
    for key in path[:-1]:
        target = target[key]
    values = np.array(target[path[-1]], dtype=float)
    values[index] *= factor
    target[path[-1]] = values
    return out


def skewed_gram(summary, method):
    out = copy.deepcopy(summary)
    gram = out["grams"][method]
    gram[0, -1] += 1e-6
    gram[-1, 0] += 1e-6
    out["grams"][method] = gram + 1e-6 * np.eye(gram.shape[0])
    return out


class TestModel:
    def test_correct_output_passes(self, model):
        workload, outcome, summary = model
        found, eig_rel_err, alg_rel_err = failures_of(workload, summary, outcome, traced=True)
        assert found == []
        assert 0.0 < eig_rel_err < 1e-2
        assert 0.0 <= alg_rel_err < 1e-6

    def test_perturbed_finest_eigenvalue_breaks_the_rate(self, model):
        workload, outcome, summary = model
        wrong = perturbed(summary, ("levels", -1), 0, 1.0 + 1e-3)
        found, _, _ = failures_of(workload, wrong, outcome)
        assert any("error ratio" in message for message in found)

    def test_non_orthonormal_block(self, model):
        workload, outcome, summary = model
        found, _, _ = failures_of(workload, skewed_gram(summary, "fmg"), outcome)
        assert any("V'BV" in message for message in found)

    def test_missing_level_snapshot(self, model):
        workload, outcome, summary = model
        short = dict(summary, levels=summary["levels"][:-1])
        found, _, _ = failures_of(workload, short, outcome)
        assert any("level snapshots" in message for message in found)


class TestGeneral:
    def test_correct_output_passes(self, general):
        workload, outcome, summary = general
        found, eig_rel_err, alg_rel_err = failures_of(workload, summary, outcome)
        assert found == []
        assert 0.0 < eig_rel_err < 1e-1
        assert alg_rel_err < 1e-4

    @pytest.mark.parametrize("level", [1, 2])
    def test_perturbed_eigenvalue_is_an_algebraic_error(self, general, level):
        workload, outcome, summary = general
        wrong = perturbed(summary, ("levels", level), 3, 1.0 + 1e-2)
        found, _, _ = failures_of(workload, wrong, outcome)
        assert any("algebraic error" in message for message in found)

    def test_non_orthonormal_block(self, general):
        workload, outcome, summary = general
        found, _, _ = failures_of(workload, skewed_gram(summary, "fmg"), outcome)
        assert any("V'BV" in message for message in found)

    def test_missing_level_snapshot_fails_the_operation(self, general):
        workload, outcome, summary = general
        short = dict(summary, levels=summary["levels"][:-1])
        found, _, _ = check_operations(workload, [summary, short], outcome, False)
        assert found[0] == []
        assert any("check raised IndexError" in message for message in found[1])

    def test_block_of_the_wrong_shape_fails_the_operation(self, general):
        workload, outcome, summary = general
        wrong = dict(summary, grams={"fmg": summary["grams"]["fmg"][:, :-1]})
        found, _, _ = failures_of(workload, wrong, outcome)
        assert any("check raised ValueError" in message for message in found)

    def test_failed_reference_solve_fails_every_operation(self, general):
        workload, _, summary = general
        found, eig_rel_err, _ = check_operations(workload, [summary, summary], {"ctx": None}, False)
        assert all(any("reference solve raised" in m for m in messages) for messages in found)
        assert eig_rel_err is None


class TestStudy:
    def test_correct_output_passes(self, study):
        workload, outcome, summary = study
        found, eig_rel_err, alg_rel_err = failures_of(workload, summary, outcome)
        assert found == []
        assert 0.0 < eig_rel_err < 1e-1
        assert alg_rel_err < 1e-4

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_perturbed_direct_eigenvalue(self, study, level):
        workload, outcome, summary = study
        wrong = perturbed(summary, ("table", ("direct", level), "lambda_h"), 2, 1.0 + 1e-7)
        found, _, _ = failures_of(workload, wrong, outcome)
        assert any("direct level %d" % level in message for message in found)

    def test_perturbed_fmg_eigenvalue(self, study):
        workload, outcome, summary = study
        wrong = perturbed(summary, ("table", ("fmg", 3), "lambda_h"), 0, 1.0 + 1e-3)
        found, _, _ = failures_of(workload, wrong, outcome)
        assert any("algebraic error" in message for message in found)

    def test_perturbed_reference_column(self, study):
        workload, outcome, summary = study
        wrong = perturbed(summary, ("table", ("fmg", 3), "lambda_ref"), 5, 1.0 + 1e-5)
        found, _, _ = failures_of(workload, wrong, outcome)
        assert any("lambda_ref" in message for message in found)

    @pytest.mark.parametrize("method", ["fmg", "direct"])
    def test_non_orthonormal_block(self, study, method):
        workload, outcome, summary = study
        found, _, _ = failures_of(workload, skewed_gram(summary, method), outcome)
        assert any(message.startswith(method + ": |V'BV") for message in found)

    def test_wrong_header_and_missing_rows(self, study):
        workload, outcome, _ = study
        lines = outcome["csv"].splitlines()
        broken = "\n".join([lines[0], lines[1].replace("lambda_ref", "ref")] + lines[2:-1])
        found, _ = checks.parse_study_csv(broken, workload.levels, workload.q)
        assert any("header" in message for message in found)
        assert any("data rows" in message for message in found)
        assert any("lacks direct rows" in message for message in found)

    def test_missing_comment_line(self, study):
        workload, outcome, _ = study
        found, _ = checks.parse_study_csv(outcome["csv"].split("\n", 1)[1], workload.levels, workload.q)
        assert any("comment" in message for message in found)


def test_non_numeric_csv_field_is_a_failure():
    text = "#\n%s\nfmg,1,49,1,nan?,,,,0.0,1.0\n" % checks.CSV_HEADER
    found, _ = checks.parse_study_csv(text, 1, 1)
    assert any("non-numeric" in message for message in found)


def test_reference_column_rejects_an_empty_column():
    assert checks.reference_column([np.nan, 1.0], [1.0, 1.0])


def test_convergence_rate_rejects_a_stalled_error():
    assert checks.convergence_rate([1e-2, 2.5e-3, 2.5e-3])


class _Raising:
    """Stand-in workload whose operation or summary raises."""

    def __init__(self, where):
        self.where = where

    def run_once(self):
        if self.where == "run_once":
            raise RuntimeError("no eigenpairs")
        return {}

    def summarize(self, outcome):
        raise IndexError("one level snapshot missing")


@pytest.mark.parametrize("where", ["run_once", "summarize"])
def test_an_operation_that_raises_is_counted_as_failed(where):
    record = run._new_run()
    assert run._attempt(_Raising(where), record) is None
    assert record["failed"] == 1
    assert record["last"] is None
