"""Whole-pipeline properties over tiny, duplicate-heavy and badly scaled inputs.

Every input either runs (exit 0) or is rejected as a package error (exit 2);
no other exception escapes the CLI. Generation owns every sample, two runs on
the same input are bit-identical, and every backend labels the balls in
[0, K). The scores do not depend on how either side names its clusters.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmdl import cli
from gbmdl.backends import cluster_or_passthrough, kmeanspp
from gbmdl.core import Dataset, ball_centers, minmax_normalize
from gbmdl.generation import generate
from gbmdl.metrics import acc, ari, nmi

COMMANDS = (
    ["--backend", "ac"],
    ["--backend", "kmeanspp"],
    ["--label-col", "none", "--k", "2"],
)


@st.composite
def labelled_matrices(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 200))
    # three levels per cell make duplicate rows and coinciding balls common
    cells = draw(st.lists(st.integers(0, 2), min_size=n * d, max_size=n * d))
    values = np.asarray(cells, dtype=np.float64).reshape(n, d)
    if draw(st.booleans()):
        values[:, draw(st.integers(0, d - 1))] = 1.0
    values *= draw(st.sampled_from([1e-8, 1.0, 1e8]))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return values, labels, draw(st.integers(1, 4))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(labelled_matrices())
def test_pipeline_total_and_deterministic(case):
    values, labels, K = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + f",{label}\n"
                                for row, label in zip(values, labels)), encoding="utf-8")
        for command in COMMANDS:
            argv = ["--input", str(path), *command, "--omit-timings"]
            first = run_cli(argv)
            assert first[0] in (0, 2)
            assert run_cli(argv) == first

    dataset = minmax_normalize(Dataset(values=values))
    results = [generate(dataset) for _ in range(2)]
    for result in results:
        assert result.ownership.shape == (dataset.n,)
        assert 0 <= result.ownership.min()
        assert result.ownership.max() < len(result.stable_balls)
    a, b = results
    assert np.array_equal(a.ownership, b.ownership)
    assert np.array_equal(a.residual_background, b.residual_background)
    assert [ball.members.tolist() for ball in a.stable_balls] \
        == [ball.members.tolist() for ball in b.stable_balls]

    balls = list(a.stable_balls)
    labellings = [cluster_or_passthrough(balls, K).ball_labels]
    if len(balls) > K:          # fewer balls pass through, whatever the backend
        labellings.append(kmeanspp(ball_centers(balls), K, [0])[0])
    for ball_labels in labellings:
        assert ball_labels.shape == (len(a.stable_balls),)
        assert 0 <= ball_labels.min() and ball_labels.max() < K


@st.composite
def relabelled_labelings(draw):
    n = draw(st.integers(2, 60))
    t = np.asarray(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    p = np.asarray(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    # a bijection of the six ids onto arbitrary distinct values, one per side
    ids = st.lists(st.integers(-1000, 1000), min_size=6, max_size=6, unique=True)
    return t, p, np.asarray(draw(ids))[t], np.asarray(draw(ids))[p]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(relabelled_labelings())
def test_scores_invariant_under_relabelling(case):
    t, p, t_renamed, p_renamed = case
    # integer pair counts and matched counts: exactly equal
    assert ari(t_renamed, p_renamed) == ari(t, p)
    assert acc(t_renamed, p_renamed) == acc(t, p)
    # float sums taken in another order: equal to rounding
    assert abs(nmi(t_renamed, p_renamed) - nmi(t, p)) <= 1e-14
    assert nmi(t, t_renamed) == 1.0


@st.composite
def uneven_labelings(draw):
    n = draw(st.integers(1, 80))
    # up to 9 true ids against up to 81 predicted ids, so the table is rarely square
    t = draw(st.lists(st.integers(0, draw(st.integers(0, 8))), min_size=n, max_size=n))
    p = draw(st.lists(st.integers(0, draw(st.integers(0, 80))), min_size=n, max_size=n))
    return np.asarray(t), np.asarray(p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(uneven_labelings())
def test_acc_symmetric_in_its_arguments(case):
    # swapping the labelings transposes the table; the matched total is the same integer
    t, p = case
    assert acc(t, p) == acc(p, t)
