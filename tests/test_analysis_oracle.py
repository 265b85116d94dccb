"""The model chain's reduced model and the validity gate against the code they replaced.

``reference_reduce_once`` refitted every single-term reduction of the refined
model to pick the printed 'rm' row; ``StepwiseTrace.reduced`` takes it from the
fits of stepwise's last step. ``reference_retained_participants`` was the
analysis layer's own copy of the pair/environment/participant gate;
``pipeline.validity_gate`` is now the only one. Both are kept verbatim.
"""

from collections import defaultdict
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vergescope.pipeline import ProcessedTrial, validity_gate
from vergescope.stats import FitResult, ModelFormula, f_test_from_r2, ols_fit, stepwise_refine
from vergescope.synth import ExperimentDesign


def reference_reduce_once(data, fit: FitResult, complete: FitResult, levels) -> FitResult | None:
    """The least-harmful single-term reduction of ``fit`` (the printed 'rm' row)."""
    droppable = fit.formula.droppable_terms()
    if not droppable:
        return None
    best = None
    for term in droppable:
        reduced = ols_fit(data, fit.formula.without(term), levels)
        _, _, p = f_test_from_r2(
            reduced.r_squared,
            reduced.residual_df,
            fit.r_squared,
            fit.residual_df,
            complete.r_squared,
            complete.residual_df,
        )
        if best is None or p > best[0]:
            best = (p, reduced)
    return best[1]


def reference_retained_participants(
    rows: Sequence,
    min_valid_trials_per_pair: int = 3,
    min_valid_pairs_per_environment: int = 6,
    required_valid_environments: int = 3,
) -> list[str]:
    """Participants surviving the pair/environment/participant validity gates."""
    pair_counts: dict[tuple[str, str, tuple[float, float]], int] = defaultdict(int)
    environments: dict[str, set[str]] = defaultdict(set)
    for r in rows:
        environments[r.participant_id].add(r.environment)
        if r.valid:
            pair_counts[(r.participant_id, r.environment, (r.start_depth_m, r.end_depth_m))] += 1
    valid_pairs: dict[tuple[str, str], int] = defaultdict(int)
    for (pid, env, _pair), n in pair_counts.items():
        if n >= min_valid_trials_per_pair:
            valid_pairs[(pid, env)] += 1
    out = []
    for pid in sorted(environments):
        n_envs = sum(
            1
            for env in environments[pid]
            if valid_pairs.get((pid, env), 0) >= min_valid_pairs_per_environment
        )
        if n_envs >= required_valid_environments:
            out.append(pid)
    return out


def lattice_data(rng, n=80):
    """y on a * b * c with a random subset of the seven terms carrying signal."""
    cols = {name: rng.normal(size=n) for name in "abc"}
    terms = ModelFormula.parse("y ~ a * b * c").terms
    y = rng.normal(size=n)
    for term in terms:
        if rng.random() < 0.5:
            y = y + rng.choice([0.15, 0.3, 1.0]) * np.prod([cols[v] for v in term], axis=0)
    return {"y": y, **cols}, "y ~ a * b * c", None


def factor_data(rng, n_per_cell=6):
    """y on d * env * m with random effect sizes on the main effects and interactions."""
    rows = {"y": [], "d": [], "env": [], "m": []}
    effect = {k: rng.choice([0.0, 0.2, 0.8]) for k in ("env", "m", "d:env", "d:m", "env:m")}
    for env_i, env in enumerate(("Real", "AR", "VR")):
        for m_i, m in enumerate(("gva", "subjective")):
            for d in (0.25, 0.75, 1.5, 4.0):
                for _ in range(n_per_cell):
                    y = 1.7 * d + effect["env"] * env_i + effect["m"] * m_i + effect["d:env"] * d * env_i
                    y += effect["d:m"] * d * m_i + effect["env:m"] * env_i * m_i + rng.normal(0, 0.5)
                    rows["y"].append(y)
                    rows["d"].append(d)
                    rows["env"].append(env)
                    rows["m"].append(m)
    return rows, "y ~ d * env * m", {"env": ["Real", "AR", "VR"], "m": ["gva", "subjective"]}


@pytest.mark.parametrize("criterion", ["f_test", "aic"])
@pytest.mark.parametrize("make_data", [lattice_data, factor_data])
def test_reduced_matches_reference_on_random_lattices(criterion, make_data):
    rng = np.random.default_rng(29)
    reduced_seen = 0
    for _ in range(25):
        data, formula, levels = make_data(rng)
        fm, trace = stepwise_refine(data, formula, criterion=criterion, levels=levels)
        expected = reference_reduce_once(data, fm, ols_fit(data, formula, levels), levels)
        got = trace.reduced()
        if expected is None:
            assert got is None
            continue
        reduced_seen += 1
        assert got.formula.terms == expected.formula.terms
        assert got.formula.to_string() == expected.formula.to_string()
        assert np.float64(got.r_squared).tobytes() == np.float64(expected.r_squared).tobytes()
        assert got.residual_df == expected.residual_df
    assert reduced_seen >= 10  # the lattices exercise the reduction, not only its absence


PAIRS = ExperimentDesign().depth_pairs[:4]
ROWS = st.lists(
    st.tuples(
        st.sampled_from(["p01", "p02", "p03"]),
        st.sampled_from(["Real", "AR", "VR"]),
        st.sampled_from(PAIRS),
        st.booleans(),
    ),
    max_size=150,
)


@settings(max_examples=200, deadline=None)
@given(
    rows=ROWS,
    min_trials=st.integers(1, 3),
    min_pairs=st.integers(1, 4),
    min_envs=st.integers(1, 3),
)
def test_gate_matches_reference_on_random_rows(rows, min_trials, min_pairs, min_envs):
    table = [ProcessedTrial(pid, env, "t", s, e, "ok", 10.0, 1.0, valid, True) for pid, env, (s, e), valid in rows]
    _, retained = validity_gate(table, min_trials, min_pairs, min_envs)
    assert retained == reference_retained_participants(table, min_trials, min_pairs, min_envs)
