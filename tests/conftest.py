import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from vergescope import dataio
from vergescope.recording import GazeSeries, TrialRecord

# Selected with --hypothesis-profile ci: no per-example deadline, so a slow
# runner cannot fail a property on time, and no example database to replay.
settings.register_profile("ci", deadline=None, database=None)


def force_cpus(monkeypatch, n: int) -> None:
    """Make ``os.sched_getaffinity`` report ``n`` CPUs, so ``dataio``'s session map runs ``min(tasks, n)`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def load_dataset_sessions(datadir) -> list[list[TrialRecord]]:
    """Each session's trials under ``datadir``, grouped as ``preprocess`` groups them, with the gaze files parsed."""
    return [
        [t for path, doc in manifests for t in dataio._manifest_trials(doc, path)]
        for manifests in dataio._dataset_sessions(str(datadir))
    ]


def run_cli(*argv, input_text=None, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "vergescope", *argv],
        capture_output=True,
        text=True,
        input=input_text,
        env=full_env,
    )
    return proc


def series_from_gva(
    gva_deg,
    rate_hz: float = 200.0,
    l_conf=None,
    r_conf=None,
    az_deg=None,
    t0: float = 0.0,
):
    """Build a sample series realizing an exact vergence-angle trace.

    Symmetric horizontal rays around the (optionally deflected) cyclopean
    azimuth reproduce the requested angle to machine precision.
    """
    gva = np.asarray(gva_deg, dtype=float)
    n = len(gva)
    t = t0 + np.arange(n) / rate_hz
    az = np.zeros(n) if az_deg is None else np.asarray(az_deg, dtype=float)
    half = np.radians(gva) / 2.0
    a_l = np.radians(az) + half
    a_r = np.radians(az) - half
    l_dir = np.column_stack([np.sin(a_l), np.zeros(n), np.cos(a_l)])
    r_dir = np.column_stack([np.sin(a_r), np.zeros(n), np.cos(a_r)])
    origin_l = np.tile([-0.032, 0.0, 0.0], (n, 1))
    origin_r = np.tile([0.032, 0.0, 0.0], (n, 1))
    lc = np.ones(n) if l_conf is None else np.asarray(l_conf, dtype=float)
    rc = np.ones(n) if r_conf is None else np.asarray(r_conf, dtype=float)
    return GazeSeries(t, origin_l, l_dir, origin_r, r_dir, lc, rc)


def trial_from_gva(gva_deg, rate_hz: float = 200.0, response_s=2.8, **kwargs) -> TrialRecord:
    series = series_from_gva(gva_deg, rate_hz=rate_hz, **kwargs)
    return TrialRecord(
        participant_id="p01",
        environment="Real",
        trial_id="t000",
        start_depth_m=4.0,
        end_depth_m=0.25,
        stimulus_onset_s=float(series.t_s[0]),
        response_s=response_s,
        samples=series,
    )


@pytest.fixture
def flat_trial():
    return trial_from_gva(np.full(700, 10.0))
