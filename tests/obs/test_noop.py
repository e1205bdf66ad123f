"""Bitwise no-op guarantee of the observability layer.

The digests below were captured from the *pre-instrumentation* trainers
(the commit before ``repro.obs`` existed) on the exact fixed-seed recipe
of ``tests/obs/conftest.py``.  Training under the default
:data:`~repro.obs.NULL_RECORDER` must still produce byte-identical
weights — instrumentation that shifts a single ULP or consumes one extra
RNG draw fails this file.  A second check asserts the *enabled* recorder
does not perturb training either: same seed, same bytes.
"""

import pytest

from repro.core import make_trainer
from repro.nn.network import MLP
from repro.obs import NULL_RECORDER

from .conftest import TRAINER_NAMES

#: sha256 of concatenated (W, b) bytes after the fixed-seed 2-epoch run,
#: captured before the trainers were instrumented.  The "alsh" digest was
#: re-pinned when ``MIPSIndex.update`` learned to refit its P-transform
#: scale on norm overflow (the fixed-seed run's weight columns grow past
#: the build-time max norm, so the bugfix legitimately changes the
#: trajectory); the re-pin was validated by the relative checks below
#: (null == traced == probed bytes) holding across the change.  The
#: "alsh" and "topk" digests were re-pinned again when their per-sample
#: steps were fixed to backpropagate through the pre-update weights of
#: every hidden layer (they had updated ``W_i`` before propagating its
#: delta, unlike exact backprop, the union step and dropout) and moved
#: onto the shared NLL loss head; the same relative checks held across
#: that change.  The "alsh" digest moved once more when sampled
#: ``predict`` stopped drawing from the trainer's RNG stream (validation
#: after each epoch had perturbed training); the new value is the
#: previous code's digest for this recipe run without validation.
PRE_INSTRUMENTATION_DIGESTS = {
    "standard": "3e6fa6b3a0fb00ee7e28c1d3853f307c24253500c6b1f514575e443b246e8b13",
    "dropout": "9e02a9390fdfdc2841d3358223140294480e67e3e97fdbac06a4799a787e65c5",
    "adaptive_dropout": "27fa5392491cd965ef86208f2befad4f5dbfcd79acdc7eae53baae4609ef7d16",
    "alsh": "d26e7362b1e6844da7a369c598660f115b91abd5002e2051d6e38dfd1fd3ac09",
    "mc": "590e0810698e3b9e35a4d1a3455bacb4ceba8475de3fc80b20b50ed411f5959c",
    "topk": "f9c224b0157a39563847c5d5650ea9cdc1f0cb9f425c9501913f6bd51dafd178",
}


def test_every_trainer_is_covered():
    assert set(PRE_INSTRUMENTATION_DIGESTS) == set(TRAINER_NAMES)


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_null_recorder_is_bitwise_noop(name, traced_runs):
    """Instrumented trainers reproduce the pre-instrumentation bytes."""
    assert traced_runs[name]["null_digest"] == PRE_INSTRUMENTATION_DIGESTS[name]


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_enabled_recorder_does_not_perturb_training(name, traced_runs):
    """Counting work must not change the work: traced == untraced bytes."""
    assert traced_runs[name]["traced_digest"] == traced_runs[name]["null_digest"]


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_probes_do_not_perturb_training(name, probed_runs):
    """Quality probes are strictly read-only: a probed run reproduces the
    pre-instrumentation bytes exactly, at any cadence."""
    assert probed_runs[name]["digest"] == PRE_INSTRUMENTATION_DIGESTS[name]


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_default_recorder_is_the_shared_null_singleton(name):
    trainer = make_trainer(name, MLP([8, 4, 4, 3], seed=0), seed=0)
    assert trainer.obs is NULL_RECORDER
    assert trainer.obs.enabled is False
