"""Pinned fit digests: every scenario trains to recorded bytes.

Byte identity between backends only proves that two runs agree with
each other.  This module pins what they agree *on*: for every
``workload_scenarios.SCENARIOS`` entry, under ``LocalBackend`` and a
two-worker ``ActorBackend`` at optimization levels ``none`` and
``full``, a digest of the fit recorded in ``fit_digests.json``.

- ``argmax``: sha256 of the predicted class of every test item.  Always
  compared.
- ``predictions``: sha256 of the raw prediction bytes, and
  ``estimators``: sha256 of every fitted estimator's
  ``structural_fingerprint``.  Compared only when numpy, scipy, machine
  and CPU model equal the recorded stack (BLAS picks its kernels by
  CPU), the rule of ``benchmarks/observatory/run.py::check_expected``.

To record the file anew after a change that is meant to move a fit::

    PYTHONPATH=src python tests/test_fit_digests.py
"""

import hashlib
import json
import pathlib
import platform
import sys

import numpy as np
import pytest
import scipy

from repro.core import graph as g
from repro.core.backends import ActorBackend, LocalBackend
from repro.core.optimizer import Optimizer, passes_for_level
from repro.core.program import structural_fingerprint
from repro.dataset import Context

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from workload_scenarios import SCENARIOS, comparable  # noqa: E402

PATH = pathlib.Path(__file__).with_name("fit_digests.json")
LEVELS = ("none", "full")
BACKENDS = {
    "local": LocalBackend,
    "actors2": lambda: ActorBackend(workers=2, task_timeout=300.0),
}


def stack():
    """The numeric stack raw digests are comparable on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
    }


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def fit_digest(scenario, backend, level):
    """Digests of one fresh fit of ``scenario``."""
    pipe, items = SCENARIOS[scenario](Context())
    passes = passes_for_level(level, sample_sizes=(20, 40))
    plan = Optimizer(passes).optimize(pipe, level=level)
    fitted = plan.execute(backend=BACKENDS[backend]())
    rows = [fitted.apply(x) for x in items]
    argmax = [int(np.argmax(r)) if np.ndim(r) else int(r) for r in rows]
    models = [
        structural_fingerprint(node.op)
        for node in g.ancestors([fitted.sink])
        if node.label.startswith("apply(")
    ]
    return {
        "argmax": _sha(argmax),
        "predictions": _sha(comparable(rows)),
        "estimators": _sha(models),
    }


def _cases():
    return [(s, b, lv) for s in sorted(SCENARIOS) for b in BACKENDS for lv in LEVELS]


def _case_id(scenario, backend, level):
    return f"{scenario}/{backend}/{level}"


def record(path=PATH):
    """Fit every case and write the digests with the current stack."""
    doc = {
        "stack": stack(),
        "digests": {_case_id(*case): fit_digest(*case) for case in _cases()},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PATH.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda c: _case_id(*c))
def test_fit_matches_pinned_digest(case, pinned):
    want = pinned["digests"][_case_id(*case)]
    got = fit_digest(*case)
    assert got["argmax"] == want["argmax"]
    if pinned["stack"] == stack():
        assert got["predictions"] == want["predictions"]
        assert got["estimators"] == want["estimators"]


def test_every_case_is_pinned(pinned):
    assert sorted(pinned["digests"]) == sorted(_case_id(*c) for c in _cases())


if __name__ == "__main__":
    from repro.core.backends import shutdown_actor_pools

    try:
        record()
    finally:
        shutdown_actor_pools()
    print(f"recorded {PATH}")
