"""``repro.tune`` — cost-model-guided kernel autotuning.

The paper picks one kernel configuration per experiment by hand; this
subsystem makes the system choose for itself.  It is organised as four
layers behind one driver entry point:

* :mod:`repro.tune.space` — the configuration space: :class:`Workload`,
  :class:`Candidate`, and :class:`TuningSpace` (enumeration + constraints);
* :mod:`repro.tune.search` — deterministic search strategies (exhaustive
  grid, seeded random sampling, greedy hill-climb with early stopping);
* :mod:`repro.tune.evaluate` — candidate scoring through the compiler
  driver's content-addressed cache and the analytic GPU cost model;
* :mod:`repro.tune.db` — the persistent per-device tuning database, keyed
  by (kernel fingerprint family, device, tuner version);
* :mod:`repro.tune.tuner` — :class:`Autotuner`, which ties them together
  and backs :meth:`CompilerSession.compile_tuned` and the frontends'
  ``autotune=True`` plumbing.

``python -m repro.tune ntt --size 4096 --bits 256 --device rtx4090`` tunes a
single named workload from the command line.
"""

from repro.tune.db import TUNER_VERSION, DbStats, TuningDatabase, TuningRecord
from repro.tune.evaluate import CandidateEvaluator, CandidateScore
from repro.tune.search import (
    STRATEGIES,
    SearchResult,
    Trial,
    exhaustive_search,
    get_strategy,
    hillclimb_search,
    random_search,
    resolve_strategy,
)
from repro.tune.space import (
    BLAS,
    NTT,
    Candidate,
    TuningSpace,
    Workload,
    default_candidate,
)
from repro.tune.tuner import Autotuner, TunedCompilation, TuningResult, tune_workload

__all__ = [
    "TUNER_VERSION",
    "DbStats",
    "TuningDatabase",
    "TuningRecord",
    "CandidateEvaluator",
    "CandidateScore",
    "STRATEGIES",
    "SearchResult",
    "Trial",
    "exhaustive_search",
    "get_strategy",
    "hillclimb_search",
    "random_search",
    "resolve_strategy",
    "BLAS",
    "NTT",
    "Candidate",
    "TuningSpace",
    "Workload",
    "default_candidate",
    "Autotuner",
    "TunedCompilation",
    "TuningResult",
    "tune_workload",
]
