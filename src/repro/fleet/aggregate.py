"""Incremental rank aggregation for fleet triage.

:func:`repro.core.statistics.rank_predictors` is a batch function: it
needs every profile up front, so convergence ("after how many runs did
the true root cause reach rank 1?") is invisible.  The fleet view wants
exactly that visibility — `repro obs trends` shows per-signature
convergence as campaign runs arrive.

:class:`IncrementalRanker` keeps per-event contingency counts (failure
hits, success hits, supporting/opposing run labels) and updates them in
O(|profile|) per arriving run; :meth:`ranking` materialises the dense
ranking on demand.  Its output is *identical* — same
:class:`~repro.core.statistics.PredictorScore` rows in the same order,
including provenance — to calling ``rank_predictors`` on the same
profiles, which the tests assert.  Incrementality changes when ranks
become observable, never what they are.
"""

from repro.core.statistics import (
    PredictorScore,
    _assign_dense_ranks,
    harmonic_mean,
)
from repro.obs import get_obs
from repro.obs.provenance import EventProvenance


class IncrementalRanker:
    """Event ranking that absorbs one run profile at a time."""

    def __init__(self):
        self._events = {}             # event_id -> event
        self._supporting = {}         # event_id -> ["F<run>", ...]
        self._opposing = {}           # event_id -> ["S<run>", ...]
        self.total_failures = 0
        self.total_successes = 0

    # -- absorbing runs --------------------------------------------------

    def add_failure(self, profile):
        """Fold in one failure-run profile."""
        self.total_failures += 1
        label = "F%d" % profile.run_index
        for event in profile.event_set:
            self._events[event.event_id] = event
            self._supporting.setdefault(event.event_id, []).append(label)

    def add_success(self, profile):
        """Fold in one success-run profile."""
        self.total_successes += 1
        label = "S%d" % profile.run_index
        for event in profile.event_set:
            self._events[event.event_id] = event
            self._opposing.setdefault(event.event_id, []).append(label)

    def add(self, profile):
        """Fold in one profile, routed by its recorded outcome."""
        get_obs().counter("fleet.rank_updates").inc()
        if profile.outcome == "failure":
            self.add_failure(profile)
        else:
            self.add_success(profile)

    # -- observing ranks -------------------------------------------------

    @property
    def runs_seen(self):
        return self.total_failures + self.total_successes

    def ranking(self):
        """The dense ranking over everything absorbed so far.

        Same rows, order, and provenance as
        ``rank_predictors(failures_so_far, successes_so_far)``.
        """
        timer = get_obs().timer("stage.rank_update.seconds")
        with timer:
            return self._ranking()

    def _ranking(self):
        scores = []
        for event_id, event in self._events.items():
            supported_by = self._supporting.get(event_id, ())
            opposed_by = self._opposing.get(event_id, ())
            f_hits = len(supported_by)
            s_hits = len(opposed_by)
            observed = f_hits + s_hits
            precision = f_hits / observed if observed else 0.0
            recall = (f_hits / self.total_failures
                      if self.total_failures else 0.0)
            scores.append(PredictorScore(
                event=event,
                precision=precision,
                recall=recall,
                f_score=harmonic_mean(precision, recall),
                failure_hits=f_hits,
                success_hits=s_hits,
                provenance=EventProvenance(
                    failure_hits=f_hits,
                    success_hits=s_hits,
                    total_failures=self.total_failures,
                    supporting_runs=tuple(supported_by),
                    opposing_runs=tuple(opposed_by),
                ),
            ))
        scores.sort(key=lambda s: (-s.f_score, -s.precision, -s.recall,
                                   s.event.event_id))
        return _assign_dense_ranks(scores)

    def rank_of(self, predicate):
        """Dense rank of the best current event satisfying *predicate*."""
        for score in self.ranking():
            if predicate(score.event):
                return score.rank
        return None


__all__ = ["IncrementalRanker"]
