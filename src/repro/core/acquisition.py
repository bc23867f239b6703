"""Pluggable acquisition strategies for the search engine.

An :class:`AcquisitionStrategy` decides which configurations the driver
evaluates next.  The engine kernel (:mod:`repro.core.engine`) is policy-free:
it owns the history, the executor and the checkpointing; the strategy owns
*what to try*.

Strategies provided here:

* :class:`PredictedPareto` — the paper's Algorithm 1: fit one forest per
  objective, predict over the whole pool, propose the predicted-Pareto set.
  Bit-identical to the pre-engine ``HyperMapper.run`` loop.
* :class:`UncertaintyWeighted` — optimistic lower-confidence-bound variant:
  the front is computed on ``mean - beta * std`` (canonical units) using the
  forests' across-tree spread, so the search is drawn toward regions the
  surrogate is unsure about.
* :class:`EpsilonGreedy` — explores: a fraction ``epsilon`` of every batch is
  replaced by uniformly random unevaluated pool members.

Model-based strategies work on *pool ranks* (row indices of the encoded
pool), not configuration objects: membership tests are integer-set lookups
against the ranks the engine has already claimed, and only the finally
selected candidates are materialized into
:class:`~repro.core.space.Configuration` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.core.pareto import pareto_mask
from repro.core.registry import ACQUISITION_REGISTRY, UnknownPluginError, register_acquisition
from repro.core.space import Configuration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import SearchState


@dataclass
class Proposal:
    """One batch of configurations proposed by a strategy.

    Attributes
    ----------
    configs:
        The configurations to evaluate (in order).  Empty means "converged".
    n_candidates:
        Size of the candidate set before dedup/capping (the predicted-Pareto
        front size for model-based strategies); feeds the per-iteration
        report.
    source:
        Provenance label stamped on the history records.
    iteration:
        Optional override of the history iteration tag (strategies with their
        own generation counters use it); defaults to the driver's iteration.
    pool_ranks:
        Pool row indices of ``configs`` (when known), so the driver can mark
        in-flight claims without hashing configurations.
    """

    configs: List[Configuration]
    n_candidates: int = 0
    source: str = "active_learning"
    iteration: Optional[int] = None
    pool_ranks: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.n_candidates == 0:
            self.n_candidates = len(self.configs)


class AcquisitionStrategy:
    """Base class: propose batches of configurations to evaluate.

    Subclasses implement :meth:`propose`; stateful strategies additionally
    override :meth:`observe` (called with the evaluated records of their last
    proposal) and the checkpointing hooks.
    """

    #: Provenance label for history records produced by this strategy.
    source = "active_learning"
    #: Whether the driver must build an encoded configuration pool.
    needs_pool = False
    #: Whether the driver may gather evaluation batches partially (overlap).
    supports_overlap = False
    #: Whether engine checkpoints capture enough state to resume this strategy.
    supports_checkpoint = False

    def reset(self, state: "SearchState") -> None:
        """Hook called once after bootstrap, before the first proposal."""

    def propose(self, state: "SearchState") -> Optional[Proposal]:
        """Return the next batch, or ``None``/empty to stop the search."""
        raise NotImplementedError

    def observe(self, state: "SearchState", records: Sequence) -> None:
        """Hook called with the history records of the last proposal."""

    # -- checkpointing ------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable strategy state (stateless strategies: empty)."""
        return {}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output."""


class _SurrogateAcquisition(AcquisitionStrategy):
    """Shared plumbing for forest-surrogate strategies over an encoded pool.

    Handles surrogate (re)fitting from the pool's cached rows/quantization,
    filtering candidates against the engine's claimed ranks, and the
    spread-preserving batch capping of the original loop.
    """

    needs_pool = True
    supports_overlap = True
    supports_checkpoint = True

    def __init__(self, feasible_only: bool = True) -> None:
        self.feasible_only = bool(feasible_only)

    # -- shared steps ------------------------------------------------------------
    def _fit(self, state: "SearchState"):
        """Fit a fresh surrogate on the history, timed under the "fit" lap."""
        surrogate = state.new_surrogate()
        encoded_pool = state.encoded_pool
        records = state.history.records
        with state.timer.lap("encode"):
            # Training rows are gathers by the pool rows the engine looked
            # up once per record; the pool's one-time quantization is shared
            # by every forest of every refit.
            X_train, prebinned = encoded_pool.training_rows(
                state.space, [r.config for r in records], state.record_rows
            )
            bin_mapper = encoded_pool.bin_mapper
        metrics = [r.metrics for r in records]
        with state.timer.lap("fit"):
            surrogate.fit_encoded(X_train, metrics, bin_mapper=bin_mapper, prebinned=prebinned)
        return surrogate

    def _candidate_front(self, state: "SearchState"):
        """``(pool_ranks, values)`` of the predicted candidate front."""
        raise NotImplementedError

    def _select(
        self,
        state: "SearchState",
        front_idx: np.ndarray,
        front_values: np.ndarray,
    ) -> List[int]:
        """Drop already-claimed ranks and cap the batch, preserving spread.

        The predicted front is sorted by its objective tuple and subsampled
        at regular intervals so the evaluated batch spans the whole front
        rather than clustering in one region — an exact port of the original
        ``HyperMapper._select_subset``, operating on pool ranks.
        """
        claimed = state.claimed_ranks
        new_idx = [int(i) for i in front_idx if int(i) not in claimed]
        k = state.max_samples_per_iteration
        if k is None or len(new_idx) <= k:
            return new_idx
        pos = {int(i): j for j, i in enumerate(front_idx)}
        order = sorted(new_idx, key=lambda i: tuple(front_values[pos[i]]))
        positions = np.linspace(0, len(order) - 1, k).round().astype(int)
        positions = np.unique(positions)
        selected = [order[int(i)] for i in positions]
        # Top up with random picks if rounding collapsed some positions.
        if len(selected) < k:
            remaining = [i for i in order if i not in set(selected)]
            extra_idx = state.rng.choice(
                len(remaining), size=min(k - len(selected), len(remaining)), replace=False
            )
            selected.extend(remaining[int(i)] for i in extra_idx)
        return selected

    def propose(self, state: "SearchState") -> Optional[Proposal]:
        self._fit(state)
        with state.timer.lap("predict"):
            front_idx, front_values = self._candidate_front(state)
        selected = self._select(state, front_idx, front_values)
        pool = state.encoded_pool.configs
        return Proposal(
            configs=[pool[i] for i in selected],
            n_candidates=len(front_idx),
            source=self.source,
            pool_ranks=selected,
        )


@register_acquisition("predicted_pareto")
class PredictedPareto(_SurrogateAcquisition):
    """Algorithm 1's acquisition: evaluate the predicted Pareto front.

    Fit one random forest per objective, predict both objectives over the
    entire pool, and propose the non-dominated (and, by default, predicted
    feasible) subset that has not been evaluated yet — "letting the
    predictive model decide which samples will be most beneficial".
    """

    name = "predicted_pareto"

    def _candidate_front(self, state: "SearchState"):
        encoded_pool = state.encoded_pool
        return state.surrogate.predicted_pareto_encoded(
            encoded_pool.X,
            feasible_only=self.feasible_only,
            pool_index=encoded_pool.bitset_index,
        )


@register_acquisition("uncertainty_weighted")
class UncertaintyWeighted(_SurrogateAcquisition):
    """Lower-confidence-bound acquisition using the across-tree spread.

    The candidate front is the Pareto set of ``canonical(mean) - beta * std``
    rather than of the predicted mean: points whose forests disagree look
    optimistically good and get sampled, trading a little exploitation for
    model improvement.  ``beta=0`` recovers a (slower, std-computing)
    :class:`PredictedPareto`.
    """

    name = "uncertainty_weighted"

    def __init__(self, beta: float = 1.0, feasible_only: bool = True) -> None:
        super().__init__(feasible_only=feasible_only)
        if beta < 0:
            raise ValueError("beta must be >= 0")
        self.beta = float(beta)

    def _candidate_front(self, state: "SearchState"):
        encoded_pool = state.encoded_pool
        mean, std = state.surrogate.predict_with_std_encoded(
            encoded_pool.X, pool_index=encoded_pool.bitset_index
        )
        objectives = state.objectives
        lcb = objectives.to_canonical(mean) - self.beta * std
        candidates = np.arange(mean.shape[0])
        if self.feasible_only:
            feas = objectives.feasibility_mask(mean)
            if np.any(feas):
                candidates = np.flatnonzero(feas)
        mask = pareto_mask(lcb[candidates])
        idx = candidates[np.flatnonzero(mask)]
        return idx, lcb[idx]


@register_acquisition("epsilon_greedy")
class EpsilonGreedy(_SurrogateAcquisition):
    """Exploration wrapper: replace part of every batch with random picks.

    A fraction ``epsilon`` of the per-iteration batch (rounded down, at least
    one configuration when ``epsilon > 0``) is drawn uniformly from the
    not-yet-claimed pool; the rest comes from the wrapped model-based
    strategy (:class:`PredictedPareto` by default).  ``epsilon=0`` is exactly
    the wrapped strategy.
    """

    name = "epsilon_greedy"

    def __init__(
        self,
        epsilon: float = 0.1,
        inner: Optional[_SurrogateAcquisition] = None,
        feasible_only: bool = True,
    ) -> None:
        super().__init__(feasible_only=feasible_only)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = float(epsilon)
        self.inner = inner if inner is not None else PredictedPareto(feasible_only=feasible_only)

    def _random_ranks(self, state: "SearchState", n: int, taken: set) -> List[int]:
        """Up to ``n`` distinct unclaimed pool ranks, uniformly at random."""
        pool_size = len(state.encoded_pool)
        out: List[int] = []
        attempts = 0
        while len(out) < n and attempts < 20 * max(n, 1):
            attempts += 1
            i = int(state.rng.integers(pool_size))
            if i in taken or i in state.claimed_ranks:
                continue
            taken.add(i)
            out.append(i)
        return out

    def propose(self, state: "SearchState") -> Optional[Proposal]:
        self.inner._fit(state)
        with state.timer.lap("predict"):
            front_idx, front_values = self.inner._candidate_front(state)
        exploit = self.inner._select(state, front_idx, front_values)
        cap = state.max_samples_per_iteration
        target = cap if cap is not None else len(exploit)
        n_explore = int(self.epsilon * target)
        if self.epsilon > 0 and target > 0:
            n_explore = max(n_explore, 1)
        if cap is not None and len(exploit) + n_explore > cap:
            exploit = exploit[: max(cap - n_explore, 0)]
        taken = set(exploit)
        explore = self._random_ranks(state, n_explore, taken)
        selected = exploit + explore
        pool = state.encoded_pool.configs
        return Proposal(
            configs=[pool[i] for i in selected],
            n_candidates=len(front_idx),
            source=self.source,
            pool_ranks=selected,
        )


#: Backward-compatible alias of the built-in entries; new registrations go
#: through :func:`repro.core.registry.register_acquisition`.
ACQUISITIONS = {
    "predicted_pareto": PredictedPareto,
    "uncertainty_weighted": UncertaintyWeighted,
    "epsilon_greedy": EpsilonGreedy,
}


def make_acquisition(name_or_strategy, **kwargs) -> AcquisitionStrategy:
    """Resolve an acquisition by registered name or pass an instance through."""
    if isinstance(name_or_strategy, AcquisitionStrategy):
        return name_or_strategy
    try:
        cls = ACQUISITION_REGISTRY.get(str(name_or_strategy))
    except UnknownPluginError as exc:
        raise ValueError(str(exc)) from None
    return cls(**kwargs)


__all__ = [
    "Proposal",
    "AcquisitionStrategy",
    "PredictedPareto",
    "UncertaintyWeighted",
    "EpsilonGreedy",
    "ACQUISITIONS",
    "make_acquisition",
]
