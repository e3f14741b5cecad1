"""Splitter-interval state: the ``[L_j(i), U_j(i)]`` bookkeeping of §3.3.

The central processor maintains, for every splitter ``i`` with target rank
``t_i = N·i/p``:

* ``lo_rank[i]`` / ``lo_key[i]`` — rank and key of the largest key seen so
  far whose rank is ≤ ``t_i`` (the paper's ``L_j(i)``),
* ``hi_rank[i]`` / ``hi_key[i]`` — rank and key of the smallest key seen so
  far with rank ≥ ``t_i`` (``U_j(i)``).

A splitter is *finalized* once some seen key lands inside
``T_i = [t_i − εN/2p, t_i + εN/2p]`` (§2.1).  Unfinalized splitters define
the *splitter intervals* that the next round samples from; intervals shrink
monotonically (the proof of Theorem 3.3.1 hinges on ``L``/``U`` never
regressing, which :meth:`SplitterState.update` enforces).

The class is fully vectorized over splitters, so it also backs the
rank-space simulator at ``p`` up to hundreds of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = ["SplitterState", "MergedIntervals"]


@dataclass(frozen=True)
class MergedIntervals:
    """Disjoint union of the unfinalized splitter intervals.

    ``lo_keys[t] .. hi_keys[t]`` (closed, in key space) with known boundary
    ranks ``lo_ranks[t]`` / ``hi_ranks[t]``.  ``mass`` is the paper's ``G_j``:
    the number of input keys inside the union (computable exactly from the
    boundary ranks, since ranks count keys strictly below a key, plus the
    boundary keys themselves which are already known).
    """

    lo_keys: np.ndarray
    hi_keys: np.ndarray
    lo_ranks: np.ndarray
    hi_ranks: np.ndarray

    @property
    def mass(self) -> int:
        if len(self.lo_ranks) == 0:
            return 0
        return int(np.sum(self.hi_ranks - self.lo_ranks))

    @property
    def count(self) -> int:
        return len(self.lo_keys)


class SplitterState:
    """Central-processor state tracking all ``p−1`` splitter intervals."""

    def __init__(
        self,
        total_keys: int,
        nparts: int,
        eps: float,
        *,
        key_dtype: np.dtype | type = np.int64,
        lo_sentinel: object | None = None,
        hi_sentinel: object | None = None,
        targets: np.ndarray | None = None,
        tolerances: np.ndarray | float | None = None,
        initial_intervals: Sequence[tuple] | None = None,
    ) -> None:
        if nparts < 1:
            raise ConfigError(f"nparts must be >= 1, got {nparts}")
        if total_keys < nparts:
            raise ConfigError(
                f"need at least one key per part: N={total_keys}, p={nparts}"
            )
        self.total_keys = int(total_keys)
        self.nparts = int(nparts)
        self.eps = float(eps)
        self.key_dtype = np.dtype(key_dtype)

        p, n = self.nparts, self.total_keys
        if targets is None:
            #: Target ranks ``t_i = N·i/p`` for splitters ``i = 1..p−1``.
            self.targets = (np.arange(1, p, dtype=np.int64) * n) // p
        else:
            # Weighted partitioning (e.g. ragged node layouts where part b
            # should receive N·cores_b/p keys).
            self.targets = np.asarray(targets, dtype=np.int64)
            if len(self.targets) != p - 1:
                raise ConfigError(
                    f"expected {p - 1} targets, got {len(self.targets)}"
                )
            if np.any(self.targets < 0) or np.any(self.targets > n) or np.any(
                np.diff(self.targets) < 0
            ):
                raise ConfigError("targets must be non-decreasing in [0, N]")
        if tolerances is None:
            #: Rank tolerance ``εN/(2p)`` of the acceptance window ``T_i``.
            self.tolerance = eps * n / (2.0 * p)
        else:
            self.tolerance = (
                np.asarray(tolerances, dtype=np.float64)
                if np.ndim(tolerances)
                else float(tolerances)
            )

        m = p - 1
        self.lo_rank = np.zeros(m, dtype=np.int64)
        self.hi_rank = np.full(m, n, dtype=np.int64)
        if lo_sentinel is None or hi_sentinel is None:
            if np.issubdtype(self.key_dtype, np.floating):
                auto_lo, auto_hi = -np.inf, np.inf
            else:
                info = np.iinfo(self.key_dtype)
                auto_lo, auto_hi = info.min, info.max
            lo_sentinel = auto_lo if lo_sentinel is None else lo_sentinel
            hi_sentinel = auto_hi if hi_sentinel is None else hi_sentinel
        self.lo_key = np.empty(m, dtype=self.key_dtype)
        self.hi_key = np.empty(m, dtype=self.key_dtype)
        self.lo_key[:] = lo_sentinel
        self.hi_key[:] = hi_sentinel
        self.rounds_completed = 0

        #: Warm-start hints: key-space intervals carried over from a prior
        #: run on similar data (e.g. a splitter cache).  Hints never touch
        #: the ``L``/``U`` bounds directly — their ranks on *this* input
        #: are unknown, and seeding bounds without exact ranks would break
        #: the Theorem 3.3.1 monotonicity invariant.  Instead the driver
        #: probes :meth:`hint_probes` in its first histogramming round, so
        #: every tightening still flows through :meth:`update` with exact
        #: ranks and a stale hint degrades to a wasted probe, never a
        #: wrong answer.
        self.initial_intervals = None
        if initial_intervals is not None:
            pairs = list(initial_intervals)
            if len(pairs) == 0:
                raise ConfigError(
                    "initial_intervals must contain at least one "
                    "(lo, hi) key pair (pass None for a cold start)"
                )
            lo = np.array([pair[0] for pair in pairs], dtype=self.key_dtype)
            hi = np.array([pair[1] for pair in pairs], dtype=self.key_dtype)
            if np.any(hi < lo):
                raise ConfigError(
                    "initial_intervals pairs must satisfy lo <= hi"
                )
            self.initial_intervals = list(zip(lo.tolist(), hi.tolist()))
            self._hint_endpoints = np.concatenate([lo, hi])

    def hint_probes(self) -> np.ndarray:
        """Sorted, deduplicated warm-start probe keys (empty when cold).

        The endpoints of every :attr:`initial_intervals` pair — for a
        cache of previous final splitters these are the splitter keys
        themselves (degenerate ``(s, s)`` pairs work fine).
        """
        if self.initial_intervals is None:
            return np.empty(0, dtype=self.key_dtype)
        from repro.utils.arrays import sorted_unique

        return sorted_unique(self._hint_endpoints)

    # ------------------------------------------------------------------ #
    @property
    def nsplitters(self) -> int:
        return self.nparts - 1

    def finalized_mask(self) -> np.ndarray:
        """Boolean mask of splitters already inside their window ``T_i``."""
        lo_ok = (self.targets - self.lo_rank) <= self.tolerance
        hi_ok = (self.hi_rank - self.targets) <= self.tolerance
        return lo_ok | hi_ok

    def all_finalized(self) -> bool:
        return bool(np.all(self.finalized_mask()))

    def num_finalized(self) -> int:
        return int(np.count_nonzero(self.finalized_mask()))

    # ------------------------------------------------------------------ #
    def update(self, probe_keys: np.ndarray, probe_ranks: np.ndarray) -> None:
        """Fold one histogramming round's results into the bounds.

        ``probe_keys`` must be sorted ascending and ``probe_ranks`` are their
        exact global ranks (number of input keys strictly below each probe).
        For every splitter the largest probe with rank ≤ target improves
        ``L``; the smallest probe with rank ≥ target improves ``U``.  Bounds
        only ever tighten (Theorem 3.3.1's monotonicity invariant).
        """
        probe_keys = np.asarray(probe_keys)
        probe_ranks = np.asarray(probe_ranks, dtype=np.int64)
        if len(probe_keys) != len(probe_ranks):
            raise ConfigError("probe_keys and probe_ranks length mismatch")
        if len(probe_keys) == 0:
            self.rounds_completed += 1
            return
        if probe_keys.dtype.kind != "V" and np.any(
            probe_keys[1:] < probe_keys[:-1]
        ):
            # (Structured/void probe dtypes — tagged keys — don't support
            # ufunc comparison; they arrive pre-sorted from sorted_unique
            # and the rank monotonicity check below still guards ordering.)
            raise ConfigError("probe_keys must be sorted ascending")
        if np.any(probe_ranks[1:] < probe_ranks[:-1]):
            raise ConfigError(
                "probe_ranks must be non-decreasing (ranks are monotone in keys)"
            )

        # On equal ranks a probe can still tighten the *key-space* interval
        # (a probe landing in a gap between input keys has the same rank as
        # the bound but is a strictly better endpoint).  This matters for
        # classic histogram sort, whose synthetic probes are not input keys;
        # void (tagged) dtypes don't support ufunc comparison and never
        # produce such probes, so ties are skipped there.
        keys_comparable = probe_keys.dtype.kind != "V"

        # Largest probe with rank <= target: index of rightmost rank ≤ t.
        idx_lo = np.searchsorted(probe_ranks, self.targets, side="right") - 1
        has_lo = idx_lo >= 0
        safe_lo = np.clip(idx_lo, 0, None)
        better_rank = probe_ranks[safe_lo] > self.lo_rank
        if keys_comparable:
            tie_tighter = (probe_ranks[safe_lo] == self.lo_rank) & (
                probe_keys[safe_lo] > self.lo_key
            )
            improves = has_lo & (better_rank | tie_tighter)
        else:
            improves = has_lo & better_rank
        sel = np.where(improves)[0]
        if len(sel):
            self.lo_rank[sel] = probe_ranks[idx_lo[sel]]
            self.lo_key[sel] = probe_keys[idx_lo[sel]]

        # Smallest probe with rank >= target.
        idx_hi = np.searchsorted(probe_ranks, self.targets, side="left")
        has_hi = idx_hi < len(probe_ranks)
        safe_hi = np.clip(idx_hi, None, len(probe_ranks) - 1)
        better_rank = probe_ranks[safe_hi] < self.hi_rank
        if keys_comparable:
            tie_tighter = (probe_ranks[safe_hi] == self.hi_rank) & (
                probe_keys[safe_hi] < self.hi_key
            )
            improves = has_hi & (better_rank | tie_tighter)
        else:
            improves = has_hi & better_rank
        sel = np.where(improves)[0]
        if len(sel):
            self.hi_rank[sel] = probe_ranks[idx_hi[sel]]
            self.hi_key[sel] = probe_keys[idx_hi[sel]]

        self.rounds_completed += 1

    # ------------------------------------------------------------------ #
    def merged_intervals(self) -> MergedIntervals:
        """Disjoint union of intervals of *unfinalized* splitters.

        Intervals of distinct splitters either coincide or are disjoint up to
        shared endpoints (§3.3); we merge any overlap so the sampling mass
        ``G_j`` is counted once.  Merging happens in rank space (keys are
        monotone in rank, so key intervals merge identically).
        """
        open_mask = ~self.finalized_mask()
        if not np.any(open_mask):
            empty_i = np.empty(0, dtype=np.int64)
            empty_k = np.empty(0, dtype=self.key_dtype)
            return MergedIntervals(empty_k, empty_k, empty_i, empty_i)

        lo_r = self.lo_rank[open_mask]
        hi_r = self.hi_rank[open_mask]
        lo_k = self.lo_key[open_mask]
        hi_k = self.hi_key[open_mask]
        order = np.argsort(lo_r, kind="stable")
        lo_r, hi_r = lo_r[order], hi_r[order]
        lo_k, hi_k = lo_k[order], hi_k[order]

        merged_lo_r: list[int] = []
        merged_hi_r: list[int] = []
        merged_lo_k: list = []
        merged_hi_k: list = []
        for t in range(len(lo_r)):
            if merged_hi_r and lo_r[t] <= merged_hi_r[-1]:
                if hi_r[t] > merged_hi_r[-1]:
                    merged_hi_r[-1] = int(hi_r[t])
                    merged_hi_k[-1] = hi_k[t]
            else:
                merged_lo_r.append(int(lo_r[t]))
                merged_hi_r.append(int(hi_r[t]))
                merged_lo_k.append(lo_k[t])
                merged_hi_k.append(hi_k[t])

        return MergedIntervals(
            np.array(merged_lo_k, dtype=self.key_dtype),
            np.array(merged_hi_k, dtype=self.key_dtype),
            np.array(merged_lo_r, dtype=np.int64),
            np.array(merged_hi_r, dtype=np.int64),
        )

    def candidate_mass(self) -> int:
        """``G_j``: input keys still inside some splitter interval."""
        return self.merged_intervals().mass

    # ------------------------------------------------------------------ #
    def final_splitters(self) -> np.ndarray:
        """Choose, per splitter, the seen key ranked closest to its target.

        (Algorithm step 5, §3.3.)  Works whether or not every splitter is
        inside its window — callers that must guarantee the ε bound check
        :meth:`all_finalized` first.
        """
        lo_err = self.targets - self.lo_rank
        hi_err = self.hi_rank - self.targets
        use_lo = lo_err <= hi_err
        # Index-based selection (np.where does not support structured dtypes,
        # which the duplicate-tagged key space uses).
        out = self.hi_key.copy()
        out[use_lo] = self.lo_key[use_lo]
        return out

    def final_splitter_ranks(self) -> np.ndarray:
        """Exact ranks of the chosen splitters (for verification)."""
        lo_err = self.targets - self.lo_rank
        hi_err = self.hi_rank - self.targets
        return np.where(lo_err <= hi_err, self.lo_rank, self.hi_rank)

    def max_rank_error(self) -> int:
        """Largest ``|rank(S_i) − t_i|`` over splitters, for diagnostics."""
        errs = np.abs(self.final_splitter_ranks() - self.targets)
        return int(errs.max()) if len(errs) else 0

    # ------------------------------------------------------------------ #
    def interval_width_stats(self) -> dict[str, float]:
        """Summary of current interval rank-widths (drives Fig 3.1)."""
        widths = (self.hi_rank - self.lo_rank).astype(np.float64)
        return {
            "rounds": float(self.rounds_completed),
            "open_splitters": float(self.nsplitters - self.num_finalized()),
            "mass": float(self.candidate_mass()),
            "max_width": float(widths.max()) if len(widths) else 0.0,
            "mean_width": float(widths.mean()) if len(widths) else 0.0,
        }
