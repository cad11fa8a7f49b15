"""Base class for wave-index maintenance schemes.

A scheme is a *planner*: it owns the Appendix-A bookkeeping (the ``Days``
arrays and any scheme-specific state) and, driven one day at a time, emits
plans of primitive operations.  It never touches storage itself — the same
plan can be executed against the real substrate
(:class:`~repro.core.executor.PlanExecutor`) or costed symbolically
(:mod:`repro.analysis.daycount`), which keeps the measured and analytic
paths provably in sync.

Driving protocol::

    scheme = SomeScheme(window=10, n_indexes=2)
    plan = scheme.start_ops()            # builds days 1..W, returns the plan
    plan = scheme.transition_ops(11)     # then one call per subsequent day
    plan = scheme.transition_ops(12)

Days are 1-based and must be fed strictly sequentially; the scheme raises
:class:`~repro.errors.SchemeError` otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

from ...errors import SchemeError
from ..ops import Op
from ..timeset import validate_window
from ..wave import constituent_names


class WaveScheme(ABC):
    """Abstract wave-index maintenance scheme.

    Class attributes:
        name: Scheme name as used in the paper (``"DEL"``, ``"WATA*"`` ...).
        hard_window: ``True`` if the scheme indexes exactly the last ``W``
            days after every transition; ``False`` for soft windows.
        min_indexes: Smallest legal ``n`` (WATA-family schemes need 2).
        uses_temporaries: ``True`` if the scheme stages work in temporary
            indexes (affects the space analysis).
    """

    name: ClassVar[str] = "?"
    hard_window: ClassVar[bool] = True
    min_indexes: ClassVar[int] = 1
    uses_temporaries: ClassVar[bool] = False

    #: Length (in days) of the scheme's steady-state maintenance cycle.
    #: DEL-family schemes rotate through the whole window (period ``W``);
    #: WATA-family schemes rotate ``n−1`` clusters over ``W−1`` days.
    period_offset: ClassVar[int] = 0

    def __init__(self, window: int, n_indexes: int) -> None:
        validate_window(window, n_indexes, minimum_indexes=self.min_indexes)
        self.window = window
        self.n_indexes = n_indexes
        self.index_names = constituent_names(n_indexes)
        #: Scheme's own view of each binding's time-set (mirrors Appendix A's
        #: ``Days`` globals, extended to temporaries).
        self.days: dict[str, set[int]] = {}
        self._current_day: int | None = None

    # ------------------------------------------------------------------
    # Driving protocol
    # ------------------------------------------------------------------

    @property
    def current_day(self) -> int | None:
        """Return the last day incorporated, or ``None`` before start."""
        return self._current_day

    @property
    def maintenance_period(self) -> int:
        """Return the steady-state cycle length in days."""
        return max(1, self.window - self.period_offset)

    def start_ops(self) -> list[Op]:
        """Return the plan that builds the initial window (days 1..W)."""
        if self._current_day is not None:
            raise SchemeError(f"{self.name} was already started")
        plan = self._start()
        self._current_day = self.window
        return plan

    def transition_ops(self, new_day: int) -> list[Op]:
        """Return the plan that incorporates ``new_day`` and expires day
        ``new_day - W``."""
        if self._current_day is None:
            raise SchemeError(f"{self.name} must be started before transitions")
        if new_day != self._current_day + 1:
            raise SchemeError(
                f"days must be sequential: expected {self._current_day + 1}, "
                f"got {new_day}"
            )
        plan = self._transition(new_day)
        self._current_day = new_day
        return plan

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def _start(self) -> list[Op]:
        """Build the initial window; populate ``self.days``."""

    @abstractmethod
    def _transition(self, new_day: int) -> list[Op]:
        """Incorporate ``new_day``; update ``self.days``."""

    # ------------------------------------------------------------------
    # Checkpointing (see repro.core.checkpoint)
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """Return a JSON-serialisable snapshot of the scheme's bookkeeping.

        Restore with :func:`repro.core.checkpoint.restore_scheme`.
        """
        return {
            "scheme": self.name,
            "window": self.window,
            "n_indexes": self.n_indexes,
            "current_day": self._current_day,
            "days": {name: sorted(days) for name, days in self.days.items()},
            "extra": self._extra_state(),
        }

    def _extra_state(self) -> dict:
        """Scheme-specific state beyond the shared fields (override)."""
        return {}

    @classmethod
    def construct_for_state(cls, state: dict) -> "WaveScheme":
        """Build an instance compatible with ``state`` (pre-restore).

        Schemes with extra constructor arguments override this to recover
        them from ``state['extra']``; schemes whose configuration is not
        serialisable (e.g. callables) raise
        :class:`~repro.errors.SchemeError` directing callers to construct
        manually and use :meth:`restore_state`.
        """
        return cls(state["window"], state["n_indexes"])

    def _restore_extra(self, extra: dict) -> None:
        """Install scheme-specific state captured by :meth:`_extra_state`."""

    def restore_state(self, state: dict) -> None:
        """Install a snapshot produced by :meth:`get_state`.

        The scheme must have been constructed with the same ``(W, n)``.
        """
        if state["window"] != self.window or state["n_indexes"] != self.n_indexes:
            raise SchemeError(
                f"checkpoint is for W={state['window']}, n={state['n_indexes']}"
            )
        if state["scheme"] != self.name:
            raise SchemeError(
                f"checkpoint is for scheme {state['scheme']!r}, not {self.name!r}"
            )
        self._current_day = state["current_day"]
        self.days = {name: set(days) for name, days in state["days"].items()}
        self._restore_extra(state["extra"])

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def constituent_covering(self, day: int) -> str:
        """Return the constituent name whose time-set contains ``day``."""
        for name in self.index_names:
            if day in self.days.get(name, ()):
                return name
        raise SchemeError(
            f"{self.name}: no constituent covers day {day} "
            f"(days: { {k: sorted(v) for k, v in self.days.items()} })"
        )

    def constituent_days(self) -> dict[str, set[int]]:
        """Return the time-sets of the constituent indexes only."""
        return {
            name: set(self.days.get(name, set())) for name in self.index_names
        }

    def covered_days(self) -> set[int]:
        """Return the union of the constituents' time-sets."""
        union: set[int] = set()
        for name in self.index_names:
            union.update(self.days.get(name, ()))
        return union

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(W={self.window}, n={self.n_indexes})"
