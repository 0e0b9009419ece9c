"""Output checks: every run must pass them or it fails loudly.

- Each step's CommEvent multiset equals the closed-form SPMD oracle
  (:func:`repro.lint.spmd_check.expected_events`).
- The first mp step's loss equals the inproc oracle's bitwise.
- ``eval_loss`` is finite.
"""

from __future__ import annotations

import math
from types import SimpleNamespace


class CheckFailed(AssertionError):
    """An output check rejected the run; the message lists every problem."""


def event_problems(config, step_events: list[list], batch: int, seq: int,
                   dp_grad_numel: int | None = None,
                   limit: int = 5) -> list[str]:
    """Mismatches between each step's events and the oracle's multiset."""
    from repro.lint.spmd_check import (
        compare_event_streams,
        expected_events,
        observed_events,
    )

    kwargs = {"dp_grad_numel": dp_grad_numel} if config.dp > 1 else {}
    expected = expected_events(config, batch, seq, **kwargs)
    problems: list[str] = []
    for step, events in enumerate(step_events):
        diff = compare_event_streams(
            expected, observed_events(SimpleNamespace(events=events)))
        problems.extend(f"step {step}: {d}" for d in diff)
        if len(problems) >= limit:
            break
    return problems[:limit]


def loss_problems(first_loss: float, oracle_loss: float) -> list[str]:
    """The mp first-step loss must equal the inproc oracle's exactly."""
    if first_loss != oracle_loss:
        return [f"first-step loss {first_loss!r} != inproc oracle "
                f"{oracle_loss!r}"]
    return []


def eval_problems(value: float) -> list[str]:
    if not math.isfinite(value):
        return [f"eval_loss is not finite: {value!r}"]
    return []


def require(problems: list[str]) -> None:
    if problems:
        raise CheckFailed("output check failed:\n  " + "\n  ".join(problems))
