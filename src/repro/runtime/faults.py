"""Deterministic fault injection for chaos-testing the runtime.

A *fault plan* is a JSON document carried in the ``REPRO_FAULT_PLAN``
environment variable (the transport was chosen so pool workers inherit
it for free, whether the pool forks or spawns).  Each rule names an
operation and a *site* where it fires:

* ``kill`` -- the worker SIGKILLs itself mid-task, exactly what a
  segfault or the OOM killer does to a real run (site ``task``);
* ``raise`` -- the task raises :class:`InjectedFault` (site ``task``);
* ``stall`` -- the task sleeps ``seconds`` before doing any work, long
  enough to trip the pool's ``task_timeout_s`` watchdog (site ``task``);
* ``torn_write`` -- a cache entry is truncated mid-write, producing
  the torn entry a crash between ``write`` and ``fsync`` would leave
  behind (site ``cache_write``).

Determinism is the whole point: a rule either pins an exact
``(task, attempt)`` coordinate, or carries a probability ``p`` that is
resolved by **hashing** ``(plan seed, op, site, task, attempt, key)``
-- never by consuming RNG state -- so the same plan injects the same
faults at the same places on every run, regardless of scheduling,
worker count, or how many unrelated random draws happened first.  That
is what lets CI assert byte-identical output *through* a chaos run.

Faults only fire where the runtime explicitly calls the injection
hooks (:func:`inject`, :func:`maybe_tear_write`): pool workers before
each task, and :class:`~repro.runtime.cache.FeatureCache` between
writing and publishing an entry.  The degraded-to-serial path in
:func:`~repro.runtime.pool.parallel_map` deliberately does *not*
inject, mirroring the real failure modes it exists to survive (a task
that crashes its worker does not crash the parent).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field

from ..obs.logging import get_logger
from ..obs.metrics import counter

logger = get_logger("runtime.faults")

#: Environment variable holding the JSON fault plan.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Operations a rule may name, and the site each one fires at.
SITE_BY_OP = {
    "kill": "task",
    "raise": "task",
    "stall": "task",
    "torn_write": "cache_write",
}


class FaultPlanError(ValueError):
    """The ``REPRO_FAULT_PLAN`` document is malformed."""


class InjectedFault(RuntimeError):
    """The exception a ``raise`` rule throws inside a task."""


@dataclass
class FaultRule:
    """One injection rule of a fault plan."""

    op: str
    task: int | None = None  # None = any task index
    attempt: int | None = 0  # None = every attempt (default: first only)
    seconds: float = 30.0  # stall duration
    key_substring: str | None = None  # cache_write: match against the key
    p: float | None = None  # probabilistic gate (hash-resolved)
    times: int | None = None  # per-process firing cap
    fired: int = field(default=0, compare=False)  # per-process count

    @property
    def site(self) -> str:
        return SITE_BY_OP[self.op]

    def matches(
        self, site: str, index: int | None, attempt: int, key: str | None
    ) -> bool:
        """Structural match only; the probabilistic gate is separate."""
        if site != self.site:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.task is not None and self.task != index:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        if self.key_substring is not None and self.key_substring not in (
            key or ""
        ):
            return False
        return True


@dataclass
class FaultPlan:
    """A parsed ``REPRO_FAULT_PLAN`` document."""

    seed: int = 0
    rules: list[FaultRule] = field(default_factory=list)

    def gate(
        self,
        rule: FaultRule,
        site: str,
        index: int | None,
        attempt: int,
        key: str | None,
    ) -> bool:
        """Resolve a rule's probabilistic gate deterministically.

        Hashes the full injection coordinate with the plan seed, so the
        decision for a given site never depends on execution order or
        on any other rule having fired.
        """
        if rule.p is None:
            return True
        coordinate = f"{self.seed}|{rule.op}|{site}|{index}|{attempt}|{key}"
        digest = hashlib.sha256(coordinate.encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction < rule.p


def parse_plan(text: str) -> FaultPlan:
    """Parse a fault-plan JSON document; raises :class:`FaultPlanError`."""
    try:
        document = json.loads(text)
    except ValueError as error:
        raise FaultPlanError(f"fault plan is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise FaultPlanError("fault plan must be a JSON object")
    rules = []
    for raw in document.get("faults", []):
        if not isinstance(raw, dict):
            raise FaultPlanError(f"fault rule must be an object, got {raw!r}")
        op = raw.get("op")
        if op not in SITE_BY_OP:
            raise FaultPlanError(
                f"unknown fault op {op!r}; choose from {sorted(SITE_BY_OP)}"
            )
        p = raw.get("p")
        if p is not None and not 0.0 <= float(p) <= 1.0:
            raise FaultPlanError(f"fault probability must be in [0, 1], got {p}")
        rules.append(
            FaultRule(
                op=op,
                task=raw.get("task"),
                attempt=raw["attempt"] if "attempt" in raw else 0,
                seconds=float(raw.get("seconds", 30.0)),
                key_substring=raw.get("key_substring"),
                p=None if p is None else float(p),
                times=raw.get("times"),
            )
        )
    return FaultPlan(seed=int(document.get("seed", 0)), rules=rules)


# Parsed-plan cache: keyed by (pid, env text) so forked workers re-parse
# (resetting the per-process ``fired`` counters) and env edits mid-process
# (tests) take effect.
_cached: tuple[int, str | None, FaultPlan | None] = (-1, None, None)


def active_plan() -> FaultPlan | None:
    """The plan from ``REPRO_FAULT_PLAN``, or ``None`` when unset."""
    global _cached
    text = os.environ.get(ENV_FAULT_PLAN) or None
    pid = os.getpid()
    if _cached[0] == pid and _cached[1] == text:
        return _cached[2]
    plan = parse_plan(text) if text else None
    _cached = (pid, text, plan)
    return plan


def inject(
    site: str,
    *,
    index: int | None = None,
    attempt: int = 0,
    key: str | None = None,
) -> None:
    """Fire any matching ``kill``/``raise``/``stall`` rule at ``site``."""
    plan = active_plan()
    if plan is None:
        return
    for rule in plan.rules:
        if rule.op == "torn_write":
            continue  # file-tearing goes through maybe_tear_write
        if not rule.matches(site, index, attempt, key):
            continue
        if not plan.gate(rule, site, index, attempt, key):
            continue
        rule.fired += 1
        counter("faults_injected", op=rule.op).inc()
        logger.warning(
            "injecting fault op=%s site=%s index=%s attempt=%s",
            rule.op, site, index, attempt,
        )
        if rule.op == "raise":
            raise InjectedFault(
                f"injected fault at {site} index={index} attempt={attempt}"
            )
        if rule.op == "stall":
            time.sleep(rule.seconds)
        elif rule.op == "kill":
            os.kill(os.getpid(), signal.SIGKILL)


def tear_file(path: str | os.PathLike) -> None:
    """Truncate a file to half its size (simulates a torn write)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)


def maybe_tear_write(path: str | os.PathLike, key: str | None = None) -> bool:
    """Tear the file at ``path`` if a ``torn_write`` rule matches ``key``."""
    plan = active_plan()
    if plan is None:
        return False
    for rule in plan.rules:
        if rule.op != "torn_write":
            continue
        if not rule.matches("cache_write", None, 0, key):
            continue
        if not plan.gate(rule, "cache_write", None, 0, key):
            continue
        rule.fired += 1
        counter("faults_injected", op=rule.op).inc()
        logger.warning("injecting torn write into %s (key=%s)", path, key)
        tear_file(path)
        return True
    return False
