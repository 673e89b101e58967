"""Deterministic fault injection for the serving and snapshot stack.

The resilience layer — partial answers over the surviving shards and
snapshot quarantine — only earns trust if its failure
paths are *driven*, repeatably, in tests and benchmarks. This module is
the driver: a process-global :class:`FaultPlan` describing which
injection **sites** misbehave and how, installed explicitly and
consulted by small hooks threaded through the stack:

========================  ====================================================
site                      fired from (context keys)
========================  ====================================================
``shard_probe``           :meth:`ShardRouter._check_shards`, once per
                          shard per query batch, before the shard is
                          fetched (``shard``)
``snapshot_read``         :func:`repro.index.snapshot.load_snapshot`, before
                          a snapshot file is opened (``path``)
``fsync``                 :func:`repro.index.arena.atomic_write`, at each
                          durability barrier (``path``, ``target`` —
                          ``"file"`` before the publish, ``"dir"`` after)
========================  ====================================================

A plan is a mapping ``site -> rule`` (or ``site -> [rules]``); each rule
is a dict with a ``kind`` plus matchers and scoping:

* ``kind`` — ``"delay"`` (sleep ``ms`` milliseconds inside the site)
  or ``"exception"`` (raise :class:`InjectedFault`);
* matchers — any other key is compared against the site's context:
  equality for scalars (``{"shard": 1}``), substring for ``path``
  (``{"path": "shard-0001"}`` matches the file name);
* ``times`` — fire at most this many times (default ``1``; ``None`` is
  unlimited). Budgets and the plan's firing count change under one plan
  lock, so threaded HTTP handlers probing shards concurrently fire a
  ``times=n`` rule exactly ``n`` times;
* ``probability`` — fire on this fraction of matching hits, drawn from
  the plan's seeded :class:`random.Random` stream (chaos benchmarks;
  omit for the deterministic always-fire used by the test matrix).

Example (the ISSUE's canonical plan)::

    install({"shard_probe": {"shard": 1, "kind": "delay", "ms": 50}})

Determinism and overhead contract:

* the plan's random stream is seeded from ``seed`` (default: the
  ``REPRO_FAULT_SEED`` environment variable, else 7), so a pinned seed
  replays the same fault sequence;
* nothing fires unless a plan was explicitly installed. The hooks in
  :mod:`repro.index` check ``sys.modules`` for this module before doing
  anything, so a process that never imports ``repro.serving.faults``
  pays literally zero overhead, and a serving process with no plan pays
  one ``None`` check per site.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager

#: Every injection site the stack exposes; unknown sites in a plan are
#: rejected at install time so a typo cannot silently disable a fault.
FAULT_SITES = (
    "shard_probe",
    "snapshot_read",
    "fsync",
)

#: Fault behaviours a rule may request.
FAULT_KINDS = ("delay", "exception")


class InjectedFault(ValueError):
    """The exception an ``"exception"``-kind fault raises.

    A :class:`ValueError` subclass on purpose: the quarantine and
    one-line-CLI-error paths already catch ``ValueError`` for genuinely
    corrupt inputs, so an injected read fault exercises exactly the
    handlers a real corruption would.
    """


class FaultRule:
    """One normalized fault rule: kind + matchers + firing budget."""

    __slots__ = ("site", "kind", "ms", "probability", "match", "remaining")

    def __init__(self, site: str, spec: dict) -> None:
        spec = dict(spec)
        kind = spec.pop("kind", None)
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"fault rule for site {site!r} has kind {kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        self.site = site
        self.kind = kind
        self.ms = float(spec.pop("ms", 0.0))
        if kind == "delay" and self.ms <= 0:
            raise ValueError(
                f"delay rule for site {site!r} needs a positive 'ms', "
                f"got {self.ms}"
            )
        self.probability = spec.pop("probability", None)
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        times = spec.pop("times", 1)
        if times is not None and (not isinstance(times, int) or times <= 0):
            raise ValueError(f"times must be a positive int or None, got {times!r}")
        #: Firings left (``None``: unlimited); the plan lock guards it.
        self.remaining = times
        self.match = spec  # whatever is left matches against site context

    def matches(self, context: dict) -> bool:
        for key, want in self.match.items():
            got = context.get(key)
            if key == "path":
                if str(want) not in str(got if got is not None else ""):
                    return False
            elif got != want:
                return False
        return True

    def consume(self) -> bool:
        """Claim one firing from the budget (caller holds the plan lock)."""
        if self.remaining is None:
            return True
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


class FaultPlan:
    """A seeded set of fault rules, ready to install.

    Args:
        spec: ``{site: rule-or-list-of-rules}`` (see the module docs).
        seed: seed for the probability stream; ``None`` reads the
            ``REPRO_FAULT_SEED`` environment variable (default 7) so CI
            can pin the whole suite's fault randomness from one place.
    """

    def __init__(self, spec: dict, seed: int | None = None) -> None:
        if seed is None:
            seed = int(os.environ.get("REPRO_FAULT_SEED", 7))
        self.seed = seed
        self._rng = random.Random(seed)
        self.rules: dict[str, list[FaultRule]] = {}
        for site, rules in spec.items():
            if site not in FAULT_SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; expected one of "
                    f"{FAULT_SITES}"
                )
            if isinstance(rules, dict):
                rules = [rules]
            self.rules[site] = [FaultRule(site, rule) for rule in rules]
        #: Guards the rules' budgets, the firing count and the log:
        #: threaded HTTP handlers reach ``shard_probe`` concurrently.
        self._lock = threading.Lock()
        self._fired = 0
        #: The (site, context) pairs that fired, in firing order.
        self.fired_log: list[tuple[str, dict]] = []

    @property
    def fired_count(self) -> int:
        """Total firings of this plan so far."""
        return self._fired

    def fire(self, site: str, **context) -> None:
        """Trigger every matching rule for ``site`` (may sleep or raise)."""
        for rule in self.rules.get(site, ()):
            if not rule.matches(context):
                continue
            with self._lock:
                if rule.probability is not None and (
                    self._rng.random() >= rule.probability
                ):
                    continue
                if not rule.consume():
                    continue
                self._fired += 1
                self.fired_log.append((site, context))
            if rule.kind == "delay":
                time.sleep(rule.ms / 1000.0)
            else:
                raise InjectedFault(
                    f"injected fault at {site} ({context})"
                )


#: The process-global plan; ``None`` means fault injection is off.
_PLAN: FaultPlan | None = None


def install(spec: dict | FaultPlan, seed: int | None = None) -> FaultPlan:
    """Install a fault plan process-globally (replacing any previous
    plan); returns it."""
    global _PLAN
    plan = spec if isinstance(spec, FaultPlan) else FaultPlan(spec, seed=seed)
    _PLAN = plan
    return plan


def uninstall() -> None:
    """Remove the installed plan (idempotent)."""
    global _PLAN
    _PLAN = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or ``None`` when injection is off."""
    return _PLAN


def maybe_fire(site: str, **context) -> None:
    """The hook injection sites call: a no-op unless a plan is installed."""
    if _PLAN is not None:
        _PLAN.fire(site, **context)


@contextmanager
def injected(spec: dict, seed: int | None = None):
    """Scope a fault plan to a ``with`` block (test-suite sugar)."""
    plan = install(spec, seed=seed)
    try:
        yield plan
    finally:
        uninstall()
