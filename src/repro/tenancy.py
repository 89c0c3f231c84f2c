"""Tenant identity: the namespace that scopes every serving-side key.

A *tenant* is the unit of isolation and accounting in the serving tier —
the "domain" concept borrowed from multi-tenant web stacks, where one id
scopes every model and cache key.  Here the tenant id scopes:

* the server's resident-table and in-flight-dedup keys
  (:func:`repro.serve.server.serve_key`),
* the tuning database's record namespace
  (:meth:`repro.tune.db.TuningRecord.key`, with transparent fallback to
  the shared :data:`DEFAULT_TENANT` namespace on miss),
* per-tenant metrics, quotas, and tenant-scoped warmup/invalidation.

The id travels the wire as an **additive** field on the ``ServeCall``
envelope: absent means :data:`DEFAULT_TENANT`, so untenanted calls and
pre-tenant traces stay byte-identical.

Because tenant ids become key segments and (potentially) file-name
fragments, they are validated at every boundary — :func:`validate_tenant`
rejects ids that would corrupt a ``::``-joined key or a path.  The
protocol layer converts the :class:`ValueError` raised here into a
:class:`~repro.errors.ProtocolError` at decode time; client APIs let it
propagate as-is.

This module is deliberately dependency-light (stdlib + :mod:`repro.errors`
only) so both :mod:`repro.tune` and :mod:`repro.serve` can import it
without layering cycles.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import QuotaExceededError

__all__ = [
    "DEFAULT_TENANT",
    "TENANT_SEPARATOR",
    "TenantConfig",
    "TenantRegistry",
    "qualify_key",
    "split_tenant",
    "validate_tenant",
]

#: The shared namespace every untenanted request belongs to.  Pre-tenant
#: databases, traces, and wire envelopes all land here, byte-identically
#: to how they behaved before tenancy existed.
DEFAULT_TENANT = "default"

#: The key-segment separator tenant ids are joined with — the same ``::``
#: every other composite key in this codebase uses, which is exactly why
#: a tenant id may not contain it.
TENANT_SEPARATOR = "::"

#: Characters/patterns a tenant id may not contain: the key separator
#: (would alias another key), path separators (ids may appear in file
#: names), and whitespace (ids appear in space-separated reports).
_FORBIDDEN_SUBSTRINGS = (TENANT_SEPARATOR, "/", "\\")


def validate_tenant(tenant: str) -> str:
    """Validate a tenant id; returns it unchanged or raises ``ValueError``.

    A valid id is a non-empty string containing no ``::`` (the key
    separator), no ``/`` or ``\\`` (ids may become file-name fragments),
    and no whitespace.  Everything else — including :data:`DEFAULT_TENANT`
    itself — passes; tenancy does not restrict ids to a registry.
    """
    if not isinstance(tenant, str):
        raise ValueError(f"tenant id must be a string, got {type(tenant).__name__}")
    if not tenant:
        raise ValueError("tenant id must not be empty")
    for forbidden in _FORBIDDEN_SUBSTRINGS:
        if forbidden in tenant:
            raise ValueError(
                f"tenant id {tenant!r} must not contain {forbidden!r}"
            )
    if any(ch.isspace() for ch in tenant):
        raise ValueError(f"tenant id {tenant!r} must not contain whitespace")
    return tenant


def qualify_key(tenant: str, key: str) -> str:
    """Prefix ``key`` with the tenant namespace.

    The :data:`DEFAULT_TENANT` namespace is the *unprefixed* key — that
    invariant is what makes pre-tenant databases, resident tables, and
    wire envelopes readable without migration (the default namespace IS
    the legacy format).
    """
    validate_tenant(tenant)
    if tenant == DEFAULT_TENANT:
        return key
    return f"{tenant}{TENANT_SEPARATOR}{key}"


def split_tenant(qualified: str, known_tenants=None) -> tuple[str, str]:
    """The ``(tenant, bare key)`` behind a possibly-qualified key.

    The inverse of :func:`qualify_key` needs help: a bare key's first
    ``::`` segment could be a tenant id or the first segment of a legacy
    key.  ``known_tenants`` (an iterable of non-default tenant ids)
    disambiguates — a prefix is only split off when it names a known
    tenant.  With no ``known_tenants``, any structurally-valid tenant
    prefix is split off; that is unambiguous for **serve keys** (a bare
    serve key always starts with the workload family key, whose ``/``
    segments can never validate as a tenant id) but not for arbitrary
    ``::``-joined keys — tuning records carry an explicit ``tenant``
    field instead of relying on this.
    """
    head, separator, tail = qualified.partition(TENANT_SEPARATOR)
    if not separator:
        return DEFAULT_TENANT, qualified
    if known_tenants is not None:
        if head in known_tenants:
            return head, tail
        return DEFAULT_TENANT, qualified
    try:
        validate_tenant(head)
    except ValueError:
        return DEFAULT_TENANT, qualified
    if head == DEFAULT_TENANT:
        return DEFAULT_TENANT, qualified
    return head, tail


# -- quotas -------------------------------------------------------------------


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's admission-control budget.

    ``rate_rps`` caps sustained submissions per second (a sliding one-second
    window); ``max_in_flight`` caps concurrently outstanding requests.
    ``None`` means unlimited — the default tenant ships with no limits, so
    tenancy is pay-for-what-you-configure.
    """

    tenant: str
    display_name: str = ""
    rate_rps: float | None = None
    max_in_flight: int | None = None

    def __post_init__(self) -> None:
        validate_tenant(self.tenant)
        if self.rate_rps is not None and not self.rate_rps > 0:
            raise ValueError(
                f"tenant {self.tenant!r} rate_rps must be positive, "
                f"got {self.rate_rps!r}"
            )
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError(
                f"tenant {self.tenant!r} max_in_flight must be positive, "
                f"got {self.max_in_flight!r}"
            )

    @property
    def label(self) -> str:
        """The name shown in reports: the display name, else the id."""
        return self.display_name or self.tenant


class TenantRegistry:
    """Per-tenant configs plus the live admission-control state.

    The supervisor's front door calls :meth:`admit` once per submission
    and :meth:`release` once per completion (wired through the request
    future's done-callback).  Unregistered tenants are admitted without
    limits — the registry constrains only tenants an operator configured,
    so an empty registry is the exact pre-tenancy behaviour.

    Thread-safe: ``admit``/``release`` run under one lock from submitter
    and completion threads alike.
    """

    def __init__(self, configs=()) -> None:
        self._configs: dict[str, TenantConfig] = {}
        self._in_flight: dict[str, int] = {}
        self._recent: dict[str, list[float]] = {}
        self._rejected: dict[str, int] = {}
        self._lock = threading.Lock()
        for config in configs:
            self.register(config)

    def register(self, config: TenantConfig) -> None:
        """Add or replace one tenant's config."""
        if not isinstance(config, TenantConfig):
            raise ValueError(
                f"expected a TenantConfig, got {type(config).__name__}"
            )
        with self._lock:
            self._configs[config.tenant] = config

    def get(self, tenant: str) -> TenantConfig | None:
        """The registered config for ``tenant``, if any."""
        with self._lock:
            return self._configs.get(tenant)

    def tenants(self) -> tuple[str, ...]:
        """Every registered tenant id, sorted."""
        with self._lock:
            return tuple(sorted(self._configs))

    def admit(self, tenant: str, now: float | None = None) -> None:
        """Count one submission against ``tenant``'s budget, or refuse it.

        Raises :class:`~repro.errors.QuotaExceededError` when the tenant's
        sliding-window rate or in-flight cap is exhausted; an admitted
        request **must** be balanced by one :meth:`release` call.
        """
        validate_tenant(tenant)
        timestamp = time.monotonic() if now is None else now
        with self._lock:
            config = self._configs.get(tenant)
            if config is not None:
                if config.max_in_flight is not None:
                    if self._in_flight.get(tenant, 0) >= config.max_in_flight:
                        self._rejected[tenant] = self._rejected.get(tenant, 0) + 1
                        raise QuotaExceededError(
                            f"tenant {config.label!r} has "
                            f"{self._in_flight.get(tenant, 0)} requests in "
                            f"flight (cap {config.max_in_flight})"
                        )
                if config.rate_rps is not None:
                    window = [
                        one
                        for one in self._recent.get(tenant, [])
                        if timestamp - one < 1.0
                    ]
                    self._recent[tenant] = window
                    if len(window) >= config.rate_rps:
                        self._rejected[tenant] = self._rejected.get(tenant, 0) + 1
                        raise QuotaExceededError(
                            f"tenant {config.label!r} exceeded its rate "
                            f"quota of {config.rate_rps:g} req/s"
                        )
                    window.append(timestamp)
            self._in_flight[tenant] = self._in_flight.get(tenant, 0) + 1

    def release(self, tenant: str) -> None:
        """Balance one earlier :meth:`admit` (the request completed)."""
        with self._lock:
            count = self._in_flight.get(tenant, 0)
            if count <= 1:
                self._in_flight.pop(tenant, None)
            else:
                self._in_flight[tenant] = count - 1

    def in_flight(self, tenant: str) -> int:
        """How many of ``tenant``'s requests are outstanding right now."""
        with self._lock:
            return self._in_flight.get(tenant, 0)

    def rejected(self, tenant: str) -> int:
        """How many of ``tenant``'s submissions were refused over quota."""
        with self._lock:
            return self._rejected.get(tenant, 0)

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant admission state, JSON-ready (for stats rollups)."""
        with self._lock:
            tenants = sorted(
                set(self._configs) | set(self._in_flight) | set(self._rejected)
            )
            return {
                tenant: {
                    "in_flight": self._in_flight.get(tenant, 0),
                    "rejected": self._rejected.get(tenant, 0),
                    **(
                        {
                            "rate_rps": config.rate_rps,
                            "max_in_flight": config.max_in_flight,
                        }
                        if (config := self._configs.get(tenant)) is not None
                        else {}
                    ),
                }
                for tenant in tenants
            }
