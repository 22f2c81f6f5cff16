"""Network serving: an asyncio HTTP/JSON front door for reverse top-k.

The in-process serving stack (:mod:`repro.serving`, :mod:`repro.dynamic`)
answers queries and applies updates for one caller in one process.  This
package puts a network protocol in front of it without changing a single
answer:

* :mod:`repro.net.http` — minimal stdlib HTTP/1.1 framing over asyncio
  streams (keep-alive, Content-Length bodies);
* :mod:`repro.net.admission` — per-tenant token-bucket rate limits, a
  bounded pending queue with 429 + ``Retry-After`` backpressure, and
  deadline propagation that sheds before work is done;
* :mod:`repro.net.coalesce` — cross-connection request coalescing onto the
  service's batch scheduler (in-flight dedup, load-adaptive batching; cache
  hits answered on the loop while nothing scans, only misses offloaded to
  the executor);
* :mod:`repro.net.rollover` — zero-downtime index rollover: updates are
  maintained on a clone and swapped in atomically, with generation pinning
  so no request ever observes a torn index version;
* :mod:`repro.net.server` — the :class:`ReverseTopKServer` tying the above
  together, plus :func:`start_in_thread` for embedding and a CLI entry
  point (``python -m repro.net.server``);
* :mod:`repro.net.client` — a connection-pooled async client used by the
  benchmarks, the examples and the tests.

Every admitted query's answer is bit-identical to calling
``engine.query`` directly at the served index version — the protocol adds
scheduling, never approximation.
"""

from .admission import (
    DEFAULT_TENANT,
    AdmissionController,
    AdmissionError,
    AdmissionPolicy,
    DeadlineExceeded,
    QueueFull,
    RateLimited,
    TenantCounters,
    TokenBucket,
)
from .client import ReverseTopKClient, ServerRejected
from .coalesce import CoalesceStats, QueryCoalescer
from .http import HttpError, HttpRequest
from .rollover import RolloverManager, ServiceGeneration, clone_for_rollover
from .server import (
    ReverseTopKServer,
    ServerConfig,
    ServerHandle,
    start_in_thread,
)

__all__ = [
    "DEFAULT_TENANT",
    "AdmissionController",
    "AdmissionError",
    "AdmissionPolicy",
    "CoalesceStats",
    "DeadlineExceeded",
    "HttpError",
    "HttpRequest",
    "QueryCoalescer",
    "QueueFull",
    "RateLimited",
    "ReverseTopKClient",
    "ReverseTopKServer",
    "RolloverManager",
    "ServerConfig",
    "ServerHandle",
    "ServerRejected",
    "ServiceGeneration",
    "TenantCounters",
    "TokenBucket",
    "clone_for_rollover",
    "start_in_thread",
]
