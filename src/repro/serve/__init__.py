"""``repro.serve`` — the kernel-service daemon and its client.

Three modules, one wire protocol:

* :mod:`repro.serve.protocol` — length-prefixed JSON framing, the tensor
  codec (raw bytes: remote results are bit-identical by construction),
  the compile-spec codec, and the structured error codes.
* :mod:`repro.serve.daemon` — :class:`KernelServer`, the asyncio
  unix-socket daemon behind ``repro serve``: ``execute`` / ``stats`` /
  ``health`` / ``shutdown``, deadlines, bounded admission with
  structured ``overloaded`` shedding, graceful SIGTERM drain, crash-safe
  warm restart.
* :mod:`repro.serve.client` — :class:`ServiceClient`: one connection to
  the daemon with bounded retries.

Processes share compiled kernels through the disk store, not this
package: a :class:`~repro.service.engine.KernelService` opened on the
daemon's ``--dir`` finds what the daemon compiled.
"""

from repro.serve.client import (
    RemoteError,
    RemoteReplyError,
    RemoteUnavailable,
    ServiceClient,
)
from repro.serve.daemon import KernelServer, PlanPool, probe_socket
from repro.serve.protocol import (
    OPERATIONS,
    PROTOCOL_VERSION,
    RETRYABLE_ERRORS,
    ProtocolError,
)

__all__ = [
    "KernelServer",
    "PlanPool",
    "probe_socket",
    "ServiceClient",
    "RemoteError",
    "RemoteReplyError",
    "RemoteUnavailable",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "OPERATIONS",
    "RETRYABLE_ERRORS",
]
