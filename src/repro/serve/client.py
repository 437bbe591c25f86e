"""Serve client: the reference socket client.

:class:`ServeClient` is the reference implementation of the
``repro.serve/1`` line protocol over a local TCP socket — one JSON
request per line out, one JSON response per line back, in order.
"""

from __future__ import annotations

import json
import socket

__all__ = ["ServeClient"]


class ServeClient:
    """Line-protocol client for a :class:`~repro.serve.server.TcpFrontend`.

    Synchronous: :meth:`request` sends one request line and blocks for
    its response line.  Use one client per thread (the protocol answers
    a connection's lines in order, so interleaving senders on one
    socket would misattribute responses).
    """

    def __init__(self, address: tuple[str, int],
                 timeout: float | None = 120.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._rf = self._sock.makefile("r", encoding="utf-8")
        self._wf = self._sock.makefile("w", encoding="utf-8")

    def request(self, doc: dict) -> dict:
        """One request in, one response document out."""
        self._wf.write(json.dumps(doc) + "\n")
        self._wf.flush()
        line = self._rf.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def ping(self) -> dict:
        """Round-trip a ``{"op": "ping"}`` control request."""
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        """Fetch the serve-session counters."""
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> dict:
        """Ask the daemon to stop (answered before it does)."""
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        """Close the connection (the daemon keeps serving others).

        The makefile handles hold their own references to the socket,
        so all three are closed; otherwise the connection stays open
        and the server's handler never sees end-of-stream.
        """
        self._rf.close()
        self._wf.close()
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
