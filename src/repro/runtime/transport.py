"""Zero-copy partition transport: pickle-5 out-of-band buffers + shm.

Shipping a featurized shard through a pipe costs two copies (pickle in
the parent, unpickle in the worker) plus the pipe write itself.  For the
numpy-heavy partitions the paper's pipelines produce, pickle protocol 5
lets us lift the array payloads *out* of the pickle stream
(``buffer_callback``): the stream then carries only structure, and the
raw buffers travel separately.  This module adds the second half: when
the out-of-band payload is large enough, the buffers are written once
into a :class:`multiprocessing.shared_memory.SharedMemory` segment and
the worker reconstructs its arrays as **views over the mapped segment**
— zero copies on the receive side, one copy total.

Lifecycle contract (POSIX shm semantics):

- the sender creates the segment, sends its name, and must keep the
  segment alive until the receiver acknowledges the message; after the
  ack it calls :meth:`ShipResult.release` (close + unlink) — the kernel
  keeps the pages alive while the worker has them mapped;
- the receiver keeps every attached segment mapped for its process
  lifetime (:func:`unpack` returns the segments): cached rows may be
  views into the mapping, so unmapping early would invalidate live
  arrays.  Evicting a cached shard therefore frees the Python row
  objects, not the mapped pages — a documented trade of address space
  for copy-free receives.

Anything that cannot use shared memory (no ``/dev/shm``, permission
errors) degrades to inline out-of-band buffers on the pipe — one copy,
still no pickle of the raw bytes.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - stdlib since 3.8
    shared_memory = None

#: out-of-band payloads at least this large go through shared memory;
#: below it the pipe copy is cheaper than a segment create + map
SHM_THRESHOLD = 1 << 16


@dataclass
class ShipResult:
    """A packed message plus its transfer accounting.

    ``payload`` is what actually crosses the pipe; ``segment`` (when
    shared memory was used) must stay alive until the receiver has
    acknowledged the message, then :meth:`release` both closes the
    sender's mapping and unlinks the name.
    """

    payload: Tuple
    #: bytes pickled/copied through the pipe (stream + inline buffers)
    shipped_bytes: int = 0
    #: bytes placed in shared memory (receiver maps, never copies)
    mapped_bytes: int = 0
    segment: Optional[Any] = field(default=None, repr=False)

    def release(self) -> None:
        """Close and unlink the shm segment (receiver has mapped it)."""
        if self.segment is not None:
            self.segment.close()
            try:
                self.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self.segment = None


def pack(obj: Any, *, shm_threshold: int = SHM_THRESHOLD) -> ShipResult:
    """Pack ``obj`` for the pipe, lifting large numpy payloads into shm.

    The returned payload is one of::

        ("inline", body, [buffer, ...])          # buffers ride the pipe
        ("shm", body, segment_name, [size, ...]) # buffers live in shm

    ``body`` is the protocol-5 pickle stream with array payloads
    extracted out-of-band.  Objects whose buffers resist out-of-band
    treatment (non-contiguous views) fall back to a plain in-band
    pickle.
    """
    buffers: List[pickle.PickleBuffer] = []
    try:
        body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raws = [b.raw() for b in buffers]
    except BufferError:
        body = pickle.dumps(obj, protocol=5)
        return ShipResult(("inline", body, []), shipped_bytes=len(body))
    total = sum(r.nbytes for r in raws)
    if shared_memory is not None and total >= shm_threshold:
        try:
            segment = shared_memory.SharedMemory(create=True, size=total)
        except (OSError, ValueError):
            segment = None
        if segment is not None:
            offset = 0
            sizes = []
            for raw in raws:
                segment.buf[offset : offset + raw.nbytes] = raw
                sizes.append(raw.nbytes)
                offset += raw.nbytes
            return ShipResult(
                ("shm", body, segment.name, sizes),
                shipped_bytes=len(body),
                mapped_bytes=total,
                segment=segment,
            )
    return ShipResult(
        ("inline", body, [r.tobytes() for r in raws]),
        shipped_bytes=len(body) + total,
    )


def unpack(payload: Tuple) -> Tuple[Any, List[Any]]:
    """Unpack a :func:`pack` payload; returns ``(obj, segments)``.

    ``segments`` holds the shared-memory mappings backing ``obj``'s
    arrays (empty for inline messages).  The caller must keep them
    referenced for as long as any row from ``obj`` may be alive — the
    actor worker parks them for its process lifetime.
    """
    kind = payload[0]
    if kind == "shm":
        _, body, name, sizes = payload
        # Attaching registers the name with the resource tracker, which
        # spawned workers share with the parent: a set-add of a name the
        # sender already registered.  The sender's unlink unregisters it
        # once; unregistering here as well would make that a KeyError.
        segment = shared_memory.SharedMemory(name=name)
        views = []
        offset = 0
        for size in sizes:
            views.append(segment.buf[offset : offset + size])
            offset += size
        return pickle.loads(body, buffers=views), [segment]
    _, body, raws = payload
    return pickle.loads(body, buffers=raws), []
