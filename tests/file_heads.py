"""Read and rewrite the JSON head of a SEMG, SSEG or TCHG file, as a
corrupt or hostile file would hold it, without touching its arrays.

Every array starts at a multiple of 8 bytes, and a head padded to a
multiple of 8 keeps them there, so a new head goes in front of the old
array bytes unchanged.
"""

import json
import math
import struct

import numpy as np


def head_span(raw: bytes) -> int:
    """Bytes from the start of the file to the end of the head."""
    return 16 + struct.unpack_from("<Q", raw, 8)[0]


def head_of(raw: bytes) -> dict:
    return json.loads(raw[16 : head_span(raw)])


def with_head(raw: bytes, head) -> bytes:
    """``raw`` with its head replaced by ``head``: the text itself when
    it is bytes, else the object dumped as the writers dump it."""
    if not isinstance(head, bytes):
        head = json.dumps(head, sort_keys=True).encode()
    head += b" " * (-len(head) % 8)
    return raw[:8] + struct.pack("<Q", len(head)) + head + raw[head_span(raw) :]


def with_meta(raw: bytes, **changes) -> bytes:
    """``raw`` with the given meta values changed."""
    head = head_of(raw)
    head["meta"].update(changes)
    return with_head(raw, head)


def array_offset(raw: bytes, name: str) -> int:
    """Where the array ``name`` starts in the file."""
    offset = head_span(raw)
    for entry, dtype, shape in head_of(raw)["arrays"]:
        offset += -offset % 8
        if entry == name:
            return offset
        offset += np.dtype(dtype).itemsize * math.prod(shape)
    raise KeyError(name)


def file_bytes(magic: bytes, head) -> bytes:
    """A file of no array bytes: the magic, version 2 and ``head``."""
    return with_head(magic + struct.pack("<IQ", 2, 0), head)


def huge_recording() -> bytes:
    """A SEMG file of 0 channels and 2**62 samples, short of its
    annotations: the 0-byte sample block has a shape numpy cannot hold."""
    return file_bytes(b"SEMG", {"arrays": [
        ["samples", "<f4", [0, 2**62]], ["gesture", "<u2", [2**62]],
        ["repetition", "<u2", [2**62]],
    ], "meta": {"sample_rate_hz": 2000.0}})
