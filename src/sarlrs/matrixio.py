"""Binary matrix container shared by all pipeline stages.

Layout (all integers little-endian):
  bytes 0..3   magic "SARM"
  bytes 4..5   version (u16)
  bytes 6..7   element kind (u16): 0 = real float64, 1 = complex float64
               stored as interleaved (re, im) pairs
  bytes 8..15  row count (u64)
  bytes 16..23 column count (u64)
  payload      rows*cols elements, row-major
  trailer      UTF-8 JSON metadata (reads to end of file)
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import ConfigError, matrix

MAGIC = b"SARM"
VERSION = 1
KIND_REAL = 0
KIND_COMPLEX = 1
_HEADER = struct.Struct("<4sHHQQ")
_DTYPES = {KIND_REAL: np.dtype("<f8"), KIND_COMPLEX: np.dtype("<c16")}


def write_matrix(path, M: np.ndarray, metadata: dict | None = None) -> None:
    M = matrix(M, "M")
    kind = KIND_COMPLEX if np.iscomplexobj(M) else KIND_REAL
    # written from the array's own buffer: no bytes copy of the payload
    payload = np.ascontiguousarray(M, dtype=_DTYPES[kind])
    header = _HEADER.pack(MAGIC, VERSION, kind, M.shape[0], M.shape[1])
    trailer = json.dumps(metadata or {}, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(trailer)


def read_matrix(path) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ConfigError(f"{path}: truncated header")
        magic, version, kind, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported version {version}")
        if kind not in _DTYPES:
            raise ConfigError(f"{path}: unknown element kind {kind}")
        dtype = _DTYPES[kind]
        # check the declared size before np.fromfile allocates it
        count = rows * cols
        if os.fstat(fh.fileno()).st_size < _HEADER.size + count * dtype.itemsize:
            raise ConfigError(f"{path}: payload shorter than {rows}x{cols}")
        M = np.fromfile(fh, dtype=dtype, count=count).reshape(rows, cols)
        trailer = fh.read()
    try:
        metadata = json.loads(trailer.decode()) if trailer else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: bad metadata trailer: {exc}") from exc
    if kind == KIND_REAL:
        M = M.astype(float, copy=False)
    return M, metadata
