"""Dump format of complex grid fields.

The normalize and invariants commands write their node tables (W and
lambda of the normalizing map, the fiber modes of the deformation tensor)
as chart records through dump_records; load_records reads them back.
"""

from __future__ import annotations

import numpy as np


def dump_records(records, path, binary=False):
    """Write chart records of complex grid data.

    records is a sequence of (chart_id, array); each record stores the
    chart id, the grid shape, and the row-major complex values as pairs
    of doubles: decimal text in text mode (one repeated line for a record
    of +0.0 doubles only), little-endian IEEE-754 in binary mode.
    """
    import struct

    if binary:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<q", len(records)))
            for chart, arr in records:
                arr = np.ascontiguousarray(np.asarray(arr, dtype=complex))
                fh.write(struct.pack("<qq", int(chart), arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
                fh.write(arr.astype("<c16").tobytes())
        return
    with open(path, "w") as fh:
        for chart, arr in records:
            arr = np.asarray(arr, dtype=complex)
            shape = " ".join(str(s) for s in arr.shape)
            fh.write(f"chart {int(chart)} shape {shape}\n")
            values = np.ravel(arr).view(float)
            if not values.any() and not np.signbit(values).any():
                fh.write("0.00000000000000000e+00 0.00000000000000000e+00\n" * arr.size)
            else:
                fh.write("%.17e %.17e\n" * arr.size % tuple(values.tolist()))


def load_records(path, binary=False):
    """Read back a grid field dump written by dump_records."""
    import struct

    records = []
    if binary:
        with open(path, "rb") as fh:
            (count,) = struct.unpack("<q", fh.read(8))
            for _ in range(count):
                chart, ndim = struct.unpack("<qq", fh.read(16))
                shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
                n_items = int(np.prod(shape)) if shape else 1
                data = np.frombuffer(fh.read(16 * n_items), dtype="<c16")
                records.append((chart, data.reshape(shape).astype(complex)))
        return records
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines):
        head = lines[i].split()
        chart = int(head[1])
        shape = tuple(int(s) for s in head[3:])
        n_items = int(np.prod(shape)) if shape else 1
        vals = np.empty(n_items, dtype=complex)
        for j in range(n_items):
            re, im = lines[i + 1 + j].split()
            vals[j] = complex(float(re), float(im))
        records.append((chart, vals.reshape(shape)))
        i += 1 + n_items
    return records
