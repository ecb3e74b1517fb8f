"""Write the signed fixed-window table of the secp256k1 generator G.

    python3 scripts/gen_g_table.py [OUT]

OUT defaults to src/hsc/secp256k1_g_w10.bin, the file `hsc.group` loads on
the third k*G of a process.  The width and the row count are `hsc.group`'s `_G_WIDTH`
(10) and `_G_ROWS` (13), enough for a GLV half of k below 2^128: row i
holds the affine points j*1024^i*G for j = 1..512, each as 32-byte
big-endian x followed by 32-byte big-endian y, so 6,656 points and
425,984 bytes.  A 64-byte record is the table entry x << 256 | y in
big-endian order.  Both halves of k read these rows; the lambda half
maps its partial sum by beta.  The rows come from `hsc.group`'s own
fixed-window row builder, the one that also builds the tables of
repeatedly multiplied points.  After changing the table, put the SHA-256
this script prints into `_G_TABLE_SHA256`.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from hsc.group import (  # noqa: E402
    _G_ROWS, _G_TABLE_PATH, _G_WIDTH, _GX, _GY, _fixed_window_rows)

DEFAULT_OUT = Path(_G_TABLE_PATH)


def build_table() -> bytes:
    return b"".join(v.to_bytes(64, "big")
                    for v in _fixed_window_rows((_GX, _GY), _G_ROWS, _G_WIDTH))


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else DEFAULT_OUT
    data = build_table()
    out.write_bytes(data)
    print(f"{out}: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
