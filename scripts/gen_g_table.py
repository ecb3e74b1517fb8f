"""Write the signed fixed-window table of the secp256k1 generator G.

    python3 scripts/gen_g_table.py [OUT]

OUT defaults to src/hsc/secp256k1_g_w4.bin, the file `hsc.group` loads on
the first k*G.  Row i (i = 0..64) holds the affine points j*16^i*G for
j = 1..8, each as 32-byte big-endian x followed by 32-byte big-endian y:
520 points, 33,280 bytes.  The rows come from `hsc.group`'s own
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

from hsc.group import _GX, _GY, _fixed_window_rows  # noqa: E402

ROWS = 65  # 256 / 4 digits, plus one for the carry of signed recoding
DEFAULT_OUT = SRC / "hsc" / "secp256k1_g_w4.bin"


def build_table() -> bytes:
    return b"".join(x.to_bytes(32, "big") + y.to_bytes(32, "big")
                    for x, y in _fixed_window_rows((_GX, _GY), ROWS))


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else DEFAULT_OUT
    data = build_table()
    out.write_bytes(data)
    print(f"{out}: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
