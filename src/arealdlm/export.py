"""The chain CSV export process: appends rows of the ``.npy`` store to ``<name>.csv``.

``chainio.ChainWriter`` runs this file as a script, ``python -I -S export.py
<directory> <name>=<columns> ...``, one process per chain directory. It
imports the standard library only, so the process starts in a few tens of
milliseconds and a few MB; importing numpy and the package would cost it
about 0.4 s of CPU, which a sampler on a single core would wait for. Each
line of standard input is the number of rows now in the store; the rows
since the previous line are appended to each ``<name>.csv``, whose header
row ``ChainWriter`` has written, and the line is then echoed to standard
output to confirm it. The process ignores SIGINT and exits at the end of
its input, or with one line on stderr when the export fails.
"""

import signal
import sys
from array import array

FLOAT_FMT = "%.17g"


def float_line(ncols: int) -> str:
    """The %-format of one CSV line of ``ncols`` floats with 17 significant digits."""
    return ",".join([FLOAT_FMT] * ncols) + "\n"


def append_rows(store: str, out, ncols: int, start: int, stop: int) -> None:
    """Append rows [start, stop) of the float64 ``.npy`` file ``store`` to the text file ``out``."""
    line = float_line(ncols)
    row = array("d")
    with open(store, "rb") as fh:
        prefix = fh.read(10)
        if prefix[:8] != b"\x93NUMPY\x01\x00":
            raise ValueError(f"{store} is not a version 1.0 .npy file")
        fh.seek(10 + int.from_bytes(prefix[8:], "little") + start * ncols * row.itemsize)
        for _ in range(start, stop):
            try:
                row.fromfile(fh, ncols)
            except EOFError:
                raise ValueError(f"{store} holds fewer than {stop} rows") from None
            if sys.byteorder == "big":  # the store is little-endian
                row.byteswap()
            out.write(line % tuple(row.tolist()))
            del row[:]


def main(directory: str, groups: list[str]) -> None:
    """Export each ``<name>=<columns>`` group of ``directory`` up to each row count on stdin."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C must not cut the last flush short
    columns = {name: int(ncols) for name, ncols in (group.split("=") for group in groups)}
    done = 0
    try:
        for line in sys.stdin:
            stored = int(line)
            for name, ncols in columns.items():
                with open(f"{directory}/{name}.csv", "a", encoding="utf-8", newline="") as out:
                    append_rows(f"{directory}/{name}.npy", out, ncols, done, stored)
            done = stored
            sys.stdout.write(line)
            sys.stdout.flush()
    except (OSError, ValueError) as exc:
        sys.exit(f"cannot write the chain CSV export of {directory}: {exc}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
