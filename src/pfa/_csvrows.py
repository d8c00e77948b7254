"""The CSV row formatter ``save_csv`` shares with its worker processes.

This module imports only the standard library: ``save_csv`` runs it as a
script, ``python -I -S _csvrows.py WIDTH``, in a fresh interpreter that
reads a share of rows as raw native float64 bytes from standard input and
writes their CSV lines to standard output.  The interpreter loads no numpy,
so a worker starts in about 10 ms and shares no thread with its parent.
"""

import sys


def write_rows(rows, out) -> None:
    """Write each row as one line of its values' ``repr``, comma-separated.

    A row is anything whose ``tolist()`` gives Python floats: a numpy row in
    the parent, a ``memoryview`` slice in a worker, whose floats and so
    whose text are the same.
    """
    for row in rows:
        out.write(",".join(map(repr, row.tolist())))
        out.write("\n")


def main() -> None:
    width = int(sys.argv[1])
    cells = memoryview(sys.stdin.buffer.read()).cast("d")
    rows = (cells[start:start + width] for start in range(0, len(cells), width))
    with open(sys.stdout.fileno(), "w", newline="", encoding="utf-8", closefd=False) as out:
        write_rows(rows, out)


if __name__ == "__main__":
    main()
