"""The read routes of ``audit`` agree on generated inputs.

``audit`` counts a large regular file in two processes (``_count_split``)
and falls back to one pass over the file, which reports any fault; with
``--sample`` it reads the records into a list and aggregates a sample of
them. A seeded generator writes small CSV files with byte order marks,
CRLF, LF and CR endings, quoted names that hold the delimiter, quotes, CR,
LF, U+2028 or U+FEFF, blank lines, short rows and bad labels. Most files get
a plain row around their middle byte, so that the split lands on a
record boundary and is taken; some get a quoted name there whose text
after its first LF reads as rows. On each file ``_count_split`` must give
None or the table of ``aggregate(iter_records(...))``, and None for a
file that one pass refuses. And ``audit`` run on each file by one pass,
by the split (its size gate lowered) and with ``--sample`` of every
record must exit with the same code and stderr; the report's
``dataset.confusion`` must be the library's ``aggregate(iter_records(...))``
table, and a file the library refuses must fail at the ``parse`` stage
with the library's message.

The whole loop runs in one fresh ``-X dev`` interpreter: this process
has loaded numpy, whose thread pool a forked child must not inherit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

#: Generated files; a few seconds of forks in all.
FILES = 600

PROBE = """\
import io, json, random, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from ofi_audit import cli
from ofi_audit.ingestion import ColumnSchema, aggregate, iter_records

out, count = Path(sys.argv[1]), int(sys.argv[2])
rng = random.Random(20240601)
NAMES = ["a", "b", "c d", "é", "x\\u2028y", "\\ufeffz", "q\\"t", "x\\ny", "x\\r\\ny",
         "x\\ry", "d{sep}e", " pad "]
ENDINGS = ["\\n", "\\r\\n", "\\r"]


def field(text, sep):
    if any(c in text for c in (sep, '"', "\\r", "\\n")) or rng.random() < 0.1:
        return '"' + text.replace('"', '""') + '"'
    return text


def row(cells, sep, columns):
    # the cells in the file's column order, an extra column included
    by_name = dict(zip(("group", "label", "prediction"), cells), extra="v")
    return sep.join(field(by_name[name], sep) for name in columns)


def value(bad):
    return rng.choice(["2", "yes", ""]) if bad else rng.choice("01")


def lines(sep, columns, ending, size):
    # data rows, each with its ending; now and then a blank line, a short
    # row or a bad label
    for _ in range(size):
        roll = rng.random()
        if roll < 0.02:
            yield ending
        elif roll < 0.025:
            yield "a" + sep + "1" + ending
        else:
            name = rng.choice(NAMES).format(sep=sep)
            cells = (name, value(roll > 0.995), value(False))
            yield row(cells, sep, columns) + (ending if rng.random() < 0.9 else rng.choice(ENDINGS))


def middle_row(head, tail, make):
    # the row make(pad) with the least pad whose LF is the first at or
    # after the middle byte of head + row + tail
    for pad in range(1 << 13):
        line = make(pad).encode("utf-8")
        data = head + line + tail
        if data.find(b"\\n", len(data) // 2) == len(head) + line.index(b"\\n"):
            return data
    raise AssertionError("no pad puts the middle byte before the row's LF")


def generate():
    roll = rng.random()
    sep = rng.choice([",", ";", "\\t", "|"])
    columns = rng.sample(["group", "label", "prediction", "extra"], 4)
    if roll < 0.1:  # the group last, for the quoted row below
        columns.remove("group")
        columns.append("group")
    ending = rng.choice(ENDINGS)
    head = ("\\ufeff" if rng.random() < 0.3 else "") + sep.join(columns) + ending
    head += "".join(lines(sep, columns, ending, rng.randrange(1, 12)))
    tail = "".join(lines(sep, columns, ending, rng.randrange(1, 12)))
    head, tail = head.encode("utf-8"), tail.encode("utf-8")
    if roll < 0.1:
        # a quoted name that holds, after its first LF, text that reads as
        # rows: only the first range's strict reader, which refuses to end
        # inside the open quote, tells the split is off a record boundary
        before = sep.join(dict(label="1", prediction="1", extra="v")[c] for c in columns[:-1])
        inner = f"{before}{sep}m{ending}{before}{sep}c"
        make = lambda pad: row(("x" + " " * pad + "\\n" + inner, "0", "1"), sep, columns) + ending
    elif roll < 0.85:
        # a plain row: the first LF at or after the middle byte ends it
        newline = rng.choice(["\\n", "\\r\\n"])
        make = lambda pad: row(("p" + " " * pad, "1", "0"), sep, columns) + newline
    else:
        return head + tail, sep
    return middle_row(head, tail, make), sep


def audit(path, sep, split_min, *argv):
    # the exit code, stderr and report confusion table of one audit run
    cli.SPLIT_MIN_BYTES = split_min
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["audit", "--input", str(path), "--delimiter", sep, *argv])
    confusion = json.loads(out.getvalue())["dataset"]["confusion"] if code == 0 else None
    return code, err.getvalue(), confusion


schema, taken, split_min = ColumnSchema(), 0, cli.SPLIT_MIN_BYTES
for i in range(count):
    data, sep = generate()
    path = out / f"{i}.csv"
    path.write_bytes(data)
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            expected = aggregate(iter_records(handle, schema, sep))
    except ValueError as exc:
        expected, refusal = None, f"error [parse]: {exc}\\n"
    with open(path, "rb") as raw:
        table = cli._count_split(raw.fileno(), len(data), schema, sep)
    if table is not None:
        taken += 1
        if expected is None or list(table.groups.items()) != list(expected.groups.items()):
            raise AssertionError(f"the split count of {path.name} differs from one pass: {data!r}")
    records = str(expected.total.n if expected is not None else 1)
    routes = [audit(path, sep, split_min), audit(path, sep, 1),
              audit(path, sep, split_min, "--sample", records, "--seed", "1")]
    if routes[1:] != routes[:-1]:
        raise AssertionError(f"the audit routes of {path.name} differ: {routes!r}: {data!r}")
    code, err, confusion = routes[0]
    if expected is None and (code, err) != (1, refusal):
        raise AssertionError(f"audit of {path.name} fails otherwise than the library: {err!r}")
    if confusion is not None and confusion != {
        name: [cm.tp, cm.fn, cm.fp, cm.tn] for name, cm in expected.groups.items()
    }:
        raise AssertionError(f"the report of {path.name} is not the library's table: {data!r}")
    path.unlink()
print(json.dumps(taken / count), file=sys.stderr)
"""


def test_split_count_is_none_or_the_one_pass_table(tmp_path):
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", PROBE, str(tmp_path), str(FILES)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, encoding="utf-8", timeout=300,
    )
    *err, last = done.stderr.splitlines(keepends=True) or [""]
    assert (done.returncode, "".join(err)) == (0, "")
    share = json.loads(last)
    print(f"split taken on {share:.0%} of {FILES} generated files")
    assert share > 0.5
