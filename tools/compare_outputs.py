"""Compare what two checkouts of ballpack print and write, command by command.

    python3 tools/compare_outputs.py ROOT_A ROOT_B

Each checkout runs the same fixed list of ``ballpack`` commands through
``ballpack.cli.main``, in one subprocess with PYTHONPATH=<root>/src and
BALLPACK_OUT_DIR unset.  A case (one command, or a chain such as cluster,
verify, render) runs in a fresh temporary directory.  For every command the
exit code, stdout, stderr and the bytes of each file it wrote are recorded.
The list is:

* ``project``, ``verify``, ``dual`` and ``verify`` of every realized solid
  under the four centerings, with ``render`` of the planar ones;
* ``cluster``, ``verify`` and ``render`` of the README seeds, ``0,0,1`` and
  ``-1,2,2``, exact, at depths 0-2, and float at depths 0-1, and
  ``integrality --certify-depth 2`` of each;
* exact ``cluster``, ``verify`` and ``render`` of the tetrahedron
  ``-3000,5000,8000`` at depths 0-2, whose rows are python ints;
* ``verify`` of mangled copies of an exact cluster document, which the
  tool writes first: a zero denominator, a scalar with a trailing newline,
  junk after the JSON text, a number for ``word``, a scalar in a second
  quadratic field, and a zero radical part whose denominator is too long
  for int;
* float ``cluster`` and ``verify`` at depth 1 of c times each Platonic
  projection's own first three face-cycle curvatures, c = 1, 2, 1/3;
* ``squares --p 3|4|5``;
* every operation of perfbench's ``full_verify`` and ``doc_chain``
  workloads (this checkout's ``perfbench/``, workload seed 5), set-up
  included;
* refusals of malformed or two-field ``--initial`` values, a seed whose
  two solids are both past-directed, a float seed whose terms' squares
  overflow, and a float cluster whose coordinates overflow at depth 2.

A command that raises, rather than returning an exit code, is recorded
with the exception in place of its exit code.

It prints each command whose outputs differ, and what differs, and exits 1
if any do.  For a JSON document written by both checkouts with bytes that
differ, it matches the entries by their (depth, word, orbit) and prints how
many changed place; if a document repeats a key, it matches whole entries
(key and inversive coordinates) as multisets and prints how many entries
only each side holds.  For a float document it also prints the largest change
of an inversive coordinate x relative to max(1, |x|); for an exact one it
prints ``same entries`` when every matched entry's inversive texts are
identical, and otherwise how many entries differ.  Paths under the
temporary directory are printed as ``<tmp>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve()
WORKLOAD_SEED = 5

README_SEEDS = (
    ("tetrahedron", "-3,5,8"),
    ("octahedron", "-2,4,5"),
    ("cube", "5,-3,12"),
    ("icosahedron", "-4,8,9"),
    ("dodecahedron", "1+phi,-1,2phi"),
    ("tetrahedron", "0,0,1"),
    ("tetrahedron", "-1,2,2"),
)
POLYHEDRA = ("tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron")
POLYGONS = ("triangle", "square", "5-gon", "6-gon", "7-gon")
HIGHER = ("simplex-4", "simplex-5", "cube-4", "cube-5", "orthoplex-4", "orthoplex-5")
# c times each Platonic projection's own anchor curvatures, c = 1, 2, 1/3
ANCHOR_SEEDS = (
    ("tetrahedron", ("0,sqrt2,sqrt2", "0,2sqrt2,2sqrt2", "0,1/3sqrt2,1/3sqrt2")),
    ("octahedron", ("1,1,1-sqrt2", "2,2,2-2sqrt2", "1/3,1/3,1/3-1/3sqrt2")),
    ("cube", ("1+sqrt2,sqrt2-1,sqrt2-1", "2+2sqrt2,2sqrt2-2,2sqrt2-2",
              "1/3+1/3sqrt2,1/3sqrt2-1/3,1/3sqrt2-1/3")),
    ("icosahedron", ("0,phi-1,phi", "0,2phi-2,2phi", "0,1/3phi-1/3,1/3phi")),
    ("dodecahedron", ("1,phi,2+phi", "2,2phi,4+2phi", "1/3,1/3phi,2/3+1/3phi")),
)
REFUSALS = (
    ("cluster", "tetrahedron", "-3,,5,8", "exact"),
    ("cluster", "tetrahedron", "-3,5,8,", "exact"),
    ("cluster", "tetrahedron", "-3,5,8,", "float"),
    ("cluster", "tetrahedron", "sqrt2+sqrt3,5,8", "exact"),
    ("cluster", "cube", "-2,-8,-8", "exact"),
    ("cluster", "cube", "5+2sqrt5,20+4sqrt2,15", "exact"),
    ("integrality", "tetrahedron", "-3,5,,8", None),
    ("integrality", "tetrahedron", "sqrt2+sqrt3,5,8", None),
    ("cluster", "cube", "0,0,1e-160", "float"),
)
OVERFLOW_SEED = ("dodecahedron", "0.0,0.0,8.934313095693387e-69", 2)
BIG_SEED = ("tetrahedron", "-3000,5000,8000")


def _set_scalar(text: str):
    def change(payload):
        payload["entries"][1]["inversive"][0] = text

    return change


# edits of an exact tetrahedron -3,5,8 cluster document (over Q(sqrt 2)),
# each made on its parsed JSON; "junk" is appended to the text instead
MANGLES = {
    "zero-denominator": _set_scalar("1/0"),
    "trailing-newline": _set_scalar("5\n"),
    "junk": None,
    "number-word": lambda payload: payload["entries"][1].update(word=5),
    "two-fields": _set_scalar("0+1√3"),
    "long-denominator-of-zero": _set_scalar("1+0/" + "1" * 5000 + "√2"),
}


def mangle(kind: str, source: str, target: str) -> None:
    """Write ``target``: the document ``source`` with one ``MANGLES`` fault."""
    text = Path(source).read_text(encoding="utf-8")
    if MANGLES[kind] is None:
        text += "junk"
    else:
        payload = json.loads(text)
        MANGLES[kind](payload)
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    Path(target).write_text(text, encoding="utf-8")


def cases() -> list:
    """The commands, as a list of cases; a case is a list of argv lists."""
    out = []
    for solid in POLYHEDRA + POLYGONS + HIGHER:
        for center in ("none", "vertex", "edge", "face"):
            if solid in POLYGONS and center == "face":
                continue
            case = [["project", "--solid", solid, "--center", center, "--out", "p.json"],
                    ["verify", "--in", "p.json"]]
            if solid not in HIGHER:
                case.append(["render", "--in", "p.json", "--out", "p.svg"])
            case += [["dual", "--in", "p.json", "--out", "d.json"], ["verify", "--in", "d.json"]]
            out.append(case)
    for solid, initial in README_SEEDS:
        for mode, depths in (("exact", (0, 1, 2)), ("float", (0, 1))):
            for depth in depths:
                out.append([
                    ["cluster", "--solid", solid, f"--initial={initial}", "--depth", str(depth),
                     "--mode", mode, "--out", "c.json"],
                    ["verify", "--in", "c.json"],
                    ["render", "--in", "c.json", "--out", "c.svg"],
                ])
        out.append([["integrality", "--solid", solid, f"--initial={initial}",
                     "--certify-depth", "2"]])
    solid, initial = BIG_SEED
    for depth in (0, 1, 2):
        out.append([
            ["cluster", "--solid", solid, f"--initial={initial}", "--depth", str(depth),
             "--out", "c.json"],
            ["verify", "--in", "c.json"],
            ["render", "--in", "c.json", "--out", "c.svg"],
        ])
    for kind in MANGLES:
        out.append([
            ["cluster", "--solid", "tetrahedron", "--initial=-3,5,8", "--depth", "1",
             "--out", "c.json"],
            ["mangle", kind, "c.json", "m.json"],
            ["verify", "--in", "m.json"],
        ])
    for solid, initials in ANCHOR_SEEDS:
        for initial in initials:
            out.append([
                ["cluster", "--solid", solid, f"--initial={initial}", "--depth", "1",
                 "--mode", "float", "--out", "f.json"],
                ["verify", "--in", "f.json"],
            ])
    for p in (3, 4, 5):
        out.append([["squares", "--p", str(p)]])
    for command, solid, initial, mode in REFUSALS:
        argv = [command, "--solid", solid, f"--initial={initial}"]
        if command == "cluster":
            argv += ["--depth", "1", "--mode", mode, "--out", "c.json"]
        out.append([argv])
    solid, initial, depth = OVERFLOW_SEED
    out.append([["cluster", "--solid", solid, f"--initial={initial}", "--depth", str(depth),
                 "--mode", "float", "--out", "f.json"]])
    out.append([
        ["cluster", "--solid", "tetrahedron", "--initial=sqrt2+sqrt3,5,8", "--depth", "1",
         "--mode", "float", "--out", "f.json"],
        ["verify", "--in", "f.json"],
    ])
    return out


def _entries(path: Path):
    """Whether a JSON cluster document is a float one, and its entries, in
    order, as pairs of their (depth, word, orbit) in JSON and their
    inversive coordinates: floats, or an exact document's texts; None for
    any other file."""
    if path.suffix != ".json":
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        floaty = doc["mode"] == "float"
        return floaty, [
            [json.dumps([e["depth"], e["word"], e["orbit"]]),
             [float(x) for x in e["inversive"]] if floaty else list(e["inversive"])]
            for e in doc["entries"]
        ]
    except (ValueError, TypeError, KeyError, AttributeError):
        return None


def _digests(where: Path) -> dict:
    return {
        str(p.relative_to(where)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(where.rglob("*")) if p.is_file()
    }


class _Recorder:
    """Runs commands in one directory and records what each printed and wrote."""

    def __init__(self, where: Path, records: list):
        self.where, self.records, self.before = where, records, {}

    def record(self, label, rc, stdout, stderr) -> None:
        after = _digests(self.where)
        files = {k: v for k, v in after.items() if self.before.get(k) != v}
        self.before = after
        entries = {k: _entries(self.where / k) for k in files}
        tmp = str(self.where)
        self.records.append({
            "argv": label, "rc": rc, "files": files,
            "entries": {k: v for k, v in entries.items() if v is not None},
            "stdout": stdout.replace(tmp, "<tmp>"), "stderr": stderr.replace(tmp, "<tmp>"),
        })

    def run(self, argv) -> None:
        """Run one command; ``mangle KIND SOURCE TARGET`` writes a file."""
        from ballpack import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = mangle(*argv[1:]) if argv[0] == "mangle" else cli.main(list(argv))
            except Exception as exc:  # a traceback is an outcome to compare
                rc = f"raised {type(exc).__name__}: {exc}"
        self.record(argv, rc, out.getvalue(), err.getvalue())


def _workload_ops(records: list) -> None:
    """perfbench's full_verify and doc_chain operations; a workload's output
    goes to one stream, recorded as stdout."""
    import ballpack

    sys.path.insert(0, str(HERE.parents[1] / "perfbench"))
    import workloads

    for name in ("full_verify", "doc_chain"):
        with tempfile.TemporaryDirectory() as tmp:
            where = Path(tmp).resolve()
            os.chdir(where)
            rec = _Recorder(where, records)
            ctx = workloads.Context(bp=ballpack, out=where, rng=random.Random(WORKLOAD_SEED))
            ops = workloads.WORKLOADS[name](ctx)
            rec.record(f"{name} set-up", 0, "", "")
            for op in ops:
                result = op.run()
                rc, text = result if isinstance(result, tuple) else (0, "")
                rec.record(f"{name}: {op.name}", rc, text, "")


def run_all(path: str) -> None:
    records = []
    for case in cases():
        with tempfile.TemporaryDirectory() as tmp:
            where = Path(tmp).resolve()
            os.chdir(where)
            rec = _Recorder(where, records)
            for argv in case:
                rec.run(argv)
    _workload_ops(records)
    os.chdir(HERE.parent)
    Path(path).write_text(json.dumps(records), encoding="utf-8")


def _first_difference(a: str, b: str) -> str:
    for x, y in zip_longest(a.splitlines(), b.splitlines()):
        if x != y:
            return " != ".join("(no line)" if t is None else repr(t) for t in (x, y))
    return "line endings differ"


def _entry_change(x, y) -> str:
    """How the entries of two documents differ, matched by (depth, word,
    orbit), as a suffix of the line that says their bytes differ.  When a
    document repeats a key, whole entries (key and inversive coordinates)
    are matched as multisets instead."""
    if x is None or y is None or x[0] != y[0]:
        return ""
    (floaty, xs), (_, ys) = x, y
    a, b = dict(xs), dict(ys)
    if len(a) != len(xs) or len(b) != len(ys):
        p, q = (Counter((k, tuple(v)) for k, v in es) for es in (xs, ys))
        same = sum(u == w for u, w in zip(xs, ys))
        return (f"; a (depth, word, orbit) repeats, so whole entries are matched: "
                f"{sum((p - q).values())} only in the first, {sum((q - p).values())} only in "
                f"the second, {sum((p & q).values()) - same} changed place")
    if a.keys() != b.keys():
        return f"; the entries differ in (depth, word, orbit): {len(xs)} and {len(ys)} entries"
    moved = sum(p != q for (p, _), (q, _) in zip(xs, ys))
    if not floaty:
        changed = sum(a[k] != b[k] for k in a)
        out = f"; {changed} entries differ in their inversive texts" if changed else "; same entries"
        return out + f", {moved} changed place"
    change = max(
        (abs(p - q) / max(1.0, abs(p)) for k in a for p, q in zip(a[k], b[k], strict=True)),
        default=0.0,
    )
    out = f"; largest float coordinate change {change:.3g} relative to max(1, |x|)"
    return out + (f", {moved} entries changed place" if moved else "")


def differences(a: dict, b: dict) -> list:
    out = []
    if a["rc"] != b["rc"]:
        out.append(f"exit code {a['rc']} != {b['rc']}")
    for stream in ("stdout", "stderr"):
        if a[stream] != b[stream]:
            out.append(f"{stream}: {_first_difference(a[stream], b[stream])}")
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            if name in a["files"] and name in b["files"]:
                out.append(f"file {name}: bytes differ" + _entry_change(
                    a["entries"].get(name), b["entries"].get(name)))
            else:
                out.append(f"file {name}: " + " != ".join(
                    "written" if name in r["files"] else "not written" for r in (a, b)
                ))
    return out


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--run":
        run_all(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "BALLPACK_OUT_DIR"}
    with tempfile.TemporaryDirectory() as tmp:
        procs = []
        for i, root in enumerate(argv):
            src = Path(root).resolve() / "src"
            if not (src / "ballpack").is_dir():
                print(f"error: {root} has no src/ballpack", file=sys.stderr)
                return 2
            out = Path(tmp) / f"{i}.json"
            proc = subprocess.Popen([sys.executable, str(HERE), "--run", str(out)],
                                    env={**env, "PYTHONPATH": str(src)})
            procs.append((proc, out))
        if any(proc.wait() != 0 for proc, _ in procs):
            print("error: a checkout failed to run the commands", file=sys.stderr)
            return 2
        a, b = (json.loads(out.read_text(encoding="utf-8")) for _, out in procs)
    differ = 0
    for ra, rb in zip(a, b, strict=True):
        diffs = differences(ra, rb)
        if diffs:
            differ += 1
            label = ra["argv"] if isinstance(ra["argv"], str) else " ".join(ra["argv"])
            print(label)
            for line in diffs:
                print(f"  {line}")
    files = sum(len(r["files"]) for r in a)
    print(f"{differ} of {len(a)} commands differ ({files} files written by the first checkout)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
