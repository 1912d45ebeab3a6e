"""The benchmark's workloads: their inputs, operations and output checks.

A workload is built by a function that takes a Context, makes any input
documents (that is set-up, and is timed as such) and returns its round: the
list of operations every round runs, in order.  An operation's ``run`` is
the timed call into ballpack; its ``check`` runs afterwards, outside the
timed region, raises CheckFailed on a wrong output and returns the number of
balls the operation made, read or checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import RING_Z, RING_Z_PHI, RING_Z_SQRT2, require


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], int]


@dataclass
class Context:
    bp: object  # the imported ballpack package
    out: Path  # where documents and SVGs go
    rng: random.Random  # everything the workload seed selects


def cli_call(bp, argv):
    """Run one command through ``ballpack.cli.main``: (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = bp.cli.main(argv)
    return rc, out.getvalue()


def load_entries(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


# -- certify ------------------------------------------------------------------

# solid, seed curvatures, depth, ring the paper claims for its curvatures
CERTIFY_SEEDS = (
    ("tetrahedron", "-3,5,8", 10, RING_Z),
    ("octahedron", "-2,4,5", 5, RING_Z),
    ("cube", "5,-3,12", 6, RING_Z),
    ("icosahedron", "-4,8,9", 3, RING_Z_PHI),
    ("dodecahedron", "1+phi,-1,2phi", 4, RING_Z_PHI),
    # coordinates beyond int64: the arbitrary-precision engine runs
    ("tetrahedron", "-3000,5000,8000", 10, RING_Z),
)
# full-symmetry (SSA) closure: solid, depth, ring that checks.invariant_ring
# certifies from its generators and seed
CERTIFY_SSA = ("cube", 16, RING_Z_SQRT2)
WORD_SAMPLES = 6


class GrowCapture:
    """Keeps the last cluster ``cli`` grew, so that it can be checked.

    It replaces ``cli``'s own name for generate_cluster with a pass-through
    that looks the function up in ``apollonian`` at call time (so a traced
    round traces it too).  The cost is one Python call per command.
    """

    def __init__(self, bp):
        self.last = None
        apollonian = bp.apollonian

        def generate_cluster(seed, gens, depth=5):
            cluster = apollonian.generate_cluster(seed, gens, depth)
            self.last = (seed, gens, cluster)
            return cluster

        bp.cli.generate_cluster = generate_cluster

    def take(self):
        last, self.last = self.last, None
        require(last is not None, "the command grew no cluster")
        return last


def _check_samples(ctx, seed, gens, cluster, ring) -> None:
    maps = {g.name: g.map for g in gens.generators}
    for i in ctx.rng.sample(range(len(cluster)), WORD_SAMPLES):
        e = cluster.entry(i)
        checks.check_word(
            seed.balls[e.orbit], e.word, maps, e.ball.v, e.curvature, e.depth,
            ctx.bp.lorentz.apply_map,
        )
        checks.check_ring(e.curvature, ring)


def certify(ctx: Context) -> list:
    bp = ctx.bp
    capture = GrowCapture(bp)
    ops = []
    for solid, initial, depth, ring in CERTIFY_SEEDS:
        argv = ["integrality", "--solid", solid, f"--initial={initial}",
                "--certify-depth", str(depth)]

        def check(result, solid=solid, depth=depth, ring=ring):
            rc, out = result
            n = checks.cluster_size(solid, depth)
            checks.check_integrality_output(rc, out, ring, depth, n)
            seed, gens, cluster = capture.take()
            checks.check_levels(lambda i: cluster.entry(i).depth, len(cluster), solid, depth)
            _check_samples(ctx, seed, gens, cluster, ring)
            return n

        ops.append(Op(f"integrality {solid} {initial} depth {depth}",
                      lambda argv=argv: cli_call(bp, argv), check))

    solid, depth, ring = CERTIFY_SSA
    shape = bp.polytopes.solid_from_name(solid)

    def grow_ssa():
        gens = bp.apollonian.platonic_generators(shape)
        cluster = bp.apollonian.generate_cluster(gens.seed, gens, depth)
        return gens, cluster, cluster.curvatures_in_ring(ring)

    def check_ssa(result):
        gens, cluster, in_ring = result
        certified = checks.invariant_ring(
            [g.map.mat for g in gens.generators], [b.v for b in gens.seed.balls]
        )
        require(certified == ring, f"SSA curvatures certified in {certified}, not {ring}")
        require(cluster.flavor == "SSA", f"cluster flavor is {cluster.flavor}")
        require(in_ring is True, f"SSA curvatures reported outside {ring}")
        _check_samples(ctx, gens.seed, gens, cluster, ring)
        return len(cluster)

    ops.append(Op(f"SSA closure {solid} depth {depth}", grow_ssa, check_ssa))
    return ops


# -- doc_chain ----------------------------------------------------------------

EXACT_CHAIN = (
    ("tetrahedron", "-3,5,8", 7),
    ("octahedron", "-2,4,5", 3),
    ("icosahedron", "-4,8,9", 2),
)
FLOAT_CHAIN = (
    ("tetrahedron", "-3,5,8", 7),
    ("octahedron", "-2,4,5", 3),
    ("dodecahedron", "1+phi,-1,2phi", 2),
)
ENTRY_SAMPLES = 64
FLOAT_REL = 1e-8  # bound on float curvature error relative to max(1, |exact|)


def _exact_levels(bp, solid, initial, depth) -> list:
    """Exact curvatures of each depth as floats, from the exact engine."""
    seed = bp.apollonian.packing_from_curvatures(
        bp.polytopes.solid_from_name(solid), bp.cli.parse_initial(initial, "exact")
    )
    cluster = bp.apollonian.generate_cluster(
        seed, bp.apollonian.apollonian_group_from_packing(seed), depth
    )
    values = iter(cluster.curvatures())
    levels = []
    for size in checks.level_sizes(solid, depth):
        levels.append([])
        for _ in range(size):
            a, b, m = checks.program_scalar(next(values))
            levels[-1].append(checks.q_float((a, b), m))
    return levels


def doc_chain(ctx: Context) -> list:
    bp = ctx.bp
    ops = []
    docs = {}  # entries of the documents written in the current round

    def add_render(stem):
        svg = ctx.out / f"{stem}.svg"

        def check(result):
            rc, out = result
            require(rc == 0, f"render exited {rc}: {out!r}")
            entries = docs.pop(stem)
            checks.check_svg(svg.read_text(encoding="utf-8"), entries)
            return len(entries)

        argv = ["render", "--in", str(ctx.out / f"{stem}.json"), "--out", svg.name]
        ops.append(Op(f"render {stem}", lambda: cli_call(bp, argv), check))

    for solid, initial, depth in EXACT_CHAIN:
        stem = f"{solid}-d{depth}"
        path = ctx.out / f"{stem}.json"

        def check_cluster(result, solid=solid, depth=depth, stem=stem, path=path):
            rc, out = result
            require(rc == 0, f"cluster exited {rc}: {out!r}")
            entries = load_entries(path)
            require(
                checks.depth_counts(entries) == checks.level_sizes(solid, depth),
                f"{stem}: level sizes differ from the closed form",
            )
            for i in ctx.rng.sample(range(len(entries)), min(ENTRY_SAMPLES, len(entries))):
                checks.check_exact_entry(entries[i])
            docs[stem] = entries
            return len(entries)

        def check_verify(result, stem=stem):
            checks.check_descartes_output(*result)
            return len(docs[stem])

        cluster_argv = ["cluster", "--solid", solid, f"--initial={initial}",
                        "--depth", str(depth), "--out", path.name]
        verify_argv = ["verify", "--in", str(path), "--checks", "descartes,soddy"]
        ops.append(Op(f"cluster {stem}", lambda a=cluster_argv: cli_call(bp, a), check_cluster))
        ops.append(Op(f"verify {stem}", lambda a=verify_argv: cli_call(bp, a), check_verify))
        add_render(stem)

    twins = {}
    for solid, initial, depth in FLOAT_CHAIN:
        stem = f"{solid}-d{depth}-float"
        path = ctx.out / f"{stem}.json"

        def check_float(result, solid=solid, initial=initial, depth=depth, stem=stem, path=path):
            rc, out = result
            require(rc == 0, f"float cluster exited {rc}: {out!r}")
            if stem not in twins:
                twins[stem] = _exact_levels(bp, solid, initial, depth)
            entries = load_entries(path)
            checks.check_float_twin(entries, twins[stem], FLOAT_REL)
            docs[stem] = entries
            return len(entries)

        argv = ["cluster", "--solid", solid, f"--initial={initial}", "--depth", str(depth),
                "--mode", "float", "--out", path.name]
        ops.append(Op(f"cluster {stem}", lambda a=argv: cli_call(bp, a), check_float))
        add_render(stem)
    return ops


# -- full_verify --------------------------------------------------------------

VERIFY_CLUSTERS = (
    ("octahedron", "-2,4,5", 2),
    ("tetrahedron", "-3,5,8", 4),
    ("cube", "5,-3,12", 2),
)
# solid name, (kind, dimension) for the flag count
VERIFY_PROJECTIONS = (
    ("icosahedron", ("icosahedron", 3)),
    ("dodecahedron", ("dodecahedron", 3)),
    ("cube-4", ("cube", 4)),
    ("orthoplex-4", ("orthoplex", 4)),
    ("cube-5", ("cube", 5)),
    ("simplex-5", ("simplex", 5)),
)
# the planted ball is added to this cluster's document
PLANT_BASE = ("octahedron", "-2,4,5", 1)


def _write_input(bp, argv) -> None:
    rc, out = cli_call(bp, argv)
    require(rc == 0, f"set-up command {argv[0]} exited {rc}: {out!r}")


def planted_ball(raw: dict) -> dict:
    """A valid ball overlapping the disk of ``raw``: the same radius, with
    the center moved by one radius along the first axis."""
    inv = [checks.parse_scalar(t) for t in raw["inversive"]]
    m = checks.join_modulus(inv)
    kappa = checks.parse_scalar(raw["curvature"])[:2]
    radius = checks.parse_scalar(raw["radius"])[:2]
    center = [checks.parse_scalar(t)[:2] for t in raw["center"]]
    center[0] = checks.q_add(center[0], radius)
    # (kappa/2)(|c|^2 - 1/kappa^2 -/+ 1), with 1/kappa^2 = radius^2
    c2 = (Fraction(0), Fraction(0))
    for c in center:
        c2 = checks.q_add(c2, checks.q_mul(c, c, m))
    base = checks.q_sub(c2, checks.q_mul(radius, radius, m))
    half_k = (kappa[0] / 2, kappa[1] / 2)
    one = (Fraction(1), Fraction(0))
    vec = [checks.q_mul(kappa, c, m) for c in center] + [
        checks.q_mul(half_k, checks.q_sub(base, one), m),
        checks.q_mul(half_k, checks.q_add(base, one), m),
    ]
    text = lambda x: checks.format_scalar(x, m)  # noqa: E731
    return dict(
        raw,
        inversive=[text(x) for x in vec],
        center=[text(c) for c in center],
    )


def full_verify(ctx: Context) -> list:
    bp = ctx.bp
    docs = []  # (name, path, flag count or None)
    for solid, initial, depth in VERIFY_CLUSTERS:
        name = f"{solid}-d{depth}"
        _write_input(bp, ["cluster", "--solid", solid, f"--initial={initial}",
                          "--depth", str(depth), "--out", f"{name}.json"])
        docs.append((name, ctx.out / f"{name}.json", None))
    for solid, (kind, dim) in VERIFY_PROJECTIONS:
        name = f"{solid}-projection"
        _write_input(bp, ["project", "--solid", solid, "--out", f"{name}.json"])
        docs.append((name, ctx.out / f"{name}.json", checks.flag_count(kind, dim)))

    solid, initial, depth = PLANT_BASE
    base = ctx.out / "plant-base.json"
    _write_input(bp, ["cluster", "--solid", solid, f"--initial={initial}",
                      "--depth", str(depth), "--out", base.name])
    with open(base, encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = payload["entries"]
    disks = [e for e in entries if "center" in e and not e["curvature"].startswith("-")]
    ball = planted_ball(ctx.rng.choice(disks))
    planted_at = ctx.rng.randrange(len(entries) + 1)
    entries.insert(planted_at, ball)
    planted = ctx.out / "planted.json"
    planted.write_text(json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")

    ops = []
    for name, path, flags in docs:
        n = len(load_entries(path))

        def check(result, n=n, flags=flags):
            checks.check_verify_output(*result, n, flags)
            return n

        argv = ["verify", "--in", str(path)]
        ops.append(Op(f"verify {name}", lambda a=argv: cli_call(bp, a), check))

    def check_planted(result):
        checks.check_planted_output(*result, planted_at)
        return len(entries)

    argv = ["verify", "--in", str(planted)]
    ops.append(Op("verify planted", lambda a=argv: cli_call(bp, a), check_planted))
    return ops


WORKLOADS = {"certify": certify, "doc_chain": doc_chain, "full_verify": full_verify}
