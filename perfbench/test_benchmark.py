"""Tests of the benchmark's own checkers.

    python3 -m pytest perfbench

Each check passes on the program's real output and fails once one value of
that output is corrupted, so no check passes vacuously.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

import ballpack  # noqa: E402
from ballpack import cli  # noqa: E402

SEEDS = {
    "tetrahedron": "-3,5,8",
    "octahedron": "-2,4,5",
    "cube": "5,-3,12",
    "icosahedron": "-4,8,9",
    "dodecahedron": "1+phi,-1,2phi",
}


def grow(solid, depth):
    seed = ballpack.packing_from_curvatures(
        ballpack.solid_from_name(solid), cli.parse_initial(SEEDS[solid], "exact")
    )
    gens = ballpack.apollonian_group_from_packing(seed)
    return seed, gens, ballpack.generate_cluster(seed, gens, depth)


def exact_entries(solid, depth, tmp_path):
    out = tmp_path / f"{solid}.json"
    rc, text = workloads.cli_call(ballpack, [
        "cluster", "--solid", solid, f"--initial={SEEDS[solid]}",
        "--depth", str(depth), "--out", str(out),
    ])
    assert rc == 0, text
    return workloads.load_entries(out)


def corrupt(mapping, key, value):
    return dict(mapping, **{key: value})


# -- closed forms against the program ------------------------------------------


@pytest.mark.parametrize("solid", sorted(SEEDS))
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_closed_form_level_sizes_match_program(solid, depth):
    _, _, cluster = grow(solid, depth)
    checks.check_levels(lambda i: cluster.entry(i).depth, len(cluster), solid, depth)
    if depth <= 2:
        counts = [0] * (depth + 1)
        for e in cluster:
            counts[e.depth] += 1
        assert counts == checks.level_sizes(solid, depth)


def test_check_levels_fails_on_a_moved_boundary():
    _, _, cluster = grow("octahedron", 2)
    n = len(cluster)
    with pytest.raises(CheckFailed):
        checks.check_levels(lambda i: cluster.entry(i).depth, n - 1, "octahedron", 2)
    boundary = checks.level_sizes("octahedron", 2)[0]
    moved = lambda i: 1 if i == boundary - 1 else cluster.entry(i).depth  # noqa: E731
    with pytest.raises(CheckFailed):
        checks.check_levels(moved, n, "octahedron", 2)


def test_flag_counts():
    assert checks.flag_count("simplex", 5) == 720
    assert checks.flag_count("cube", 4) == checks.flag_count("orthoplex", 4) == 384
    assert checks.flag_count("cube", 5) == 3840
    assert checks.flag_count("icosahedron", 3) == 120


# -- certify ------------------------------------------------------------------


def test_word_check_and_its_corruptions():
    seed, gens, cluster = grow("tetrahedron", 3)
    maps = {g.name: g.map for g in gens.generators}
    e = cluster.entry(len(cluster) - 1)
    apply_map = ballpack.apply_map

    def run(word=e.word, vector=e.ball.v, curvature=e.curvature, depth=e.depth):
        checks.check_word(seed.balls[e.orbit], word, maps, vector, curvature, depth, apply_map)

    run()
    other = next(n for n in gens.names if n != e.word[0] and n != e.word[1])
    with pytest.raises(CheckFailed):
        run(word=(other,) + e.word[1:])
    with pytest.raises(CheckFailed):
        run(vector=(e.ball.v[0] + 1,) + e.ball.v[1:])
    with pytest.raises(CheckFailed):
        run(curvature=e.curvature + 1)
    with pytest.raises(CheckFailed):
        run(depth=e.depth + 1)
    with pytest.raises(CheckFailed):
        run(word=(e.word[0], e.word[0], e.word[2]))


def test_ring_check():
    checks.check_ring(7, checks.RING_Z)
    with pytest.raises(CheckFailed):
        checks.check_ring(Fraction(7, 2), checks.RING_Z)
    phi = ballpack.phi()
    checks.check_ring(3 * phi, checks.RING_Z_PHI)
    with pytest.raises(CheckFailed):
        checks.check_ring(phi / 2, checks.RING_Z_PHI)
    with pytest.raises(CheckFailed):
        checks.check_ring(phi, checks.RING_Z)


def test_invariant_ring_of_the_ssa_frames():
    want = {"tetrahedron": "Z", "octahedron": "Z[sqrt2]", "cube": "Z[sqrt2]",
            "icosahedron": "Z[phi]", "dodecahedron": "Z[phi]"}
    for solid, ring in want.items():
        gens = ballpack.platonic_generators(ballpack.solid_from_name(solid))
        mats = [g.map.mat for g in gens.generators]
        seeds = [b.v for b in gens.seed.balls]
        assert checks.invariant_ring(mats, seeds) == ring
    third = [tuple(x / 3 for x in v) for v in seeds]
    with pytest.raises(CheckFailed):
        checks.invariant_ring(mats, third)
    r_e = [list(row) for row in mats[2]]
    assert r_e[1][1] == Fraction(1, 2)
    r_e[1][1] = Fraction(1, 3)
    with pytest.raises(CheckFailed):
        checks.invariant_ring(mats[:2] + [r_e] + mats[3:], seeds)


def test_integrality_output_check():
    out = "certificate: integral\ndepth-2 curvatures in Z: yes (20 balls)\n"
    checks.check_integrality_output(0, out, "Z", 2, 20)
    with pytest.raises(CheckFailed):
        checks.check_integrality_output(0, out, "Z", 2, 21)
    with pytest.raises(CheckFailed):
        checks.check_integrality_output(0, out.replace("yes", "NO"), "Z", 2, 20)
    with pytest.raises(CheckFailed):
        checks.check_integrality_output(1, out, "Z", 2, 20)
    with pytest.raises(CheckFailed):
        checks.check_integrality_output(0, out, "Z[phi]", 2, 20)


# -- documents ----------------------------------------------------------------


def test_scalar_text_round_trip():
    for text in ("0", "-3", "5/2", "-7/5+14/5√2", "0-1/2√5", "3+1√5"):
        a, b, m = checks.parse_scalar(text)
        assert checks.parse_scalar(checks.format_scalar((a, b), m)) == (a, b, m)
    with pytest.raises(CheckFailed):
        checks.parse_scalar("1.5")


@pytest.mark.parametrize("solid,depth", [("octahedron", 1), ("icosahedron", 1)])
def test_exact_entry_check_and_its_corruptions(solid, depth, tmp_path):
    entries = exact_entries(solid, depth, tmp_path)
    for e in entries:
        checks.check_exact_entry(e)
    e = entries[-1]
    bumped = lambda t: checks.format_scalar(checks.q_add(checks.parse_scalar(t)[:2], (Fraction(1, 7), 0)), checks.parse_scalar(t)[2])  # noqa: E731
    bad = [
        corrupt(e, "inversive", [bumped(e["inversive"][0])] + e["inversive"][1:]),
        corrupt(e, "curvature", bumped(e["curvature"])),
        corrupt(e, "radius", bumped(e["radius"])),
        corrupt(e, "center", [e["center"][0], bumped(e["center"][1])]),
    ]
    for raw in bad:
        with pytest.raises(CheckFailed):
            checks.check_exact_entry(raw)


def test_halfspace_entry_check():
    raw = {"inversive": ["0", "1", "1", "1"], "curvature": "0",
           "halfspace": {"normal": ["0", "1"], "offset": "1"}}
    checks.check_exact_entry(raw)
    with pytest.raises(CheckFailed):
        checks.check_exact_entry(corrupt(raw, "halfspace", {"normal": ["0", "1"], "offset": "2"}))
    with pytest.raises(CheckFailed):
        checks.check_exact_entry(corrupt(raw, "halfspace", {"normal": ["1", "0"], "offset": "1"}))


def test_depth_counts_need_depth_order():
    assert checks.depth_counts([{"depth": 0}, {"depth": 1}, {"depth": 1}]) == [1, 2]
    with pytest.raises(CheckFailed):
        checks.depth_counts([{"depth": 0}, {"depth": 1}, {"depth": 0}])


def test_float_twin_check(tmp_path):
    levels = workloads._exact_levels(ballpack, "octahedron", SEEDS["octahedron"], 2)
    out = tmp_path / "float.json"
    rc, text = workloads.cli_call(ballpack, [
        "cluster", "--solid", "octahedron", f"--initial={SEEDS['octahedron']}",
        "--depth", "2", "--mode", "float", "--out", str(out),
    ])
    assert rc == 0, text
    entries = workloads.load_entries(out)
    checks.check_float_twin(entries, levels, workloads.FLOAT_REL)
    i = max(range(len(entries)), key=lambda j: entries[j]["depth"])
    off = corrupt(entries[i], "curvature", entries[i]["curvature"] * (1 + 1e-6))
    with pytest.raises(CheckFailed):
        checks.check_float_twin(entries[:i] + [off] + entries[i + 1:], levels, workloads.FLOAT_REL)
    with pytest.raises(CheckFailed):
        checks.check_float_twin(entries[:-1], levels, workloads.FLOAT_REL)


def test_svg_check(tmp_path):
    entries = exact_entries("tetrahedron", 2, tmp_path)
    svg = ballpack.render_svg(ballpack.from_json((tmp_path / "tetrahedron.json").read_text()))
    checks.check_svg(svg, entries)
    first = svg.index("<circle ")
    dropped = svg[:first] + svg[svg.index("\n", first) + 1:]
    with pytest.raises(CheckFailed):
        checks.check_svg(dropped, entries)


# -- verify -------------------------------------------------------------------


def test_verify_output_check():
    out = ("packing: ok (12 balls, 66 pairs)\ndescartes: ok (8 windows, max relative residual 0)\n"
           "flags: ok (120 flags, max relative residual 0)\n")
    checks.check_verify_output(0, out, 12, 120)
    checks.check_descartes_output(0, out)
    with pytest.raises(CheckFailed):
        checks.check_verify_output(0, out, 13, 120)
    with pytest.raises(CheckFailed):
        checks.check_verify_output(0, out.replace("66 pairs", "65 pairs"), 12, 120)
    with pytest.raises(CheckFailed):
        checks.check_verify_output(0, out, 12, 24)
    with pytest.raises(CheckFailed):
        checks.check_verify_output(1, out, 12, 120)
    with pytest.raises(CheckFailed):
        checks.check_descartes_output(0, out.replace("8 windows", "0 windows"))


def test_planted_ball_is_caught(tmp_path):
    entries = exact_entries("octahedron", 1, tmp_path)
    disk = next(e for e in entries if "center" in e and not e["curvature"].startswith("-"))
    ball = workloads.planted_ball(disk)
    checks.check_exact_entry(ball)
    payload = json.loads((tmp_path / "octahedron.json").read_text())
    payload["entries"].insert(3, ball)
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(payload, ensure_ascii=False))
    rc, out = workloads.cli_call(ballpack, ["verify", "--in", str(planted), "--checks", "packing"])
    checks.check_planted_output(rc, out, 3)
    with pytest.raises(CheckFailed):
        checks.check_planted_output(rc, out, 4)
    with pytest.raises(CheckFailed):
        checks.check_planted_output(0, out, 3)


# -- the benchmark's own contract ----------------------------------------------


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_nests_spans_and_restores_the_program(tmp_path):
    original = ballpack.cli.classify_pair
    tracer = tracing.Tracer()
    tracer.install()
    doc = tmp_path / "tetra.json"
    rc, _ = workloads.cli_call(ballpack, ["project", "--solid", "tetrahedron", "--out", str(doc)])
    assert rc == 0
    rc, _ = workloads.cli_call(ballpack, ["verify", "--in", str(doc)])
    assert rc == 0
    tracer.uninstall()
    assert ballpack.cli.classify_pair is original
    assert ballpack.lorentz.classify_pair is original

    names = {s[1] for s in tracer.spans}
    assert {"cli.project_s", "cli.verify_s", "packings.project_s",
            "lorentz.classify_pair_s", "relations.flag_relation_s"} <= names
    assert tracer.counts["pairs"] >= 6
    spans = {s[0]: s for s in tracer.spans}
    for sid, _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
    roots = sum(end - start for _, _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(tracer.self_time.values()) == pytest.approx(roots)
