import contextlib
import copy
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skeinseq.cli
import skeinseq.complexes
import skeinseq.infer
import skeinseq.spectral
from skeinseq import khovanov as kh
from skeinseq import serde
from skeinseq.cli import main
from skeinseq.complexes import MAX_EXPANSION_SLOTS, ChainComplex
from skeinseq.umod import ModuleDecomposition
from test_complexes import reference_decomposition
from test_infer import _grouped_page, _one_loop_suffixes
from test_khovanov import reference_cube, torus_2

TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
HOPF = "PD[X(1,3,2,4),X(3,1,4,2)]"
FIG8 = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kh_minus_table(capsys):
    code, out, err = run(
        capsys, "kh", "--pd", TREFOIL, "--mirror", "--flavor", "minus"
    )
    assert code == 0
    assert "# free_rank\t3" in out
    assert "# rank_over_U\t6" in out


def test_kh_minus_table_is_the_unreduced_one(capsys, monkeypatch):
    """The minus table equals the one read off a presentation of the whole
    unreduced cube, byte for byte."""
    diagrams = [kh.parse_pd(TREFOIL), kh.add_kink(kh.parse_pd(TREFOIL), 2),
                kh.cyclic_knot(5), kh.connect_sum(kh.parse_pd(TREFOIL), kh.parse_pd(TREFOIL)),
                kh.unlink(3)]
    for d in diagrams:
        pd = "PD[%s]" % ",".join(["X(%d,%d,%d,%d)" % c for c in d.crossings]
                                 + ["U"] * d.free_loops)
        outs = []
        for homology in (skeinseq.cli.UHomology, reference_decomposition):
            monkeypatch.setattr(skeinseq.cli, "UHomology", homology)
            for fmt in ("tsv", "json"):
                code, out, err = run(capsys, "kh", "--pd", pd, "--out", fmt)
                assert code == 0
                outs.append(out)
        assert outs[:2] == outs[2:]


def test_kh_minus_checks_the_unreduced_cube_mod_u(capsys, monkeypatch):
    # a homology that lost every summand fails the mod-u check of the cube
    monkeypatch.setattr(skeinseq.cli, "UHomology", lambda cx: ModuleDecomposition([]))
    code, out, err = run(capsys, "kh", "--pd", TREFOIL, "--flavor", "minus")
    assert code == 3 and out == ""
    assert err.startswith("internal invariant failure: mod-u dimension mismatch")


def test_kh_reduced_requires_basepoint(capsys):
    code, out, err = run(capsys, "kh", "--pd", TREFOIL, "--flavor", "reduced")
    assert code == 2
    assert "basepoint" in err


def test_kh_parse_error(capsys):
    code, out, err = run(capsys, "kh", "--pd", "PD[]")
    assert code == 2


def test_kh_json_output(capsys):
    code, out, err = run(
        capsys, "kh", "--pd", TREFOIL, "--flavor", "hat", "--out", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 6


def test_deterministic_output(capsys):
    outs = set()
    for _ in range(2):
        code, out, err = run(capsys, "kh", "--pd", TREFOIL, "--flavor", "minus")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_swap_and_mirror_flags(capsys):
    code1, out1, _ = run(capsys, "kh", "--pd", TREFOIL, "--flavor", "hat")
    code2, out2, _ = run(capsys, "kh", "--pd", TREFOIL, "--flavor", "hat", "--mirror")
    assert code1 == code2 == 0
    assert "# total\t6" in out1 and "# total\t6" in out2
    assert out1 != out2


def test_swap_resolutions_flag_is_gone(capsys):
    """Exchanging the smoothings is mirroring: --mirror is the one flag."""
    with pytest.raises(SystemExit) as exit_info:
        main(["kh", "--pd", TREFOIL, "--swap-resolutions"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --swap-resolutions" in capsys.readouterr().err


def test_parser_reused_across_calls(capsys):
    """main builds its parser once; each call still reads only its own argv."""
    calls = [
        ("kh", "--pd", TREFOIL, "--flavor", "hat", "--mirror"),
        ("kh", "--pd", TREFOIL, "--flavor", "hat"),
        ("kh", "--pd", TREFOIL, "--flavor", "hat", "--out", "json"),
        ("kh", "--pd", TREFOIL, "--flavor", "hat"),
        ("kh", "--pd", TREFOIL, "--flavor", "minus", "--mirror"),
        ("kh", "--pd", TREFOIL, "--flavor", "minus"),
    ]
    together = [run(capsys, *argv) for argv in calls]
    parser = skeinseq.cli.build_parser()
    with pytest.raises(SystemExit):  # an argparse error leaves the parser usable
        main(["kh", "--flavor", "nonsense"])
    assert "invalid choice" in capsys.readouterr().err
    together += [run(capsys, *argv) for argv in calls]
    assert skeinseq.cli.build_parser() is parser
    separate = []
    for argv in calls:
        skeinseq.cli.build_parser.cache_clear()  # as in a new process
        separate.append(run(capsys, *argv))
    assert skeinseq.cli.build_parser() is not parser
    assert together == separate + separate
    assert len({out for _, out, _ in separate}) == 5  # the plain hat call repeats
    assert all(code == 0 for code, _, _ in separate)


def test_kh_and_ss_read_the_columns_only(tmp_path, capsys, monkeypatch):
    """kh in every flavour and ss on a dumped cube print the same with the
    id-keyed diff view, Generator and the cube's id speller patched to raise:
    no step of theirs spells the view, builds a Generator or a cube id."""
    d = kh.add_kink(kh.cyclic_knot(5), 1)
    pd = "PD[%s]" % ",".join("X(%d,%d,%d,%d)" % c for c in d.crossings)
    cc = kh.ckh(d)
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(serde.dump_complex(cc.complex, cc.levels)))
    runs = [["kh", "--pd", pd, "--flavor", flavor, "--basepoint", "1", "--out", fmt]
            for flavor in skeinseq.cli.FLAVORS for fmt in ("tsv", "json")]
    runs += [["ss", "--in", str(path), "--out", fmt] for fmt in ("tsv", "json")]
    want = [run(capsys, *argv) for argv in runs]
    assert all(code == 0 for code, _, _ in want)

    def spelled(*args):
        raise AssertionError("spelled")

    monkeypatch.setattr(ChainComplex, "diff", property(spelled))
    for module in (kh, skeinseq.complexes):
        monkeypatch.setattr(module, "Generator", spelled)
    monkeypatch.setattr(kh, "_vertex_ids", spelled)
    fresh = kh.ckh(d).complex
    for view in ("diff", "gens", "ids"):
        with pytest.raises(AssertionError, match="spelled"):
            getattr(fresh, view)
    assert [run(capsys, *argv) for argv in runs] == want


def _crossing_arcs(d):
    return sorted({a for cr in d.crossings for a in cr})


def _kinked_diagram(rng, max_crossings=6):
    """A seeded diagram with first Reidemeister kinks: a trefoil, Hopf link
    or figure-eight, maybe summed with a mirror trefoil or joined by a curl
    that is a whole component, then kinks on random arcs (often on the last
    kink's loop arc, so they nest), every crossing turned by 0-3 slots (one
    slot is a crossing change, two the same crossing: a kink lands in any
    two adjacent slots, (3, 0) too), and sometimes a free loop."""
    d = kh.parse_pd(rng.choice((TREFOIL, HOPF, FIG8)))
    if rng.random() < 0.3 and len(d.crossings) <= max_crossings - 3:
        d = kh.connect_sum(d, kh.mirror(kh.parse_pd(TREFOIL)))
    if rng.random() < 0.3:
        m = max(_crossing_arcs(d)) + 1
        d = kh.LinkDiagram(d.crossings + (rng.choice([(m, m + 1, m + 1, m), (m, m, m + 1, m + 1)]),))
    for _ in range(rng.randrange(1, max(2, max_crossings - len(d.crossings) + 1))):
        arcs = _crossing_arcs(d)
        d = kh.add_kink(d, arcs[-2] if rng.random() < 0.3 else rng.choice(arcs))
    turns = [rng.randrange(4) for _ in d.crossings]
    return kh.LinkDiagram(tuple(cr[t:] + cr[:t] for cr, t in zip(d.crossings, turns)),
                          int(rng.random() < 0.3))


def test_kh_undoes_kinks_to_the_tables_of_the_full_cube(capsys, monkeypatch):
    """kh of a kinked diagram prints, byte for byte, what the full cube of the
    diagram as given prints (ckh(d, arc) with UHomology or flavor_dims), in
    every flavour and both formats, mirrored or not, at the default basepoint
    and on every arc: the loop arcs of the kinks and the arcs that merge away
    too."""
    hopf_every_arc, nested = kh.parse_pd(HOPF), kh.parse_pd(TREFOIL)
    for arc in (1, 2, 3, 4):
        hopf_every_arc = kh.add_kink(hopf_every_arc, arc)
    for _ in range(3):  # each kink on the loop arc of the one before
        nested = kh.add_kink(nested, _crossing_arcs(nested)[-2])
    rng = random.Random(30)
    diagrams = [hopf_every_arc, nested] + [_kinked_diagram(rng) for _ in range(10)]
    undo_kinks = kh.undo_kinks
    seen = dict.fromkeys(("(3, 0)", "nested", "free loop", "moved", "moved to a loop"), 0)
    for d in diagrams:
        free = undo_kinks(d)[0]
        seen["(3, 0)"] += any(cr[3] == cr[0] for cr in d.crossings)
        seen["nested"] += len(d.crossings) - len(free.crossings) > sum(
            any(cr[s] == cr[s - 3] for s in range(4)) for cr in d.crossings)
        seen["free loop"] += free.free_loops > d.free_loops
        pd = "PD[%s]" % ",".join(["X(%d,%d,%d,%d)" % c for c in d.crossings]
                                 + ["U"] * d.free_loops)
        for k, arc in enumerate([None] + list(d.arcs)):
            if arc is not None:
                moved = undo_kinks(d, arc)[1]
                seen["moved"] += moved != arc
                seen["moved to a loop"] += moved < 0 < arc
            for flavor in skeinseq.cli.FLAVORS[:2 if arc is None else 3]:
                argv = ["kh", "--pd", pd, "--flavor", flavor, "--out", ("tsv", "json")[k % 2]]
                argv += ([] if arc is None else ["--basepoint=%d" % arc]) + ["--mirror"] * (k % 3 == 1)
                got = run(capsys, *argv)
                monkeypatch.setattr(kh, "undo_kinks", lambda d, basepoint: (d, basepoint))
                want = run(capsys, *argv)
                monkeypatch.undo()
                assert got == want and got[0] == 0, (pd, arc, flavor)
    assert all(seen.values()), seen


def test_ss_roundtrip(tmp_path, capsys):
    doc = {
        "variables": [{"name": "u", "unit": "1/2"}],
        "convention": "floer",
        "generators": [
            {"id": "a", "h": 0, "filtration": 0},
            {"id": "b", "h": 0, "filtration": 3},
        ],
        "diff": [{"from": "a", "to": "b", "poly": "u"}],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ss", "--in", str(path), "--max-r", "4")
    assert code == 0
    assert "# converge\tpass" in out
    lines = [l for l in out.splitlines() if l.startswith("4\t")]
    assert lines  # page four is reported


def test_ss_decreasing_filtration_reindexed(tmp_path, capsys):
    doc = {
        "variables": [{"name": "u", "unit": "1/2"}],
        "convention": "floer",
        "generators": [
            {"id": "a", "h": 0, "filtration": 3},
            {"id": "b", "h": 0, "filtration": 0},
        ],
        "diff": [{"from": "a", "to": "b", "poly": "u"}],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ss", "--in", str(path))
    assert code == 0
    assert "# converge\tpass" in out


def test_ss_pairs_once(tmp_path, capsys, monkeypatch):
    cc = kh.ckh(kh.mirror(kh.parse_pd("PD[X(1,3,2,4),X(3,1,4,2)]")))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(serde.dump_complex(cc.complex, cc.levels)))
    calls = []
    analyze = skeinseq.cli.analyze

    def counting(fc):
        calls.append(fc)
        return analyze(fc)

    # ss calls analyze from cli; pages and converge would call it in spectral
    monkeypatch.setattr(skeinseq.cli, "analyze", counting)
    monkeypatch.setattr(skeinseq.spectral, "analyze", counting)
    code, out, err = run(capsys, "ss", "--in", str(path))
    assert code == 0
    assert len(calls) == 1
    assert "# constraints\tpass\n# converge\tpass\n" in out
    # the 67-line table printed when ss paired the complex three times
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "13871b8c26b44b417c62d2a5c837de34d3809838aee46654cc32ab5e786afae3"
    )


def test_ss_rejects_nonzero_d_squared(tmp_path, capsys):
    doc = {
        "variables": [],
        "convention": "kh",
        "generators": [
            {"id": "a", "h": 0, "q": 0, "filtration": 0},
            {"id": "b", "h": 1, "q": 0, "filtration": 1},
            {"id": "c", "h": 2, "q": 0, "filtration": 2},
        ],
        "diff": [{"from": "a", "to": "b", "poly": "1"},
                 {"from": "b", "to": "c", "poly": "1"}],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ss", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "does not square to zero" in err and "from a to c" in err


def test_ss_refuses_two_variables_before_the_d2_check(tmp_path, capsys, monkeypatch):
    """A document over two variables is refused before verify_d2 multiplies
    them out; a document without levels is still refused for that first."""
    def no_d2(self):
        raise AssertionError("d^2 checked on a document the engine refuses")

    monkeypatch.setattr(ChainComplex, "verify_d2", no_d2)
    gens = [{"id": "a", "h": 0, "filtration": 0}, {"id": "b", "h": 0, "filtration": 1}]
    doc = {"variables": [{"name": "u"}, {"name": "v"}], "generators": gens,
           "diff": [{"from": "a", "to": "b", "poly": "u+v"}]}
    path = tmp_path / "uv.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "ss", "--in", str(path)) == (
        2, "", "error: the spectral engine works over F2 or a single F2[u]\n")
    for g in gens:
        del g["filtration"]
    path.write_text(json.dumps(doc))
    assert run(capsys, "ss", "--in", str(path)) == (
        2, "", "error: the ss input needs filtration levels\n")


@pytest.mark.parametrize("flag", ["--max-r", "--truncation"])
def test_ss_refuses_a_negative_window_option_before_reading(tmp_path, capsys, monkeypatch, flag):
    """A negative --max-r or --truncation exits 2 before the input is read;
    0 still means the default."""
    cc = kh.ckh(kh.parse_pd(TREFOIL))
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(serde.dump_complex(cc.complex, cc.levels)))
    reads = count_calls(monkeypatch, serde.read_json)
    for value in ("-1", "-50"):
        assert run(capsys, "ss", "--in", str(path), flag, value) == (
            2, "", "error: --max-r and --truncation must be at least 0\n")
    assert reads == []
    code, out, err = run(capsys, "ss", "--in", str(path), flag, "0")
    assert code == 0 and err == "" and len(reads) == 1
    assert out == run(capsys, "ss", "--in", str(path))[1]


def dense_floer_doc(n):
    """Three levels g0_* -> g1_* -> g2_* of n generators each, every entry 1,
    so d^2(s, t) is n mod 2 for every s and t."""
    gens = [{"id": "g%d_%d" % (lv, i), "h": -lv, "filtration": lv}
            for lv in range(3) for i in range(n)]
    diff = [{"from": "g%d_%d" % (lv, i), "to": "g%d_%d" % (lv + 1, j), "poly": "1"}
            for lv in range(2) for i in range(n) for j in range(n)]
    return {"variables": [{"name": "u", "unit": "1/2"}], "convention": "floer",
            "generators": gens, "diff": diff}


def test_ss_dense_three_level_documents(tmp_path, capsys):
    """Every entry of d^2 is nonzero at 31 generators per level, and d^2 is
    zero at 30; the check costs the entries, not the 2-paths."""
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(dense_floer_doc(31)))
    code, out, err = run(capsys, "ss", "--in", str(path))
    assert code == 2 and out == ""
    assert err.endswith("d^2 has 961 nonzero entries, the first is 1 from g0_0 to g2_0\n")
    path.write_text(json.dumps(dense_floer_doc(30)))
    code, out, err = run(capsys, "ss", "--in", str(path))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["r\tq_rel\th_rel\tdim\ttorsion-profile", "1\t0\t0\t90\t-"]
    assert "2\t0\t0\t86\t-" in lines and lines[-1] == "# converge\tpass"


def test_ss_kh_generator_without_q_exits_2(tmp_path, capsys):
    doc = {
        "vars": [],
        "convention": "kh",
        "generators": [
            {"id": "a", "h": 0, "q": 0, "filtration": 0},
            {"id": "b", "h": 0, "filtration": 0},
        ],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ss", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: kh-convention generator 'b' has no q\n"


def test_ss_partial_alex2_exits_2(tmp_path, capsys):
    doc = {
        "variables": [{"name": "u", "unit": "1/2"}],
        "generators": [
            {"id": "a", "h": 0, "alex2": 0, "filtration": 0},
            {"id": "b", "h": 0, "filtration": 1},
        ],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ss", "--in", str(path))
    assert code == 2
    assert "alex2 is given on some generators but not all" in err


def _ss_docs():
    """Valid ss inputs: a kh minus cube, the variable-free reference hat
    cube, a floer complex with an alexander grading, and kh complexes with an
    isolated generator, whose gradings no differential entry checks."""
    d = kh.parse_pd(TREFOIL)
    docs = []
    for cc in (kh.ckh(d), reference_cube(d, "hat")):
        docs.append(serde.dump_complex(cc.complex, cc.levels))
    docs.append({
        "variables": [{"name": "u", "unit": "1/2"}],
        "convention": "floer",
        "generators": [
            {"id": "a", "h": 0, "alex2": 0, "filtration": 0},
            {"id": "b", "h": 0, "alex2": 1, "filtration": 3},
            {"id": "c", "h": 1, "alex2": 1, "filtration": 1},
            {"id": "d", "h": 0, "alex2": 1, "filtration": 2},
        ],
        "diff": [{"from": "a", "to": "b", "poly": "u"},
                 {"from": "c", "to": "d", "poly": "1"}],
    })
    docs.append({
        "variables": [{"name": "u", "unit": "1/2"}],
        "convention": "kh",
        "generators": [
            {"id": "a", "h": 0, "q": 0, "filtration": 0},
            {"id": "b", "h": 1, "q": 2, "filtration": 1},
            {"id": "c", "h": 0, "q": 0, "filtration": 0},
        ],
        "diff": [{"from": "a", "to": "b", "poly": "u"}],
    })
    docs.append({
        "variables": [],
        "convention": "kh",
        "generators": [
            {"id": "a", "h": 0, "q": 0, "filtration": 0},
            {"id": "b", "h": 0, "q": 2, "filtration": 0},
        ],
        "diff": [],
    })
    return docs


SS_DOCS = _ss_docs()
JUNK = st.sampled_from([None, "", "x", "1/2", -3, -1, 0, 1, 2, 5, 1.5, True, [], {}, [0]])


@st.composite
def corrupted_ss_docs(draw):
    """A valid ss document with one to three fields dropped or replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(SS_DOCS)))
    fields = [(g, key) for g in doc["generators"] for key in ("q", "h", "filtration")]
    fields += [(doc, "convention")] + [(e, "poly") for e in doc["diff"]]
    fields += [(v, "unit") for v in doc["variables"]]
    for _ in range(draw(st.integers(1, 3))):
        obj, key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            obj.pop(key, None)
        elif key == "poly":
            obj[key] = draw(st.sampled_from(
                ["", "0", "1", "u", "u^2", "u^-1", "u^x", "v", "u*", "^2", "1+1", 7]))
        elif key in ("convention", "unit"):
            obj[key] = draw(st.sampled_from(["kh", "floer", "1", "1/2", "2"]) | JUNK)
        else:
            obj[key] = draw(JUNK)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(corrupted_ss_docs())
def test_ss_loader_fuzz_exits_cleanly(doc):
    """Whatever a corrupted field does, ss answers or exits 2 (bad input) or
    3 (a failed invariant); no other exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["ss", "--in", path])
    assert code in (0, 2, 3)


def test_ss_fuzz_base_documents_pass(tmp_path, capsys):
    for doc in SS_DOCS:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ss", "--in", str(path))
        assert code == 0 and "# converge\tpass" in out


GEN = {"id": "a", "h": 0, "filtration": 0}
E2 = {"towers": [{"name": "x", "h": 0, "q": 0}]}
TARGET = {"free_rank": 1}


# (tag, command, document, message).  A case is named command-tag-message;
# the tags are fixed, so a case added anywhere renames no other.
MALFORMED = [
    ("doc0", "ss", [1, 2], "a complex must be a JSON object, not an array"),
    ("x", "ss", "x", "a complex must be a JSON object, not a string"),
    ("doc2", "ss", {"generators": 5}, "'generators' must be a JSON array"),
    ("doc3", "ss", {"generators": ["a"]}, "a generator must be a JSON object"),
    ("doc4", "ss", {"generators": [GEN], "diff": [5]}, "a diff entry must be a JSON object"),
    ("doc5", "ss", {"generators": [{"id": "a", "h": [0]}]}, "generator 'a' h must be an integer"),
    ("doc6", "ss", {"variables": [{"name": "u", "unit": "2"}], "generators": [GEN]},
     "unknown unit '2'"),
    ("doc7", "e2", [1], "a page spec must be a JSON object"),
    ("doc8", "e2", {"towers": 5}, "'towers' must be a JSON array"),
    ("doc9", "e2", {"towers": [{"name": "x", "h": 0}]}, "tower 'x' has no 'q'"),
    ("doc10", "target", {"anchors": [[0]]}, "an anchor must be a JSON array"),
    ("doc11", "target", {"actions": {"U": [1]}}, "an entry of action 'U'"),
    ("doc12", "kh", {"crossings": [3]}, "a crossing must be a JSON array"),
    ("doc13", "target", {"basis": ["b", "c", "b"]}, "basis name 'b' appears twice"),
    ("doc14", "target", {"basis": ["b"], "actions": {"U": [["z", "b"]]}},
     "entry ['z', 'b'] of action 'U' names 'z', which is not in 'basis'"),
    # a fractional number or a boolean is refused, not truncated
    ("doc15", "ss", {"generators": [{"id": "a", "h": 0.9, "filtration": 1}]},
     "generator 'a' h must be an integer, not 0.9"),
    ("doc16", "ss", {"generators": [{"id": "a", "h": 0, "filtration": 1.7}]},
     "generator 'a' filtration must be an integer, not 1.7"),
    ("doc17", "ss", {"generators": [{"id": "a", "h": True, "filtration": 0}]},
     "generator 'a' h must be an integer, not True"),
    ("doc18", "ss",
     {"convention": "kh", "generators": [{"id": "a", "h": 0, "q": 1.5, "filtration": 0}]},
     "generator 'a' q must be an integer, not 1.5"),
    ("doc19", "e2", {"towers": [{"name": "x", "h": 0.5, "q": 0}]},
     "tower 'x' h must be an integer, not 0.5"),
    ("doc20", "e2", {"towers": [{"name": "x", "h": 0, "q": 0, "order": False}]},
     "tower 'x' order must be an integer, not False"),
    ("doc21", "target", {"free_rank": 1.5}, "'free_rank' must be an integer, not 1.5"),
    ("doc22", "target", {"free_rank": 0, "torsion": [True]},
     "a torsion order must be an integer, not True"),
    ("doc23", "target", {"anchors": [[0, 0.25, None]]},
     "an anchor q must be an integer, not 0.25"),
    ("doc24", "kh", {"crossings": [[1.9, 2, 2, 1]]}, "an arc label must be an integer, not 1.9"),
    ("doc25", "kh", {"crossings": [], "free_loops": True},
     "'free_loops' must be an integer, not True"),
    ("doc26", "ss", {"generators": [GEN], "diff": [["a", "a", "1"]]},
     "a diff entry must be a JSON object, not an array"),
    ("doc27", "ss", {"generators": [GEN], "diff": [{"from": "a", "to": "a"}]},
     "a diff entry has no 'poly'"),
    ("doc28", "ss", {"generators": [GEN], "diff": [{"from": "a", "to": "z", "poly": "1"}]},
     "entry on unknown generator (a,z)"),
    ("doc29", "ss", {"generators": [GEN], "diff": [{"from": ["a"], "to": "a", "poly": "1"}]},
     "entry on unknown generator (['a'],a)"),
    ("doc30", "ss", {"generators": [GEN], "diff": [{"from": "a", "to": "a", "poly": True}]},
     "unknown variable 'True'"),
    # diff entries: the first malformed entry is named, whatever comes before or after it
    ("doc31", "ss",
     {"generators": [GEN], "diff": [{"from": "a", "to": "z", "poly": "1"}, {"from": "a"}]},
     "a diff entry has no 'to'"),
    ("doc32", "ss", {"generators": [GEN], "diff": [{"from": "a", "to": "a", "poly": "w"}, 5]},
     "unknown variable 'w'"),
]


@pytest.mark.parametrize("cmd, doc, message", [case[1:] for case in MALFORMED],
                         ids=["%s-%s-%s" % (cmd, tag, message)
                              for tag, cmd, _, message in MALFORMED])
def test_malformed_json_exits_2(tmp_path, capsys, cmd, doc, message):
    code, out, err = run(capsys, *reader_argv(tmp_path, cmd, doc))
    assert code == 2
    assert err.startswith("error: ") and message in err


def reader_argv(tmp_path, cmd, doc):
    """The argv that hands doc to one reader: the ss complex, the infer e2
    page or target spec, or the kh --in diagram (the other infer spec valid)."""
    bad, e2, target = tmp_path / "bad.json", tmp_path / "e2.json", tmp_path / "t.json"
    bad.write_text(json.dumps(doc))
    e2.write_text(json.dumps(E2))
    target.write_text(json.dumps(TARGET))
    return {
        "ss": ["ss", "--in", str(bad)],
        "e2": ["infer", "--e2", str(bad), "--target", str(target)],
        "target": ["infer", "--e2", str(e2), "--target", str(bad)],
        "kh": ["kh", "--in", str(bad)],
    }[cmd]


@pytest.mark.parametrize("cmd", ["ss", "e2", "target", "kh"])
def test_oversized_json_exits_2_before_parsing(tmp_path, capsys, monkeypatch, cmd):
    # a sparse file one byte over the limit: refused by its size, never parsed
    argv, bad, load = reader_argv(tmp_path, cmd, {}), tmp_path / "bad.json", json.load

    def guarded(fh, *args, **kwargs):
        assert fh.name != str(bad), "json parsed above the byte limit"
        return load(fh, *args, **kwargs)

    with open(bad, "r+b") as fh:
        fh.truncate(serde.MAX_JSON_BYTES + 1)
    monkeypatch.setattr(json, "load", guarded)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s has %d bytes, above the limit of %d\n" % (
        bad, serde.MAX_JSON_BYTES + 1, serde.MAX_JSON_BYTES)


@pytest.mark.parametrize("cmd, doc, same", [
    ("ss", {"generators": [{"id": "a", "h": 0.0, "filtration": "1"}]},
     {"generators": [{"id": "a", "h": 0, "filtration": 1}]}),
    ("e2", {"towers": [{"name": "x", "h": "0", "q": 0.0}]}, E2),
    ("target", {"free_rank": 1.0}, TARGET),
    ("kh", {"crossings": [[1.0, "2", 2, 1]], "free_loops": 1.0},
     {"crossings": [[1, 2, 2, 1]], "free_loops": 1}),
], ids=["ss-doc0-same0", "e2-doc1-same1", "target-doc2-same2", "kh-doc3-same3"])
def test_integral_floats_and_digit_strings_are_integers(tmp_path, capsys, cmd, doc, same):
    want = run(capsys, *reader_argv(tmp_path, cmd, same))
    assert want[0] == 0
    assert run(capsys, *reader_argv(tmp_path, cmd, doc)) == want


def test_infer_cli(tmp_path, capsys):
    e2 = {"towers": [{"name": "z", "h": 0, "q": -1},
                     {"name": "y", "h": 1, "q": 1},
                     {"name": "x", "h": 3, "q": 5}]}
    target = {"free_rank": 1, "torsion": [1]}
    p1, p2 = tmp_path / "e2.json", tmp_path / "t.json"
    p1.write_text(json.dumps(e2))
    p2.write_text(json.dumps(target))
    code, out, err = run(capsys, "infer", "--e2", str(p1), "--target", str(p2))
    assert code == 0
    assert "# count\t1" in out
    assert "0\t3\tz\tx\t1" in out


def test_infer_resolve_hopf(tmp_path, capsys):
    e2 = {"towers": [{"name": "x", "h": 0, "q": 0}, {"name": "y", "h": 2, "q": 4}]}
    target = {
        "free_rank": 2,
        "basis": ["b", "bd"],
        "actions": {"U2": [["b", "b"], ["bd", "b"], ["bd", "bd"]]},
    }
    p1, p2 = tmp_path / "e2.json", tmp_path / "t.json"
    p1.write_text(json.dumps(e2))
    p2.write_text(json.dumps(target))
    code, out, err = run(capsys, "infer", "--e2", str(p1), "--target", str(p2), "--resolve")
    assert code == 0
    assert "# filtration\tok" in out
    assert "# deeper\tbd\tthan\tb" in out


def no_search(*args):
    raise AssertionError("the search ran")


def test_infer_resolve_survivor_budget(tmp_path, capsys, monkeypatch):
    """Eleven free survivors would mean 11! assignments: exit 2 before the
    search, also when no pattern reaches the target (a page of ten towers);
    without --resolve, or with a basis that is not the free survivors, the
    search runs."""
    e2 = {"towers": [{"name": "t%d" % i, "h": 0, "q": 100 * i} for i in range(11)]}
    names = ["b%d" % i for i in range(11)]
    target = {"free_rank": 11, "basis": names, "actions": {"U2": [["b1", "b0"]]}}
    p1, p2 = tmp_path / "e2.json", tmp_path / "t.json"
    p2.write_text(json.dumps(target))
    monkeypatch.setattr(skeinseq.cli, "enumerate_patterns", no_search)
    for towers in (e2["towers"], e2["towers"][:10]):
        p1.write_text(json.dumps({"towers": towers}))
        code, out, err = run(capsys, "infer", "--e2", str(p1), "--target", str(p2), "--resolve")
        assert (code, out) == (2, "")
        assert err == "error: 11 free survivors to assign: resolving takes at most 8\n"
    monkeypatch.undo()
    code, out, err = run(capsys, "infer", "--e2", str(p1), "--target", str(p2))
    assert code == 0 and "# count\t0" in out
    p2.write_text(json.dumps(dict(target, basis=names + ["b11"])))
    code, out, err = run(capsys, "infer", "--e2", str(p1), "--target", str(p2), "--resolve")
    assert code == 0 and "# count\t0" in out


@pytest.mark.parametrize("target, message", [
    ({"free_rank": -1}, "'free_rank' must be at least 0, not -1"),
    ({"free_rank": 1, "torsion": [0]}, "a torsion order must be at least 1, not 0"),
    ({"free_rank": 1, "torsion": [1, -2]}, "a torsion order must be at least 1, not -2"),
    ({"free_rank": 1, "anchors": [[0, 0, 0]]}, "an anchor order must be at least 1, not 0"),
], ids=["free_rank", "torsion0", "torsion-2", "anchor0"])
def test_infer_refuses_an_impossible_target_before_searching(tmp_path, capsys, monkeypatch,
                                                              target, message):
    monkeypatch.setattr(skeinseq.cli, "enumerate_patterns", no_search)
    code, out, err = run(capsys, *reader_argv(tmp_path, "target", target))
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message


def test_infer_start_page_budget(tmp_path, capsys):
    """Thirteen towers are more than the exhaustive search takes: exit 2."""
    e2 = {"towers": [{"name": "t%d" % i, "h": i, "q": 2 * i} for i in range(13)]}
    p1, p2 = tmp_path / "e2.json", tmp_path / "t.json"
    p1.write_text(json.dumps(e2))
    p2.write_text(json.dumps({"free_rank": 13}))
    code, out, err = run(capsys, "infer", "--e2", str(p1), "--target", str(p2))
    assert code == 2
    assert "start page too large for exhaustive search" in err


def test_infer_candidate_budget_before_any_mask(tmp_path, capsys, monkeypatch):
    """Six towers at (0, 0) and six at (3, 4) give 36 candidate entries for
    d_3, above the budget of 18: exit 2 before any mask is tried."""
    def no_mask(*args):
        raise AssertionError("a mask was tried")

    # the term rank and the components come first; the components but the
    # largest are tabulated, each mask of a component is tested for square-zero
    # and its rank, and one that passes gets its page homology, piece by piece
    for routine in ("_augment", "_pieces", "_tabulate", "_admissible", "_square_zero",
                    "_free_rank", "_page_homology", "_piece_homology"):
        monkeypatch.setattr(skeinseq.infer, routine, no_mask)
    towers = [{"name": "a%d" % i, "h": 0, "q": 0} for i in range(6)]
    towers += [{"name": "b%d" % i, "h": 3, "q": 4} for i in range(6)]
    p1, p2 = tmp_path / "e2.json", tmp_path / "t.json"
    p1.write_text(json.dumps({"towers": towers}))
    p2.write_text(json.dumps({"free_rank": 0}))
    code, out, err = run(capsys, "infer", "--e2", str(p1), "--target", str(p2))
    assert code == 2
    assert "too many candidate entries on page 3" in err


def test_infer_outputs_match_the_one_loop_search(tmp_path, capsys, monkeypatch):
    """Pages of one to four groups of towers, against targets with and without
    anchors and with a basis and actions to resolve: infer with --resolve, in
    TSV and JSON, prints what the one-loop search of every mask prints."""
    rng = random.Random(3536)
    resolved = 0
    for trial in range(24):
        page = _grouped_page(rng, 1 + trial % 4)[:8]
        towers = [{"name": "t%d" % i, "h": h, "q": q} for i, (h, q, _) in enumerate(page)]
        # odd trials: the start page itself, which the zero pattern reaches
        free = len(page) if trial % 2 else max(len(page) - 2 * rng.randrange(1, 3), 1)
        basis = ["b%d" % i for i in range(free)]
        target = {"free_rank": free, "basis": basis, "actions": {"U": [[basis[-1], basis[0]]]}}
        if trial % 2:
            target["anchors"] = [[h, q, None] for h, q, _ in page]
        p1, p2 = tmp_path / "e2.json", tmp_path / "t.json"
        p1.write_text(json.dumps({"towers": towers}))
        p2.write_text(json.dumps(target))
        outs = []
        for search in (skeinseq.infer._Search.suffixes, _one_loop_suffixes):
            monkeypatch.setattr(skeinseq.infer._Search, "suffixes", search)
            outs.append([run(capsys, "infer", "--e2", str(p1), "--target", str(p2), "--resolve",
                             "--out", out) for out in ("tsv", "json")])
        assert outs[0] == outs[1]
        resolved += "# filtration" in outs[0][0][1]
    assert resolved > 15


INFER_PAGES = [
    {"towers": [{"name": "z", "h": 0, "q": -1}, {"name": "y", "h": 1, "q": 1},
                {"name": "x", "h": 3, "q": 5}]},
    {"towers": [{"name": "x", "h": 0, "q": 0}, {"name": "y", "h": 2, "q": 4}]},
]
INFER_TARGETS = [
    {"free_rank": 1, "torsion": [1], "anchors": [[1, 1, None], [3, 5, 1]]},
    {"free_rank": 2, "basis": ["b", "bd"],
     "actions": {"U2": [["b", "b"], ["bd", "b"], ["bd", "bd"]]}},
]
INFER_JUNK = JUNK | st.sampled_from(["b", ["b", "b"], [1, 1, None], 10**6, -10**6])


@st.composite
def corrupted_infer_docs(draw):
    """The text of a valid infer page and target, with one to three fields
    dropped or replaced, and perhaps one document cut short."""
    page = copy.deepcopy(draw(st.sampled_from(INFER_PAGES)))
    target = copy.deepcopy(draw(st.sampled_from(INFER_TARGETS)))
    fields = [(page, "towers")]
    fields += [(t, key) for t in page["towers"] for key in ("name", "h", "q", "order")]
    fields += [(target, key) for key in ("free_rank", "torsion", "anchors", "basis", "actions")]
    lists = [page["towers"]] + [v for v in target.values() if isinstance(v, list)]
    lists += target.get("anchors", []) + target.get("actions", {}).get("U2", [])
    fields += [(seq, i) for seq in lists for i in range(len(seq))]
    for _ in range(draw(st.integers(1, 3))):
        obj, key = draw(st.sampled_from(fields))
        if isinstance(obj, dict) and draw(st.booleans()):
            obj.pop(key, None)
        elif isinstance(obj, dict) or key < len(obj):
            obj[key] = draw(INFER_JUNK)
    texts = [json.dumps(page), json.dumps(target)]
    cut = draw(st.sampled_from([None, 0, 1]))
    if cut is not None:
        texts[cut] = texts[cut][:draw(st.integers(0, len(texts[cut]) - 1))]
    return texts, cut is not None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(corrupted_infer_docs())
def test_infer_loader_fuzz_exits_cleanly(docs):
    """A corrupted page or target is answered (exit 0) or rejected with exit
    2 and a one-line error; a document cut short is always rejected."""
    (page, target), cut = docs
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "e2.json"), os.path.join(tmp, "t.json")]
        for path, text in zip(paths, (page, target)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["infer", "--e2", paths[0], "--target", paths[1], "--resolve"])
    assert code == 2 if cut else code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


def test_infer_fuzz_base_documents_pass(tmp_path, capsys):
    for page in INFER_PAGES:
        for target in INFER_TARGETS:
            p1, p2 = tmp_path / "e2.json", tmp_path / "t.json"
            p1.write_text(json.dumps(page))
            p2.write_text(json.dumps(target))
            code, out, err = run(capsys, "infer", "--e2", str(p1), "--target", str(p2),
                                 "--resolve")
            assert code == 0 and "# count\t" in out


KH_BASES = [
    TREFOIL,
    "PD[X(1,3,2,4),X(3,1,4,2)]",
    "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]",
    "PD[X(1,2,2,1)]",
    "PD[X(1,2,2,3),X(3,4,4,1),U]",
    "U",
]
KH_STRAY = ["U", "", ",", "]", "PD[", "X(1,2,3)", "X(1,2,3,4,5)", "Y(1,2,3,4)",
            "X(a,b,c,d)", "X(-1,2,2,-1)", "X( 5 , 6 , 6 , 5 )", "X(1,2,2,1)"]
KH_LABELS = st.sampled_from([0, -1, -2, 7, 99, 10**9]) | st.integers(1, 8)


def _kh_crossings(draw):
    """The crossings of a base diagram of at most 4 crossings, with up to
    three crossings dropped or repeated over another, labels swapped (which
    keeps every arc twice but may make the diagram nonplanar), or an arc
    relabelled."""
    crossings = [list(c) for c in kh.parse_pd(draw(st.sampled_from(KH_BASES))).crossings]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("drop", "repeat", "swap", "swap", "arc", "label")))
        if not crossings:
            break
        i = draw(st.integers(0, len(crossings) - 1))
        if op == "swap":
            j, a, b = draw(st.integers(0, len(crossings) - 1)), *draw(
                st.tuples(st.integers(0, 3), st.integers(0, 3)))
            crossings[i][a], crossings[j][b] = crossings[j][b], crossings[i][a]
        elif op == "drop":
            crossings.pop(i)
        elif op == "repeat":
            crossings[i] = list(draw(st.sampled_from(crossings)))
        elif op == "arc":  # an arc label that another slot already uses
            crossings[i][draw(st.integers(0, 3))] = draw(
                st.sampled_from([a for c in crossings for a in c]))
        else:
            crossings[i][draw(st.integers(0, 3))] = draw(KH_LABELS)
    return crossings


def _kh_flags(draw):
    flags = ["--flavor", draw(st.sampled_from(skeinseq.cli.FLAVORS))]
    basepoint = draw(st.none() | KH_LABELS)
    if basepoint is not None:
        flags += ["--basepoint", str(basepoint)]
    return flags + draw(st.sampled_from([[], ["--mirror"]]))


def _cut(draw, text):
    """The text, or one time in four a proper prefix of it."""
    if draw(st.integers(0, 3)):
        return text, False
    return text[:draw(st.integers(0, len(text) - 1))], True


@st.composite
def corrupted_pd_texts(draw):
    """PD text of a small diagram with crossings dropped, repeated or
    relabelled, stray tokens added, and perhaps cut short."""
    tokens = ["X(%s)" % ",".join(map(str, c)) for c in _kh_crossings(draw)]
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(KH_STRAY)))
    text, cut = _cut(draw, "PD[%s]" % ",".join(tokens))
    return ["kh", "--pd", text] + _kh_flags(draw), cut


@st.composite
def corrupted_diagram_docs(draw):
    """The JSON text of a small diagram with crossings dropped, repeated or
    relabelled, fields dropped or replaced, and perhaps cut short."""
    doc = {"crossings": _kh_crossings(draw), "free_loops": draw(st.integers(0, 2))}
    fields = [(doc, key) for key in ("crossings", "free_loops")]
    fields += [(doc["crossings"], i) for i in range(len(doc["crossings"]))]
    for _ in range(draw(st.integers(0, 2))):
        obj, key = draw(st.sampled_from(fields))
        if isinstance(obj, dict) and draw(st.booleans()):
            obj.pop(key, None)
        elif isinstance(obj, dict) or key < len(obj):
            obj[key] = draw(JUNK)
    text, cut = _cut(draw, json.dumps(doc))
    return text, _kh_flags(draw), cut


def _exits_cleanly(argv, cut):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 if cut else code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(corrupted_pd_texts())
def test_kh_pd_fuzz_exits_cleanly(case):
    """Corrupted PD text is answered (exit 0) or rejected with exit 2 and a
    one-line error, never an internal failure; text cut short is rejected."""
    _exits_cleanly(*case)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(corrupted_diagram_docs())
def test_kh_diagram_loader_fuzz_exits_cleanly(case):
    """The same for a corrupted kh --in diagram document."""
    text, flags, cut = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _exits_cleanly(["kh", "--in", path] + flags, cut)


def test_kh_fuzz_base_diagrams_pass(tmp_path, capsys):
    for text in KH_BASES:
        for flavor in skeinseq.cli.FLAVORS:
            code, out, err = run(capsys, "kh", "--pd", text, "--flavor", flavor,
                                 "--basepoint", "1" if text != "U" else "-1")
            assert code == 0 and out.startswith("h_rel\tq_rel\t")
            d = kh.parse_pd(text)
            path = tmp_path / "d.json"
            path.write_text(json.dumps({"crossings": [list(c) for c in d.crossings],
                                        "free_loops": d.free_loops}))
            code, out2, err = run(capsys, "kh", "--in", str(path), "--flavor", flavor,
                                  "--basepoint", "1" if text != "U" else "-1")
            assert code == 0 and out2 == out


# The whole `examples` table.  The mirror-hopf row prints the induced matrix,
# which depends on the basis the F2[u] decomposition picks.
EXAMPLES_TSV = (
    "check\tresult\tdetail\n"
    "k_nonori d2=0\tpass\t\n"
    "k_nonori d2=0 collapsed\tpass\t\n"
    "k_ori d2=0\tpass\t\n"
    "k_ori d2=0 collapsed\tpass\t\n"
    "l_nonori d2=0\tpass\t\n"
    "l_nonori d2=0 collapsed\tpass\t\n"
    "l_ori d2=0\tpass\t\n"
    "l_ori d2=0 collapsed\tpass\t\n"
    "trefoil_cfl d2=0\tpass\t\n"
    "trefoil_cfl d2=0 collapsed\tpass\t\n"
    "z11_2 d2=0\tpass\t\n"
    "z11_2 d2=0 collapsed\tpass\t\n"
    "k_nonori homology free rank 2\tpass\t\n"
    "k_nonori theta=g\tpass\t\n"
    "k_nonori top pattern\tpass\t\n"
    "k_ori top rank 2\tpass\t\n"
    "k_ori f=ay+bx g=ax+by theta=f\tpass\t\n"
    "k_ori u injective on top\tpass\t\n"
    "l_nonori top rank 4\tpass\t\n"
    "l_nonori golden pattern\tpass\t\n"
    "l_ori top rank 4\tpass\t\n"
    "l_ori golden pattern\tpass\t\n"
    "l_ori collapsed torsion-free\tpass\t\n"
    "l_ori A23 = B23 + phi2 + phi3\tpass\t\n"
    "l_ori A13 = A12 + A23\tpass\t\n"
    "trefoil_cfl homology F[u] + F[u]/u\tpass\t\n"
    "z11_2 A_kappa loop anticommutator\tpass\t\n"
    "z11_2 A_kappa square vanishes\tpass\t\n"
    "z11_2 A_kappa path anticommutator (collapsed) A_kappa\tpass\t\n"
    "z11_2 A_kappa path anticommutator (collapsed) A_lambda\tpass\t\n"
    "z11_2 A_kappa C0 rank 2\tpass\trank 2\n"
    "z11_2 A_kappa ker A_kappa on C0 rank 1\tpass\trank 1\n"
    "z11_2 A_kappa ker A_lambda on C0 rank 1\tpass\trank 1\n"
    "z11_2 A_kappa ker A_kappa+A_lambda on C0 rank 1\tpass\trank 1\n"
    "z11_2 A_kappa kernel independent of the loop\tpass\t[('A_kappa', [6]), ('A_lambda', [6]), ('A_kappa+A_lambda', [6])]\n"
    "z11_2 A_lambda loop anticommutator\tpass\t\n"
    "z11_2 A_lambda square vanishes\tpass\t\n"
    "z11_2 A_lambda path anticommutator (collapsed) A_kappa\tpass\t\n"
    "z11_2 A_lambda path anticommutator (collapsed) A_lambda\tpass\t\n"
    "z11_2 A_lambda C0 rank 2\tpass\trank 2\n"
    "z11_2 A_lambda ker A_kappa on C0 rank 1\tpass\trank 1\n"
    "z11_2 A_lambda ker A_lambda on C0 rank 1\tpass\trank 1\n"
    "z11_2 A_lambda ker A_kappa+A_lambda on C0 rank 1\tpass\trank 1\n"
    "z11_2 A_lambda kernel independent of the loop\tpass\t[('A_kappa', [6]), ('A_lambda', [6]), ('A_kappa+A_lambda', [6])]\n"
    "unknot hat dim 2\tpass\t\n"
    "mirror trefoil minus free rank 3\tpass\t\n"
    "mirror trefoil hat dim 6\tpass\t\n"
    "mirror trefoil reduced dim 3 in one delta class\tpass\t\n"
    "mirror hopf minus free rank 2\tpass\t\n"
    "mirror hopf component actions equal\tpass\t{(0, 0): 1, (1, 1): 1}\n"
    "mirror hopf cube converges\tpass\t\n"
    "unlink 1 minus rank 2^1 over F[U]\tpass\t\n"
    "unlink 2 minus rank 2^2 over F[U]\tpass\t\n"
    "unlink 3 minus rank 2^3 over F[U]\tpass\t\n"
    "unlink 4 minus rank 2^4 over F[U]\tpass\t\n"
    "# checks\t55\n"
    "# failures\t0\n"
)


def test_examples_suite(capsys):
    code, out, err = run(capsys, "examples")
    assert code == 0
    assert "# failures\t0" in out
    assert out == EXAMPLES_TSV


def count_calls(monkeypatch, fn):
    """Wrap fn wherever a skeinseq module holds it; the list its calls append to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("skeinseq."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_each_command_runs_its_checks(capsys, monkeypatch):
    """examples checks each of its nine F2[u] decompositions against
    brute-force slice dimensions; kh minus and hat check the summands mod u
    once; reduced runs neither check."""
    stability = count_calls(monkeypatch, skeinseq.complexes.check_truncation_stability)
    mod_u = count_calls(monkeypatch, skeinseq.complexes.check_mod_u)
    assert run(capsys, "examples")[0] == 0
    assert len(stability) == 9
    for flavor, checks in (("minus", 1), ("hat", 1), ("reduced", 0)):
        stability.clear()
        mod_u.clear()
        code, out, err = run(capsys, "kh", "--pd", TREFOIL, "--flavor", flavor, "--basepoint", "1")
        assert code == 0 and err == ""
        assert (len(mod_u), len(stability)) == (checks, 0), flavor


def test_diagram_json_input(tmp_path, capsys):
    doc = {"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "kh", "--in", str(path), "--flavor", "hat")
    assert code == 0
    assert "# total\t6" in out


def test_diagram_basepoints_are_refused(tmp_path, capsys):
    """A diagram document that names basepoints exits 2 and points to
    --basepoint, for every flavor and with --basepoint given too."""
    doc = {"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], "basepoints": {"p": 1}}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    for flags in (["--flavor", "hat"], ["--flavor", "minus"],
                  ["--flavor", "reduced", "--basepoint=1"]):
        code, out, err = run(capsys, "kh", "--in", str(path), *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: 'basepoints'") and "--basepoint" in err


def test_oversized_cube_exits_2_before_resolving(capsys, monkeypatch):
    def no_states(*args, **kwargs):
        raise AssertionError("resolve called on an oversized cube")

    monkeypatch.setattr(kh, "_resolver", no_states)
    d = kh.cyclic_knot(31)
    pd = "PD[%s]" % ",".join("X(%d,%d,%d,%d)" % c for c in d.crossings)
    code, out, err = run(capsys, "kh", "--pd", pd, "--flavor", "hat")
    assert code == 2
    assert out == ""
    assert "2^31 = 2147483648 vertices" in err
    assert "limit of %d" % kh.MAX_CUBE_VERTICES in err


@pytest.mark.parametrize("crossings, loops", [(0, 40), (0, 10 ** 12), (9, 5)])
def test_free_loops_count_against_the_cube_limit(capsys, monkeypatch, tmp_path,
                                                  crossings, loops):
    def no_states(*args, **kwargs):
        raise AssertionError("resolve called on an oversized cube")

    monkeypatch.setattr(kh, "_resolver", no_states)
    arcs = [list(c) for c in kh.cyclic_knot(crossings).crossings] if crossings else []
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"crossings": arcs, "free_loops": loops}))
    for flavor in ("minus", "hat"):
        code, out, err = run(capsys, "kh", "--in", str(path), "--flavor", flavor)
        assert code == 2
        assert out == ""
        assert "%d free loops counts as 2^%d vertices" % (loops, crossings + loops) in err
        assert "limit of %d" % kh.MAX_CUBE_VERTICES in err


def test_free_loops_up_to_the_cube_limit_are_admitted(capsys, tmp_path):
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"crossings": [], "free_loops": 13}))
    code, out, err = run(capsys, "kh", "--in", str(path), "--flavor", "hat")
    assert code == 0
    assert out.endswith("# total\t8192\n")


def test_negative_crossing_arc_exits_2(capsys, tmp_path):
    # arc -1 is also the free loop's id: it used to merge the two, total 2 not 4
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"crossings": [[-1, 2, 2, -1]], "free_loops": 1}))
    code, out, err = run(capsys, "kh", "--in", str(path), "--flavor", "hat")
    assert code == 2
    assert out == ""
    assert err.startswith("error: crossing arc -1 is negative")
    path.write_text(json.dumps({"crossings": [[1, 2, 2, 1]], "free_loops": 1}))
    code, out, err = run(capsys, "kh", "--in", str(path), "--flavor", "hat")
    assert code == 0 and out.endswith("# total\t4\n")


@pytest.mark.parametrize("flavor", ["minus", "hat", "reduced"])
def test_nonplanar_edge_exits_2(capsys, flavor):
    # X(1,2,1,2) resolves to one circle both ways: no merge or split
    code, out, err = run(capsys, "kh", "--pd", "PD[X(1,2,1,2)]", "--flavor", flavor,
                         "--basepoint", "1")
    assert code == 2
    assert out == ""
    assert "circle counts differ by 0, not 1" in err


def test_generator_budget_exits_2_before_any_generator(capsys, monkeypatch):
    def no_generators(*args, **kwargs):
        raise AssertionError("generator built on an oversized cube")

    monkeypatch.setattr(kh, "_vertex_ids", no_generators)
    monkeypatch.setattr(kh, "Generator", no_generators)
    pd = "PD[%s]" % ",".join("X(%d,%d,%d,%d)" % c for c in torus_2(13).crossings)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "kh", "--pd", pd, "--flavor", "minus")
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert "has 797163 generators, above the limit of %d" % kh.MAX_CUBE_GENERATORS in err


@pytest.mark.parametrize("flavor", ["minus", "hat", "reduced"])
def test_unknown_basepoint_exits_2_before_resolving(capsys, monkeypatch, flavor):
    def no_states(*args, **kwargs):
        raise AssertionError("states resolved for an unknown basepoint")

    monkeypatch.setattr(kh, "_resolver", no_states)
    code, out, err = run(capsys, "kh", "--pd", TREFOIL, "--flavor", flavor,
                         "--basepoint", "99")
    assert code == 2
    assert out == ""
    assert "basepoint on unknown arc 99" in err


@pytest.mark.parametrize("flavor", ["minus", "hat", "reduced"])
def test_ten_thousand_kinks_on_the_unknot_run_at_once(capsys, flavor):
    # a removal in time linear in the crossings: a quadratic one takes seconds
    n = 10 ** 4
    pd = "PD[%s]" % ",".join("X(%d,%d,%d,%d)" % (2 * k + 1, 2 * k + 2, 2 * k + 2, (2 * k + 3) % (2 * n))
                             for k in range(n))
    want = run(capsys, "kh", "--pd", "U", "--flavor", flavor, "--basepoint=-1")
    t0 = time.perf_counter()
    got = run(capsys, "kh", "--pd", pd, "--flavor", flavor, "--basepoint=%d" % (2 * n - 1))
    assert time.perf_counter() - t0 < 1
    assert got == want and want[0] == 0


def test_kink_with_a_trillion_free_loops_exits_2_at_once(capsys, tmp_path):
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"crossings": [[1, 2, 2, 1]], "free_loops": 10 ** 12}))
    t0 = time.perf_counter()
    for flavor in ("minus", "hat", "reduced"):
        code, out, err = run(capsys, "kh", "--in", str(path), "--flavor", flavor,
                             "--basepoint", "1")
        assert (code, out) == (2, "")
        assert "with %d free loops counts as 2^%d vertices" % (10 ** 12 + 1, 10 ** 12 + 1) in err
        assert "limit of %d" % kh.MAX_CUBE_VERTICES in err
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("pd", ["PD[X(1,2,1,2)]", "PD[X(1,2,1,3),X(3,4,4,2)]"])
def test_no_kink_leaves_a_nonplanar_edge_to_the_cube(capsys, pd):
    # X(1,2,1,2) repeats its arcs in opposite slots, no kink; undoing the kink
    # X(3,4,4,2) leaves it, and ckh refuses it as before
    for flavor in ("minus", "hat", "reduced"):
        code, out, err = run(capsys, "kh", "--pd", pd, "--flavor", flavor, "--basepoint", "1")
        assert (code, out) == (2, "")
        assert "circle counts differ by 0, not 1" in err


@pytest.mark.parametrize("arc", ["99", "-1", "0"])
def test_unknown_basepoint_of_a_kinked_diagram_exits_2(capsys, arc):
    # the basepoint is checked against the diagram as given: -1 would be the
    # free loop that undoing the kink leaves, and is still unknown
    for flavor in ("minus", "hat", "reduced"):
        code, out, err = run(capsys, "kh", "--pd", "PD[X(1,2,2,1)]", "--flavor", flavor,
                             "--basepoint", arc)
        assert (code, out) == (2, "")
        assert err == "error: basepoint on unknown arc %s\n" % arc


def test_unknown_variable_message_is_printed_as_it_is(capsys, tmp_path):
    # a KeyError's message, not its repr in quotes
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"variables": [{"name": "u"}], "generators": [{"id": "a", "h": 0}],
                                "diff": [{"from": "a", "to": "a", "poly": "w"}]}))
    assert run(capsys, "ss", "--in", str(path)) == (2, "", "error: unknown variable 'w'\n")


def test_ss_oversized_expansion_exits_2_quickly(tmp_path, capsys):
    # two isolated generators 10^7 apart: the window would hold 3 * 10^7 slots
    doc = {"variables": [{"name": "u", "unit": "1/2"}],
           "generators": [{"id": "a", "h": 0, "filtration": 0},
                          {"id": "b", "h": 10 ** 7, "filtration": 1}],
           "diff": []}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "ss", "--in", str(path))
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert out == ""
    assert "has 30000018 slots, above the limit of %d" % MAX_EXPANSION_SLOTS in err


def _isolated_doc(top, tail):
    """2075 isolated generators at h = 0 and two at h = top and h = tail:
    the ss window of each generator at h runs from h down to -top - 8."""
    gens = [{"id": "g%d" % i, "h": 0, "filtration": 0} for i in range(2075)]
    gens += [{"id": "top", "h": top, "filtration": 1}, {"id": "tail", "h": tail, "filtration": 2}]
    return {"variables": [{"name": "u", "unit": "1/2"}], "generators": gens, "diff": []}


def test_ss_budget_counts_the_whole_window(tmp_path, capsys):
    """The budget counts the whole window although only its top is built:
    one slot above the limit exits 2 with the message of the count, and a
    window exactly at the limit runs, building a few thousand slots."""
    for tail, slots in ((460, MAX_EXPANSION_SLOTS + 1), (459, MAX_EXPANSION_SLOTS)):
        doc = _isolated_doc(1000, tail)
        cx, levels, _ = serde.load_complex(doc)
        fc = skeinseq.spectral.FilteredComplex(cx, levels)
        assert skeinseq.complexes.expansion_size(cx, fc._lo) == slots
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ss", "--in", str(path))
        if slots > MAX_EXPANSION_SLOTS:
            assert (code, out) == (2, "")
            assert err == ("error: the F2 expansion down to slice value -1008 has %d slots,"
                           " above the limit of %d\n" % (slots, MAX_EXPANSION_SLOTS))
        else:
            assert (code, err) == (0, "")
            assert out.endswith("# converge\tpass\n")
            assert len(fc.cancel_units().expansion().gen) < 12000


def _ss_rows(out):
    """The page and E_inf rows of an ss table, with h and q counted from the
    top of page 1 (the bottom moves with --truncation), and its # lines."""
    rows = [line.split("\t") for line in out.splitlines() if not line.startswith(("#", "r\t"))]
    page1 = [row for row in rows if row[0] == "1"]
    q_top, h_top = (max(int(row[i]) for row in page1) for i in (1, 2))
    table = {(row[0], int(row[1]) - q_top, int(row[2]) - h_top, row[4]): row[3] for row in rows}
    return table, [line for line in out.splitlines() if line.startswith("#")]


def test_ss_truncation_only_extends_the_tables(tmp_path, capsys):
    """ss --truncation 5 reports the --truncation 0 tables on every grade
    that both report, and more grades below them."""
    rng = random.Random(404)
    gens, diff = [], []
    for k in range(30):  # planted floer pieces with an alex2 grading, as in the benchmark
        jump, shift, a2 = rng.randrange(1, 5), rng.randrange(3), rng.randrange(2)
        power = rng.randrange(1, min(jump + 1, 4))
        gens.append({"id": "p%d_a" % k, "h": 0, "alex2": a2, "filtration": shift})
        gens.append({"id": "p%d_b" % k, "h": power - 1, "alex2": (a2 + power) % 2,
                     "filtration": shift + jump})
        diff.append({"from": "p%d_a" % k, "to": "p%d_b" % k, "poly": "u^%d" % power})
    gens.append({"id": "iso", "h": 1, "alex2": 0, "filtration": 0})
    floer = {"variables": [{"name": "u", "unit": "1/2"}], "convention": "floer",
             "generators": gens, "diff": diff}
    cc = kh.ckh(kh.mirror(kh.parse_pd(TREFOIL)))
    levels = {g.gid: 2 * g.h + rng.randrange(2) for g in cc.complex.gens}
    for i, doc in enumerate((floer, serde.dump_complex(cc.complex, cc.levels),
                             serde.dump_complex(cc.complex, levels))):
        path = tmp_path / ("c%d.json" % i)
        path.write_text(json.dumps(doc))
        (code0, out0, _), (code5, out5, _) = (
            run(capsys, "ss", "--in", str(path), "--truncation", t) for t in ("0", "5"))
        assert code0 == code5 == 0
        (rows0, notes0), (rows5, notes5) = _ss_rows(out0), _ss_rows(out5)
        assert notes0 == notes5
        grades0 = {key[1:3] for key in rows0}
        assert {k: v for k, v in rows5.items() if k[1:3] in grades0} == rows0
        assert len(rows5) > len(rows0)
