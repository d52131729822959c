import pytest

import skeinseq.models as models
from skeinseq.complexes import CONV_FLOER, ChainComplex, Generator, UHomology, _window_dims, collapse_all, collapse_pairs
from skeinseq.models import (
    MODEL_NAMES,
    ActionSpec,
    ModelComplex,
    build_model,
    canonical_fg,
    run_model_suite,
    top_homology_table,
    verify_action,
)
from skeinseq.poly import HALF, VarSet, parse_poly
from test_khovanov import _assert_rebuilds


def test_unknown_model():
    with pytest.raises(KeyError):
        build_model("no_such_model")


def test_model_shapes():
    assert build_model("k_nonori").complex.n == 2
    assert build_model("k_ori").complex.n == 4
    assert build_model("l_nonori").complex.n == 8
    assert build_model("l_ori").complex.n == 16
    assert build_model("trefoil_cfl").complex.n == 3
    assert build_model("z11_2").complex.n == 4


def test_k_nonori_arrow():
    m = build_model("k_nonori")
    assert list(m.complex.diff) == [("f", "g")]
    assert str(m.complex.diff[("f", "g")]) == "w+z"


def test_diff_view_rebuilds_the_columns_of_every_model():
    for name in MODEL_NAMES:
        _assert_rebuilds(build_model(name).complex)


def test_every_model_d2_before_and_after_collapse():
    for name in MODEL_NAMES:
        m = build_model(name)
        assert m.complex.verify_d2() == []
        assert collapse_pairs(m.complex).verify_d2() == []
        assert collapse_all(m.complex).verify_d2() == []


def test_suite_all_green():
    rows = run_model_suite()
    bad = [r for r in rows if not r[1]]
    assert bad == []
    assert len(rows) >= 40


def test_top_tables_and_patterns():
    t = top_homology_table(build_model("l_nonori"))
    assert len(t.vectors) == 4 and t.canonical is not None
    t = top_homology_table(build_model("l_ori"))
    assert len(t.vectors) == 4 and t.canonical is not None
    t = top_homology_table(build_model("k_ori"))
    assert len(t.vectors) == 2
    assert sorted(map(sorted, t.basis)) == [["ax", "by"], ["ay", "bx"]]


def test_l_nonori_window_consistency():
    # the collapsed homology is recomputed at two window depths inside
    # UHomology construction; reaching here means both agreed
    hom = UHomology(collapse_all(build_model("l_nonori").complex))
    assert hom.free_rank == 8 and not hom.torsion


def test_l_ori_top_alex_split():
    t = top_homology_table(build_model("l_ori"))
    assert t.canonical is not None
    by_name = dict(t.canonical)
    # a,d share one alexander class; b,c the other
    def alex(vec):
        vals = set()
        cx = collapse_pairs(build_model("l_ori").complex)
        for i, g in enumerate(t.top_gens):
            if (vec >> i) & 1:
                vals.add(cx.gen(g).alex2)
        assert len(vals) == 1
        return vals.pop()

    assert alex(by_name["a"]) == alex(by_name["d"])
    assert alex(by_name["b"]) == alex(by_name["c"])
    assert alex(by_name["a"]) != alex(by_name["b"])


def test_canonical_fg():
    cp = canonical_fg(build_model("k_nonori"))
    assert cp.theta == "g" and cp.f == frozenset({"f"}) and cp.g == frozenset({"g"})
    cp = canonical_fg(build_model("k_ori"))
    assert cp.theta == "f"
    assert cp.f == frozenset({"ay", "bx"}) and cp.g == frozenset({"ax", "by"})


def test_canonical_fg_unsatisfiable():
    # zero differential: every class is killed by every action, no f exists
    vs = VarSet(("z", "w"), (HALF, HALF))
    gens = [Generator("f", 0, None, 1), Generator("g", 0, None, 0)]
    cx = ChainComplex(vs, gens, {}, CONV_FLOER, {"1": ("z", "w")})
    fake = ModelComplex("fake", cx, kind="nonori")
    with pytest.raises(ArithmeticError):
        canonical_fg(fake)


def test_z11_2_actions_verified():
    m = build_model("z11_2")
    for action in ("A_kappa", "A_lambda"):
        rep = verify_action(m, action)
        assert rep.ok, rep.checks
    with pytest.raises(KeyError):
        verify_action(m, "A_mu")


def test_l_ori_top_actions_via_public_op():
    m = build_model("l_ori")
    for name in ("A12", "B23", "A23", "A13"):
        rep = verify_action(m, name)
        assert rep.ok, rep.checks


def test_z11_2_perturbed_action_fails():
    m = build_model("z11_2")
    spec = m.actions["A_kappa"]
    # drop one arrow: the square identity breaks and the report says so
    m.actions["A_kappa"] = ActionSpec(
        spec.name, spec.kind, spec.entries[1:], spec.endpoints, spec.dh
    )
    rep = verify_action(m, "A_kappa")
    assert not rep.ok
    failing = [label for label, ok, _ in rep.checks if not ok]
    assert failing


def test_path_identity_and_perturbation():
    # two-generator complex with an action whose anticommutator is U_z + U_w
    vs = VarSet(("z", "w"), (HALF, HALF))
    gens = [Generator("f", 0, None, 1), Generator("g", 0, None, 0)]
    diff = {("f", "g"): parse_poly(vs, "z+w")}
    cx = ChainComplex(vs, gens, diff, CONV_FLOER, {"1": ("z", "w")})
    good = ActionSpec("A_path", "path", (("g", "f", "z+w"),), ("z", "w"))
    m = ModelComplex("synthetic_path", cx, {"A_path": good})
    rep = verify_action(m, "A_path")
    path_checks = [ok for label, ok, _ in rep.checks if label == "path anticommutator"]
    assert path_checks == [True]
    # deleting half the arrow breaks the identity, and the report carries it
    m.actions["A_path"] = ActionSpec("A_path", "path", (("g", "f", "z"),), ("z", "w"))
    rep = verify_action(m, "A_path")
    path_checks = [(ok, detail) for label, ok, detail in rep.checks
                   if label == "path anticommutator"]
    assert path_checks[0][0] is False
    assert path_checks[0][1]  # offending entries are reported


def test_trefoil_cfl_values():
    hom = UHomology(build_model("trefoil_cfl").complex)
    assert hom.free_rank == 1 and hom.torsion == [1]
    table = hom.by_grading()
    assert sum(free for (free, _) in table.values()) == 1


def test_k_ori_slice_dims_rank_two():
    cx = collapse_pairs(build_model("k_ori").complex)
    assert _window_dims(cx, -3) == {(d,): 2 for d in range(-3, 1)}


def test_suite_builds_each_shared_piece_once(monkeypatch):
    """run_model_suite collapses each model once, builds each top table once
    (l_ori's A23 checks read it too) and the z11_2 collapsed-ring checks
    once for both loop actions."""
    calls = {"collapse_pairs": [], "top_homology_table": [], "_z11_checks": []}
    for attr, seen in calls.items():
        def counted(arg, fn=getattr(models, attr), seen=seen):
            seen.append(arg)
            return fn(arg)
        monkeypatch.setattr(models, attr, counted)
    assert all(ok for _, ok, _ in run_model_suite())
    assert len(calls["collapse_pairs"]) == len(MODEL_NAMES)
    assert sorted(m.name for m in calls["top_homology_table"]) == [
        "k_nonori", "k_ori", "l_nonori", "l_ori"]
    assert [m.name for m in calls["_z11_checks"]] == ["z11_2"]


def test_z11_checks_follow_a_changed_loop_action():
    """The z11_2 checks kept on the model are rebuilt when a loop action
    changes after a first verify_action."""
    m = build_model("z11_2")
    assert verify_action(m, "A_kappa").ok
    spec = m.actions["A_kappa"]
    # without ay -> ax the kernel of A_kappa on C0 changes
    entries = tuple(e for e in spec.entries if e[:2] != ("ay", "ax"))
    m.actions["A_kappa"] = ActionSpec(spec.name, spec.kind, entries, spec.endpoints, spec.dh)
    fresh = build_model("z11_2")
    fresh.actions["A_kappa"] = m.actions["A_kappa"]
    rep = verify_action(m, "A_kappa")
    assert rep.checks == verify_action(fresh, "A_kappa").checks
    assert not [ok for label, ok, _ in rep.checks if label == "ker A_kappa on C0 rank 1"][0]
