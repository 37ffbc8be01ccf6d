"""Tests for the DOT and text renderers."""

from repro.bdd import FALSE, TRUE, BddManager, to_dot, to_text


def test_dot_contains_nodes_and_edges():
    mgr = BddManager(["x", "y"])
    f = mgr.and_(mgr.var("x"), mgr.var("y"))
    dot = to_dot(mgr, f, name="g")
    assert dot.startswith("digraph g {")
    assert 'label="x"' in dot
    assert 'label="y"' in dot
    assert "style=dashed" in dot and "style=solid" in dot


def test_dot_terminals_always_present():
    mgr = BddManager(["x"])
    dot = to_dot(mgr, mgr.var("x"))
    assert 'node0 [label="0"' in dot
    assert 'node1 [label="1"' in dot


def test_text_constants():
    mgr = BddManager(["x"])
    assert to_text(mgr, TRUE) == "const 1"
    assert to_text(mgr, FALSE) == "const 0"


def test_text_stable_for_equal_functions():
    mgr = BddManager(["x", "y"])
    f1 = mgr.and_(mgr.var("x"), mgr.var("y"))
    f2 = mgr.and_(mgr.var("y"), mgr.var("x"))
    assert to_text(mgr, f1) == to_text(mgr, f2)


def test_text_mentions_variables():
    mgr = BddManager(["x", "y"])
    text = to_text(mgr, mgr.xor(mgr.var("x"), mgr.var("y")))
    assert "x ?" in text
    assert "root" in text


def test_labels_do_not_depend_on_manager_history():
    fresh = BddManager(["x", "y", "z"])
    used = BddManager(["x", "y", "z"])
    used.or_(used.var("y"), used.var("z"))  # unrelated node, shifts ids
    f_fresh = fresh.and_(fresh.var("x"), fresh.var("y"))
    f_used = used.and_(used.var("x"), used.var("y"))
    assert f_fresh != f_used  # the raw manager ids differ ...
    assert to_text(fresh, f_fresh) == to_text(used, f_used)  # ... labels not
    assert to_dot(fresh, f_fresh) == to_dot(used, f_used)
    assert to_text(fresh, f_fresh) == "n1: y ? 1 : 0\nn0: x ? n1 : 0\nroot n0"


def test_labels_follow_depth_first_order_low_edge_first():
    mgr = BddManager(["x", "y", "z"])
    x, y, z = (mgr.var(v) for v in "xyz")
    f = mgr.or_(mgr.and_(x, y), mgr.and_(mgr.not_(x), z))
    lines = to_text(mgr, f).splitlines()
    assert lines[-1] == "root n0"
    assert "n0: x ? n2 : n1" in lines  # low child z-node first, then y
    dot = to_dot(mgr, f)
    assert dot.index('n0 [label="x"') < dot.index('n1 [label="z"')
    assert dot.index('n1 [label="z"') < dot.index('n2 [label="y"')
